"""Derivative-free (mu, p_pe) optimization, distance search, and sweep rows."""

import math
import re
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from passivekey import keylength, optimizer
from passivekey import (
    AllVacuous,
    DegenerateDetector,
    Observables,
    OptimizationSpec,
    SourceModel,
    max_distance,
    optimize_rate,
    sweep_point,
)

from conftest import make_channel

# deliberately coarse settings keep unit tests fast; accuracy is covered
# by the acceptance suite
FAST = OptimizationSpec(
    coarse_points=(8, 8), refine_rounds=2, refine_points=(5, 5),
    x_grid_points=60,
)
# the grid of the perfbench sweep workload: FAST's, with the default x grid
SWEEP = OptimizationSpec(coarse_points=(8, 8), refine_rounds=2, refine_points=(5, 5))
# observables with a nontriggered gain, for stubs of simulate_observables: a
# row with Q_nt = 0 has no key and calls nothing
GAIN = Observables(Q_t=1e-3, Q_nt=1e-3, E_t=0.01, E_nt=0.01)


class TestOptimizationSpec:
    def test_mu_cap(self, src):
        spec = OptimizationSpec()
        lo, hi = spec.resolved_mu_bounds(src)
        assert lo == 0.01
        assert hi == pytest.approx(0.99, rel=1e-12)

    def test_explicit_bounds_still_capped(self, src):
        spec = OptimizationSpec(mu_bounds=(0.1, 10.0))
        _, hi = spec.resolved_mu_bounds(src)
        assert hi == pytest.approx(0.99, rel=1e-12)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            OptimizationSpec(mu_bounds=(5.0, 10.0)).resolved_mu_bounds(
                SourceModel(mu=0.5, eta_A=0.9, d_A=1e-6))

    @pytest.mark.parametrize("mu_bounds", [(0.01, math.inf), (0.01, 0.5)],
                             ids=["no_mu_max", "mu_max"])
    @pytest.mark.parametrize("eta_A", [0.0, 1e-320, 1.0])
    def test_blind_detector_refused(self, monkeypatch, sec, eta_A, mu_bounds):
        # delta_2 <= delta_1 (or gamma_1 = 1) leaves no decoy bound at any mu:
        # every search refuses the detector before it simulates one row
        calls = []
        for module in (optimizer, keylength):
            monkeypatch.setattr(module, "simulate_observables",
                                lambda *args: calls.append(args))
        src = SourceModel(mu=0.5, eta_A=eta_A, d_A=1e-6)
        spec = replace(FAST, mu_bounds=mu_bounds)
        ch = make_channel(50.0)
        searches = [
            lambda: spec.resolved_mu_bounds(src),
            lambda: optimize_rate(50.0, 1e9, src, ch, sec, spec),
            lambda: max_distance(1e9, src, ch, sec, spec, step_km=50.0),
            lambda: sweep_point(50.0, 1e9, "finite", src, ch, sec, spec),
            lambda: sweep_point(50.0, 1e9, "asymptotic", src, ch, sec, spec),
        ]
        for search in searches:
            with pytest.raises(DegenerateDetector):
                search()
        assert calls == []

    @pytest.mark.parametrize("fields", [
        {"coarse_points": (0, 8)},
        {"coarse_points": (8, 0)},
        {"refine_points": (5, 0)},
        {"x_grid_points": 0},
        {"refine_rounds": -1},
        {"p_pe_bounds": (0.0, 0.5)},
        {"p_pe_bounds": (0.6, 0.5)},
        {"p_pe_bounds": (0.5, 1.0)},
        {"coarse_points": (2.5, 8)},
        {"x_grid_points": 60.0},
        {"refine_rounds": 1.5},
        {"coarse_points": (True, 8)},
        {"refine_points": (5, False)},
        {"x_grid_points": True},
        {"refine_rounds": True},
    ])
    def test_validation(self, fields):
        with pytest.raises(ValueError):
            OptimizationSpec(**fields)

    @pytest.mark.parametrize("x_grid_points", [1, np.int64(1)], ids=["int", "numpy_int"])
    def test_one_point_x_grid_refused(self, x_grid_points):
        # mu and p_pe may be pinned to one value, x may not: it is minimised
        # over, and one point would read the key at x = 0 alone
        with pytest.raises(ValueError, match="x_grid_points must be >= 2"):
            OptimizationSpec(x_grid_points=x_grid_points)
        OptimizationSpec(coarse_points=(1, 1), refine_points=(1, 1), x_grid_points=2)

    @pytest.mark.parametrize("mu_bounds", [(-1.0, 1.0), (0.0, 1.0), (math.nan, 1.0),
                                           (0.1, math.nan), (0.5, 0.1), (0.5, 0.5),
                                           (math.inf, math.inf)])
    def test_mu_bounds_refused_at_construction(self, mu_bounds):
        # refused by the spec, before any grid walk, with the bounds it got
        lo, hi = mu_bounds
        with pytest.raises(ValueError, match=re.escape(
                f"mu bounds must satisfy 0 < min < max, got {lo}, {hi}")):
            OptimizationSpec(mu_bounds=mu_bounds)

    def test_mu_max_may_be_infinite(self):
        assert OptimizationSpec(mu_bounds=(0.2, math.inf)).mu_bounds == (0.2, math.inf)

    @pytest.mark.parametrize("fields, name", [
        ({"coarse_points": (0, 8)}, "coarse_points[0]"),
        ({"coarse_points": (8, 0)}, "coarse_points[1]"),
        ({"refine_points": (0, 5)}, "refine_points[0]"),
        ({"refine_points": (5, 0)}, "refine_points[1]"),
    ])
    def test_refused_count_names_its_place_in_the_pair(self, fields, name):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be >= 1, got 0")):
            OptimizationSpec(**fields)

    def test_numpy_integer_counts_accepted(self):
        spec = OptimizationSpec(coarse_points=(np.int64(8), 8),
                                refine_rounds=np.int32(2))
        assert spec.coarse_points[0] == 8 and spec.refine_rounds == 2


class TestOptimizeRate:
    def test_positive_at_50km(self, src, sec):
        out = optimize_rate(50.0, 1e9, src, make_channel(50.0), sec, FAST)
        assert out.rate > 4e-4
        assert 0.01 <= out.mu <= 0.99
        assert 0.01 <= out.p_pe <= 0.99

    def test_beats_fixed_parameters(self, src, sec):
        from passivekey import key_length, simulate_observables

        ch = make_channel(50.0)
        out = optimize_rate(50.0, 1e9, src, ch, sec, FAST)
        fixed = key_length(src, simulate_observables(src, ch), N=1e9,
                           p_pe=0.5, sec=sec).rate
        assert out.rate >= fixed

    def test_all_vacuous(self, src, sec):
        with pytest.raises(AllVacuous):
            optimize_rate(200.0, 1e6, src, make_channel(200.0), sec, FAST)

    def test_refinement_improves_or_ties_coarse(self, src, sec):
        coarse = OptimizationSpec(coarse_points=(8, 8), refine_rounds=0,
                                  x_grid_points=60)
        a = optimize_rate(50.0, 1e9, src, make_channel(50.0), sec, coarse)
        b = optimize_rate(50.0, 1e9, src, make_channel(50.0), sec, FAST)
        assert b.rate >= a.rate


@pytest.fixture(scope="module")
def fast_reach(src, sec):
    """max_distance with FAST at 16 km steps up to 200 km, by N."""
    return {N: max_distance(N, src, make_channel(0.0), sec, FAST,
                            step_km=16.0, L_max_km=200.0)
            for N in (1e8, 1e10)}


class TestMaxDistance:
    def test_monotone_in_N(self, fast_reach):
        assert 0.0 < fast_reach[1e8] < fast_reach[1e10]

    def test_reach_is_unchanged(self, fast_reach):
        # frozen reach values: a probe that stops at its first positive
        # coarse point answers rate > 0 exactly, so they must not move
        assert fast_reach == {1e8: 75.9375, 1e10: 120.8125}

    def test_zero_when_no_key_anywhere(self, src, sec):
        assert max_distance(1e4, src, make_channel(0.0), sec, FAST,
                            step_km=16.0) == 0.0

    def test_step_validation(self, src, sec):
        with pytest.raises(ValueError):
            max_distance(1e9, src, make_channel(0.0), sec, FAST, step_km=0.0)

    @pytest.mark.parametrize("L_max_km", [-10.0, math.inf, math.nan])
    def test_L_max_validation(self, src, sec, L_max_km):
        # a negative end gives an empty grid, which would read as no key at 0 km
        with pytest.raises(ValueError, match="L_max_km"):
            max_distance(1e9, src, make_channel(0.0), sec, FAST, L_max_km=L_max_km)

    def test_probes_include_last_grid_point(self, src, sec, monkeypatch):
        # with a key everywhere, the scan must reach L_max_km itself, although
        # three steps of 0.1 km sum to more than 0.3
        probed = []

        def recording(s, ch):
            probed.append(ch.L_km)
            return GAIN

        monkeypatch.setattr(optimizer, "simulate_observables", recording)
        monkeypatch.setattr(optimizer, "key_length",
                            lambda *args, **kwargs: SimpleNamespace(rate=1.0))
        d = max_distance(1e9, src, make_channel(0.0), sec, FAST,
                         step_km=0.1, L_max_km=0.3)
        assert probed == [0.0, 0.1, 0.2, 0.3]
        assert d == 0.3

    def test_probe_stops_at_first_positive_point(self, src, sec, monkeypatch):
        # rate > 0 is settled by the first positive coarse point: a probe
        # with a key stops there, a vacuous one walks the coarse grid once,
        # and no probe refines
        mus = np.linspace(*FAST.resolved_mu_bounds(src), FAST.coarse_points[0])
        ppes = np.linspace(*FAST.p_pe_bounds, FAST.coarse_points[1])
        calls, rows = [], []  # rows: the distance of each row's observables

        def observables(s, ch):
            rows.append(ch.L_km)
            return GAIN

        def key_below_1km(s, obs, N, p_pe, sec, grid_points):
            L_km = rows[-1]
            calls.append((L_km, s.mu, p_pe))
            key = L_km < 1.0 and s.mu >= mus[2] and p_pe >= ppes[3]
            return SimpleNamespace(rate=1.0 if key else 0.0)

        monkeypatch.setattr(optimizer, "simulate_observables", observables)
        monkeypatch.setattr(optimizer, "key_length", key_below_1km)
        d = max_distance(1e9, src, make_channel(0.0), sec, FAST, L_max_km=3.0)
        assert d == pytest.approx(1.0, abs=0.1)

        per_probe = Counter(L for L, _, _ in calls)
        k = 2 * FAST.coarse_points[1] + 3 + 1  # (mus[2], ppes[3]), mu-major
        grid = FAST.coarse_points[0] * FAST.coarse_points[1]
        assert len(per_probe) > 2
        assert {n for L, n in per_probe.items() if L < 1.0} == {k}
        assert {n for L, n in per_probe.items() if L >= 1.0} == {grid}
        assert max(per_probe.values()) <= grid
        last_keyed = [c for c in calls if c[0] < 1.0][k - 1]
        assert last_keyed[1:] == (mus[2], ppes[3])


class TestSweep:
    def test_finite_row(self, src, sec):
        row = sweep_point(50.0, 1e9, "finite", src, make_channel(0.0), sec, FAST)
        assert row.status == "ok"
        assert row.rate > 0.0
        assert row.ell == max(float(int(max(row.ell_T, row.ell_B))), 0.0)

    def test_vacuous_row(self, src, sec):
        row = sweep_point(200.0, 1e6, "finite", src, make_channel(0.0), sec, FAST)
        assert (row.L_km, row.N, row.mode, row.status) == (200.0, 1e6, "finite", "vacuous")
        # no key is zero bits, not an unknown number of them
        assert (row.ell_T, row.ell_B, row.ell, row.rate) == (0.0, 0.0, 0.0, 0.0)
        assert all(map(math.isnan, (row.mu_opt, row.p_pe_opt, row.x_opt,
                                    row.e_p_t, row.e_p_nt)))

    def test_asymptotic_row(self, src, sec):
        row = sweep_point(50.0, 1e9, "asymptotic", src, make_channel(0.0), sec, FAST)
        assert (row.L_km, row.N, row.mode, row.status) == (50.0, 1e9, "asymptotic", "ok")
        assert row.rate > 0.0
        assert 0.01 <= row.mu_opt <= 0.99
        # the N -> inf rate has no p_pe, x, finite ell or phase error
        assert all(map(math.isnan, (row.p_pe_opt, row.x_opt, row.ell_T, row.ell_B,
                                    row.ell, row.e_p_t, row.e_p_nt)))

    def test_finite_row_matches_optimize_rate(self, src, sec):
        row = sweep_point(50.0, 1e9, "finite", src, make_channel(0.0), sec, FAST)
        opt = optimize_rate(50.0, 1e9, src, make_channel(0.0), sec, FAST)
        res = opt.result
        x_opt = res.x_opt_T if res.ell_T >= res.ell_B else res.x_opt_B
        assert (row.rate, row.mu_opt, row.p_pe_opt, row.x_opt) == (
            opt.rate, opt.mu, opt.p_pe, x_opt)
        assert (row.ell_T, row.ell_B, row.ell, row.e_p_t, row.e_p_nt) == (
            res.ell_T, res.ell_B, res.ell, res.diagnostics.e_p_t,
            res.diagnostics.e_p_nt)
        assert row.status == "ok"

    @pytest.mark.parametrize("mode", ["finite", "asymptotic"])
    @pytest.mark.parametrize("N", [0.5, math.inf, math.nan])
    def test_bad_N_raises(self, src, sec, mode, N):
        # the asymptotic rate does not use N, but a row still reports it
        with pytest.raises(ValueError, match=re.escape(f"N must be in [1, inf), got {N!r}")):
            sweep_point(50.0, N, mode, src, make_channel(0.0), sec, FAST)

    @pytest.mark.parametrize("mode", ["Finite", "both", ""])
    def test_unknown_mode_raises(self, src, sec, mode):
        # anything but the two modes would otherwise run the finite search
        # and write its own name into the row
        with pytest.raises(ValueError, match="mode"):
            sweep_point(50.0, 1e9, mode, src, make_channel(0.0), sec, FAST)

    @pytest.mark.parametrize("mode", ["finite", "asymptotic"])
    @pytest.mark.parametrize("p_pe", [1.5, 0.0])
    def test_bad_p_pe_override_raises(self, src, sec, mode, p_pe):
        # a pinned p_pe is checked as p_pe bounds in both modes, although the
        # asymptotic rate does not depend on p_pe
        with pytest.raises(ValueError):
            sweep_point(50.0, 1e9, mode, src, make_channel(0.0), sec,
                        replace(FAST, p_pe_bounds=(p_pe, p_pe)))

    def test_asymptotic_row_searches_mu_only(self, src, sec, monkeypatch):
        # coarse mu grid, then refine_rounds x refine_points[0] mu values;
        # the row keeps the first mu with the highest rate
        import numpy as np
        import passivekey.optimizer as opt

        original = opt.asymptotic_rate
        seen = []

        def recording(s, ch, f_EC):
            seen.append((s.mu, original(s, ch, f_EC=f_EC)))
            return seen[-1][1]

        monkeypatch.setattr(opt, "asymptotic_rate", recording)
        row = sweep_point(50.0, 1e9, "asymptotic", src, make_channel(0.0), sec, FAST)
        c, rounds, r = FAST.coarse_points[0], FAST.refine_rounds, FAST.refine_points[0]
        assert len(seen) == c + rounds * r
        assert [mu for mu, _ in seen[:c]] == list(np.linspace(0.01, 0.99, c))
        best = max(rate for _, rate in seen)
        assert row.rate == best
        assert row.mu_opt == next(mu for mu, rate in seen if rate == best)

    def test_asymptotic_row_reads_no_p_pe_axis(self, src, sec):
        # the asymptotic rate has no p_pe: a full axis and a pinned one give
        # the same row, every field
        rows = [sweep_point(50.0, 1e9, "asymptotic", src, make_channel(0.0), sec,
                            replace(FAST, p_pe_bounds=bounds))
                for bounds in ((0.01, 0.99), (0.5, 0.5))]
        assert repr(rows[0]) == repr(rows[1])

    def test_p_pe_override(self, src, sec):
        row = sweep_point(50.0, 1e9, "finite", src, make_channel(0.0), sec,
                          replace(FAST, p_pe_bounds=(0.7, 0.7)))
        assert row.p_pe_opt == pytest.approx(0.7, rel=1e-12)

    def test_equal_p_pe_bounds_are_one_point(self, src, sec, monkeypatch):
        # an axis whose ends are equal is one p_pe value in every mu row of
        # the walk, and gives the row sweep_point gives
        original = optimizer._finite
        axes = []

        def finite(*args):
            evaluate = original(*args)

            def recording(mu, ppes, incumbent):
                axes.append(ppes.tolist())
                return evaluate(mu, ppes, incumbent)

            return recording

        monkeypatch.setattr(optimizer, "_finite", finite)
        grid = dict(coarse_points=(4, 24), refine_rounds=1, refine_points=(3, 7))
        opt = optimize_rate(50.0, 1e9, src, make_channel(0.0), sec,
                            OptimizationSpec(p_pe_bounds=(0.7, 0.7), **grid))
        assert axes == [[0.7]] * (4 + 3)
        row = sweep_point(50.0, 1e9, "finite", src, make_channel(0.0), sec,
                          OptimizationSpec(p_pe_bounds=(0.7, 0.7), **grid))
        assert (opt.rate, opt.mu, opt.p_pe) == (row.rate, row.mu_opt, row.p_pe_opt)


def counting(monkeypatch, *names):
    """Patch each optimizer.<name> with a wrapper that counts its calls.

    calls["points"] counts the points evaluated: one for a key_length call,
    one per p_pe handed to key_lengths.
    """
    calls = Counter()
    for name in names:
        def wrapper(*args, _name=name, _f=getattr(optimizer, name), **kwargs):
            calls[_name] += 1
            if _name in ("key_length", "key_lengths"):
                calls["points"] += np.size(args[3])  # (src, obs, N, p_pe, ...)
            return _f(*args, **kwargs)

        monkeypatch.setattr(optimizer, name, wrapper)
    return calls


# (spec, L_km, N) of the pruning tests: keyed and vacuous rows, near reach
WALKS = pytest.mark.parametrize("spec, L_km, N", [
    (FAST, 0.0, 1e8), (FAST, 50.0, 1e9), (FAST, 100.0, 1e13),
    (FAST, 120.0, 1e10), (FAST, 200.0, 1e6), (OptimizationSpec(), 50.0, 1e9),
    (SWEEP, 160.0, 1e13), (SWEEP, 175.0, 1e13),
], ids=["fast_0km", "fast_50km", "fast_100km", "fast_120km_near_reach",
        "fast_vacuous", "default_50km", "sweep_160km", "sweep_175km_near_reach"])


def searched(monkeypatch, src, sec, spec, L_km, N):
    """(sweep_point row, optimize_rate result or None, points evaluated), with
    every patch made before the call undone after it."""
    calls = counting(monkeypatch, "key_length", "key_lengths")
    row = sweep_point(L_km, N, "finite", src, make_channel(0.0), sec, spec)
    try:
        opt = optimize_rate(L_km, N, src, make_channel(0.0), sec, spec)
    except AllVacuous:
        opt = None
    monkeypatch.undo()
    return row, opt, calls["points"]


class TestPruning:
    """Points that rate_ceiling shows cannot beat the incumbent are skipped."""

    @WALKS
    def test_results_match_the_unpruned_walk(self, monkeypatch, src, sec, spec,
                                             L_km, N):
        *pruned, pruned_points = searched(monkeypatch, src, sec, spec, L_km, N)
        # no pruning: an all-inf ceiling over the row's p_pe axis
        monkeypatch.setattr(optimizer, "rate_ceiling",
                            lambda src, obs, N, ppes, *args: np.full(len(ppes), math.inf))
        *full, full_points = searched(monkeypatch, src, sec, spec, L_km, N)
        assert repr(pruned) == repr(full)  # every field, nan included
        if full[0].status == "ok":
            assert pruned_points < full_points
        else:
            assert pruned_points == full_points

    @WALKS
    def test_results_match_a_per_point_walk(self, monkeypatch, src, sec, spec,
                                            L_km, N):
        # a row's one key_lengths call gives what a key_length call per
        # kept point gives
        *rows, _ = searched(monkeypatch, src, sec, spec, L_km, N)
        monkeypatch.setattr(optimizer, "key_lengths", lambda src, obs, N, ppes, *args: tuple(
            optimizer.key_length(src, obs, N, float(p), *args) for p in ppes))
        *per_point, _ = searched(monkeypatch, src, sec, spec, L_km, N)
        assert repr(rows) == repr(per_point)

    def test_nothing_pruned_before_the_first_key(self, monkeypatch, src, sec):
        calls = counting(monkeypatch, "key_length", "rate_ceiling")
        with pytest.raises(AllVacuous):
            optimize_rate(400.0, 1e9, src, make_channel(0.0), sec,
                          OptimizationSpec(coarse_points=(2, 2)))
        assert (calls["key_length"], calls["rate_ceiling"]) == (4, 0)

    def test_a_zero_gain_row_makes_no_call(self, monkeypatch, src, sec):
        # with no dark counts the nontriggered gain is 0 once eta underflows,
        # for every mu; a row reads Q_nt = 0 from its observables and ends
        # before any key-length call
        L_km = 20000.0
        ch = replace(make_channel(L_km), p_d=0.0)
        spec = OptimizationSpec(coarse_points=(3, 4))
        mus = np.linspace(*spec.resolved_mu_bounds(src), 3)
        assert all(optimizer.simulate_observables(replace(src, mu=mu), ch).Q_nt == 0.0
                   for mu in mus)
        calls = counting(monkeypatch, "key_length", "key_lengths", "rate_ceiling")
        with pytest.raises(AllVacuous):
            optimize_rate(L_km, 1e9, src, ch, sec, spec)
        assert calls == Counter()

    def test_one_ceiling_call_per_mu_row(self, monkeypatch, src, sec):
        # the default grid at 50 km, N = 1e9: 24 coarse mu rows and 3 rounds
        # of 7 refinement rows, each with one ceiling vector over its p_pe
        # axis and at most one key_lengths call over the points it keeps;
        # points before the first key get a key_length call each
        calls = counting(monkeypatch, "key_length", "key_lengths", "rate_ceiling")
        order = []
        for name in ("key_lengths", "rate_ceiling"):
            def logged(*args, _name=name, _f=getattr(optimizer, name)):
                order.append(_name)
                return _f(*args)

            monkeypatch.setattr(optimizer, name, logged)
        optimize_rate(50.0, 1e9, src, make_channel(0.0), sec)
        spec = OptimizationSpec()
        assert spec.coarse_points[0] + spec.refine_rounds * spec.refine_points[0] == 45
        # a row's key_lengths call follows its ceiling call
        assert all(order[i - 1] == "rate_ceiling"
                   for i, name in enumerate(order) if name == "key_lengths")
        assert (calls["rate_ceiling"], calls["key_length"], calls["key_lengths"],
                calls["points"]) == (45, 3, 11, 160)
