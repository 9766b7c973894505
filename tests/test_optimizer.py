"""Derivative-free (mu, p_pe) optimization, distance search, and sweep rows."""

import math
from types import SimpleNamespace

import pytest

from passivekey import optimizer
from passivekey import (
    AllVacuous,
    OptimizationSpec,
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


class TestOptimizationSpec:
    def test_mu_cap(self):
        spec = OptimizationSpec()
        lo, hi = spec.resolved_mu_bounds(0.5)
        assert lo == 0.01
        assert hi == pytest.approx(0.99, rel=1e-12)

    def test_explicit_bounds_still_capped(self):
        spec = OptimizationSpec(mu_bounds=(0.1, 10.0))
        _, hi = spec.resolved_mu_bounds(0.5)
        assert hi == pytest.approx(0.99, rel=1e-12)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            OptimizationSpec(mu_bounds=(5.0, 10.0)).resolved_mu_bounds(0.9)

    @pytest.mark.parametrize("eta_A", [0.0, 1e-320])
    def test_infinite_cap_needs_finite_mu_max(self, eta_A):
        # no divergence cap: the default (0.01, inf) would give a nan mu grid
        with pytest.raises(ValueError, match="mu_max"):
            OptimizationSpec().resolved_mu_bounds(eta_A)
        spec = OptimizationSpec(mu_bounds=(0.01, 0.5))
        assert spec.resolved_mu_bounds(eta_A) == (0.01, 0.5)

    @pytest.mark.parametrize("fields", [
        {"coarse_points": (0, 8)},
        {"coarse_points": (8, 0)},
        {"refine_points": (5, 0)},
        {"x_grid_points": 0},
        {"refine_rounds": -1},
        {"p_pe_bounds": (0.0, 0.5)},
        {"p_pe_bounds": (0.6, 0.5)},
        {"p_pe_bounds": (0.5, 1.0)},
    ])
    def test_validation(self, fields):
        with pytest.raises(ValueError):
            OptimizationSpec(**fields)


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


class TestMaxDistance:
    def test_monotone_in_N(self, src, sec):
        d_small = max_distance(1e8, src, make_channel(0.0), sec, FAST,
                               step_km=16.0, L_max_km=200.0)
        d_large = max_distance(1e10, src, make_channel(0.0), sec, FAST,
                               step_km=16.0, L_max_km=200.0)
        assert 0.0 < d_small < d_large

    def test_zero_when_no_key_anywhere(self, src, sec):
        assert max_distance(1e4, src, make_channel(0.0), sec, FAST,
                            step_km=16.0) == 0.0

    def test_step_validation(self, src, sec):
        with pytest.raises(ValueError):
            max_distance(1e9, src, make_channel(0.0), sec, FAST, step_km=0.0)

    def test_probes_include_last_grid_point(self, src, sec, monkeypatch):
        # with a key everywhere, the scan must reach L_max_km itself, although
        # three steps of 0.1 km sum to more than 0.3
        probed = []

        def always_positive(L_km, *args):
            probed.append(L_km)
            return SimpleNamespace(rate=1.0)

        monkeypatch.setattr(optimizer, "optimize_rate", always_positive)
        d = max_distance(1e9, src, make_channel(0.0), sec, FAST,
                         step_km=0.1, L_max_km=0.3)
        assert probed == [0.0, 0.1, 0.2, 0.3]
        assert d == 0.3

    def test_probes_stop_at_coarse_grid(self, src, sec, monkeypatch):
        # rate > 0 is settled on the coarse grid, so no probe refines
        rounds = []

        def key_below_1km(L_km, N, src, ch, sec, spec):
            rounds.append(spec.refine_rounds)
            return SimpleNamespace(rate=1.0 if L_km < 1.0 else 0.0)

        monkeypatch.setattr(optimizer, "optimize_rate", key_below_1km)
        d = max_distance(1e9, src, make_channel(0.0), sec, FAST, L_max_km=3.0)
        assert d == pytest.approx(1.0, abs=0.1)
        assert FAST.refine_rounds > 0
        assert len(rounds) > 2 and set(rounds) == {0}


class TestSweep:
    def test_finite_row(self, src, sec):
        row = sweep_point(50.0, 1e9, "finite", src, make_channel(0.0), sec, FAST)
        assert row.status == "ok"
        assert row.rate > 0.0
        assert row.ell == max(float(int(max(row.ell_T, row.ell_B))), 0.0)

    def test_vacuous_row(self, src, sec):
        row = sweep_point(200.0, 1e6, "finite", src, make_channel(0.0), sec, FAST)
        assert row.status == "vacuous"
        assert row.rate == 0.0
        assert math.isnan(row.mu_opt)

    def test_asymptotic_row(self, src, sec):
        row = sweep_point(50.0, 1e9, "asymptotic", src, make_channel(0.0), sec, FAST)
        assert row.status == "ok"
        assert row.rate > 0.0
        assert math.isnan(row.p_pe_opt)

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

    def test_p_pe_override(self, src, sec):
        row = sweep_point(50.0, 1e9, "finite", src, make_channel(0.0), sec, FAST,
                          p_pe_override=0.7)
        assert row.p_pe_opt == pytest.approx(0.7, rel=1e-12)

    def test_equal_p_pe_bounds_are_one_point(self, src, sec, monkeypatch):
        # an axis whose ends are equal is searched once per mu, not once per
        # grid point, and gives the row that p_pe_override gives
        original = optimizer.key_length
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return original(*args, **kwargs)

        monkeypatch.setattr(optimizer, "key_length", counting)
        grid = dict(coarse_points=(4, 24), refine_rounds=1, refine_points=(3, 7))
        opt = optimize_rate(50.0, 1e9, src, make_channel(0.0), sec,
                            OptimizationSpec(p_pe_bounds=(0.7, 0.7), **grid))
        assert len(calls) == 4 + 3
        assert set(calls) == {0.7}
        row = sweep_point(50.0, 1e9, "finite", src, make_channel(0.0), sec,
                          OptimizationSpec(**grid), p_pe_override=0.7)
        assert (opt.rate, opt.mu, opt.p_pe) == (row.rate, row.mu_opt, row.p_pe_opt)
