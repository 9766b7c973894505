"""Composable key-length formulas and the x-minimization."""

import math
import re
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passivekey import (
    NoSolution,
    Observables,
    PhaseErrorInputs,
    SampleBudget,
    SecurityBudget,
    ZeroGain,
    asymptotic_rate,
    chi_low_orders,
    evaluate_bounds,
    key_length,
    phase_error_bound,
    simulate_observables,
)
from passivekey import keylength
from passivekey.decoy_bounds import x_range
from passivekey.keylength import (
    X_GRID_POINTS,
    X_REFINE_ROUNDS,
    _ell,
    _ell_curves,
    _leakage,
    _ledger,
    _minimize_over_x,
    _phase_error_for_class,
    binary_entropy,
    end_bounds,
    key_lengths,
)
from passivekey.phase_error import _phase_error_arrays, solve_omega

from conftest import make_channel


# the calls that take an x grid's size: a search, and the bound of one
X_SEARCHES = pytest.mark.parametrize("fn, p_pe", [(key_length, 0.5), (end_bounds, [0.5])],
                                     ids=["key_length", "end_bounds"])


@pytest.fixture(scope="module")
def obs(src, channel_50km):
    return simulate_observables(src, channel_50km)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, rel=1e-15)

    def test_known_value(self):
        # h(1/4) = 2 - (3/4) log2 3
        assert binary_entropy(0.25) == pytest.approx(
            2.0 - 0.75 * np.log2(3.0), rel=1e-13
        )

    @given(x=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_symmetry_and_range(self, x):
        h = binary_entropy(x)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    def test_array_input(self):
        out = binary_entropy(np.array([0.0, 0.5, 1.0]))
        assert out == pytest.approx([0.0, 1.0, 0.0], abs=1e-14)


def beside_a_keyed_point(fn):
    """fn(src, obs, N, ppes, sec) on (2, 1) columns of mu and the observables:
    a point of the 50 km channel with its own gain, then the point handed in."""
    def call(src, obs, N, p_pe, sec):
        keyed = simulate_observables(src, make_channel(50.0))
        columns = [np.array([[a], [b]]) for a, b in zip(astuple(keyed), astuple(obs))]
        return fn(replace(src, mu=np.full((2, 1), src.mu)), Observables(*columns), N,
                  [p_pe, p_pe], sec)
    return call


# the leading axis of _ell_curves' tensors, and the index into a p_pe's
# pair from _minimize_over_x
STRATEGY = {"T": 0, "B": 1}
P_PE = np.array([[0.5]])  # one p_pe as the (P, 1) column of the x search


# the x path of key_length at p_pe = 0.5: [ell, zeta, W_t, W_nt, e_p_t,
# e_p_nt] of both strategies on one array of x, as a (strategy, 1, x)
# tensor, and both minima over x_range
def curves_at(xs, src, obs, N, sec):
    xs = np.asarray(xs, dtype=float)
    return _ell_curves(np.broadcast_to(xs, (2, 1, xs.size)), src, obs, N, sec,
                       _ledger(src, obs, N, P_PE, sec, _leakage(obs, N, sec.f_EC)))


def minimize(src, obs, N, sec):
    return _minimize_over_x(src, obs, N, np.array([0.5]), sec,
                            _leakage(obs, N, sec.f_EC), X_GRID_POINTS)[0]


# the ell(x) path of key_length at N = 1e9, p_pe = 0.5, on an array of x
def ell_at(xs, which, src, obs, sec):
    return curves_at(xs, src, obs, 1e9, sec)[0][STRATEGY[which], 0]


def ell_min(which, src, obs, sec):
    val, x_opt, _ = minimize(src, obs, 1e9, sec)[STRATEGY[which]]
    return val, x_opt


# _minimize_over_x with each round's bookkeeping as a loop over the
# (strategy, p_pe) rows, one flat-index read at a time: the reference the
# array search must equal by repr
def loop_minimize(src, obs, N, ppes, sec, lam, grid_points):
    pp = ppes[:, None]
    ledger = _ledger(src, obs, N, pp, sec, lam)
    lo, hi = x_range(src, obs)
    grid = np.linspace(lo, hi, grid_points)
    P = len(pp)
    x = np.broadcast_to(grid, (2, P, grid_points))
    best = [(math.inf, lo, None)] * (2 * P)  # T's P rows, then B's
    for last in [False] * X_REFINE_ROUNDS + [True]:
        vals, *diag = _ell_curves(x, src, obs, N, sec, ledger)
        points = x.shape[-1]
        lows, highs = [], []
        for r, i in enumerate(vals.reshape(-1, points).argmin(axis=1).tolist()):
            row = r * points  # x and the curves share this flat index
            f = row + i
            if vals.item(f) < best[r][0]:
                best[r] = vals.item(f), x.item(f), tuple([a.item(f) for a in diag])
            lows.append(x.item(row + max(i - 1, 0)))
            highs.append(x.item(row + min(i + 1, points - 1)))
        if not last:
            x = keylength._windows(np.array(lows)[:, None], np.array(highs)[:, None])
            x = x.reshape(2, P, keylength.X_REFINE_POINTS)
    return list(zip(best[:P], best[P:]))


class TestEllCurves:
    def test_matches_extended_precision(self, src, obs, sec):
        from reference_impl import Ref, ref_ell

        ref = Ref(0.5, 0.5, 1e-6, 0.20, 50.0, 0.1, 6e-7, 0.005)
        lo, hi = x_range(src, obs)
        xs = [lo, 0.5 * (lo + hi), hi]
        got_T = ell_at(xs, "T", src, obs, sec)
        got_B = ell_at(xs, "B", src, obs, sec)
        for x, got_t, got_b in zip(xs, got_T, got_B):
            want_T = float(ref_ell("T", ref, float(x), 1e9, 0.5, 1e-10, 1e-12, 1.16))
            assert float(got_t) == pytest.approx(want_T, rel=1e-7)
            want_B = float(ref_ell("B", ref, float(x), 1e9, 0.5, 1e-10, 1e-12, 1.16))
            assert float(got_b) == pytest.approx(want_B, rel=1e-7)

    def test_minimizer_close_to_dense_grid(self, src, obs, sec):
        val, x_opt = ell_min("B", src, obs, sec)
        lo, hi = x_range(src, obs)
        dense = float(np.min(ell_at(np.linspace(lo, hi, 2000), "B", src, obs, sec)))
        assert val <= dense * (1 + 1e-3) + 1.0
        assert lo <= x_opt <= hi

    def test_minimum_at_most_endpoint_values(self, src, obs, sec):
        val, _ = ell_min("T", src, obs, sec)
        at_lo, at_hi = ell_at(x_range(src, obs), "T", src, obs, sec)
        assert val <= float(at_lo) + 1e-6
        assert val <= float(at_hi) + 1e-6

    # the ledger's terms are built once for a whole tensor, and the round
    # runs on all of it at once; end_bounds and the walk read a point's
    # values off such a tensor as the ones it has alone
    @given(mus=st.lists(st.floats(0.01, 0.98), min_size=1, max_size=3),
           L_km=st.floats(0.0, 250.0), log_N=st.floats(3.0, 18.0),
           p_pe=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
           eps_sec=st.sampled_from([1e-6, 1e-10, 1e-30, 1e-150]),
           zero=st.sampled_from(["", "p_d", "e_d"]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_each_element_is_its_own_call(self, src, mus, L_km, log_N, p_pe, eps_sec,
                                          zero, data):
        ch = make_channel(L_km)
        ch = replace(ch, **{zero: 0.0}) if zero else ch
        sec = SecurityBudget(eps_sec=eps_sec, eps_cor=1e-12, f_EC=1.16)
        N = 10.0 ** log_N
        src = replace(src, mu=np.repeat(mus, len(p_pe))[:, None])
        obs = simulate_observables(src, ch)
        pp = np.tile(p_pe, len(mus))[:, None]
        P, X = len(pp), data.draw(st.integers(1, 4))
        # x of each (strategy, point) row across its x_range, the ends included
        t = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                                        min_size=2 * P * X, max_size=2 * P * X)))
        x = t.reshape(2, P, X) * x_range(src, obs)[1]
        curves = _ell_curves(x, src, obs, N, sec,
                             _ledger(src, obs, N, pp, sec, _leakage(obs, N, sec.f_EC)))
        for p in range(P):
            one_src = replace(src, mu=src.mu[p:p + 1])
            one_obs = Observables(*(f[p:p + 1] for f in astuple(obs)))
            ledger = _ledger(one_src, one_obs, N, pp[p:p + 1], sec,
                             _leakage(one_obs, N, sec.f_EC))
            for s in range(2):
                for j in range(X):
                    one = _ell_curves(np.full((2, 1, 1), x[s, p, j]), one_src, one_obs, N,
                                      sec, ledger)
                    assert (repr([c[s, p, j] for c in curves])
                            == repr([c[s, 0, 0] for c in one]))


# every field of the result, Diagnostics included, bit for bit; e_p_nt is
# NaN where T wins, the vacuous point included
EXACT_POINTS = pytest.mark.parametrize("mu, channel, N, p_pe, want", [
    (0.05, make_channel(150.0), 1e13, 0.1, [  # T wins
        "0x1.20130a822a35cp+22", "0x1.0325f4f73c05fp+22", "0x1.2013080000000p+22",
        "0x1.58895a42412b1p-2", "0x1.e7312eb376cf2p-3", "0x1.fac9263ee7608p-23",
        "0x1.e5f6c6c29257ep-2", "0x1.0471e9883cb74p-5", "0x0.0p+0",
        "0x1.143bebb2a206bp-5", "nan", "0x1.3ab6048ff4d4dp+21",
        "0x1.9abfe6e70f9d2p+24"]),
    (0.5, make_channel(50.0), 1e9, 0.5, [  # B wins
        "0x1.c34ab57d5a571p+17", "0x1.5ff7885b04923p+19", "0x1.5ff7800000000p+19",
        "0x1.5b271184c4b96p-7", "0x0.0p+0", "0x1.79ebe57d031c2p-12",
        "0x1.94d7a924dda6bp-2", "0x1.f724e6c0dd41fp-6", "0x1.b70a50a909490p-7",
        "0x1.2220e533dbf35p-5", "0x1.0c9134ec25a9bp-6", "0x1.5dab99cc42ae3p+17",
        "0x1.5922072eb4261p+16"]),
    (0.5, make_channel(100.0), 1e9, 0.5, [  # vacuous
        "-0x1.2c460451b9855p+14", "-0x1.f2f350231c18cp+14", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "-0x1.797cb25968883p-6", "inf", "inf",
        "0x1.0000000000000p-1", "nan", "0x1.2835934747fd7p+14",
        "0x1.863875387e0c4p+13"]),
    (0.5, replace(make_channel(50.0), p_d=0.0, e_d=0.0), 1e9, 0.5, [  # x_range (0, 0)
        "0x1.0d3e61a786c1dp+19", "0x1.1f852e487cce2p+20", "0x1.1f85200000000p+20",
        "0x0.0p+0", "0x0.0p+0", "0x1.34b8e6b34a3c3p-11", "0x1.943d4845e9099p-2",
        "0x1.ef29223b4e12ep-14", "0x0.0p+0", "0x1.4f717760db254p-11",
        "0x1.52d8cc2b55777p-12", "0x0.0p+0", "0x0.0p+0"]),
], ids=["T_wins", "B_wins", "vacuous", "single_point_x_range"])


class TestKeyLength:
    def test_reference_point(self, src, obs, sec):
        res = key_length(src, obs, N=1e9, p_pe=0.5, sec=sec)
        assert res.ell == float(int(res.ell))
        assert res.ell >= 0.0
        assert res.rate == pytest.approx(res.ell / 2e9, rel=1e-12)
        assert res.ell == max(float(int(max(res.ell_T, res.ell_B))), 0.0)

    def test_monotone_in_N(self, src, obs, sec):
        rates = [
            key_length(src, obs, N=N, p_pe=0.5, sec=sec).rate
            for N in (1e8, 1e9, 1e10, 1e12)
        ]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_zero_when_budget_too_small(self, src, obs, sec):
        res = key_length(src, obs, N=1e5, p_pe=0.5, sec=sec)
        assert res.ell == 0.0
        assert res.rate == 0.0

    def test_infinite_N_raises_before_any_arithmetic(self, src, obs, sec):
        # N = inf is refused by the sample budget, not floored into an
        # OverflowError after inf - inf warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("N must be in [1, inf), got inf")):
                key_length(src, obs, math.inf, 0.5, sec)

    @pytest.mark.parametrize("f_EC", [0.99, math.inf, math.nan])
    def test_security_budget_needs_finite_f_EC(self, f_EC):
        with pytest.raises(ValueError, match="f_EC"):
            SecurityBudget(eps_sec=1e-10, eps_cor=1e-12, f_EC=f_EC)

    @pytest.mark.parametrize("eps_sec, solvable",
                             [(6e-154, True), (5.9e-154, False), (1e-160, False)])
    def test_security_budget_needs_a_normal_tail_target(self, eps_sec, solvable):
        # eps_sec^2/16 crosses the smallest normal double near 5.97e-154; the
        # budget refuses exactly the eps_sec the omega solve cannot serve
        inputs = PhaseErrorInputs(n=1e6, l=1e6, e_ob=0.0, eps_sec=eps_sec)
        if solvable:
            SecurityBudget(eps_sec=eps_sec, eps_cor=1e-12, f_EC=1.16)
            assert solve_omega(inputs) > 0.0
        else:
            with pytest.raises(ValueError, match="eps_sec"):
                SecurityBudget(eps_sec=eps_sec, eps_cor=1e-12, f_EC=1.16)
            with pytest.raises(NoSolution):
                solve_omega(inputs)

    @pytest.mark.parametrize("field, value", [
        ("eps_sec", 0.0), ("eps_sec", 1.0), ("eps_cor", 0.0), ("eps_cor", 1.0),
        ("eps_cor", math.ldexp(1.0, -1022)), ("eps_cor", 1e-320),
    ])
    def test_security_budget_refuses_eps(self, field, value):
        # from eps_cor = 2^-1022 down, B's penalty log2(4/eps_cor) is no finite number
        kwargs = {"eps_sec": 1e-10, "eps_cor": 1e-12, "f_EC": 1.16, field: value}
        with pytest.raises(ValueError, match=field):
            SecurityBudget(**kwargs)

    def test_smallest_eps_cor_gives_a_finite_key(self, src, obs):
        sec = SecurityBudget(eps_sec=1e-10, eps_cor=math.ldexp(1.0, -1021), f_EC=1.16)
        res = key_length(src, obs, N=1e12, p_pe=0.5, sec=sec)
        assert math.isfinite(res.ell_T) and math.isfinite(res.ell_B)
        assert res.ell > 0.0

    def test_infinite_leakage_is_no_key(self, src, obs):
        # f_EC = 1e308 overflows lambda_EC: ell(x) is -inf, clamped to no key
        sec = SecurityBudget(eps_sec=1e-10, eps_cor=1e-12, f_EC=1e308)
        res = key_length(src, obs, N=1e9, p_pe=0.5, sec=sec)
        assert res.ell_T == res.ell_B == -math.inf
        assert res.ell == res.rate == 0.0

    def test_leakage_sum_past_the_double_range_is_no_key(self, src):
        # each lambda_EC is finite, their sum is not: ell_B is -inf, never
        # nan, and numpy's overflow warning stays inside _ell
        src = replace(src, mu=0.366044938125961)
        obs = simulate_observables(src, make_channel(219.04819056221464))
        sec = SecurityBudget(eps_sec=1e-10, eps_cor=1e-12, f_EC=1e308)
        res = key_length(src, obs, N=970119.7406578156, p_pe=0.5, sec=sec)
        lam_t, lam_nt = res.diagnostics.lambda_ec_t, res.diagnostics.lambda_ec_nt
        assert math.isfinite(lam_t) and math.isfinite(lam_nt)
        assert math.isinf(lam_t + lam_nt)
        assert res.ell_B == -math.inf
        assert res.ell == res.rate == 0.0

    @pytest.mark.parametrize("fn", [
        key_length,
        lambda src, obs, N, p_pe, sec: end_bounds(src, obs, N, [p_pe], sec),
        beside_a_keyed_point(key_lengths),
        beside_a_keyed_point(end_bounds),
    ], ids=["key_length", "end_bounds", "key_lengths_columns", "end_bounds_columns"])
    def test_no_nontriggered_gain_raises_zero_gain(self, src, obs, sec, fn):
        # no gain ratio to bound; the optimizer reads Q_nt = 0 as a row with
        # no key (bound -inf) before it makes any call. The end solve of the
        # bound refuses it as the full search does, and so do both on
        # columns where one point of two has no gain
        with pytest.raises(ZeroGain):
            fn(src, replace(obs, Q_nt=0.0), 1e9, 0.5, sec)

    def test_rate_where_2N_overflows(self, src, obs, sec):
        # 2N is inf from N = 2^1023 on; the rate is 0.5 ell / N, not ell / inf
        big = key_length(src, obs, N=1.7e308, p_pe=0.5, sec=sec)
        ref = key_length(src, obs, N=1e306, p_pe=0.5, sec=sec)
        assert big.ell > 0.0
        assert big.rate == pytest.approx(ref.rate, rel=1e-6)

    def test_diagnostics_populated(self, src, obs, sec):
        d = key_length(src, obs, N=1e9, p_pe=0.5, sec=sec).diagnostics
        assert 0.0 < d.e_p_t <= 0.5
        assert 0.0 < d.e_p_nt <= 0.5
        assert d.lambda_ec_t > 0.0

    def test_every_field_is_a_float(self, src, obs, sec):
        # the leakage terms too: binary_entropy's 0-d result is no field type
        res = key_length(src, obs, N=1e9, p_pe=0.5, sec=sec)
        assert all(type(v) is float for v in astuple(res)[:-1] + astuple(res.diagnostics))
        assert "np.float64" not in repr(res)

    # B wins at the x_range endpoint x* = 0 (50 km) and inside it (100 km)
    @pytest.mark.parametrize("L, N", [(50.0, 1e9), (100.0, 1e13)])
    def test_diagnostics_at_winning_x(self, src, sec, L, N):
        obs = simulate_observables(src, make_channel(L))
        res = key_length(src, obs, N=N, p_pe=0.5, sec=sec)
        assert res.ell_B > res.ell_T
        _, *diag = curves_at([res.x_opt_B], src, obs, N, sec)
        at = STRATEGY["B"], 0, 0  # B's row, the one p_pe and x
        d = res.diagnostics
        zeta, w_t, w_nt, e_p_t, e_p_nt = (float(a[at]) for a in diag)
        assert d.zeta == pytest.approx(zeta, rel=1e-12)
        assert d.w_t == pytest.approx(w_t, rel=1e-12)
        assert d.w_nt == pytest.approx(w_nt, rel=1e-12)
        assert d.e_p_t == pytest.approx(e_p_t, rel=1e-12)
        assert d.e_p_nt == pytest.approx(e_p_nt, rel=1e-12)
        # the losing strategy's minimiser reports its own bound values too
        _, x_t, diag_t = minimize(src, obs, N, sec)[STRATEGY["T"]]
        _, *diag = curves_at([x_t], src, obs, N, sec)
        at = STRATEGY["T"], 0, 0
        assert diag_t[:4] == pytest.approx([float(a[at]) for a in diag[:4]], rel=1e-12)
        assert np.isnan(diag_t[4]) and np.isnan(diag[4][at])

    def test_phase_error_for_class_counts(self, src, obs, sec):
        # equal code/sample split n = l = N p_pe q1 at p_pe = 0.5, for both classes
        budget = SampleBudget(N=1e9, p_pe=0.5, eps_pe=1e-11)
        b = evaluate_bounds(np.array([0.0]), src, budget, obs,
                            chi=chi_low_orders(src, budget, obs))
        for q1, w in ((b.q1_t_lb, b.w_t), (b.q1_nt_lb, b.w_nt)):
            got = _phase_error_for_class(q1, w, 1e9 * (1.0 - 0.5), 1e9 * 0.5, sec.eps_sec)
            count = 1e9 * 0.5 * float(q1[0])
            want = phase_error_bound(PhaseErrorInputs(
                n=count, l=count, e_ob=min(max(float(w[0]), 0.0), 0.5),
                eps_sec=sec.eps_sec))
            assert 0.0 < float(got[0]) <= 0.5
            assert float(got[0]) == pytest.approx(want, rel=1e-12)

    def test_single_point_x_range(self, src, sec):
        # p_d = e_d = 0: both QBERs vanish and x_range collapses to (0, 0)
        ch = replace(make_channel(50.0), p_d=0.0, e_d=0.0)
        obs = simulate_observables(src, ch)
        assert x_range(src, obs) == (0.0, 0.0)
        res = key_length(src, obs, N=1e9, p_pe=0.5, sec=sec)
        assert res.x_opt_T == res.x_opt_B == 0.0
        at_zero = {w: float(ell_at([0.0], w, src, obs, sec)[0]) for w in "TB"}
        assert res.ell_T == at_zero["T"]
        assert res.ell_B == at_zero["B"]
        assert res.ell == max(float(int(max(at_zero.values()))), 0.0)
        assert asymptotic_rate(src, ch) > 0.0

    def test_p_pe_must_be_a_single_value(self, src, obs, sec):
        # an array would be searched as a row and all but its first result lost
        with pytest.raises(ValueError, match="p_pe"):
            key_length(src, obs, 1e9, np.array([0.3, 0.5]), sec)

    @X_SEARCHES
    @pytest.mark.parametrize("grid_points", [0, -1, 2.5, True])
    def test_grid_points_must_be_a_positive_integer(self, src, obs, sec, fn, p_pe,
                                                    grid_points):
        with pytest.raises(ValueError, match="grid_points"):
            fn(src, obs, 1e9, p_pe, sec, grid_points=grid_points)

    @X_SEARCHES
    def test_one_point_x_grid_is_refused(self, src, obs, sec, fn, p_pe):
        # x is the adversary's unknown: one point would read ell at x = 0
        # alone instead of minimising it, a key longer than the worst case
        # (and a bound with it)
        with pytest.raises(ValueError, match="grid_points must be >= 2"):
            fn(src, obs, 1e9, p_pe, sec, grid_points=1)

    def test_calls_per_layer(self, monkeypatch, src, obs, sec):
        # the names the benchmark's tracer wraps on keylength: one bounds call
        # on the (strategy, p_pe, x) tensor and one phase-error solve in each
        # of the three x rounds, and chi once a call for both strategies
        calls = dict.fromkeys(["evaluate_bounds", "chi_low_orders",
                               "_phase_error_arrays"], 0)
        for name in calls:
            def counted(*args, _fn=getattr(keylength, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(keylength, name, counted)
        assert key_length(src, obs, 1e9, 0.5, sec).ell > 0
        assert calls == {"evaluate_bounds": 3, "chi_low_orders": 1,
                         "_phase_error_arrays": 3}

    @EXACT_POINTS
    def test_every_field_is_exact(self, src, sec, mu, channel, N, p_pe, want):
        src = replace(src, mu=mu)
        res = key_length(src, simulate_observables(src, channel), N, p_pe, sec)
        got = [float(v) for v in astuple(res)[:-1] + astuple(res.diagnostics)]
        for g, w in zip(got, map(float.fromhex, want), strict=True):
            assert g == w or (math.isnan(g) and math.isnan(w))

    @EXACT_POINTS
    def test_a_row_of_two_is_exact(self, src, sec, mu, channel, N, p_pe, want):
        # two p_pe are two rows of each strategy's block: the bits of one
        src = replace(src, mu=mu)
        row = key_lengths(src, simulate_observables(src, channel), N,
                          np.array([p_pe, p_pe]), sec)
        for res in row:
            got = [float(v) for v in astuple(res)[:-1] + astuple(res.diagnostics)]
            for g, w in zip(got, map(float.fromhex, want), strict=True):
                assert g == w or (math.isnan(g) and math.isnan(w))


class TestKeyLengths:
    """key_lengths is key_length at each p_pe of a mu row, from one x search."""

    # eps_sec = 1e-150 puts Phi(omega) below the normal doubles, where omega
    # follows the last ulp of the Newton iterate: still each element's own
    @given(mu=st.floats(0.01, 0.98), L_km=st.floats(0.0, 250.0),
           log_N=st.floats(3.0, 18.0),
           p_pe=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=24),
           eps_sec=st.sampled_from([1e-6, 1e-10, 1e-14, 1e-30, 1e-150]),
           p_d=st.sampled_from([0.0, 6e-7]), grid_points=st.sampled_from([2, 200]))
    @settings(max_examples=100, deadline=None)
    def test_vector_is_the_scalar_calls(self, src, mu, L_km, log_N, p_pe, eps_sec,
                                        p_d, grid_points):
        # every field of every result, bit for bit, vacuous points included
        src = replace(src, mu=mu)
        obs = simulate_observables(src, replace(make_channel(L_km), p_d=p_d))
        sec = SecurityBudget(eps_sec=eps_sec, eps_cor=1e-12, f_EC=1.16)
        N = 10.0 ** log_N
        row = key_lengths(src, obs, N, np.array(p_pe), sec, grid_points)
        assert repr(row) == repr(tuple(key_length(src, obs, N, p, sec, grid_points)
                                       for p in p_pe))

    # p_d = e_d = 0 gives x_range (0, 0): every window is one point repeated
    @given(mu=st.floats(0.01, 0.98), L_km=st.floats(0.0, 250.0),
           log_N=st.floats(3.0, 18.0),
           p_pe=st.lists(st.floats(0.01, 0.99), min_size=0, max_size=24),
           eps_sec=st.sampled_from([1e-6, 1e-10, 1e-150]),
           dark=st.booleans(), grid_points=st.sampled_from([2, 10, 200]))
    # at 181 km T's ell is flat at the top of x_range (e_p_t = 0.5, no
    # vacuum credit): a later round ties the minimum and must not move it
    @example(mu=0.5, L_km=181.0, log_N=13.0, p_pe=[0.5], eps_sec=1e-6, dark=True,
             grid_points=2)
    @settings(max_examples=150, deadline=None)
    def test_array_search_is_the_row_loop(self, src, mu, L_km, log_N, p_pe, eps_sec,
                                          dark, grid_points):
        src = replace(src, mu=mu)
        ch = make_channel(L_km)
        obs = simulate_observables(src, ch if dark else replace(ch, p_d=0.0, e_d=0.0))
        sec = SecurityBudget(eps_sec=eps_sec, eps_cor=1e-12, f_EC=1.16)
        N = 10.0 ** log_N
        args = src, obs, N, np.array(p_pe, dtype=float), sec, _leakage(obs, N, sec.f_EC)
        assert repr(_minimize_over_x(*args, grid_points)) == repr(
            loop_minimize(*args, grid_points))

    @pytest.mark.parametrize("fn", [key_lengths, end_bounds], ids=["searched", "bounded"])
    @pytest.mark.parametrize("ppes", [0.5, np.array([[0.3, 0.5]])], ids=["float", "2-D"])
    def test_p_pe_axis_must_be_1d(self, src, obs, sec, ppes, fn):
        # a float has no axis to search, and a 2-D array would give a 2-D
        # tensor of results where the optimizer reads a row; refused before
        # the ends are solved too
        with pytest.raises(ValueError, match="p_pe"):
            fn(src, obs, 1e9, ppes, sec)

    @pytest.mark.parametrize("fn, want", [(key_lengths, "()"),
                                          (end_bounds, "array([], dtype=float64)")],
                             ids=["searched", "bounded"])
    def test_empty_p_pe_axis_gives_no_results(self, src, obs, sec, fn, want):
        # no p_pe, no result, from either call: every round runs on an empty
        # tensor
        assert repr(fn(src, obs, 1e9, [], sec)) == want

    @pytest.mark.parametrize("lo, hi", [
        (0.0, 0.0), (0.0, 1e-3), (2.5e-3, 2.75e-3), (0.1, 0.1 + 1e-300),
        (0.0, 5e-324), (0.0, 2e-322), (1e-3, 1e-3 + 4 * math.ulp(1e-3)),
    ])
    def test_windows_are_linspace(self, lo, hi):
        # a refinement window is np.linspace bit for bit, one row per p_pe,
        # and so is the first x round, of floats or of columns; at
        # (0, 5e-324) the step underflows to zero and np.linspace scales
        # t / div by the width instead
        want = np.linspace(lo, hi, keylength.X_REFINE_POINTS)
        row = keylength._windows(np.array([[lo]]), np.array([[hi]]))
        assert row[0].tobytes() == want.tobytes()
        column = keylength._windows(np.array([[lo], [0.0]]), np.array([[hi], [1.0]]))
        assert column[0].tobytes() == want.tobytes()
        assert column[1].tobytes() == np.linspace(0.0, 1.0, 50).tobytes()
        for num in (2, 3, 10, X_GRID_POINTS):  # the first x round, of floats
            want = np.linspace(lo, hi, num)
            assert keylength._windows(lo, hi, num).tobytes() == want.tobytes()
            # the three points end_bounds reads, alone, of floats and columns
            at = [0, (num - 1) // 2, num - 1]
            three = keylength._windows(lo, hi, num, at=at)
            assert three.tobytes() == want[at].tobytes()
            three = keylength._windows(np.array([[lo]]), np.array([[hi]]), num, at=at)
            assert three[0].tobytes() == want[at].tobytes()


def logged_curves(mp):
    """Patch keylength._ell_curves with a wrapper that records (x, curves)
    of each call, in order."""
    calls = []

    def logged(x, *args):
        calls.append((x, _ell_curves(x, *args)))
        return calls[-1][1]

    mp.setattr(keylength, "_ell_curves", logged)
    return calls


class TestEndBounds:
    """end_bounds bounds key_length's rate from three x values of its search's
    first round (the ends of x_range and the middle), as one tensor over many
    (mu, p_pe) points."""

    # vacuous points included: at 250 km or N = 1e3 most points have no key
    @given(mu=st.floats(0.01, 0.98), L_km=st.floats(0.0, 250.0),
           log_N=st.floats(3.0, 18.0),
           p_pe=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=24),
           eps_sec=st.sampled_from([1e-6, 1e-10, 1e-14, 1e-30, 1e-150]),
           p_d=st.sampled_from([0.0, 6e-7]),
           grid_points=st.sampled_from([2, 3, 10, 199, 200]))
    @settings(max_examples=150, deadline=None)
    def test_bound_is_at_least_the_rate(self, src, mu, L_km, log_N, p_pe, eps_sec,
                                        p_d, grid_points):
        # so a point whose bound is below a rate held, or equal to it, cannot
        # beat that rate; odd and even grids put the middle on either side
        src = replace(src, mu=mu)
        obs = simulate_observables(src, replace(make_channel(L_km), p_d=p_d))
        sec = SecurityBudget(eps_sec=eps_sec, eps_cor=1e-12, f_EC=1.16)
        N = 10.0 ** log_N
        bound = end_bounds(src, obs, N, np.array(p_pe), sec, grid_points)
        assert bound.shape == (len(p_pe),)
        for b, p in zip(bound.tolist(), p_pe):
            assert key_length(src, obs, N, p, sec, grid_points).rate <= b

    @pytest.mark.parametrize("mu, L_km, N, p_pe, tight, middle_lowers", [
        (0.5, 50.0, 1e9, 0.5, True, False), (0.5, 120.0, 1e13, 0.9, False, False),
        (0.5, 250.0, 1e9, 0.5, True, False), (0.2, 170.0, 1e15, 0.5, False, True),
        (0.2, 180.0, 1e15, 0.5, True, True)])
    def test_the_bound_is_the_floor_of_the_ends(self, src, sec, mu, L_km, N, p_pe,
                                                tight, middle_lowers):
        # the bound is each strategy's ell at the ends of x_range and at the
        # middle of the first round's linspace, the larger of the two
        # strategies' smallest value, floored, as a rate: no slack, so a
        # point whose minimum over x lies at one of the three has its rate as
        # its bound (the walk's equality edge); 250 km has no key.  At mu =
        # 0.2 the middle is B's smallest value, below both its ends; at
        # 180 km that makes the bound T's end, the rate
        src = replace(src, mu=mu)
        obs = simulate_observables(src, make_channel(L_km))
        x = np.linspace(*x_range(src, obs), X_GRID_POINTS)[[0, (X_GRID_POINTS - 1) // 2, -1]]
        three = np.broadcast_to(x, (2, 1, 3))  # (strategy, p_pe, x)
        pp = np.array([[p_pe]])
        ell, *_ = _ell_curves(three, src, obs, N, sec,
                              _ledger(src, obs, N, pp, sec, _leakage(obs, N, sec.f_EC)))
        ell_t, ell_b = ell[STRATEGY["T"]], ell[STRATEGY["B"]]
        bound = 0.5 * math.floor(max(ell_t.min(), ell_b.min(), 0.0)) / N
        assert end_bounds(src, obs, N, [p_pe], sec).tolist() == [bound]
        ends = 0.5 * math.floor(max(ell_t[:, ::2].min(), ell_b[:, ::2].min(), 0.0)) / N
        assert (bound < ends) == middle_lowers
        res = key_length(src, obs, N, p_pe, sec)
        assert res.rate <= bound
        assert (res.rate == bound) == tight

    # p_d = 0 included; a subnormal-free channel keeps Q_nt > 0 to 250 km
    @given(mus=st.lists(st.floats(0.01, 0.98), min_size=1, max_size=6),
           L_km=st.floats(0.0, 250.0), log_N=st.floats(3.0, 18.0),
           p_pe=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=8),
           eps_sec=st.sampled_from([1e-6, 1e-10, 1e-30, 1e-150]),
           p_d=st.sampled_from([0.0, 6e-7]),
           grid_points=st.sampled_from([2, 3, 10, 199, 200]))
    @settings(max_examples=60, deadline=None)
    def test_the_walk_tensor_is_each_rows_bits(self, src, mus, L_km, log_N, p_pe,
                                               eps_sec, p_d, grid_points):
        # the optimizer's walk takes every (mu, p_pe) point at once, the
        # observables of each mu row as columns over the points: each point
        # gets the bits of its row's own observables and bound solve, of the
        # x values and curves of its key_lengths search's first x round at
        # the ends and the middle, and of its own key_length, from a
        # key_lengths search on the columns
        ch = replace(make_channel(L_km), p_d=p_d)
        sec = SecurityBudget(eps_sec=eps_sec, eps_cor=1e-12, f_EC=1.16)
        N = 10.0 ** log_N
        rows = [replace(src, mu=mu) for mu in mus]
        column = np.repeat(mus, len(p_pe))[:, None]
        src_col = replace(src, mu=column)
        obs_col = simulate_observables(src_col, ch)
        obs_rows = [simulate_observables(row, ch) for row in rows]
        for name in ("Q_t", "Q_nt", "E_t", "E_nt"):
            want = np.repeat([getattr(obs, name) for obs in obs_rows], len(p_pe))
            assert getattr(obs_col, name).ravel().tobytes() == want.tobytes()
        with pytest.MonkeyPatch.context() as mp:
            calls = logged_curves(mp)
            tensor = end_bounds(src_col, obs_col, N, np.tile(p_pe, len(mus)), sec,
                                grid_points)
            (bound_x, bound_curves), = calls
            calls.clear()
            per_row = [end_bounds(row, obs, N, p_pe, sec, grid_points)
                       for row, obs in zip(rows, obs_rows)]
            assert tensor.tobytes() == np.concatenate(per_row).tobytes()
            calls.clear()
            for row, obs in zip(rows, obs_rows):
                key_lengths(row, obs, N, p_pe, sec, grid_points)
            first_rounds = calls[::X_REFINE_ROUNDS + 1]
        P = len(p_pe)
        at = [0, (grid_points - 1) // 2, -1]  # the ends and the middle
        for k, (x, curves) in enumerate(first_rounds):
            rows_k = slice(k * P, (k + 1) * P)
            assert bound_x[:, rows_k].tobytes() == x[..., at].tobytes()
            for at_three, first in zip(bound_curves, curves):
                assert at_three[:, rows_k].tobytes() == first[..., at].tobytes()
        searched = key_lengths(src_col, obs_col, N, np.tile(p_pe, len(mus)), sec,
                               grid_points)
        assert repr(searched) == repr(tuple(
            key_length(row, obs, N, p, sec, grid_points)
            for row, obs in zip(rows, obs_rows) for p in p_pe))

    @pytest.mark.parametrize("ppes", [[], [0.5], [0.3, 0.5, 0.7]],
                             ids=["none", "one", "three"])
    def test_one_solve_of_the_ends(self, monkeypatch, src, obs, sec, ppes):
        # x tensors handed to _ell_curves: end_bounds solves the two ends and
        # the middle of every point once; a key_lengths search runs the whole
        # first round and the refinement rounds, with no solve of them of its own
        calls = logged_curves(monkeypatch)
        end_bounds(src, obs, 1e9, ppes, sec)
        key_lengths(src, obs, 1e9, ppes, sec)
        P = len(ppes)
        refine = [(2, P, keylength.X_REFINE_POINTS)] * X_REFINE_ROUNDS
        assert [x.shape for x, _ in calls] == [(2, P, 3), (2, P, X_GRID_POINTS)] + refine


class TestEpsilonLedger:
    """The shares the finite key passes are the ones the module docstring lists."""

    @pytest.mark.parametrize("which, split, penalty", [
        ("T", 10.0, lambda e, c: 6 * math.log2(10 / e) + math.log2(2 / c)),
        ("B", 15.0, lambda e, c: 12 * math.log2(15 / e) + 1 + math.log2(4 / c)),
    ])
    def test_shares_and_penalty(self, monkeypatch, src, obs, sec, which, split,
                                penalty):
        seen = {"eps_pe": [], "penalty": []}

        def budget(**kwargs):
            seen["eps_pe"].append(kwargs["eps_pe"])
            return SampleBudget(**kwargs)

        def ell(*args):
            seen["penalty"].append(args[-1])
            return _ell(*args)

        monkeypatch.setattr(keylength, "SampleBudget", budget)
        monkeypatch.setattr(keylength, "_ell", ell)
        minimize(src, obs, 1e9, sec)
        # one budget with a share per strategy, T's then B's: chi, chi0 and
        # chi1 at one share of this strategy's split; each round's curves pay
        # the penalty column
        rounds = X_REFINE_ROUNDS + 1
        k = STRATEGY[which]
        assert len(seen["eps_pe"]) == 1
        assert seen["eps_pe"][0].shape == (2, 1, 1)
        assert seen["eps_pe"][0][k].item() == sec.eps_sec / split
        assert len(seen["penalty"]) == rounds
        assert [pen[k].item() for pen in seen["penalty"]] == [
            pytest.approx(penalty(sec.eps_sec, sec.eps_cor), rel=1e-15)] * rounds

    def test_one_phase_error_solve_per_round(self, monkeypatch, src, obs, sec):
        bounds, solves = [], []

        def evaluate(*args, **kwargs):
            bounds.append(evaluate_bounds(*args, **kwargs))
            return bounds[-1]

        def phase_error(n, l, e_ob, eps_sec):
            solves.append((eps_sec, np.size(n)))
            return _phase_error_arrays(n, l, e_ob, eps_sec)

        monkeypatch.setattr(keylength, "evaluate_bounds", evaluate)
        monkeypatch.setattr(keylength, "_phase_error_arrays", phase_error)
        minimize(src, obs, 1e9, sec)
        # e_p of T's triggered class and B's two classes, at the full eps_sec,
        # over every admissible entry (q1 > 0 and a finite W) of the three
        t, b = STRATEGY["T"], STRATEGY["B"]
        admissible = [
            sum(int(np.sum((q1 > 0) & np.isfinite(w)))
                for q1, w in ((r.q1_t_lb[t], r.w_t[t]), (r.q1_t_lb[b], r.w_t[b]),
                              (r.q1_nt_lb[b], r.w_nt[b])))
            for r in bounds
        ]
        assert len(bounds) == X_REFINE_ROUNDS + 1
        assert solves == [(sec.eps_sec, count) for count in admissible]
        assert all(count > 0 for count in admissible)


def ref_asymptotic_rate(ref, f_EC, grid_points=400):
    """50-digit asymptotic rate: no chi, no penalty, e_p the raw error bound."""
    import mpmath as mp
    from reference_impl import _h2

    Qt, Qnt, Et, Ent = ref.observables()
    delta = Qt / Qnt
    d0, d1, d2 = ref.delta(0), ref.delta(1), ref.delta(2)
    x_hi = min(2 * Et * delta / d0, 2 * Ent)

    def credit(w):  # 1 - h(e_p), nothing where the error bound is vacuous
        return 1 - _h2(min(max(w, mp.mpf(0)), mp.mpf("0.5"))) if w is not None else 0

    ell_t = ell_b = mp.inf
    for k in range(grid_points):
        x = x_hi * k / (grid_points - 1)
        z = ((d2 - delta) - (d2 - d0) * x) / (d2 - d1)
        single_t = max(d1 * z, 0) * credit(
            (2 * delta * Et - d0 * x) / (2 * d1 * z) if z > 0 else None)
        single_nt = max(z, 0) * credit((2 * Ent - x) / (2 * z) if z > 0 else None)
        ell_t = min(ell_t, Qnt * (max(d0 * x, 0) + single_t))
        ell_b = min(ell_b, Qnt * (max(d0 * x + x, 0) + single_t + single_nt))
    lam_t, lam_nt = Qt * f_EC * _h2(Et), Qnt * f_EC * _h2(Ent)
    return max(ell_t - lam_t, ell_b - lam_t - lam_nt, 0) / 2


class TestAsymptoticRate:
    @pytest.mark.parametrize("L", [10.0, 100.0, 150.0, 200.0])
    def test_matches_extended_precision(self, src, L):
        from reference_impl import Ref

        ref = Ref(0.5, 0.5, 1e-6, 0.20, L, 0.1, 6e-7, 0.005)
        obs = simulate_observables(src, make_channel(L))
        want = float(ref_asymptotic_rate(ref, 1.16))
        assert abs(asymptotic_rate(src, make_channel(L)) - want) <= 1e-9 * (
            obs.Q_t + obs.Q_nt)

    def test_dominates_finite(self, src, sec):
        for L in (10.0, 50.0, 100.0):
            ch = make_channel(L)
            obs = simulate_observables(src, ch)
            asym = asymptotic_rate(src, ch)
            for N in (1e8, 1e10, 1e13):
                fin = key_length(src, obs, N=N, p_pe=0.5, sec=sec).rate
                assert fin <= asym + 1e-15

    def test_finite_converges(self, src, channel_50km, sec):
        obs = simulate_observables(src, channel_50km)
        asym = asymptotic_rate(src, channel_50km)
        fin = key_length(src, obs, N=1e18, p_pe=0.5, sec=sec).rate
        assert abs(fin - asym) / asym < 0.01

    def test_positive_at_moderate_distance(self, src):
        assert asymptotic_rate(src, make_channel(100.0)) > 0.0

    def test_zero_far_beyond_cutoff(self, src):
        assert asymptotic_rate(src, make_channel(400.0)) == 0.0

    @pytest.mark.parametrize("f_EC", [0.5, math.inf, math.nan])
    def test_needs_finite_f_EC_at_least_1(self, src, channel_50km, f_EC):
        # SecurityBudget's rule: f_EC < 1 would credit more than the Shannon
        # limit allows, nan would give a nan rate
        with pytest.raises(ValueError, match="f_EC"):
            asymptotic_rate(src, channel_50km, f_EC=f_EC)
