"""Composable key-length formulas and the x-minimization."""

import math
import re
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivekey import (
    NoSolution,
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
    key_lengths,
    rate_ceiling,
)
from passivekey.phase_error import _phase_error_arrays, solve_omega

from conftest import make_channel


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


# the leading axis of _ell_curves' tensors, and the index into a p_pe's
# pair from _minimize_over_x
STRATEGY = {"T": 0, "B": 1}
P_PE = np.array([[0.5]])  # one p_pe as the (P, 1) column of the x search


# the x path of key_length at p_pe = 0.5: (ell, bounds, e_p) of both
# strategies on one array of x, as a (strategy, 1, x) tensor, and both
# minima over x_range
def curves_at(xs, src, obs, N, sec):
    xs = np.asarray(xs, dtype=float)
    return _ell_curves(np.broadcast_to(xs, (2, 1, xs.size)), src, obs, N, P_PE, sec,
                       _leakage(obs, N, sec.f_EC), _ledger(src, obs, N, P_PE, sec))


def minimize(src, obs, N, sec):
    return _minimize_over_x(src, obs, N, np.array([0.5]), sec,
                            _leakage(obs, N, sec.f_EC), X_GRID_POINTS)[0]


# the ell(x) path of key_length at N = 1e9, p_pe = 0.5, on an array of x
def ell_at(xs, which, src, obs, sec):
    return curves_at(xs, src, obs, 1e9, sec)[0][STRATEGY[which], 0]


def ell_min(which, src, obs, sec):
    val, x_opt, _ = minimize(src, obs, 1e9, sec)[STRATEGY[which]]
    return val, x_opt


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

    @pytest.mark.parametrize("fn", [key_length, rate_ceiling])
    def test_no_nontriggered_gain_raises_zero_gain(self, src, obs, sec, fn):
        # no gain ratio to bound; the optimizer reads Q_nt = 0 as a row with
        # no key before it makes either call
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
        _, b, e_p = curves_at([res.x_opt_B], src, obs, N, sec)
        at = STRATEGY["B"], 0, 0  # B's row, the one p_pe and x
        d = res.diagnostics
        assert d.zeta == pytest.approx(float(b.zeta[at]), rel=1e-12)
        assert d.w_t == pytest.approx(float(b.w_t[at]), rel=1e-12)
        assert d.w_nt == pytest.approx(float(b.w_nt[at]), rel=1e-12)
        assert d.e_p_t == pytest.approx(float(e_p[0][at]), rel=1e-12)
        assert d.e_p_nt == pytest.approx(float(e_p[1][at]), rel=1e-12)
        # the losing strategy's minimiser reports its own bound values too
        _, x_t, diag_t = minimize(src, obs, N, sec)[STRATEGY["T"]]
        _, b, e_p = curves_at([x_t], src, obs, N, sec)
        at = STRATEGY["T"], 0, 0
        assert diag_t[:4] == pytest.approx(
            [float(b.zeta[at]), float(b.w_t[at]), float(b.w_nt[at]), float(e_p[0][at])],
            rel=1e-12)
        assert np.isnan(diag_t[4])

    def test_phase_error_for_class_counts(self, src, obs, sec):
        # equal code/sample split n = l = N p_pe q1 at p_pe = 0.5, for both classes
        budget = SampleBudget(N=1e9, p_pe=0.5, eps_pe=1e-11)
        b = evaluate_bounds(np.array([0.0]), src, budget, obs,
                            chi=chi_low_orders(src, budget, obs))
        for q1, w in ((b.q1_t_lb, b.w_t), (b.q1_nt_lb, b.w_nt)):
            got = _phase_error_for_class(q1, w, 1e9, 0.5, sec.eps_sec)
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

    @pytest.mark.parametrize("grid_points", [0, -1, 2.5, True])
    def test_grid_points_must_be_a_positive_integer(self, src, obs, sec, grid_points):
        with pytest.raises(ValueError, match="grid_points"):
            key_length(src, obs, 1e9, 0.5, sec, grid_points=grid_points)

    def test_one_point_x_grid_is_refused(self, src, obs, sec):
        # x is the adversary's unknown: one point would read ell at x = 0
        # alone instead of minimising it, a key longer than the worst case
        with pytest.raises(ValueError, match="grid_points must be >= 2"):
            key_length(src, obs, 1e9, 0.5, sec, grid_points=1)

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


class TestRateCeiling:
    """rate_ceiling is the key's own ell at the ends of x_range, plus a slack."""

    # eps_sec = 1e-150: Phi(omega) is subnormal, so the ceiling's own solve of
    # the ends may land omega one grid step from key_length's
    @given(mu=st.floats(0.01, 0.98), L_km=st.floats(0.0, 250.0),
           log_N=st.floats(3.0, 18.0),
           p_pe=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
           eps_sec=st.sampled_from([1e-6, 1e-10, 1e-14, 1e-30, 1e-150]),
           p_d=st.sampled_from([0.0, 6e-7]), grid_points=st.sampled_from([2, 200]))
    @settings(max_examples=150, deadline=None)
    def test_bounds_the_rate(self, src, mu, L_km, log_N, p_pe, eps_sec, p_d,
                             grid_points):
        # vacuous points included: at 250 km or N = 1e3 most points have no key;
        # the ceiling vector bounds each p_pe's rate
        src = replace(src, mu=mu)
        obs = simulate_observables(src, replace(make_channel(L_km), p_d=p_d))
        sec = SecurityBudget(eps_sec=eps_sec, eps_cor=1e-12, f_EC=1.16)
        N = 10.0 ** log_N
        ceiling = rate_ceiling(src, obs, N, np.array(p_pe), sec)
        assert ceiling.shape == (len(p_pe),)
        rates = [key_length(src, obs, N, p, sec, grid_points).rate for p in p_pe]
        assert np.all(np.array(rates) <= ceiling)

    # eps_sec >= 1e-30 keeps Phi(omega) a normal double, where omega is a
    # function of the tail condition alone
    @given(mu=st.floats(0.01, 0.98), L_km=st.floats(0.0, 250.0),
           log_N=st.floats(3.0, 18.0),
           p_pe=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=24),
           eps_sec=st.sampled_from([1e-6, 1e-10, 1e-14, 1e-30]),
           p_d=st.sampled_from([0.0, 6e-7]))
    @settings(max_examples=150, deadline=None)
    def test_vector_is_the_scalar_calls(self, src, mu, L_km, log_N, p_pe, eps_sec,
                                        p_d):
        # a mu row's ceiling vector is each point's own ceiling, bit for bit
        src = replace(src, mu=mu)
        obs = simulate_observables(src, replace(make_channel(L_km), p_d=p_d))
        sec = SecurityBudget(eps_sec=eps_sec, eps_cor=1e-12, f_EC=1.16)
        N = 10.0 ** log_N
        row = rate_ceiling(src, obs, N, np.array(p_pe), sec)
        assert row.shape == (len(p_pe),)
        assert row.tolist() == [rate_ceiling(src, obs, N, np.array([p]), sec).item()
                                for p in p_pe]

    @pytest.mark.parametrize("L_km, N, p_pe", [(50.0, 1e9, 0.5), (120.0, 1e13, 0.9),
                                                (250.0, 1e9, 0.5)])
    def test_is_the_keys_own_ell(self, src, sec, L_km, N, p_pe):
        # each strategy's ell at the two ends of x_range, the larger of the
        # two strategies' smaller end; 250 km has no key
        obs = simulate_observables(src, make_channel(L_km))
        ends = np.broadcast_to(x_range(src, obs), (2, 1, 2))  # (strategy, p_pe, x)
        pp = np.array([[p_pe]])
        ell, *_ = _ell_curves(ends, src, obs, N, pp, sec, _leakage(obs, N, sec.f_EC),
                              _ledger(src, obs, N, pp, sec))
        ell_t, ell_b = ell[STRATEGY["T"]], ell[STRATEGY["B"]]
        want = 0.5 * (max(ell_t.min(), ell_b.min(), 0.0) + 1.0) / N * (
            1.0 + keylength._CEILING_SLACK)
        ceiling = rate_ceiling(src, obs, N, np.array([p_pe]), sec)
        assert ceiling.item() == pytest.approx(want, rel=1e-12)
        assert key_length(src, obs, N, p_pe, sec).rate <= ceiling.item()


class TestKeyLengths:
    """key_lengths is key_length at each p_pe of a mu row, from one x search."""

    # eps_sec >= 1e-30 keeps Phi(omega) a normal double, where omega is a
    # function of the tail condition alone
    @given(mu=st.floats(0.01, 0.98), L_km=st.floats(0.0, 250.0),
           log_N=st.floats(3.0, 18.0),
           p_pe=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=24),
           eps_sec=st.sampled_from([1e-6, 1e-10, 1e-14, 1e-30]),
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

    @pytest.mark.parametrize("fn", [key_lengths, rate_ceiling])
    @pytest.mark.parametrize("ppes", [0.5, np.array([[0.3, 0.5]])], ids=["float", "2-D"])
    def test_p_pe_axis_must_be_1d(self, src, obs, sec, fn, ppes):
        # a float has no axis to search, and a 2-D array would give a 2-D
        # ceiling where the optimizer indexes a vector
        with pytest.raises(ValueError, match="p_pe"):
            fn(src, obs, 1e9, ppes, sec)

    @pytest.mark.parametrize("lo, hi", [
        (0.0, 0.0), (0.0, 1e-3), (2.5e-3, 2.75e-3), (0.1, 0.1 + 1e-300),
        (0.0, 5e-324), (0.0, 2e-322), (1e-3, 1e-3 + 4 * math.ulp(1e-3)),
    ])
    def test_windows_are_linspace(self, lo, hi):
        # a refinement window is np.linspace bit for bit, one row per p_pe;
        # at (0, 5e-324) the step underflows to zero and np.linspace scales
        # t / div by the width instead
        want = np.linspace(lo, hi, keylength.X_REFINE_POINTS)
        row = keylength._windows(np.array([[lo]]), np.array([[hi]]))
        assert row[0].tobytes() == want.tobytes()
        column = keylength._windows(np.array([[lo], [0.0]]), np.array([[hi], [1.0]]))
        assert column[0].tobytes() == want.tobytes()
        assert column[1].tobytes() == np.linspace(0.0, 1.0, 50).tobytes()


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
