"""Composable key-length formulas and the x-minimization."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivekey import (
    PhaseErrorInputs,
    SampleBudget,
    SecurityBudget,
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
    _ell,
    _ell_curve,
    _minimize_over_x,
    _phase_error_for_class,
    binary_entropy,
)
from passivekey.phase_error import _phase_error_arrays

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


# the ell(x) path of key_length at N = 1e9, p_pe = 0.5, on an array of x
def ell_at(xs, which, src, obs, sec):
    ell, *_ = _ell_curve(np.asarray(xs, dtype=float), which, src, obs, 1e9, 0.5, sec)
    return ell


def ell_min(which, src, obs, sec):
    val, x_opt, _ = _minimize_over_x(which, src, obs, 1e9, 0.5, sec, X_GRID_POINTS)
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
            with pytest.raises(ValueError, match="N must be finite"):
                key_length(src, obs, math.inf, 0.5, sec)

    @pytest.mark.parametrize("f_EC", [0.99, math.inf, math.nan])
    def test_security_budget_needs_finite_f_EC(self, f_EC):
        with pytest.raises(ValueError, match="f_EC"):
            SecurityBudget(eps_sec=1e-10, eps_cor=1e-12, f_EC=f_EC)

    def test_diagnostics_populated(self, src, obs, sec):
        d = key_length(src, obs, N=1e9, p_pe=0.5, sec=sec).diagnostics
        assert 0.0 < d.e_p_t <= 0.5
        assert 0.0 < d.e_p_nt <= 0.5
        assert d.lambda_ec_t > 0.0

    # B wins at the x_range endpoint x* = 0 (50 km) and inside it (100 km)
    @pytest.mark.parametrize("L, N", [(50.0, 1e9), (100.0, 1e13)])
    def test_diagnostics_at_winning_x(self, src, sec, L, N):
        obs = simulate_observables(src, make_channel(L))
        res = key_length(src, obs, N=N, p_pe=0.5, sec=sec)
        assert res.ell_B > res.ell_T
        _, b, e_p_t, e_p_nt = _ell_curve(np.array([res.x_opt_B]), "B", src, obs, N, 0.5,
                                         sec)
        d = res.diagnostics
        assert d.zeta == pytest.approx(float(b.zeta[0]), rel=1e-12)
        assert d.w_t == pytest.approx(float(b.w_t[0]), rel=1e-12)
        assert d.w_nt == pytest.approx(float(b.w_nt[0]), rel=1e-12)
        assert d.e_p_t == pytest.approx(float(e_p_t[0]), rel=1e-12)
        assert d.e_p_nt == pytest.approx(float(e_p_nt[0]), rel=1e-12)
        # the losing strategy's minimiser reports its own bound values too
        _, x_t, diag_t = _minimize_over_x("T", src, obs, N, 0.5, sec, X_GRID_POINTS)
        _, b, e_p_t, _ = _ell_curve(np.array([x_t]), "T", src, obs, N, 0.5, sec)
        assert diag_t[:4] == pytest.approx(
            [float(b.zeta[0]), float(b.w_t[0]), float(b.w_nt[0]), float(e_p_t[0])],
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
        at_zero = {w: float(_ell_curve(np.array([0.0]), w, src, obs, 1e9, 0.5, sec)[0][0])
                   for w in "TB"}
        assert res.ell_T == at_zero["T"]
        assert res.ell_B == at_zero["B"]
        assert res.ell == max(float(int(max(at_zero.values()))), 0.0)
        assert asymptotic_rate(src, ch) > 0.0


class TestEpsilonLedger:
    """The shares the finite key passes are the ones the module docstring lists."""

    @pytest.mark.parametrize("which, split, penalty", [
        ("T", 10.0, lambda e, c: 6 * math.log2(10 / e) + math.log2(2 / c)),
        ("B", 15.0, lambda e, c: 12 * math.log2(15 / e) + 1 + math.log2(4 / c)),
    ])
    def test_shares_and_penalty(self, monkeypatch, src, obs, sec, which, split,
                                penalty):
        seen = {"eps_pe": [], "eps_sec": [], "penalty": []}

        def budget(**kwargs):
            seen["eps_pe"].append(kwargs["eps_pe"])
            return SampleBudget(**kwargs)

        def phase_error(n, l, e_ob, eps_sec):
            seen["eps_sec"].append(eps_sec)
            return _phase_error_arrays(n, l, e_ob, eps_sec)

        def ell(*args):
            seen["penalty"].append(args[-1])
            return _ell(*args)

        monkeypatch.setattr(keylength, "SampleBudget", budget)
        monkeypatch.setattr(keylength, "_phase_error_arrays", phase_error)
        monkeypatch.setattr(keylength, "_ell", ell)
        _ell_curve(np.linspace(*x_range(src, obs), 5), which, src, obs, 1e9, 0.5, sec)
        # chi, chi0 and chi1 at one share each; e_p per class at the full eps_sec
        assert seen["eps_pe"] == [sec.eps_sec / split]
        assert seen["eps_sec"] == [sec.eps_sec] * (1 if which == "T" else 2)
        assert seen["penalty"] == [pytest.approx(penalty(sec.eps_sec, sec.eps_cor),
                                                 rel=1e-15)]


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
