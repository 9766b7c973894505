"""Composable key-length formulas and the x-minimization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivekey import (
    SampleBudget,
    asymptotic_rate,
    binary_entropy,
    key_length,
    phase_error_counts,
    simulate_observables,
    x_range,
)
from passivekey.keylength import (
    X_GRID_POINTS,
    X_REFINE_POINTS,
    X_REFINE_ROUNDS,
    _ell_curve,
    _minimize_over_x,
)

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


# the ell(x) path of key_length at N = 1e9, p_pe = 0.5
def ell_at(x, which, src, obs, sec):
    ell, *_ = _ell_curve(x, which, src, obs, 1e9, 0.5, sec)
    return ell


def ell_min(which, src, obs, sec):
    return _minimize_over_x(which, src, obs, 1e9, 0.5, sec,
                            X_GRID_POINTS, X_REFINE_ROUNDS, X_REFINE_POINTS)


class TestEllCurves:
    def test_matches_extended_precision(self, src, obs, sec):
        from reference_impl import Ref, ref_ell

        ref = Ref(0.5, 0.5, 1e-6, 0.20, 50.0, 0.1, 6e-7, 0.005)
        lo, hi = x_range(src, obs)
        for x in (lo, 0.5 * (lo + hi), hi):
            got_T = float(ell_at(float(x), "T", src, obs, sec))
            want_T = float(ref_ell("T", ref, float(x), 1e9, 0.5, 1e-10, 1e-12, 1.16))
            assert got_T == pytest.approx(want_T, rel=1e-7)
            got_B = float(ell_at(float(x), "B", src, obs, sec))
            want_B = float(ref_ell("B", ref, float(x), 1e9, 0.5, 1e-10, 1e-12, 1.16))
            assert got_B == pytest.approx(want_B, rel=1e-7)

    def test_minimizer_close_to_dense_grid(self, src, obs, sec):
        val, x_opt = ell_min("B", src, obs, sec)
        lo, hi = x_range(src, obs)
        dense = float(np.min(ell_at(np.linspace(lo, hi, 2000), "B", src, obs, sec)))
        assert val <= dense * (1 + 1e-3) + 1.0
        assert lo <= x_opt <= hi

    def test_minimum_at_most_endpoint_values(self, src, obs, sec):
        val, _ = ell_min("T", src, obs, sec)
        lo, hi = x_range(src, obs)
        assert val <= float(ell_at(lo, "T", src, obs, sec)) + 1e-6
        assert val <= float(ell_at(hi, "T", src, obs, sec)) + 1e-6


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

    def test_diagnostics_populated(self, src, obs, sec):
        d = key_length(src, obs, N=1e9, p_pe=0.5, sec=sec).diagnostics
        assert 0.0 < d.e_p_t <= 0.5
        assert 0.0 < d.e_p_nt <= 0.5
        assert d.lambda_ec_t > 0.0

    def test_phase_error_counts(self, src, obs, sec):
        budget = SampleBudget(N=1e9, p_pe=0.5, eps_pe=1e-11)
        pe = phase_error_counts("triggered", 0.0, src, obs, budget, sec.eps_sec)
        # equal split at p_pe = 0.5
        assert pe.n == pytest.approx(pe.l, rel=1e-12)
        assert 0.0 <= pe.e_ob <= 0.5


class TestAsymptoticRate:
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
