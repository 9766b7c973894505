"""Random-sampling phase-error bound and its Gaussian-tail solver."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivekey import NoSolution, PhaseErrorInputs, phase_error_bound, solve_omega
from passivekey.phase_error import (OMEGA_MAX, _solve_omega_arrays,
                                    _tail_condition_lhs, e_hat, gaussian_tail)


class TestGaussianTail:
    def test_frozen_reference(self):
        assert gaussian_tail(1.0) == pytest.approx(0.15865525393145705, rel=1e-12)

    def test_half_at_zero(self):
        assert gaussian_tail(0.0) == pytest.approx(0.5, rel=1e-15)

    @given(w=st.floats(0.0, 10.0))
    @settings(max_examples=50)
    def test_decreasing(self, w):
        assert gaussian_tail(w + 0.1) < gaussian_tail(w)


class TestSolveOmega:
    def test_back_substitution(self):
        # acceptance identity: the solved omega sits on the tail condition
        for n, l in ((1e4, 1e4), (1e6, 1e5), (500, 500)):
            inputs = PhaseErrorInputs(n=n, l=l, e_ob=0.01, eps_sec=1e-10)
            w = solve_omega(inputs)
            target = 1e-10**2 / 16.0
            lhs = float(_tail_condition_lhs(w, n, l))
            assert lhs <= target
            assert abs(lhs - target) / target < 1e-6

    def test_matches_extended_precision(self):
        from reference_impl import ref_omega

        for n, l, eps in ((500.0, 500.0, 1e-3), (1e6, 1e6, 1e-10),
                          (1e6, 1e6, 1e-150), (1e6, 1e6, 1e-153)):
            w = solve_omega(PhaseErrorInputs(n=n, l=l, e_ob=0.0, eps_sec=eps))
            assert w == pytest.approx(float(ref_omega(n, l, eps)), abs=1e-9)

    def test_increasing_in_security(self):
        w1 = solve_omega(PhaseErrorInputs(n=1e5, l=1e5, e_ob=0.0, eps_sec=1e-6))
        w2 = solve_omega(PhaseErrorInputs(n=1e5, l=1e5, e_ob=0.0, eps_sec=1e-12))
        assert w2 > w1

    @pytest.mark.parametrize("eps", [1e-155, 1e-160])
    def test_underflowed_target_raises(self, eps):
        # eps^2/16 is subnormal: the Gaussian tail underflows to 0 before the
        # true crossing (38.44 at 1e-160), which bisection would land short of
        with pytest.raises(NoSolution):
            solve_omega(PhaseErrorInputs(n=1e6, l=1e6, e_ob=0.0, eps_sec=eps))

    @given(n=st.floats(0.0, 1e300, exclude_min=True),
           l=st.floats(0.0, 1e300, exclude_min=True))
    @settings(max_examples=200)
    def test_crossing_is_never_at_zero(self, n, l):
        # every target eps_sec^2/16 with 0 < eps_sec < 1 is below 1/16, so
        # the bisection never needs the omega = 0 end of its bracket; a tiny n
        # overflows e^nu to inf, which is still above
        with np.errstate(over="ignore"):
            assert _tail_condition_lhs(0.0, n, l) > 1.0 / 16.0

    @given(n=st.floats(1.0, 1e13), l=st.floats(1.0, 1e13),
           eps=st.sampled_from([1e-6, 1e-10, 1e-14]))
    @settings(max_examples=200)
    def test_first_grid_point_meeting_the_condition(self, n, l, eps):
        # omega is on the 2^-46 OMEGA_MAX grid, and the point below it fails
        w = float(_solve_omega_arrays(n, l, eps))
        below = w - OMEGA_MAX / 2**46
        assert _tail_condition_lhs(w, n, l) <= eps**2 / 16.0
        assert eps**2 / 16.0 < _tail_condition_lhs(below, n, l)

    def test_unmet_condition_is_infinite(self):
        # e^nu overflows at n = 1e-4, so the LHS at OMEGA_MAX is nan, not
        # below the target: no omega in the bracket, elementwise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = _solve_omega_arrays(np.array([1e-4, 1e4]), 1e6, 1e-10)
        assert w[0] == np.inf
        assert 0.0 < w[1] < OMEGA_MAX
        with pytest.raises(NoSolution):
            solve_omega(PhaseErrorInputs(n=1e-4, l=1e6, e_ob=0.0, eps_sec=1e-10))

    def test_no_solution(self, monkeypatch):
        # a finite LHS never stays above the target up to omega = 40 (the
        # Gaussian tail underflows to 0 first), so shrink the bracket
        import passivekey.phase_error as pe

        monkeypatch.setattr(pe, "OMEGA_MAX", 1.0)
        with pytest.raises(NoSolution):
            solve_omega(PhaseErrorInputs(n=10, l=10, e_ob=0.0, eps_sec=1e-10))


class TestEHat:
    def test_identity_at_zero_tau(self):
        for e in (0.0, 0.01, 0.3, 0.5):
            assert e_hat(e, 0.0) == pytest.approx(e, abs=1e-12)

    @given(e=st.floats(0.0, 0.5), tau=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_inflates(self, e, tau):
        assert e_hat(e, tau) >= e - 1e-12

    @given(e=st.floats(0.0, 0.5))
    @settings(max_examples=50)
    def test_monotone_in_tau(self, e):
        assert e_hat(e, 0.2) >= e_hat(e, 0.1) - 1e-12


class TestPhaseErrorBound:
    def test_matches_extended_precision(self):
        from reference_impl import ref_phase_error

        for n, l, e_ob, eps in (
            (500.0, 500.0, 0.03, 1e-3),
            (1e6, 1e6, 0.01, 1e-10),
            (2e6, 5e5, 0.005, 1e-10),
        ):
            got = phase_error_bound(
                PhaseErrorInputs(n=n, l=l, e_ob=e_ob, eps_sec=eps)
            )
            assert got == pytest.approx(float(ref_phase_error(n, l, e_ob, eps)),
                                        rel=1e-8)

    def test_range(self):
        for e_ob in (0.0, 0.1, 0.4, 0.5):
            ep = phase_error_bound(
                PhaseErrorInputs(n=1e4, l=1e4, e_ob=e_ob, eps_sec=1e-10)
            )
            assert 0.0 <= ep <= 0.5

    def test_exceeds_observed(self):
        # the bound always sits above the observed fraction
        for e_ob in (0.0, 0.01, 0.1):
            ep = phase_error_bound(
                PhaseErrorInputs(n=1e5, l=1e5, e_ob=e_ob, eps_sec=1e-10)
            )
            assert ep > e_ob

    def test_tightens_with_samples(self):
        eps = [
            phase_error_bound(PhaseErrorInputs(n=n, l=n, e_ob=0.01, eps_sec=1e-10))
            for n in (1e3, 1e5, 1e7, 1e9)
        ]
        assert all(b < a for a, b in zip(eps, eps[1:]))
        assert eps[-1] == pytest.approx(0.01, abs=2e-4)

    def test_vacuous_tiny_counts(self):
        assert phase_error_bound(
            PhaseErrorInputs(n=0.4, l=0.4, e_ob=0.0, eps_sec=1e-10)
        ) == 0.5

    @pytest.mark.parametrize("l", [1e6, 0.5])
    def test_vacuous_without_omega(self, l):
        # n = 1e-4 has no omega in the bracket; the bound is vacuous, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phase_error_bound(
                PhaseErrorInputs(n=1e-4, l=l, e_ob=0.0, eps_sec=1e-10)
            ) == 0.5

    def test_exact_hypergeometric_soundness(self):
        # exact failure probability of the claim at n = l = 500:
        # P[ hidden errors/n > e_p(c) ] summed over observed counts c
        from passivekey.oracle import hypergeom_tail

        n, l, eps_sec = 500, 500, 1e-3
        frac = 0.03
        marked = int((n + l) * frac)
        fail = 0.0
        for c in range(0, min(marked, l) + 1):
            e_p = phase_error_bound(
                PhaseErrorInputs(n=float(n), l=float(l), e_ob=c / l,
                                 eps_sec=eps_sec)
            )
            if (marked - c) / n > e_p:
                p_lo = hypergeom_tail(n + l, marked, l, c, direction="forward")
                p_hi = hypergeom_tail(n + l, marked, l, c + 1, direction="forward")
                fail += p_lo - p_hi
        assert fail <= eps_sec

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseErrorInputs(n=-1.0, l=10.0, e_ob=0.0, eps_sec=1e-10)
        with pytest.raises(ValueError):
            PhaseErrorInputs(n=10.0, l=10.0, e_ob=0.7, eps_sec=1e-10)
        with pytest.raises(ValueError):
            PhaseErrorInputs(n=10.0, l=10.0, e_ob=0.0, eps_sec=2.0)
