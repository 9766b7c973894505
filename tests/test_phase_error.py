"""Random-sampling phase-error bound and its Gaussian-tail solver."""

import hashlib
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr
from scipy.stats import hypergeom

from passivekey import NoSolution, PhaseErrorInputs, phase_error_bound, solve_omega
from passivekey.phase_error import (OMEGA_MAX, _phase_error_arrays, _solve_omega_arrays,
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

    def test_phi_at_omega_max_is_zero(self):
        # the solve judges OMEGA_MAX without evaluating Phi there: it is 0.0
        # in doubles, so the LHS at OMEGA_MAX is 0 where its other factors
        # are finite and nan where they are not
        assert gaussian_tail(OMEGA_MAX) == 0.0
        assert gaussian_tail(np.full(3, OMEGA_MAX)).tolist() == [0.0] * 3
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = _tail_condition_lhs(OMEGA_MAX, np.array([1e-4, 1e4]), 1e6)
        assert math.isnan(lhs[0]) and lhs[1] == 0.0

    @pytest.mark.parametrize("n, l, eps", [
        (7612.48155, 9.52973625e10, 1e-153),
        (1e6, 1e13, 1e-153),
        (2.4078e-4, 0.040691, 1e-6),
    ])
    def test_underflowed_tail_errs_high(self, n, l, eps):
        # Phi is not a normal double at the crossing, and erfc reads 0 below
        # it (a bisection of the float LHS lands at 37.677): omega is the
        # log-space crossing rounded up, never short of the reference
        from reference_impl import ref_omega

        ref = float(ref_omega(n, l, eps))
        w = float(_solve_omega_arrays(n, l, eps))
        assert ref <= w <= ref + 1e-9

    @given(log_n=st.floats(-4.0, 13.0), log_l=st.floats(-4.0, 13.0),
           eps=st.sampled_from([1e-6, 1e-10, 1e-153]))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_where_finite(self, log_n, log_l, eps):
        from reference_impl import ref_omega

        n, l = 10.0**log_n, 10.0**log_l
        w = float(_solve_omega_arrays(n, l, eps))
        if np.isfinite(w):
            assert abs(w - float(ref_omega(n, l, eps))) <= 1e-9

    # omega is the element's own, whatever shares its array.  Where Phi is
    # subnormal (eps_sec = 1e-150, or n near 2.4e-4 at any eps_sec) omega
    # follows the last ulp of the Newton iterate, so one step more in a batch
    # than alone would move it by a grid step: the example's first element
    # takes one step, and (1e6, 1e6) beside it two
    @given(pairs=st.lists(st.tuples(st.floats(-4.0, 13.0), st.floats(-4.0, 13.0)).map(
               lambda p: (10.0 ** p[0], 10.0 ** p[1])), min_size=1, max_size=24),
           eps=st.sampled_from([1e-6, 1e-10, 1e-150]))
    @example(pairs=[(2.407901291594415e-4, 1.0466265998243357e-4), (1e6, 1e6)], eps=1e-6)
    @settings(max_examples=200, deadline=None)
    def test_an_element_of_a_batch_is_the_element_alone(self, pairs, eps):
        n, l = np.array(pairs).T
        alone = [float(_solve_omega_arrays(a, b, eps)) for a, b in pairs]
        assert _solve_omega_arrays(n, l, eps).tolist() == alone

    @staticmethod
    def _count_calls(monkeypatch, name):
        """Solve a seeded 200-element draw; return how often phase_error.<name> ran."""
        import passivekey.phase_error as pe

        calls = []
        original = getattr(pe, name)

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(pe, name, counting)
        rng = np.random.default_rng(0)
        n = 10.0 ** rng.uniform(2.0, 9.0, 200)
        l = 10.0 ** rng.uniform(2.0, 9.0, 200)
        assert np.all(np.isfinite(pe._solve_omega_arrays(n, l, 1e-10)))
        return len(calls)

    def test_few_exact_evaluations(self, monkeypatch):
        # the Newton solve leaves at most a few exact LHS evaluations; a
        # 46-step bisection makes 47
        assert self._count_calls(monkeypatch, "_tail_condition_lhs") <= 4

    def test_two_newton_steps(self, monkeypatch):
        # one log Phi per Newton step: from the two-term large-omega start
        # the second step is below sqrt(step/4) (a bracketed solve from
        # sqrt(-2c) took 4)
        assert self._count_calls(monkeypatch, "log_ndtr") <= 2

    @given(w=st.floats(0.0, OMEGA_MAX))
    @settings(max_examples=200)
    def test_log_g_decreasing_and_concave(self, w):
        # what the unguarded Newton solve rests on: f = log g, with
        # g = sqrt((w^2 + 2 pi)/2) Phi(w), has f' <= -0.79 and -1 < f'' < 0,
        # so every step after the first lands right of the crossing, and a
        # step d leaves an error below d^2 / (2 * 0.79)
        r = math.exp(-0.5 * w * w - 0.5 * math.log(2.0 * math.pi) - float(log_ndtr(-w)))
        s = w * w + 2.0 * math.pi
        assert w / s - r <= -0.79  # r = phi/Phi
        assert -1.0 < (2.0 * math.pi - w * w) / s**2 + r * (w - r) < 0.0

    def test_last_judged_point(self):
        # the float Phi is a normal double up to _OMEGA_JUDGED and not past it
        from passivekey.phase_error import _OMEGA_JUDGED

        w = _OMEGA_JUDGED + np.arange(-2000, 2000) * math.ulp(_OMEGA_JUDGED)
        judged = gaussian_tail(w) >= sys.float_info.min
        assert np.array_equal(judged, w <= _OMEGA_JUDGED)
        assert 37.5 < _OMEGA_JUDGED < 37.6

    @staticmethod
    def _frozen_draw():
        """omega of a seeded draw and its 256-bit hashes where Phi(omega) is
        a normal double (or omega is inf), and where it is subnormal."""
        rng = np.random.default_rng(20100118)
        n = 10.0 ** rng.uniform(-4.0, 13.0, 1000)
        l = 10.0 ** rng.uniform(-4.0, 13.0, 1000)
        omega = np.stack([_solve_omega_arrays(n, l, eps)
                          for eps in (1e-6, 1e-10, 1e-14, 1e-153)])
        unjudged = np.isfinite(omega) & (gaussian_tail(omega) < sys.float_info.min)
        assert unjudged.sum(axis=1).tolist() == [2, 3, 4, 929]
        return [hashlib.sha256(part.astype("<f8").tobytes()).hexdigest()
                for part in (omega[~unjudged], omega[unjudged])]

    def test_frozen_omega_bits(self):
        # where the float LHS judges omega every bit is fixed by the grid and
        # the LHS, whatever path the solve takes: frozen at the bracketed
        # 4-step solve
        assert self._frozen_draw()[0] == (
            "9edc3f2c9b105b3c7bb540de3fde4cafd703dd52cadfe923b0b486d96cc8f0ff")

    def test_frozen_unjudged_omega_bits(self):
        # where Phi is subnormal omega is the crossing rounded up plus one
        # step, and its bits follow the last ulp of the Newton iterate: frozen
        # at the two-step solve, where 2 of these 938 moved by one grid step
        assert self._frozen_draw()[1] == (
            "a2002b381a098dd2d1dc74fa70384369dcefdf01728d3074e69d8a1890136e2d")

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
                fail += hypergeom.pmf(c, n + l, marked, l)
        assert fail <= eps_sec

    @pytest.mark.parametrize("fraction", [0.005, 0.015, 0.03, 0.1])
    @pytest.mark.parametrize("n, l", [(96_000, 561_000), (10_000, 10_000), (1_000, 9_000)])
    def test_exact_failure_probability_at_engine_scale(self, n, l, fraction):
        # the same sum at the chain's eps_sec and counts (the triggered class
        # at 50 km, N = 1e9 has n ~ 9.6e4, l ~ 5.6e5), where no Monte Carlo
        # run can see a 1e-10 rate: the hypergeometric mass of every observed
        # count c on the whole support with (marked - c)/n > e_p(c)
        eps_sec = 1e-10
        marked = int((n + l) * fraction)
        c = np.arange(min(marked, l) + 1)
        e_p = _phase_error_arrays(n, l, np.minimum(c / l, 0.5), eps_sec)
        fails = (marked - c) / n > e_p
        fail = np.exp(hypergeom.logpmf(c[fails], n + l, marked, l)).sum()
        assert fail <= eps_sec

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseErrorInputs(n=-1.0, l=10.0, e_ob=0.0, eps_sec=1e-10)
        with pytest.raises(ValueError, match=re.escape("l must be in (0, inf), got 0.0")):
            PhaseErrorInputs(n=10.0, l=0.0, e_ob=0.0, eps_sec=1e-10)
        with pytest.raises(ValueError):
            PhaseErrorInputs(n=10.0, l=10.0, e_ob=0.7, eps_sec=1e-10)
        with pytest.raises(ValueError):
            PhaseErrorInputs(n=10.0, l=10.0, e_ob=0.0, eps_sec=2.0)
