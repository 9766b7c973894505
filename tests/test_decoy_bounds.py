"""Finite-sample single-photon bounds from the triggered/non-triggered split."""

import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivekey import (
    Observables,
    SampleBudget,
    VacuousBound,
    ZeroGain,
    chi_low_orders,
    evaluate_bounds,
    simulate_observables,
)
from passivekey.decoy_bounds import (
    asymptotic_e1,
    asymptotic_q1_nt,
    chi_term,
    chi_total,
    overall_delta,
    serfling_xi,
    x_range,
)
from passivekey.photonics import delta_n, photon_prob


@pytest.fixture(scope="module")
def obs(src, channel_50km):
    return simulate_observables(src, channel_50km)


@pytest.fixture(scope="module")
def budget():
    return SampleBudget(N=1e9, p_pe=0.5, eps_pe=1e-11)


class TestSampleBudget:
    @pytest.mark.parametrize("N", [0.5, math.inf, math.nan])
    def test_N_must_be_finite_and_at_least_1(self, N):
        with pytest.raises(ValueError, match=re.escape(f"N must be in [1, inf), got {N!r}")):
            SampleBudget(N=N, p_pe=0.5, eps_pe=1e-11)

    @pytest.mark.parametrize("field, value", [
        ("p_pe", 0.0), ("p_pe", 1.0), ("eps_pe", 0.0), ("eps_pe", 1.0),
    ])
    def test_p_pe_and_eps_pe_in_open_unit_interval(self, field, value):
        kwargs = {"N": 1e9, "p_pe": 0.5, "eps_pe": 1e-11, field: value}
        with pytest.raises(ValueError, match=field):
            SampleBudget(**kwargs)

    @pytest.mark.parametrize("p_pe", [[0.5, 1.0], [0.0, 0.5], [0.5, math.nan],
                                      [[0.5], [-0.1]]])
    def test_array_p_pe_outside_open_unit_interval(self, p_pe):
        # one bad element is enough, and the error names p_pe, not numpy's
        # ambiguous truth value
        with pytest.raises(ValueError, match="p_pe must be in"):
            SampleBudget(N=1e9, p_pe=np.array(p_pe), eps_pe=1e-11)

    def test_array_p_pe_gives_chi_of_its_shape(self, src, obs):
        p_pe = np.array([[0.1], [0.5], [0.9]])
        budget = SampleBudget(N=1e9, p_pe=p_pe, eps_pe=1e-11)
        chi = chi_low_orders(src, budget, obs)
        assert chi.shape == p_pe.shape
        for p, c in zip(p_pe.ravel(), chi.ravel()):
            assert c == chi_low_orders(src, SampleBudget(N=1e9, p_pe=float(p),
                                                         eps_pe=1e-11), obs)

    def test_array_eps_pe_gives_every_term_its_shape(self, src, obs):
        # the key chain's one budget: a (strategy, 1, 1) column of the ledger's
        # shares at eps_sec = 1e-10 (T's 1e-11, B's 1e-10/15) against a
        # (p_pe, 1) column; each element is the math-library scalar, bit for bit
        shares = (1e-11, 1e-10 / 15)
        N, p_pe, x = 1e9, np.array([[0.1], [0.5]]), np.array([0.0, 1e-3, 2e-3])
        budget = SampleBudget(N=N, p_pe=p_pe, eps_pe=np.array(shares)[:, None, None])
        chi = chi_low_orders(src, budget, obs)
        chis = [chi_term(src, budget, i) for i in (0, 1)]
        b = evaluate_bounds(x, src, budget, obs, chi=chi)
        assert chi.shape == chis[0].shape == chis[1].shape == (2, 2, 1)
        assert b.zeta.shape == b.q0_t_lb.shape == b.w_nt.shape == (2, 2, 3)
        orders = [math.sqrt(delta_n(src, k) * photon_prob(src, k)) for k in range(3)]
        for k, eps in enumerate(shares):
            for j, p in enumerate(p_pe.ravel().tolist()):
                scale = math.sqrt(math.log(1.0 / eps) / (2.0 * N * p))
                assert chi[k, j, 0] == scale * sum(orders) / obs.Q_nt
                assert [c[k, j, 0] for c in chis] == [o * scale for o in orders[:2]]
                one = evaluate_bounds(x, src, SampleBudget(N=N, p_pe=p, eps_pe=eps), obs,
                                      chi=scale * sum(orders) / obs.Q_nt)
                for got, want in zip(astuple(b), astuple(one), strict=True):
                    assert got[k, j].tobytes() == want.tobytes()

    def test_N_of_1_accepted(self):
        assert SampleBudget(N=1.0, p_pe=0.5, eps_pe=1e-11).N == 1.0


class TestSerflingXi:
    def test_frozen_reference(self):
        # sqrt(2000 * 1001 * ln(100) / (8e6 * 1000)) at 50 digits
        assert serfling_xi(0.01, 1000, 1000) == pytest.approx(
            0.033947663233918176, rel=1e-12
        )

    def test_decreasing_in_eps(self):
        assert serfling_xi(0.1, 500, 500) < serfling_xi(0.01, 500, 500)

    @given(
        eps=st.floats(1e-12, 0.5),
        n1=st.integers(1, 10**6),
        n2=st.integers(1, 10**6),
    )
    @settings(max_examples=50)
    def test_matches_closed_form(self, eps, n1, n2):
        expected = math.sqrt(
            (n1 + n2) * (n1 + 1) * math.log(1 / eps) / (8 * n1**2 * n2)
        )
        assert serfling_xi(eps, n1, n2) == pytest.approx(expected, rel=1e-12)

    def test_vanishes_with_samples(self):
        assert serfling_xi(0.01, 1e12, 1e12) < 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            serfling_xi(0.01, 0, 100)
        with pytest.raises(ValueError):
            serfling_xi(1.5, 100, 100)


class TestChi:
    def test_frozen_low_orders(self, src, budget, obs):
        # 50-digit reference at mu=0.5, N=1e9, p_pe=0.5, eps_pe=1e-11
        assert chi_low_orders(src, budget, obs) == pytest.approx(
            0.09399222046895718, rel=1e-11
        )

    def test_low_orders_sum_frozen(self, src, budget, obs):
        # the k = 0..2 sum of sqrt(delta_k p_k) at mu=0.5, eta_A=0.5, d_A=1e-6,
        # read back from chi = width * sum / Q_nt
        width = math.sqrt(math.log(1.0 / budget.eps_pe) / (2.0 * budget.N * budget.p_pe))
        assert chi_low_orders(src, budget, obs) * obs.Q_nt / width == pytest.approx(
            0.94362632424588622, rel=1e-12
        )

    def test_frozen_total(self, src, budget, obs):
        assert chi_total(src, budget, obs) == pytest.approx(
            0.33045027486752231, rel=1e-11
        )

    def test_frozen_terms(self, src, budget):
        assert chi_term(src, budget, 0) == pytest.approx(
            1.2994476095991931e-07, rel=1e-11
        )
        assert chi_term(src, budget, 1) == pytest.approx(
            7.5023680231802968e-05, rel=1e-11
        )

    def test_term_order_is_0_or_1(self, src, budget):
        with pytest.raises(ValueError, match="i must be 0 or 1"):
            chi_term(src, budget, 2)

    def test_low_orders_below_total(self, src, budget, obs):
        assert chi_low_orders(src, budget, obs) < chi_total(src, budget, obs)

    def test_scales_inverse_sqrt_N(self, src, budget, obs):
        big = SampleBudget(N=4e9, p_pe=0.5, eps_pe=1e-11)
        assert chi_total(src, big, obs) == pytest.approx(
            chi_total(src, budget, obs) / 2.0, rel=1e-12
        )

    def test_vanishes_asymptotically(self, src, obs):
        huge = SampleBudget(N=1e30, p_pe=0.5, eps_pe=1e-11)
        assert chi_total(src, huge, obs) < 1e-10
        assert chi_term(src, huge, 1) < 1e-10


def bounds(x, src, budget, obs):
    """evaluate_bounds with the full-series chi."""
    return evaluate_bounds(x, src, budget, obs, chi=chi_total(src, budget, obs))


class TestZetaAndBounds:
    def test_zeta_affine_decreasing(self, src, budget, obs):
        lo, hi = x_range(src, obs)
        xs = np.linspace(lo, hi, 9)
        zs = [float(bounds(float(x), src, budget, obs).zeta) for x in xs]
        assert all(b < a for a, b in zip(zs, zs[1:]))
        # affine: second differences vanish
        d2 = np.diff(zs, 2)
        assert np.all(np.abs(d2) < 1e-12)

    def test_asymptotic_above_finite(self, src, budget, obs):
        # chi = 0 can only raise the single-photon lower bound
        for x in (0.0, 0.002, 0.005):
            assert asymptotic_q1_nt(x, src, obs) >= obs.Q_nt * float(
                bounds(x, src, budget, obs).zeta
            )

    def test_q1_lb_positive_at_reference_point(self, src, budget, obs):
        assert float(bounds(0.0, src, budget, obs).q1_t_lb) > 0.0

    def test_error_bounds_ordered(self, src, budget, obs):
        # finite-sample upper bounds dominate their infinite-sample limits
        for x in (0.0, 0.002):
            assert float(bounds(x, src, budget, obs).w_nt) >= asymptotic_e1(
                x, src, obs
            ) - 1e-15

    def test_vacuous_w_t_is_inf(self, src, obs):
        tiny = SampleBudget(N=1e4, p_pe=0.5, eps_pe=1e-11)
        assert float(bounds(0.0, src, tiny, obs).w_t) == math.inf

    def test_evaluate_bounds_vectorized(self, src, budget, obs):
        xs = np.linspace(0.0, 0.005, 11)
        b = evaluate_bounds(xs, src, budget, obs)
        for i, x in enumerate(xs):
            bi = evaluate_bounds(float(x), src, budget, obs)
            assert float(b.zeta[i]) == pytest.approx(float(bi.zeta), rel=1e-14)
            assert float(b.w_nt[i]) == pytest.approx(float(bi.w_nt), rel=1e-14)

    def test_x_range(self, src, obs):
        lo, hi = x_range(src, obs)
        assert lo == 0.0
        assert 0.0 < hi <= 2.0 * obs.E_nt + 1e-15

    def test_overall_delta(self, obs):
        assert overall_delta(obs) == pytest.approx(obs.Q_t / obs.Q_nt, rel=1e-15)
        assert overall_delta(obs) > 1.0

    @pytest.mark.parametrize("call, error", [
        (lambda src, obs: overall_delta(replace(obs, Q_nt=0.0)), ZeroGain),
        # x = 1: every nontriggered click a vacuum one leaves no single photons
        (lambda src, obs: asymptotic_e1(1.0, src, obs), VacuousBound),
    ], ids=["overall_delta_of_zero_gain", "asymptotic_e1_with_no_yield"])
    def test_undefined_bound_raises(self, src, obs, call, error):
        with pytest.raises(error):
            call(src, obs)


class TestReferenceChain:
    def test_bounds_match_extended_precision(self, src, budget, obs):
        from reference_impl import Ref

        ref = Ref(0.5, 0.5, 1e-6, 0.20, 50.0, 0.1, 6e-7, 0.005)
        for x in (0.0, 0.003, 0.008):
            z_r, q1_r, wt_r, wnt_r = ref.bounds(x, 1e9, 0.5, 1e-11)
            b = evaluate_bounds(
                x, src, budget, obs, chi=chi_low_orders(src, budget, obs)
            )
            assert float(b.zeta) == pytest.approx(float(z_r), rel=1e-10)
            assert float(b.q1_t_lb) == pytest.approx(float(q1_r), rel=1e-9)
            # the other two gains ell credits: delta0 Q_nt x - chi0 and Q_nt zeta
            Q_nt = ref.observables()[1]
            q0_r = ref.delta(0) * Q_nt * x - ref.chi_i(1e9, 0.5, 1e-11, 0)
            assert float(b.q0_t_lb) == pytest.approx(float(q0_r), rel=1e-9)
            assert float(b.q1_nt_lb) == pytest.approx(float(Q_nt * z_r), rel=1e-10)
            assert float(b.w_t) == pytest.approx(float(wt_r), rel=1e-9)
            assert float(b.w_nt) == pytest.approx(float(wnt_r), rel=1e-9)
