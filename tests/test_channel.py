"""Fiber channel model and simulated observables."""

from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from passivekey import (
    ChannelModel,
    Observables,
    OptimizationSpec,
    SourceModel,
    asymptotic_rate,
    simulate_observables,
    transmittance,
)

from conftest import make_channel
from reference_impl import Ref


def mp_observables(ref):
    """(Q_t, Q_nt, E_t, E_nt) of a Ref configuration from the geometric sums
    sum_n p_n a^n = 1/(1 + mu (1-a)), written as they stand in 50 digits."""
    def S(a):
        return 1 / (1 + ref.mu * (1 - a))

    def sums(a):  # (click, error) sums of the weight a^n
        z0, ze, zc = 1 - ref.eta, 1 - ref.eta * ref.e_d, 1 - ref.eta + ref.eta * ref.e_d
        click = S(a) - (1 - ref.p_d) ** 2 * S(a * z0)
        return click, click - (1 - ref.p_d) * (S(a * ze) - S(a * zc))

    every = sums(mp.mpf(1))
    q_nt, s_nt = ((1 - ref.d_A) * v for v in sums(1 - ref.eta_A))
    q_t, s_t = every[0] - q_nt, every[1] - s_nt
    return q_t, q_nt, s_t / (2 * q_t), s_nt / (2 * q_nt)


class TestTransmittance:
    def test_fifty_km_exact(self, channel_50km):
        # 10^(-0.2 * 50 / 10) * 0.1 = 10^-1 * 0.1
        assert transmittance(channel_50km) == pytest.approx(0.01, rel=1e-15)

    def test_zero_length(self):
        assert transmittance(make_channel(0.0)) == pytest.approx(0.1, rel=1e-15)

    def test_monotone_in_length(self):
        etas = [transmittance(make_channel(L)) for L in range(0, 200, 10)]
        assert all(b < a for a, b in zip(etas, etas[1:]))


class TestObservablesValidation:
    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            Observables(Q_t=1.5, Q_nt=0.1, E_t=0.01, E_nt=0.01)

    def test_rejects_bad_qber(self):
        with pytest.raises(ValueError):
            Observables(Q_t=0.1, Q_nt=0.1, E_t=0.7, E_nt=0.01)

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(alpha_db_per_km=-0.1, L_km=10, eta_B=0.1, p_d=0, e_d=0)
        with pytest.raises(ValueError):
            ChannelModel(alpha_db_per_km=0.2, L_km=10, eta_B=0.0, p_d=0, e_d=0)
        with pytest.raises(ValueError):
            ChannelModel(alpha_db_per_km=0.2, L_km=10, eta_B=0.1, p_d=1.0, e_d=0)
        with pytest.raises(ValueError, match="L_km"):
            ChannelModel(alpha_db_per_km=0.2, L_km=-1, eta_B=0.1, p_d=0, e_d=0)
        with pytest.raises(ValueError, match="e_d"):
            ChannelModel(alpha_db_per_km=0.2, L_km=10, eta_B=0.1, p_d=0, e_d=0.51)


class TestSimulateObservables:
    def test_frozen_reference_50km(self, src, channel_50km):
        # 50-digit, 500-term reference values at mu=0.5 and the standard channel
        obs = simulate_observables(src, channel_50km)
        assert obs.Q_t == pytest.approx(0.0033785555345960017, rel=1e-14)
        assert obs.Q_nt == pytest.approx(0.0015977628730059883, rel=1e-14)
        assert obs.E_t == pytest.approx(0.0050349516687449605, rel=1e-14)
        assert obs.E_nt == pytest.approx(0.0052971284647068886, rel=1e-14)

    def test_ranges(self, src):
        for L in (0.0, 25.0, 100.0, 200.0):
            obs = simulate_observables(src, make_channel(L))
            assert 0.0 < obs.Q_nt < obs.Q_t < 1.0
            assert 0.0 <= obs.E_t <= 0.5
            assert 0.0 <= obs.E_nt <= 0.5

    def test_gain_decreases_with_distance(self, src):
        gains = [simulate_observables(src, make_channel(L)).Q_t
                 for L in (10.0, 50.0, 100.0, 150.0)]
        assert all(b < a for a, b in zip(gains, gains[1:]))

    def test_qber_increases_with_distance(self, src):
        qbers = [simulate_observables(src, make_channel(L)).E_t
                 for L in (10.0, 50.0, 100.0, 150.0)]
        assert all(b > a for a, b in zip(qbers, qbers[1:]))

    def test_dark_count_dominated_limit(self, src):
        # far beyond attenuation range only dark counts click: QBER -> 1/2
        obs = simulate_observables(src, make_channel(500.0))
        assert obs.E_t == pytest.approx(0.5, abs=1e-3)

    def test_misalignment_floor_at_zero_distance(self, src):
        # at L = 0 dark counts are negligible and QBER ~ e_d
        obs = simulate_observables(src, make_channel(0.0))
        assert obs.E_t == pytest.approx(0.005, rel=0.05)


class TestExtendedPrecision:
    """Every observable within 1e-14 of its 50-digit value, up to the mu cap."""

    @pytest.mark.parametrize("mu, eta_A, L", [
        (0.5, 0.5, 50.0), (0.05, 0.9, 250.0), (0.9, 0.02, 0.0), (0.3, 0.1, 300.0)])
    def test_closed_form_reference_is_the_series(self, mu, eta_A, L):
        # where 500 terms converge, the 50-digit closed form is the series
        for p_d, e_d in ((6e-7, 0.005), (0.0, 0.005), (6e-7, 0.0)):
            ref = Ref(mu, eta_A, 1e-6, 0.20, L, 0.1, p_d, e_d)
            for got, want in zip(mp_observables(ref), ref.observables()):
                assert abs(got - want) <= mp.mpf("1e-30") * abs(want)

    @pytest.mark.parametrize("eta_A", [0.004, 0.02, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("p_d, e_d", [(6e-7, 0.005), (0.0, 0.005), (6e-7, 0.0),
                                          (0.0, 0.0)])
    def test_matches_extended_precision(self, eta_A, p_d, e_d):
        src = SourceModel(mu=0.5, eta_A=eta_A, d_A=1e-6)
        mu_cap = OptimizationSpec().resolved_mu_bounds(src)[1]
        for mu in np.geomspace(0.01, mu_cap, 5):
            for L in range(0, 301, 50):
                ch = ChannelModel(alpha_db_per_km=0.20, L_km=L, eta_B=0.1, p_d=p_d, e_d=e_d)
                obs = simulate_observables(replace(src, mu=float(mu)), ch)
                want = mp_observables(Ref(mu, eta_A, 1e-6, 0.20, L, 0.1, p_d, e_d))
                for got, w in zip((obs.Q_t, obs.Q_nt, obs.E_t, obs.E_nt), want):
                    assert abs(got - w) <= 1e-14 * abs(w), (mu, L, got, w)

    def test_no_dark_counts_keep_the_misalignment_qber(self, src):
        # with p_d = 0 every error is a misaligned photon, at any distance;
        # the gains fall with eta and the asymptotic rate with them
        for L in range(500, 761, 20):
            obs = simulate_observables(src, replace(make_channel(L), p_d=0.0))
            assert obs.E_t == pytest.approx(0.005, rel=1e-13, abs=0.0)
            assert obs.E_nt == pytest.approx(0.005, rel=1e-13, abs=0.0)
        rates = [asymptotic_rate(src, replace(make_channel(L), p_d=0.0)) for L in (740, 760)]
        assert rates[0] > rates[1] > 0.0
