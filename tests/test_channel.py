"""Fiber channel model and simulated observables."""

import pytest

from passivekey import ChannelModel, Observables, simulate_observables, transmittance

from conftest import make_channel


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
        assert obs.Q_t == pytest.approx(0.0033785555345960017, rel=1e-12)
        assert obs.Q_nt == pytest.approx(0.0015977628730059883, rel=1e-12)
        assert obs.E_t == pytest.approx(0.0050349516687449605, rel=1e-12)
        assert obs.E_nt == pytest.approx(0.0052971284647068886, rel=1e-12)

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
