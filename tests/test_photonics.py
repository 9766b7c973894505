"""Photon statistics, heralding probabilities, and certified series summation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivekey import (
    DegenerateDetector,
    DivergentSeries,
    NoConvergence,
    SourceModel,
)
from passivekey.photonics import (
    delta_n,
    nontrigger_prob,
    photon_prob,
    series_sum,
    sqrt_delta_p_sum,
    trigger_prob,
)


class TestPhotonProb:
    def test_exact_low_orders(self, src):
        # thermal: p_n = mu^n / (1+mu)^(n+1) at mu = 0.5
        assert photon_prob(src, 0) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert photon_prob(src, 1) == pytest.approx(0.5 / 2.25, rel=1e-15)
        assert photon_prob(src, 2) == pytest.approx(0.25 / 3.375, rel=1e-15)

    def test_normalization(self, src):
        total = series_sum(lambda n: photon_prob(src, n)).value
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(mu=st.floats(0.01, 5.0), n=st.integers(0, 200))
    def test_in_unit_interval(self, mu, n):
        # deep thermal tails legitimately underflow to exactly 0.0
        p = photon_prob(SourceModel(mu=mu, eta_A=0.5, d_A=1e-6), n)
        assert 0.0 <= p <= 1.0
        if n <= 50:
            assert p > 0.0

    @given(mu=st.floats(0.01, 5.0), n=st.integers(0, 100))
    def test_geometric_ratio(self, mu, n):
        s = SourceModel(mu=mu, eta_A=0.5, d_A=1e-6)
        ratio = photon_prob(s, n + 1) / photon_prob(s, n)
        assert ratio == pytest.approx(mu / (1.0 + mu), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceModel(mu=-0.1, eta_A=0.5, d_A=1e-6)
        with pytest.raises(ValueError):
            SourceModel(mu=0.5, eta_A=1.5, d_A=1e-6)
        with pytest.raises(ValueError):
            SourceModel(mu=0.5, eta_A=0.5, d_A=-1e-6)
        for prob in (photon_prob, nontrigger_prob):
            with pytest.raises(ValueError, match="n must be >= 0"):
                prob(SourceModel(mu=0.5, eta_A=0.5, d_A=1e-6), -1)


class TestHeralding:
    def test_complementarity(self, src):
        for n in range(0, 300, 7):
            assert trigger_prob(src, n) + nontrigger_prob(src, n) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_trigger_monotone_in_n(self, src):
        gams = [trigger_prob(src, n) for n in range(100)]
        assert all(b >= a for a, b in zip(gams, gams[1:]))

    def test_nontrigger_exact(self, src):
        # direct product form survives where 1 - gamma would round to zero
        assert nontrigger_prob(src, 3) == pytest.approx(
            (1 - 1e-6) * 0.5**3, rel=1e-15
        )
        assert nontrigger_prob(src, 200) > 0.0

    def test_vacuum_trigger_is_dark_count(self, src):
        assert trigger_prob(src, 0) == pytest.approx(1e-6, rel=1e-12)


class TestDeltaN:
    def test_positive_and_increasing(self, src):
        ds = [delta_n(src, n) for n in range(60)]
        assert all(d > 0 for d in ds)
        assert all(b > a for a, b in zip(ds, ds[1:]))

    def test_large_n_finite(self, src):
        # gamma_n rounds to 1.0 in float64 here; delta must still be finite
        d = delta_n(src, 200)
        assert math.isfinite(d)
        assert d == pytest.approx(2.0**200 / (1 - 1e-6), rel=1e-12)

    def test_degenerate_detector(self):
        s = SourceModel(mu=0.5, eta_A=1.0, d_A=0.0)
        with pytest.raises(DegenerateDetector):
            delta_n(s, 1)


class TestSeriesSum:
    def test_geometric(self):
        out = series_sum(lambda n: 0.5**n)
        assert out.value == pytest.approx(2.0, rel=1e-13)

    def test_terms_counted(self):
        out = series_sum(lambda n: 0.0 if n > 3 else 1.0)
        assert out.value == 4.0
        assert out.terms >= 4

    def test_no_convergence(self):
        with pytest.raises(NoConvergence, match="within 10000 terms"):
            series_sum(lambda n: 1.0)

    @given(r=st.floats(0.05, 0.9))
    @settings(max_examples=30)
    def test_geometric_family(self, r):
        out = series_sum(lambda n: r**n)
        assert out.value == pytest.approx(1.0 / (1.0 - r), rel=1e-10)


class TestSqrtDeltaPSum:
    def test_frozen_reference(self, src):
        # 50-digit value of sum_n sqrt(delta_n p_n) at mu=0.5, eta_A=0.5, d_A=1e-6
        assert sqrt_delta_p_sum(src) == pytest.approx(
            3.3175253937347738, rel=1e-12
        )

    def test_divergent(self):
        # terms grow like (mu (1+delta ratio)); at mu=1, eta_A=0.5 the ratio is 1
        with pytest.raises(DivergentSeries):
            sqrt_delta_p_sum(SourceModel(mu=1.0, eta_A=0.5, d_A=1e-6))

    @pytest.mark.parametrize("mu, eta_A, d_A", [
        # the optimizer's mu range at eta_A = 0.5 reaches 0.99, where
        # (1 - eta_A)^k underflows long before the terms are negligible
        *((mu, 0.5, 1e-6) for mu in (0.01, 0.1, 0.5, 0.9, 0.95, 0.99)),
        (0.3, 1e-3, 1e-6),   # many terms with gamma_k < 1/2
        (0.3, 0.0, 1e-6),    # every gamma_k = d_A
        (0.05, 0.9, 1e-3),
    ])
    def test_matches_extended_precision(self, mu, eta_A, d_A):
        import mpmath as mp

        with mp.workdps(50):
            m, e, d = mp.mpf(mu), mp.mpf(eta_A), mp.mpf(d_A)

            def term(k):
                q = (1 - d) * (1 - e) ** k
                return mp.sqrt((1 - q) / q * m**k / (1 + m) ** (k + 1))

            want = float(mp.nsum(term, [0, mp.inf]))
        got = sqrt_delta_p_sum(SourceModel(mu=mu, eta_A=eta_A, d_A=d_A))
        assert got == pytest.approx(want, rel=2e-14)

    def test_zero_where_every_delta_is_zero(self):
        # eta_A = d_A = 0: the detector never triggers
        assert sqrt_delta_p_sum(SourceModel(mu=0.3, eta_A=0.0, d_A=0.0)) == 0.0
