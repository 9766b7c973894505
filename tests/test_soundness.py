"""Soundness of the decoy bounds at the true vacuum ratio.

At chi = 0 (the N -> infinity limit) the bounds are statements about the
expected gains themselves, so at the vacuum ratio the channel really has,
x_true = Q0_nt / Q_nt, zeta must not exceed the true single-photon share
Q1_nt / Q_nt and the smaller error bound must not fall below the true
single-photon error rate e1.  The truth comes from the n = 0 and n = 1
terms of the channel's closed form, in floats: an n-photon pulse of the
nontriggered class is weighted p_n (1 - d_A) (1 - eta_A)^n, clicks with
probability 1 - p^2 (1 - eta)^n and errs with weight err(n), halved in the
QBER (p = 1 - p_d).  A single photon's error rate is the same in both
classes, so both W_t and W_nt bound it.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivekey import ChannelModel, SourceModel, simulate_observables
from passivekey.channel import transmittance
from passivekey.decoy_bounds import _bound_terms, _bounds, x_range
from passivekey.optimizer import MU_SAFETY
from passivekey.photonics import nontrigger_prob, photon_prob, series_sum


def truth(src, ch):
    """(observables, Q0_nt, Q1_nt, e1) from the n = 0 and n = 1 closed forms."""
    eta, mu, p_d = transmittance(ch), src.mu, ch.p_d
    p = 1.0 - p_d
    weight = (1.0 - src.d_A) / (1.0 + mu)  # p_n (1 - d_A) (1 - eta_A)^n at n = 0
    click0 = p_d * (2.0 - p_d)  # 1 - p^2, and 1 - p^2 (1 - eta) below, with no cancellation
    click1 = click0 + p * p * eta
    # err(1) = p_d + p (1 - ze) + p (zc - z0) + p p_d z0, each difference eta e_d
    err1 = p_d + 2.0 * p * eta * ch.e_d + p * p_d * (1.0 - eta)
    return (simulate_observables(src, ch), weight * click0,
            weight * mu / (1.0 + mu) * (1.0 - src.eta_A) * click1, err1 / (2.0 * click1))


def check_sound(src, ch):
    obs, q0_nt, q1_nt, e1 = truth(src, ch)
    x_true = q0_nt / obs.Q_nt
    lo, hi = x_range(src, obs)
    assert lo <= x_true <= hi
    b = _bounds(x_true, _bound_terms(src, obs, 0.0, 0.0, 0.0))
    assert float(b.zeta) <= q1_nt / obs.Q_nt
    assert min(float(b.w_t), float(b.w_nt)) >= e1


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def zero_or(lo, hi):
    return st.just(0.0) | log_uniform(lo, hi)


@st.composite
def models(draw):
    eta_A = draw(log_uniform(1e-10, 0.95))
    cap = MU_SAFETY * (1.0 - eta_A) / eta_A  # below the divergence of the chi series
    src = SourceModel(mu=draw(log_uniform(0.01, min(cap, 1e6))), eta_A=eta_A,
                      d_A=draw(zero_or(1e-9, 1e-3)))
    # ChannelModel refuses a subnormal p_d or e_d; the smallest normal ones
    # are LOST's tiny_e_d, so both are drawn down to 1e-300
    ch = ChannelModel(alpha_db_per_km=0.2, L_km=draw(st.floats(0.0, 300.0)),
                      eta_B=draw(st.floats(0.05, 1.0)), p_d=draw(zero_or(1e-300, 1e-3)),
                      e_d=draw(st.floats(0.0, 0.05, allow_subnormal=False)
                           | log_uniform(1e-300, 0.05)))
    return src, ch


@given(models())
@settings(max_examples=300, deadline=None)
def test_bounds_hold_at_the_true_vacuum_ratio(model):
    check_sound(*model)


@pytest.mark.parametrize("mu, eta_A, L_km", [(0.5, 0.5, 50.0), (0.01, 1e-3, 200.0),
                                          (3.0, 0.2, 0.0)])
def test_truth_is_the_channels_own(mu, eta_A, L_km):
    # the n = 0 and n = 1 terms of the nontriggered class, summed over every
    # n by the photon-number series, give the closed form's Q_nt; e1 is the
    # n = 1 error weight as the channel's docstring has it
    src = SourceModel(mu=mu, eta_A=eta_A, d_A=1e-6)
    ch = ChannelModel(alpha_db_per_km=0.2, L_km=L_km, eta_B=0.1, p_d=6e-7, e_d=0.005)
    eta, p = transmittance(ch), 1.0 - ch.p_d
    z0, ze, zc = 1.0 - eta, 1.0 - eta * ch.e_d, 1.0 - eta + eta * ch.e_d

    def gain(n):
        return photon_prob(src, n) * nontrigger_prob(src, n) * (1.0 - p * p * z0**n)

    obs, q0_nt, q1_nt, e1 = truth(src, ch)
    assert q0_nt == pytest.approx(gain(0), rel=1e-9)
    assert q1_nt == pytest.approx(gain(1), rel=1e-9)
    assert series_sum(gain).value == pytest.approx(obs.Q_nt, rel=1e-9)
    err1 = ch.p_d + p * (1.0 - ze) + p * (zc - z0) + p * ch.p_d * z0
    assert e1 == pytest.approx(err1 / (2.0 * (1.0 - p * p * z0)), rel=1e-6)


LOST = [
    # the README's source and channel, but for eta_A = 1e-12, mu = 0.01 and 200 km:
    # delta_n = (1 - q_n) / q_n loses digits to the rounding of 1 - eta_A, and
    # zeta(x_true) = 0.0844594 exceeds the true share 0.0844562
    pytest.param(SourceModel(mu=0.01, eta_A=1e-12, d_A=1e-6),
                 ChannelModel(alpha_db_per_km=0.2, L_km=200.0, eta_B=0.1, p_d=6e-7,
                              e_d=0.005), id="tiny_eta_A"),
    # a normal e_d = 1e-307 whose error weight eta e_d = 1.2e-311 is not: the
    # triggered error sum (about mu eta_A eta e_d) keeps a few bits, and
    # W_t(x_true) = 8.4e-308 falls below e1 = 1.0e-307
    pytest.param(SourceModel(mu=0.01, eta_A=1e-10, d_A=0.0),
                 ChannelModel(alpha_db_per_km=0.2, L_km=196.0, eta_B=1.0, p_d=0.0,
                              e_d=1e-307), id="tiny_e_d"),
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="float precision lost in the bounds' inputs")
@pytest.mark.parametrize("src, ch", LOST)
def test_lost_precision_breaks_the_bound(src, ch):
    check_sound(src, ch)
