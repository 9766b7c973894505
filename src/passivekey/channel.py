"""Fiber channel model producing the four measured observables.

Simulation mode evaluates, in closed form, the expected overall gains and
QBERs of the triggered and nontriggered pulse classes for a fiber of given
length; analysis mode is simply constructing :class:`Observables` from
experimentally measured values and skipping this module.

The expectation values are exact (finite-size fluctuation of the
observables themselves is deliberately not modeled); all finite-key
statistics enter later, in the decoy bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _within
# perfbench's tracer wraps channel.series_sum, so the name stays importable here
from .photonics import SourceModel, series_sum  # noqa: F401

QBER_SLACK = 1e-9


@dataclass(frozen=True)
class ChannelModel:
    """Fiber and receiver parameters.

    Attributes
    ----------
    alpha_db_per_km : float
        Fiber attenuation in dB/km, >= 0.
    L_km : float
        Fiber length in km, >= 0.
    eta_B : float
        Receiver detection efficiency, in (0, 1].
    p_d : float
        Receiver dark-count probability per pulse, in [0, 1).
    e_d : float
        Optical misalignment error probability, in [0, 0.5].
    """

    alpha_db_per_km: float
    L_km: float
    eta_B: float
    p_d: float
    e_d: float

    def __post_init__(self):
        _within("alpha_db_per_km", self.alpha_db_per_km, 0, math.inf, "[)")
        _within("L_km", self.L_km, 0, math.inf)
        _within("eta_B", self.eta_B, 0, 1, "(]")
        _within("p_d", self.p_d, 0, 1, "[)")
        _within("e_d", self.e_d, 0, 0.5)


@dataclass(frozen=True)
class Observables:
    """Overall gains and QBERs of the two heralding classes.

    Q_t / Q_nt are the triggered / nontriggered per-pulse gains; E_t / E_nt
    the corresponding QBERs.
    """

    Q_t: float
    Q_nt: float
    E_t: float
    E_nt: float

    def __post_init__(self):
        for name, hi in (("Q_t", 1), ("Q_nt", 1), ("E_t", 0.5 + QBER_SLACK),
                         ("E_nt", 0.5 + QBER_SLACK)):
            _within(name, getattr(self, name), 0, hi)


def transmittance(ch: ChannelModel) -> float:
    """Overall transmittance eta = 10^(-alpha L / 10) * eta_B."""
    return 10.0 ** (-ch.alpha_db_per_km * ch.L_km / 10.0) * ch.eta_B


def simulate_observables(src: SourceModel, ch: ChannelModel) -> Observables:
    """Expected (Q_t, Q_nt, E_t, E_nt) for this source and channel, in closed form.

    An n-photon pulse clicks with probability 1 - p^2 z0^n and errs with weight
    p_d + p (1 - ze^n) + p (zc^n - z0^n) + p p_d z0^n, halved in the QBER
    (p = 1-p_d; z0, ze, zc = 1-eta, 1-eta e_d, 1-eta+eta e_d).  Each thermal
    sum is geometric, sum_n p_n (1-b)^n = S(b) = 1/(1 + mu b) (Curty, Ma, Lo
    and Lutkenhaus, PRA 82, 052325, 2010), and each difference of two is a
    product of non-negative factors, so nothing cancels; only + - * / act on mu.
    """
    eta = transmittance(ch)
    mu, eta_A, d_A, p_d = src.mu, src.eta_A, src.d_A, ch.p_d
    p, t, D, eta_e = 1.0 - p_d, 1.0 - eta_A, 1.0 - d_A, eta * ch.e_d

    def S(b):
        return 1.0 / (1.0 + mu * b)

    def A(b):  # the b of (1-eta_A)^n (1-b)^n: 1 - (1-eta_A)(1-b)
        return eta_A + t * b

    # Per class weight, D (1-eta_A)^n nontriggered and 1 - D (1-eta_A)^n triggered:
    # sum_n p_n w_n u^n and sum_n p_n w_n (u^n - v^n) of b = 1-u and d = u-v >= 0.
    # The triggered gap takes (1-eta_A)^n apart once more: never total - nontriggered.
    nontriggered = (lambda b: D * S(A(b)),
                    lambda b, d: D * mu * t * d * S(A(b)) * S(A(b + d)))
    triggered = (
        lambda b: (d_A + mu * (eta_A * (1.0 - b) + d_A * b)) * S(b) * S(A(b)),
        lambda b, d: mu * d * S(b) * S(b + d) * (d_A + D * eta_A * S(A(b)) * S(A(b + d))
            * (1.0 + mu * (2.0 + mu * A(b + (1.0 - b) * (b + d))))))

    def sums(one, gap):  # (click sum, error sum) of one class
        err = gap(0.0, eta_e) + gap(eta - eta_e, eta_e) + p_d * one(eta)
        return p_d * (2.0 - p_d) * one(0.0) + p * p * gap(0.0, eta), p_d * one(0.0) + p * err

    (q_t, s_t), (q_nt, s_nt) = sums(*triggered), sums(*nontriggered)
    e_t = s_t / (2.0 * q_t) if q_t > 0 else 0.0
    e_nt = s_nt / (2.0 * q_nt) if q_nt > 0 else 0.0
    return Observables(Q_t=q_t, Q_nt=q_nt, E_t=min(e_t, 0.5), E_nt=min(e_nt, 0.5))
