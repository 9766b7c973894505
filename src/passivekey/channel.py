"""Fiber channel model producing the four measured observables.

Simulation mode evaluates, term by photon number, the expected overall gains
and QBERs of the triggered and nontriggered pulse classes for a fiber of
given length; analysis mode is simply constructing :class:`Observables`
from experimentally measured values and skipping this module.

The expectation values are exact (finite-size fluctuation of the
observables themselves is deliberately not modeled); all finite-key
statistics enter later, in the decoy bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _within
from .photonics import SourceModel, nontrigger_prob, photon_prob, series_sum

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
    """Expected (Q_t, Q_nt, E_t, E_nt) for this source and channel.

    Per photon number n, the receiver clicks with probability
    ``1 - (1-eta)^n (1-p_d)^2`` and the error weight is that click
    probability minus ``(1-p_d)[(1 - eta e_d)^n - (1 - eta + eta e_d)^n]``,
    halved in the QBER.  The n-sums are truncated by the certified
    geometric-tail rule.
    """
    eta = transmittance(ch)
    pd2 = (1.0 - ch.p_d) ** 2

    def click(n: int) -> float:
        return 1.0 - (1.0 - eta) ** n * pd2

    def err(n: int) -> float:
        return click(n) - (1.0 - ch.p_d) * (
            (1.0 - eta * ch.e_d) ** n - (1.0 - eta + eta * ch.e_d) ** n
        )

    def w_t(n: int) -> float:
        return photon_prob(src, n) * (1.0 - nontrigger_prob(src, n))

    def w_nt(n: int) -> float:
        return photon_prob(src, n) * nontrigger_prob(src, n)

    q_t = series_sum(lambda n: w_t(n) * click(n)).value
    q_nt = series_sum(lambda n: w_nt(n) * click(n)).value
    s_et = series_sum(lambda n: w_t(n) * err(n)).value
    s_ent = series_sum(lambda n: w_nt(n) * err(n)).value

    e_t = s_et / (2.0 * q_t) if q_t > 0 else 0.0
    e_nt = s_ent / (2.0 * q_nt) if q_nt > 0 else 0.0
    return Observables(Q_t=q_t, Q_nt=q_nt, E_t=min(e_t, 0.5), E_nt=min(e_nt, 0.5))
