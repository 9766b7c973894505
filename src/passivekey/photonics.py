"""Photon-number statistics of an SPDC source with a heralding threshold detector.

The source emits n photon pairs with thermal statistics
``p_n = mu^n / (1 + mu)^(n+1)``.  One mode hits a threshold detector with
efficiency ``eta_A`` and dark-count rate ``d_A``; the triggering probability
on an n-photon emission is ``gamma_n = 1 - (1 - d_A)(1 - eta_A)^n``.  The
ratio ``delta_n = gamma_n / (1 - gamma_n)`` orders the photon-number classes
and drives every decoy bound downstream.

All functions are pure; the series helpers certify their truncation error
with a geometric tail estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateDetector, DivergentSeries, NoConvergence, _within

DEFAULT_REL_TOL = 1e-14
SERIES_INDEX_CAP = 10_000


@dataclass(frozen=True)
class SourceModel:
    """SPDC intensity and heralding-detector parameters.

    Attributes
    ----------
    mu : float
        Mean photon number of the source, finite and > 0.
    eta_A : float
        Heralding detector efficiency, in [0, 1].
    d_A : float
        Heralding dark-count rate per pulse, in [0, 1).
    """

    mu: float
    eta_A: float
    d_A: float

    def __post_init__(self):
        _within("mu", self.mu, 0, math.inf, "()")
        _within("eta_A", self.eta_A, 0, 1)
        _within("d_A", self.d_A, 0, 1, "[)")


class SeriesSum(NamedTuple):
    value: float
    terms: int


def photon_prob(src: SourceModel, n: int) -> float:
    """Probability p_n = mu^n / (1+mu)^(n+1) of an n-pair emission; of the
    shape of mu where src.mu is an array."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def p(mu):  # in log space, so large n does not overflow before the ratio
        return math.exp(n * math.log(mu) - (n + 1) * math.log1p(mu))

    if isinstance(src.mu, np.ndarray):
        # math's exp and log once per distinct mu: numpy's may differ from
        # them in the last ulp, and a mu array repeats each value per p_pe
        mus, at = np.unique(src.mu, return_inverse=True)
        return np.array([p(mu) for mu in mus.tolist()])[at].reshape(src.mu.shape)
    return p(src.mu)


def nontrigger_prob(src: SourceModel, n: int) -> float:
    """Probability 1 - gamma_n that the heralding detector stays silent.

    Computed directly as (1-d_A)(1-eta_A)^n; never via 1 - trigger_prob,
    which loses all precision once gamma_n is within an ulp of 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return (1.0 - src.d_A) * (1.0 - src.eta_A) ** n


def trigger_prob(src: SourceModel, n: int) -> float:
    """Triggering probability gamma_n = 1 - (1-d_A)(1-eta_A)^n."""
    return 1.0 - nontrigger_prob(src, n)


def delta_n(src: SourceModel, n: int) -> float:
    """Odds ratio delta_n = gamma_n / (1 - gamma_n); strictly increasing in n."""
    q = nontrigger_prob(src, n)
    if q == 0.0:
        raise DegenerateDetector(
            f"gamma_{n} = 1 for eta_A={src.eta_A}, d_A={src.d_A}; delta_{n} undefined"
        )
    return (1.0 - q) / q


def series_sum(term: Callable[[int], float]) -> SeriesSum:
    """Sum term(0) + term(1) + ... with a certified geometric tail cutoff.

    Truncates once the running term ratio r falls below 1 and the tail
    estimate |t_n| * r / (1 - r) drops below DEFAULT_REL_TOL * |partial sum|.
    Two consecutive exactly-zero terms also terminate (an all-zero tail).

    Returns the partial sum and the number of terms taken.  Raises
    NoConvergence if neither condition is met within SERIES_INDEX_CAP terms.
    """
    total = 0.0
    prev = None
    zeros = 0
    for n in range(SERIES_INDEX_CAP):
        t = term(n)
        total += t
        if t == 0.0:
            zeros += 1
            if zeros >= 2 and n >= 1:
                return SeriesSum(total, n + 1)
        else:
            zeros = 0
        if prev not in (None, 0.0) and t != 0.0:
            r = abs(t) / abs(prev)
            if r < 1.0:
                tail = abs(t) * r / (1.0 - r)
                if tail <= DEFAULT_REL_TOL * max(abs(total), 1e-300):
                    return SeriesSum(total, n + 1)
        prev = t
    raise NoConvergence(f"series did not converge within {SERIES_INDEX_CAP} terms")


def sqrt_delta_p_sum(src: SourceModel) -> float:
    """Sum over k of sqrt(delta_k * p_k).

    With q_k = 1 - gamma_k = (1-d_A)(1-eta_A)^k, term k is
    c rho^k sqrt(1 - q_k), c = 1/sqrt((1+mu)(1-d_A)) and
    rho = sqrt(mu / ((1+mu)(1-eta_A))), so the series converges only when
    mu * eta_A < 1 - eta_A; otherwise the fluctuation bound built on it is
    unusable and DivergentSeries is raised.  The terms with q_k > 1/2 are
    summed as they stand; from the first k = K with q_K <= 1/2 on,
    sqrt(1 - q) = 1 - q / (1 + sqrt(1 - q)) gives the rest as
    c rho^K [1/(1 - rho) - sum_j rho^j q_{K+j} / (1 + sqrt(1 - q_{K+j}))],
    whose terms fall like (rho (1-eta_A))^j and whose difference keeps at
    least 0.7 of its first part.  q_k is formed in logs, so it never
    underflows into a degenerate detector.
    """
    if src.eta_A >= 1.0 or src.mu / ((1.0 + src.mu) * (1.0 - src.eta_A)) >= 1.0:
        raise DivergentSeries(
            f"sqrt(delta_k p_k) diverges for mu={src.mu}, eta_A={src.eta_A}"
        )
    c = 1.0 / math.sqrt((1.0 + src.mu) * (1.0 - src.d_A))
    rho = math.sqrt(src.mu / ((1.0 + src.mu) * (1.0 - src.eta_A)))
    log_q0, log_r = math.log1p(-src.d_A), math.log1p(-src.eta_A)
    if log_r == 0.0:  # eta_A = 0: every q_k is 1 - d_A, a geometric series
        return c * math.sqrt(src.d_A) / (1.0 - rho)
    K = math.ceil(min(max((-math.log(2.0) - log_q0) / log_r, 0.0), SERIES_INDEX_CAP))

    def head(k: int) -> float:
        return c * rho**k * math.sqrt(-math.expm1(log_q0 + k * log_r)) if k < K else 0.0

    def tail(j: int) -> float:
        q = math.exp(log_q0 + (K + j) * log_r)
        return rho**j * q / (1.0 + math.sqrt(1.0 - q))

    return (series_sum(head).value
            + c * rho**K * (1.0 / (1.0 - rho) - series_sum(tail).value))

