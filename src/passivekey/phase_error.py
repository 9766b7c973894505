"""Phase-error-rate upper bound from observed bit errors.

Random sampling without replacement relates the unobserved code-bit (phase)
error fraction to the observed sample error fraction through a
hypergeometric tail argument.  The bound inflates the observed fraction
e_ob to

    e_p = [(n + l) e_hat(c + 2) - l e_ob(c + 2)] / n,

where e_hat applies a width tau = omega^2 n / (4 l (n + l - 1)) and omega is
the smallest value for which the Gaussian-tail condition

    sqrt((n+l)/n) sqrt((omega^2 + 2 pi) / 2) e^nu Phi(omega) <= eps_sec^2/16

holds, with nu = 1/(6n) + 1/12 and Phi the standard normal upper tail.

Counts are real-valued expectations here; the Monte Carlo oracle harness
replays the same bound with true integer counts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import NoSolution

OMEGA_MAX = 40.0
OMEGA_TOL = 1e-12
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PhaseErrorInputs:
    """Sampling geometry and target secrecy for one event class.

    n and l are the code (sifted) and sample (test) bit counts, accepted as
    real-valued expectations; e_ob is the observed error fraction on the
    sample; eps_sec the secrecy parameter of the final key.
    """

    n: float
    l: float
    e_ob: float
    eps_sec: float

    def __post_init__(self):
        if not self.n > 0:
            raise ValueError("n must be > 0")
        if not self.l > 0:
            raise ValueError("l must be > 0")
        if not 0 <= self.e_ob <= 0.5:
            raise ValueError("e_ob must be in [0, 0.5]")
        if not 0 < self.eps_sec < 1:
            raise ValueError("eps_sec must be in (0, 1)")


def gaussian_tail(omega):
    """Standard normal upper-tail probability Phi(omega); array-transparent."""
    return 0.5 * erfc(np.asarray(omega, dtype=float) / _SQRT2)


def _tail_condition_lhs(omega, n, l):
    nu = 1.0 / (6.0 * np.asarray(n, dtype=float)) + 1.0 / 12.0
    return (
        np.sqrt((n + l) / n)
        * np.sqrt((omega**2 + 2.0 * math.pi) / 2.0)
        * np.exp(nu)
        * gaussian_tail(omega)
    )


def _solve_omega_arrays(n, l, eps_sec):
    """Smallest omega in [0, OMEGA_MAX] meeting the tail condition, elementwise."""
    n = np.asarray(n, dtype=float)
    l = np.asarray(l, dtype=float)
    target = eps_sec**2 / 16.0
    # Below the smallest normal double the tail LHS underflows to 0 before
    # the true crossing, and bisection would return too small an omega.
    if target < sys.float_info.min:
        raise NoSolution(
            f"tail target eps_sec^2/16 = {target:.3g} underflows for eps_sec={eps_sec}"
        )
    lo = np.zeros(np.broadcast(n, l).shape)
    hi = np.full_like(lo, OMEGA_MAX)
    if np.any(_tail_condition_lhs(hi, n, l) > target):
        raise NoSolution(
            f"tail condition unmet at omega={OMEGA_MAX} for eps_sec={eps_sec}"
        )
    # The LHS is strictly decreasing on [0, OMEGA_MAX] and above 0.96 at
    # omega = 0, so never below a target eps_sec^2/16 < 1/16 there: the
    # crossing is interior.  Every bracket halves exactly (its ends are
    # dyadic fractions of OMEGA_MAX), so a fixed step count reaches OMEGA_TOL.
    for _ in range(math.ceil(math.log2(OMEGA_MAX / OMEGA_TOL))):
        mid = 0.5 * (lo + hi)
        ok = _tail_condition_lhs(mid, n, l) <= target
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return hi


def solve_omega(inputs: PhaseErrorInputs) -> float:
    """Smallest omega >= 0 satisfying the Gaussian-tail condition."""
    return float(_solve_omega_arrays(inputs.n, inputs.l, inputs.eps_sec))


def e_hat(e_ob, tau):
    """Inflated error fraction (e + 2 tau + 2 sqrt(tau (e (1-e) + tau))) / (1 + 4 tau)."""
    e = np.asarray(e_ob, dtype=float)
    t = np.asarray(tau, dtype=float)
    return (e + 2.0 * t + 2.0 * np.sqrt(t * (e * (1.0 - e) + t))) / (1.0 + 4.0 * t)


def _phase_error_arrays(n, l, e_ob, eps_sec):
    """Vectorized e_p; inputs broadcast elementwise, output clamped to [0, 0.5]."""
    n = np.asarray(n, dtype=float)
    l = np.asarray(l, dtype=float)
    e_ob = np.asarray(e_ob, dtype=float)
    omega = _solve_omega_arrays(n, l, eps_sec)
    with np.errstate(over="ignore", invalid="ignore"):
        tau = omega**2 * n / (
            4.0 * l * np.maximum(n + l - 1.0, np.finfo(float).tiny)
        )
        # +2 error-count shift: the bound is stated for the count c+2.
        e_shift = np.minimum((e_ob * l + 2.0) / l, 1.0)
        ep = ((n + l) * e_hat(e_shift, tau) - l * e_shift) / n
    # fewer than two bits in total carries no information, and overflow of
    # tau (vanishing sample side) means the same: the bound is vacuous
    ep = np.where((n + l > 1.0) & np.isfinite(ep), ep, 0.5)
    return np.clip(ep, 0.0, 0.5)


def phase_error_bound(inputs: PhaseErrorInputs) -> float:
    """Upper bound e_p on the phase error rate, clamped to [0, 0.5]."""
    return float(
        _phase_error_arrays(inputs.n, inputs.l, inputs.e_ob, inputs.eps_sec)
    )
