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
omega is defined on a grid: the first point of the OMEGA_MAX 2^-46 grid
(spacing below OMEGA_TOL) where the float LHS meets the condition.  A
Newton solve of the condition in logs, with log Phi from `log_ndtr`, finds
it in two steps from a large-omega start (the log of the LHS is concave and
decreasing, so Newton needs no bracket), and one exact LHS evaluation
places it on the grid.  Where Phi is not a normal double the float LHS
cannot judge a point, so omega there is the log-space crossing rounded up
to the grid plus one step: it errs high, and e_p with it.

Counts are real-valued expectations here; the Monte Carlo oracle harness
replays the same bound with true integer counts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, log_ndtr

from .errors import NoSolution, _within

OMEGA_MAX = 40.0
OMEGA_TOL = 1e-12
_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi
_LOG_TWO_PI = math.log(_TWO_PI)
_HALF_LOG_2 = 0.5 * math.log(2.0)
# log phi(w) - log Phi(w) = _LOG_PHI_SHIFT - (w^2 + 2 pi)/2 - log Phi(w)
_LOG_PHI_SHIFT = math.pi - 0.5 * _LOG_TWO_PI
# log g at OMEGA_MAX + 1: a crossing below this c lies past OMEGA_MAX
_C_FLOOR = float(0.5 * math.log(0.5 * ((OMEGA_MAX + 1.0) ** 2 + _TWO_PI))
                 + log_ndtr(-(OMEGA_MAX + 1.0)))
# sqrt((omega^2 + 2 pi)/2) at OMEGA_MAX, as _tail_condition_lhs computes it
_ROOT_G_MAX = math.sqrt((OMEGA_MAX**2 + 2.0 * math.pi) / 2.0)
# a guard only: from its large-omega start, Newton takes two steps
_NEWTON_STEPS = 64
# the omega grid's spacing, the first power-of-two fraction of OMEGA_MAX
# below OMEGA_TOL, and the Newton step after which an element stops
_STEP = OMEGA_MAX / 2.0 ** math.ceil(math.log2(OMEGA_MAX / OMEGA_TOL))
_DONE = math.sqrt(_STEP / 4.0)
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PhaseErrorInputs:
    """Sampling geometry and target secrecy for one event class.

    n and l are the code (sifted) and sample (test) bit counts, accepted as
    finite real-valued expectations; e_ob is the observed error fraction on the
    sample; eps_sec the secrecy parameter of the final key.
    """

    n: float
    l: float
    e_ob: float
    eps_sec: float

    def __post_init__(self):
        _within("n", self.n, 0, math.inf, "()")
        _within("l", self.l, 0, math.inf, "()")
        _within("e_ob", self.e_ob, 0, 0.5)
        _within("eps_sec", self.eps_sec, 0, 1, "()")


def gaussian_tail(omega):
    """Standard normal upper-tail probability Phi(omega); array-transparent."""
    return 0.5 * erfc(np.asarray(omega, dtype=float) / _SQRT2)


def _nu(n):
    """nu = 1/(6n) + 1/12 of the tail LHS."""
    return 1.0 / (6.0 * np.asarray(n, dtype=float)) + 1.0 / 12.0


def _tail_factors(n, l, nu):
    """sqrt((n+l)/n) and e^nu, the factors of the tail LHS that omega leaves
    out, for nu = _nu(n)."""
    return np.sqrt((n + l) / n), np.exp(nu)


def _tail_condition_lhs(omega, n, l, factors=None):
    """The tail LHS at omega; factors is _tail_factors(n, l, _nu(n)), if
    already at hand."""
    root, e_nu = _tail_factors(n, l, _nu(n)) if factors is None else factors
    return root * np.sqrt((omega**2 + 2.0 * math.pi) / 2.0) * e_nu * gaussian_tail(omega)


def _last_judged_point():
    """The largest double whose Phi is a normal double (about 37.52), by
    bisection on the floats: Phi is decreasing, so a point judges the float
    LHS exactly when it is at most this one."""
    lo, hi = 0.0, OMEGA_MAX
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if gaussian_tail(mid) >= sys.float_info.min else (lo, mid)
    return lo


_OMEGA_JUDGED = _last_judged_point()


def _tail_target(eps_sec):
    """The tail target eps_sec^2/16, or None where it is below the smallest
    normal double: there Phi is subnormal at every point near the crossing,
    so no float LHS can certify one."""
    target = eps_sec**2 / 16.0
    return target if target >= sys.float_info.min else None


def _solve_omega_arrays(n, l, eps_sec):
    """First point of the OMEGA_MAX 2^-46 grid where the float tail LHS meets
    eps_sec^2/16, elementwise; inf where the condition is unmet at OMEGA_MAX
    (a nan LHS included).

    Newton steps solve f(omega) = log g(omega) - c = 0, with
    g = sqrt((omega^2 + 2 pi)/2) Phi(omega) and
    c = log(eps_sec^2/16) - log(sqrt((n+l)/n) e^nu).  On [0, OMEGA_MAX] f is
    decreasing and concave (f' <= -0.79, -1 < f'' < 0), so Newton needs no
    bracket: from any start, every iterate after the first lies right of the
    crossing and falls to it.  The start is the two-term large-omega inverse
    of log g, omega^2 = a + (2 pi - 2)/a with a = max(-2c - log 4 pi, 1),
    within 1e-4 of the crossing on the engine's inputs.  A step d leaves an
    error below about 0.64 d^2, so an element stops after its first step of
    at most sqrt(step/4), with the iterate within a quarter grid step; it
    takes the steps it would take alone, whatever shares its array.  The
    crossing is rounded up to the grid and moved at most one step either
    way by one exact `_tail_condition_lhs` evaluation.  A point whose Phi is
    not a normal double (past _OMEGA_JUDGED) is not judged: there omega is
    the rounded-up crossing plus one step, which errs high, and which grid
    point that is can follow the last ulp of the Newton iterate.
    """
    n = np.asarray(n, dtype=float)
    l = np.asarray(l, dtype=float)
    target = _tail_target(eps_sec)
    if target is None:
        raise NoSolution(f"tail target eps_sec^2/16 underflows for eps_sec={eps_sec}")
    # e^nu overflows for n below about 2.4e-4, and then inf * Phi = nan
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nu = _nu(n)
        c = math.log(target) - 0.5 * np.log1p(l / n) - nu
        # a c below _C_FLOOR (or not finite) puts the crossing past
        # OMEGA_MAX, where omega is inf whatever w is, and a far crossing
        # would send Newton out of the float range: solve at _C_FLOOR there.
        # c absorbs the (1/2) log(1/2) of log g: f = log(w^2 + 2 pi)/2 + log Phi - c
        c = np.where(c >= _C_FLOOR, c, _C_FLOOR) + _HALF_LOG_2
        a = np.maximum(-2.0 * c - _LOG_TWO_PI, 1.0)  # -2c - log 4 pi before the fold
        w = np.sqrt(a + (_TWO_PI - 2.0) / a)
        moving = np.ones(w.shape, dtype=bool)
        for _ in range(_NEWTON_STEPS):
            s = w * w + _TWO_PI
            log_tail = log_ndtr(-w)
            slope = w / s - np.exp(_LOG_PHI_SHIFT - 0.5 * s - log_tail)
            dw = np.where(moving, (0.5 * np.log(s) + log_tail - c) / slope, 0.0)
            w = w - dw
            moving = np.abs(dw) > _DONE  # an element stops after its first small step
            if not moving.any():
                break
        snapped = np.ceil(w / _STEP) * _STEP
        points = np.array([snapped - _STEP, snapped])
        root, e_nu = factors = _tail_factors(n, l, nu)
        meets = _tail_condition_lhs(points, n, l, factors) <= target
        judged = points <= _OMEGA_JUDGED
        # Phi(OMEGA_MAX) is 0.0 in doubles, so the LHS there is 0, which
        # meets the condition, unless its other factors (multiplied in
        # _tail_condition_lhs' order) are not finite and make it nan
        met = np.isfinite(root * _ROOT_G_MAX * e_nu)
    omega = np.where(judged[0] & meets[0], snapped - _STEP,
                     np.where(judged[1] & meets[1], snapped, snapped + _STEP))
    # past OMEGA_MAX: the float LHS there read 0, but the crossing is beyond
    return np.where(met & (omega <= OMEGA_MAX), omega, math.inf)


def solve_omega(inputs: PhaseErrorInputs) -> float:
    """Smallest omega >= 0 meeting the Gaussian-tail condition; NoSolution if > OMEGA_MAX."""
    omega = float(_solve_omega_arrays(inputs.n, inputs.l, inputs.eps_sec))
    if not math.isfinite(omega):
        raise NoSolution(f"tail condition unmet at omega={OMEGA_MAX} for {inputs}")
    return omega


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
        total = n + l
        tau = omega**2 * n / (
            4.0 * l * np.maximum(total - 1.0, _TINY)
        )
        # +2 error-count shift: the bound is stated for the count c+2.
        e_shift = np.minimum((e_ob * l + 2.0) / l, 1.0)
        ep = (total * e_hat(e_shift, tau) - l * e_shift) / n
    # fewer than two bits in total carries no information, and an infinite
    # omega (no solution) or overflow of tau (vanishing sample side) means
    # the same: the bound is vacuous
    return np.where((total > 1.0) & np.isfinite(ep), ep, 0.5).clip(0.0, 0.5)


def phase_error_bound(inputs: PhaseErrorInputs) -> float:
    """Upper bound e_p on the phase error rate, clamped to [0, 0.5]."""
    return float(
        _phase_error_arrays(inputs.n, inputs.l, inputs.e_ob, inputs.eps_sec)
    )
