"""Finite-key bounds on single-photon gains and error rates.

The yield and QBER of the triggered and nontriggered n-photon classes are
related by a sampling-without-replacement concentration bound; combining it
with the odds ratios delta_n yields a lower bound zeta(x) on the
nontriggered single-photon gain fraction and upper bounds W_t(x), W_nt(x)
on the single-photon error rates, all parametrized by the unknown vacuum
ratio x = Q0_nt / Q_nt.  The asymptotic (infinite-sample) counterparts are
provided as the N -> infinity reference.

One function computes zeta, W_t and W_nt: ``evaluate_bounds`` for a sample
budget, and the same core with every chi set to zero for the limit.  It
accepts a scalar or an array of x, marks a vacuous error bound as +inf and
leaves clamping to the caller, which needs the unclamped shape.  Where
src.mu and the Observables fields are arrays over mu (columns that
broadcast against x), every term that reads them is such an array too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channel import Observables
from .errors import DegenerateDetector, VacuousBound, ZeroGain, _within
from .photonics import SourceModel, delta_n, photon_prob, sqrt_delta_p_sum


@dataclass(frozen=True)
class SampleBudget:
    """Finite-size sampling parameters.

    Attributes
    ----------
    N : float
        Basis-matched pulses, left after basis sifting and before the p_pe
        split: the source emits 2N, and the rate ell / (2N) is key per
        emitted pulse (a real number; the engine works with expected counts).
    p_pe : float or array
        Probability that a pulse is assigned to parameter estimation; an
        array of them gives every chi term that array's shape.
    eps_pe : float or array
        Failure probability of the yield/error estimation, shared across
        photon numbers; the key chain passes one share per strategy, as a
        column that broadcasts against p_pe.
    """

    N: float
    p_pe: float
    eps_pe: float

    def __post_init__(self):
        _within("N", self.N, 1, math.inf, "[)")
        _within("p_pe", self.p_pe, 0, 1, "()")
        _within("eps_pe", self.eps_pe, 0, 1, "()")

    @cached_property
    def _chi_scale(self):
        """The width sqrt(ln(1/eps_pe) / (2 N p_pe)) that every chi multiplies,
        of the shape p_pe and eps_pe broadcast to, taken once a budget for
        chi and each chi_i (np.sqrt is correctly rounded, as math.sqrt is)."""
        return np.sqrt(np.log(1.0 / self.eps_pe) / (2.0 * self.N * self.p_pe))


@dataclass(frozen=True)
class SinglePhotonBounds:
    """Raw bound values, and the gain bounds ell credits, at one (or an array of) x."""

    zeta: object
    q0_t_lb: object
    q1_t_lb: object
    q1_nt_lb: object
    w_t: object          # may be +inf where the denominator is vacuous
    w_nt: object         # may be +inf where zeta <= 0


def serfling_xi(eps: float, n1: float, n2: float) -> float:
    """Two-sample concentration width xi = sqrt((n1+n2)(n1+1) ln(1/eps) / (8 n1^2 n2)).

    This is the exact form; the chi closed form used in the key-rate chain
    absorbs the (n1+1) ~ n1 simplification.
    """
    _within("n1", n1, 1, math.inf, "[)")
    _within("n2", n2, 1, math.inf, "[)")
    _within("eps", eps, 0, 1, "(]")
    return math.sqrt((n1 + n2) * (n1 + 1) * math.log(1.0 / eps) / (8.0 * n1**2 * n2))


def _no_gain(obs: Observables) -> bool:
    """Whether Q_nt is 0, anywhere in an array of them; only an array makes
    a numpy call."""
    q = obs.Q_nt
    return not (q.all() if isinstance(q, np.ndarray) else q)


def overall_delta(obs: Observables) -> float:
    """Ratio delta = Q_t / Q_nt of the overall gains."""
    if _no_gain(obs):
        raise ZeroGain("Q_nt = 0; overall delta undefined")
    return obs.Q_t / obs.Q_nt


def chi_term(src: SourceModel, budget: SampleBudget, i: int) -> float:
    """Per-order fluctuation chi_i = sqrt(delta_i p_i ln(1/eps_pe) / (2 N p_pe))."""
    if i not in (0, 1):
        raise ValueError("i must be 0 or 1")
    return np.sqrt(delta_n(src, i) * photon_prob(src, i)) * budget._chi_scale


def _chi_from_sum(budget: SampleBudget, obs: Observables, s: float) -> float:
    if _no_gain(obs):
        raise ZeroGain("Q_nt = 0; chi undefined")
    with np.errstate(over="ignore"):  # inf for a subnormal Q_nt: no finite key
        return budget._chi_scale * s / obs.Q_nt


def chi_total(src: SourceModel, budget: SampleBudget, obs: Observables) -> float:
    """Aggregate fluctuation chi with the full sum over sqrt(delta_k p_k)."""
    return _chi_from_sum(budget, obs, sqrt_delta_p_sum(src))


def _low_roots(src: SourceModel) -> list:
    """sqrt(delta_k p_k) at k = 0, 1, 2: the terms chi_low_orders sums, and
    chi_term's at k = 0, 1 once the chi scale multiplies them."""
    return [np.sqrt(delta_n(src, k) * photon_prob(src, k)) for k in range(3)]


def chi_low_orders(src: SourceModel, budget: SampleBudget, obs: Observables,
                   roots: list | None = None) -> float:
    """Aggregate fluctuation chi with the sqrt(delta_k p_k) sum cut at k = 2.

    The key-rate chain takes the k = 0, 1, 2 orders, the ones the yield
    bound uses: the reference key-rate curves are only reproduced with these
    (see keylength).  chi_total is the conservative full-series variant.
    roots, ``_low_roots(src)`` if the caller has them, spares their
    photon_prob calls.
    """
    return _chi_from_sum(budget, obs, sum(_low_roots(src) if roots is None else roots))


def _deltas(src: SourceModel) -> tuple[float, float, float]:
    d0, d1, d2 = delta_n(src, 0), delta_n(src, 1), delta_n(src, 2)
    if not d2 > d1:
        raise DegenerateDetector("delta_2 <= delta_1; yield bound undefined (eta_A = 0?)")
    return d0, d1, d2


class _BoundTerms(NamedTuple):
    """The x-independent terms of the bounds at given chi, chi0 and chi1,
    which ``_bound_terms`` builds once for every x a caller evaluates (the
    key chain: once a call, for all its x rounds).  Each is a subexpression
    of ``_bounds``' formulas in their operand order, so every bound value
    has the bits of the whole formula."""

    d0: object
    q_nt: object
    d0_q_nt: object    # delta0 Q_nt
    d1_q_nt: object    # delta1 Q_nt
    z_top: object      # delta2 - delta
    z_slope: object    # delta2 - delta0
    z_den: object      # delta2 - delta1
    two_d1: object     # 2 delta1
    t_top: object      # 2 delta E_t
    two_e_nt: object   # 2 E_nt
    chi: object
    chi0: object
    chi1: object
    chi0_q_nt: object  # chi0 / Q_nt
    chi1_q_nt: object  # 2 chi1 / Q_nt


def _bound_terms(src: SourceModel, obs: Observables, chi, chi0, chi1) -> _BoundTerms:
    """The x-independent terms of the bounds for given fluctuation terms
    (all zero in the N -> inf limit), of the shape src.mu, obs' fields and
    the chi broadcast to."""
    d0, d1, d2 = _deltas(src)
    delta = overall_delta(obs)
    with np.errstate(over="ignore"):  # chi_i / Q_nt is inf for a subnormal Q_nt
        t_top = 2.0 * delta * obs.E_t
        chi0_q_nt, chi1_q_nt = chi0 / obs.Q_nt, 2.0 * chi1 / obs.Q_nt
    return _BoundTerms(d0=d0, q_nt=obs.Q_nt, d0_q_nt=d0 * obs.Q_nt, d1_q_nt=d1 * obs.Q_nt,
                       z_top=d2 - delta, z_slope=d2 - d0, z_den=d2 - d1, two_d1=2.0 * d1,
                       t_top=t_top, two_e_nt=2.0 * obs.E_nt, chi=chi, chi0=chi0, chi1=chi1,
                       chi0_q_nt=chi0_q_nt, chi1_q_nt=chi1_q_nt)


def _bounds(x, t: _BoundTerms) -> SinglePhotonBounds:
    """Bound values at x from the x-independent terms t.  The key chain
    builds t once a call (the deltas and delta, their differences,
    2 delta E_t, 2 E_nt, the chi_i / Q_nt quotients and the delta_i Q_nt
    products) and runs this, the arithmetic that reads x, once an x round.

    zeta(x) = [(delta2 - delta) - (delta2 - delta0) x - chi] / (delta2 - delta1)
    is affine and decreasing in x and may be negative; the gain bounds
    q1_t_lb = delta1 Q_nt zeta - chi1 and q1_nt_lb = Q_nt zeta, W_t(x) and
    W_nt(x) = (2 E_nt - x) / (2 zeta(x)) derive from it, beside the vacuum
    gain bound q0_t_lb = delta0 Q_nt x - chi0.
    """
    xa = np.asarray(x, dtype=float)
    z = (t.z_top - t.z_slope * xa - t.chi) / t.z_den
    with np.errstate(over="ignore"):  # huge t_top and chi_i / Q_nt for a subnormal Q_nt
        num_t = t.t_top - t.d0 * xa + t.chi0_q_nt
        den_t = t.two_d1 * z - t.chi1_q_nt
    num_nt = t.two_e_nt - xa
    ok_t, ok_nt = den_t > 0, z > 0
    return SinglePhotonBounds(
        zeta=z,
        q0_t_lb=t.d0_q_nt * xa - t.chi0,
        q1_t_lb=t.d1_q_nt * z - t.chi1,
        q1_nt_lb=t.q_nt * z,
        w_t=np.where(ok_t, num_t / np.where(ok_t, den_t, 1.0), np.inf),
        w_nt=np.where(ok_nt, num_nt / np.where(ok_nt, 2.0 * z, 1.0), np.inf),
    )


def evaluate_bounds(
    x,
    src: SourceModel,
    budget: SampleBudget,
    obs: Observables,
    chi: float | None = None,
    chi01: tuple[float, float] | None = None,
    *,
    terms: _BoundTerms | None = None,
) -> SinglePhotonBounds:
    """All raw bound values at x (scalar or array); chi defaults to chi_total
    and chi01, the pair (chi0, chi1), to chi_term's at orders 0 and 1.
    terms, ``_bound_terms`` of the same src, obs and chi terms, spares a
    caller that evaluates many x the x-independent terms at each; the
    other arguments are then not read."""
    if terms is None:
        if chi is None:
            chi = chi_total(src, budget, obs)
        if chi01 is None:
            chi01 = chi_term(src, budget, 0), chi_term(src, budget, 1)
        terms = _bound_terms(src, obs, chi, *chi01)
    return _bounds(x, terms)


def x_range(src: SourceModel, obs: Observables) -> tuple[float, float]:
    """Admissible vacuum-ratio interval [0, min(2 E_t delta / delta0, 2 E_nt)]."""
    d0 = delta_n(src, 0)
    delta = overall_delta(obs)
    first = 2.0 * obs.E_t * delta / d0 if d0 > 0 else math.inf
    second = 2.0 * obs.E_nt
    # floats stay floats: np.linspace is slower on numpy scalars
    return (0.0, np.minimum(first, second) if isinstance(second, np.ndarray)
            else min(first, second))


def asymptotic_q1_nt(x: float, src: SourceModel, obs: Observables) -> float:
    """Infinite-sample lower bound on Q1_nt at vacuum gain Q0_nt = x * Q_nt."""
    return float(_bounds(x, _bound_terms(src, obs, 0.0, 0.0, 0.0)).q1_nt_lb)


def asymptotic_e1(x: float, src: SourceModel, obs: Observables) -> float:
    """Infinite-sample upper bound on the single-photon error rate (min of two limbs)."""
    d0, d1, _ = _deltas(src)
    delta = overall_delta(obs)
    xi = asymptotic_q1_nt(x, src, obs)
    if not xi > 0:
        raise VacuousBound(f"asymptotic yield bound <= 0 at x={x}")
    q0 = x * obs.Q_nt
    limb_t = (2.0 * delta * obs.E_t * obs.Q_nt - d0 * q0) / (2.0 * d1 * xi)
    limb_nt = (2.0 * obs.E_nt * obs.Q_nt - q0) / (2.0 * xi)
    return min(limb_t, limb_nt)
