"""Statistical ground-truth harness for the concentration bounds.

Seeded Monte Carlo sampling-without-replacement experiments with true
integer counts, drawn independently of the key-rate chain.  They replay the
two statistical claims the engine relies on:

* the phase-error bound: the unobserved code-part error fraction exceeds
  the bound computed from the sampled part with probability far below the
  secrecy target (the bound is the chain's own `_phase_error_arrays`);
* the two-sample yield concentration: the triggered/nontriggered split of a
  fixed population keeps the two empirical means within the Serfling width
  xi, except with probability at most eps.

RNG: numpy PCG64, seeded; every report carries the algorithm identifier so
runs replay exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoy_bounds import serfling_xi
from .errors import _count, _within
from .phase_error import _phase_error_arrays, _tail_target

RNG_ALGORITHM = "numpy-PCG64"


@dataclass(frozen=True)
class TrialReport:
    """Outcome of a Monte Carlo bound check."""

    violations: int
    trials: int
    rate: float
    bound: float                 # the probability the claim allows
    ci_upper_95: float           # one-sided Clopper-Pearson 95% upper CI
    seed: int
    rng: str = RNG_ALGORITHM


def _ci_upper_95(violations: int, trials: int) -> float:
    """One-sided 95% Clopper-Pearson upper bound on the failure probability."""
    if violations >= trials:
        return 1.0
    from scipy.stats import beta

    return float(beta.ppf(0.95, violations + 1, trials - violations))


def check_lemma3(
    n: int, l: int, true_error_fraction: float, eps_sec: float,
    trials: int, seed: int,
) -> TrialReport:
    """Empirical failure rate of the phase-error bound on random splits.

    A population of n + l bits with floor((n+l) * fraction) errors is split
    uniformly into a sample part (l bits, observed) and a code part
    (n bits, hidden); a violation is a trial whose hidden error fraction
    exceeds the bound computed from the observed one.
    """
    trials, seed = _count("trials", trials, 1), _count("seed", seed, 0)
    n, l = _count("n", n, 0), _count("l", l, 1)
    _within("true_error_fraction", true_error_fraction, 0, 1)
    _within("eps_sec", eps_sec, 0, 1, "()")
    if _tail_target(eps_sec) is None:
        raise ValueError(f"eps_sec must be large enough that the tail target "
                         f"eps_sec^2/16 is a normal double, got {eps_sec!r}")
    total = n + l
    marked = int(math.floor(total * true_error_fraction))
    if n == 0:
        # everything sampled: nothing left to predict, no violations possible
        return TrialReport(0, trials, 0.0, eps_sec, 0.0, seed)
    draws = np.random.default_rng(seed).hypergeometric(
        marked, total - marked, l, size=trials)
    # one bound per distinct observed count c, in one call of the chain's bound
    c, counts = np.unique(draws, return_counts=True)
    e_p = _phase_error_arrays(n, l, np.minimum(c / l, 0.5), eps_sec)
    violations = int(counts[(marked - c) / n > e_p].sum())
    rate = violations / trials
    return TrialReport(violations, trials, rate, eps_sec,
                       _ci_upper_95(violations, trials), seed)


def check_lemma4(
    n1: int, n2: int, outcome_rate: float, eps: float, trials: int, seed: int
) -> TrialReport:
    """Empirical exceedance of the two-sample concentration width xi.

    Each trial draws a population of n1 + n2 independent binary outcomes at
    the given rate, splits it uniformly into parts of size n1 and n2, and
    counts a hit when |mean1 - mean2| / 2 exceeds xi(eps, n1, n2).
    """
    trials, seed = _count("trials", trials, 1), _count("seed", seed, 0)
    n1, n2 = _count("n1", n1, 1), _count("n2", n2, 1)
    _within("outcome_rate", outcome_rate, 0, 1)
    xi = serfling_xi(eps, n1, n2)
    rng = np.random.default_rng(seed)
    total = n1 + n2
    successes = rng.binomial(total, outcome_rate, size=trials)
    k1 = rng.hypergeometric(successes, total - successes, n1)
    mean1 = k1 / n1
    mean2 = (successes - k1) / n2
    violations = int(np.count_nonzero(np.abs(mean1 - mean2) / 2.0 > xi))
    rate = violations / trials
    return TrialReport(violations, trials, rate, eps,
                       _ci_upper_95(violations, trials), seed)
