"""Exception hierarchy for the passive decoy-state key-rate engine, and the
two argument checks every layer shares: ``_count`` for an integer count and
``_within`` for a value in an interval."""

import operator

import numpy as np


def _count(name: str, value, least: int) -> int:
    """value as a Python int >= least, else a ValueError naming the argument."""
    try:
        if isinstance(value, bool):  # an int to operator.index, but no count
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n


def _within(name: str, value, lo: float, hi: float, ends: str = "[]"):
    """value if it lies between lo and hi (elementwise for an array; NaN lies
    in no interval), else a ValueError naming the argument and the value.  A
    "(" or ")" in ends opens that end; only an array makes a numpy call."""
    left, right = ends
    above = value > lo if left == "(" else value >= lo
    below = value < hi if right == ")" else value <= hi
    if not (np.all(above & below) if isinstance(value, np.ndarray) else above and below):
        raise ValueError(f"{name} must be in {left}{lo}, {hi}{right}, got {value!r}")
    return value


class PassiveKeyError(Exception):
    """Base class for all engine-specific failures."""


class DegenerateDetector(PassiveKeyError):
    """Heralding detector certainly triggers (gamma_n = 1); delta_n is undefined."""


class NoConvergence(PassiveKeyError):
    """A photon-number series did not pass the geometric-tail test within the index cap."""


class DivergentSeries(PassiveKeyError):
    """The sqrt(delta_k p_k) series diverges for this (mu, eta_A) combination."""


class ZeroGain(PassiveKeyError):
    """Nontriggered gain is zero; ratios of gains are undefined."""


class VacuousBound(PassiveKeyError):
    """The certified single-photon bound is vacuous at this x (denominator or zeta <= 0)."""


class NoSolution(PassiveKeyError):
    """The Gaussian-tail condition cannot be met within the search bracket."""


class AllVacuous(PassiveKeyError):
    """Every point of an optimization grid yielded zero key."""


class ConfigError(PassiveKeyError):
    """A run configuration file failed to parse or validate."""
