"""Exception hierarchy for the passive decoy-state key-rate engine, and the
one integer-count check every layer shares."""

import operator


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
