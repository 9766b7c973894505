"""Finite-key secret-key rates for passive decoy-state BB84 with an SPDC source.

The package follows the analysis pipeline end to end: thermal photon
statistics and heralding on Alice's side (:mod:`~passivekey.photonics`),
a lossy fibre channel with dark counts and misalignment
(:mod:`~passivekey.channel`), finite-sample single-photon bounds from the
triggered/non-triggered decomposition (:mod:`~passivekey.decoy_bounds`),
a random-sampling phase-error estimate (:mod:`~passivekey.phase_error`),
two composable key-length formulas (:mod:`~passivekey.keylength`),
parameter optimization and distance sweeps (:mod:`~passivekey.optimizer`),
and a seeded Monte Carlo harness for the underlying concentration bounds
(:mod:`~passivekey.oracle`).

The top level exports what a caller of the engine uses: the models, each
stage's entry point and result type, the two oracle checks and every error
class.  A stage's building blocks (series sums, photon-number
probabilities, per-order chi terms, the N -> infinity limbs) are imported
from their module, e.g. ``from passivekey.photonics import series_sum``.
"""

from .channel import ChannelModel, Observables, simulate_observables, transmittance
from .decoy_bounds import (
    SampleBudget,
    SinglePhotonBounds,
    chi_low_orders,
    evaluate_bounds,
)
from .errors import (
    AllVacuous,
    ConfigError,
    DegenerateDetector,
    DivergentSeries,
    NoConvergence,
    NoSolution,
    PassiveKeyError,
    VacuousBound,
    ZeroGain,
)
from .keylength import (
    Diagnostics,
    KeyLengthResult,
    SecurityBudget,
    asymptotic_rate,
    key_length,
)
from .optimizer import (
    OptimizationSpec,
    OptimizeResult,
    SweepRow,
    max_distance,
    optimize_rate,
    sweep_point,
)
from .oracle import TrialReport, check_lemma3, check_lemma4
from .phase_error import PhaseErrorInputs, phase_error_bound, solve_omega
from .photonics import SourceModel

__version__ = "1.0.0"

__all__ = [
    "AllVacuous",
    "ChannelModel",
    "ConfigError",
    "DegenerateDetector",
    "Diagnostics",
    "DivergentSeries",
    "KeyLengthResult",
    "NoConvergence",
    "NoSolution",
    "Observables",
    "OptimizationSpec",
    "OptimizeResult",
    "PassiveKeyError",
    "PhaseErrorInputs",
    "SampleBudget",
    "SecurityBudget",
    "SinglePhotonBounds",
    "SourceModel",
    "SweepRow",
    "TrialReport",
    "VacuousBound",
    "ZeroGain",
    "asymptotic_rate",
    "check_lemma3",
    "check_lemma4",
    "chi_low_orders",
    "evaluate_bounds",
    "key_length",
    "max_distance",
    "optimize_rate",
    "phase_error_bound",
    "simulate_observables",
    "solve_omega",
    "sweep_point",
    "transmittance",
]
