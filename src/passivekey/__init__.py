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
"""

from .channel import ChannelModel, Observables, simulate_observables, transmittance
from .decoy_bounds import (
    SampleBudget,
    SinglePhotonBounds,
    asymptotic_e1,
    asymptotic_q1_nt,
    chi_low_orders,
    chi_term,
    chi_total,
    evaluate_bounds,
    overall_delta,
    serfling_xi,
    x_range,
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
    binary_entropy,
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
from .oracle import (
    TrialReport,
    check_lemma3,
    check_lemma4,
    hypergeom_tail,
)
from .phase_error import (
    PhaseErrorInputs,
    e_hat,
    gaussian_tail,
    phase_error_bound,
    solve_omega,
)
from .photonics import (
    SeriesSum,
    SourceModel,
    delta_n,
    nontrigger_prob,
    photon_prob,
    series_sum,
    sqrt_delta_p_sum,
    trigger_prob,
)

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
    "SeriesSum",
    "SinglePhotonBounds",
    "SourceModel",
    "SweepRow",
    "TrialReport",
    "VacuousBound",
    "ZeroGain",
    "asymptotic_e1",
    "asymptotic_q1_nt",
    "asymptotic_rate",
    "binary_entropy",
    "check_lemma3",
    "check_lemma4",
    "chi_low_orders",
    "chi_term",
    "chi_total",
    "delta_n",
    "e_hat",
    "evaluate_bounds",
    "gaussian_tail",
    "hypergeom_tail",
    "key_length",
    "max_distance",
    "nontrigger_prob",
    "optimize_rate",
    "overall_delta",
    "phase_error_bound",
    "photon_prob",
    "serfling_xi",
    "series_sum",
    "simulate_observables",
    "solve_omega",
    "sqrt_delta_p_sum",
    "sweep_point",
    "transmittance",
    "trigger_prob",
    "x_range",
]
