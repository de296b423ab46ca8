"""Simulator for crosspoint resistive feedback circuits that solve Ax = b.

The library models the closed-loop dynamics of an analog crosspoint array
with operational-amplifier feedback, its device-level conductance
quantization and noise, the computing-time law that follows from the
loop's eigenvalues, and a set of reproducible experiment scenarios with
CSV outputs and a command line front end.
"""

from .baselines import CgResult, conjugate_gradient
from .devices import (
    ConductanceMatrix,
    DevicePolicy,
    LevelSet,
    build_level_set,
    measured_level_set,
    program,
    quantize_levels,
    read_effective,
)
from .dynamics import (
    FeedbackSystem,
    OpAmpModel,
    SolveConfig,
    SolveResult,
    StabilityReport,
    Trace,
    analytic_trajectory,
    build_feedback,
    invert_matrix,
    resolve_step,
    simulate,
    slew_check,
    stability_report,
    time_bound,
)
from .errors import (
    ConfigError,
    CrossolveError,
    DomainError,
    GenerationError,
    InversionError,
    NumericalError,
    OutputError,
    StabilityError,
    UsageError,
)
from .experiments import (
    CSV_COLUMNS,
    DEFAULT_TRANSIENT_A,
    DEFAULT_TRANSIENT_B,
    SCENARIOS,
    SCHEMA_VERSION,
    ExperimentSpec,
    RunRecord,
    child_seed,
    emit_outputs,
    run_experiment,
    scenario_defaults,
)
from .generators import SparsePdSpec, covariance_matrix, random_discrete_pd, random_vector, sparse_pd
from .spectral import (
    ScalingFit,
    a_norm,
    attenuation,
    complexity_cg_estimate,
    complexity_quantum_estimate,
    direct_solve,
    fit_scaling,
    sym_part_lambda_min,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CrossolveError",
    "ConfigError",
    "UsageError",
    "DomainError",
    "NumericalError",
    "StabilityError",
    "GenerationError",
    "InversionError",
    "OutputError",
    "DevicePolicy",
    "LevelSet",
    "ConductanceMatrix",
    "build_level_set",
    "measured_level_set",
    "quantize_levels",
    "program",
    "read_effective",
    "ScalingFit",
    "direct_solve",
    "a_norm",
    "attenuation",
    "sym_part_lambda_min",
    "complexity_cg_estimate",
    "complexity_quantum_estimate",
    "fit_scaling",
    "OpAmpModel",
    "FeedbackSystem",
    "StabilityReport",
    "SolveConfig",
    "Trace",
    "SolveResult",
    "build_feedback",
    "stability_report",
    "resolve_step",
    "simulate",
    "analytic_trajectory",
    "time_bound",
    "invert_matrix",
    "slew_check",
    "SparsePdSpec",
    "covariance_matrix",
    "random_discrete_pd",
    "sparse_pd",
    "random_vector",
    "CgResult",
    "conjugate_gradient",
    "SCHEMA_VERSION",
    "CSV_COLUMNS",
    "SCENARIOS",
    "DEFAULT_TRANSIENT_A",
    "DEFAULT_TRANSIENT_B",
    "ExperimentSpec",
    "RunRecord",
    "child_seed",
    "scenario_defaults",
    "run_experiment",
    "emit_outputs",
]
