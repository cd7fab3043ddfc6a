"""Cascaded intracavity harmonic generation: steady states, linearized
output spectra, and tripartite correlation criteria.

Typical flow: validate a SystemParams, find its steady state, build the
drift/diffusion pair, solve the output spectra over a frequency grid, and
evaluate the correlation criteria over it; the stochastic module provides
an independent ensemble oracle for the first two stages.
"""

from .model import (
    FieldState,
    NonHermitianResidue,
    NonPositiveRate,
    QuadCovariance,
    SystemParams,
    validate_params,
)
from .semiclassical import (
    NoThresholdInRange,
    NotStationary,
    SteadyStateResult,
    ThresholdResult,
    algebraic_steady_state,
    pulsing_threshold,
    require_steady_state,
)
from .linearized import (
    DriftDiffusion,
    SpectrumResult,
    build_drift,
    default_omega_grid,
    lyapunov_covariance,
    spectrum_grid,
)
from .correlations import (
    CorrelationReport,
    DegenerateVariance,
    GridSummary,
    evaluate_grid,
    summarize_grid,
)
from .stochastic import (
    EnsembleMoments,
    ExcessiveDivergence,
    make_rng,
    run_ensemble,
)

__version__ = "0.1.0"

# Built-in parameter presets used throughout the docs, demos and CLI.
REGIME_PRESETS = {
    1: SystemParams(kappa1=5e-3, kappa2=2e-2, epsilon=105.0,
                    gamma1=1.0, gamma2=0.5, gamma3=0.5),
    2: SystemParams(kappa1=1e-2, kappa2=5e-3, epsilon=105.0,
                    gamma1=1.0, gamma2=2.0, gamma3=0.25),
}

__all__ = [
    "SystemParams", "FieldState", "QuadCovariance", "validate_params",
    "NonPositiveRate", "NonHermitianResidue",
    "SteadyStateResult", "ThresholdResult", "NotStationary",
    "NoThresholdInRange", "require_steady_state", "algebraic_steady_state",
    "pulsing_threshold",
    "DriftDiffusion", "SpectrumResult", "build_drift",
    "spectrum_grid", "lyapunov_covariance", "default_omega_grid",
    "CorrelationReport", "GridSummary", "DegenerateVariance",
    "evaluate_grid", "summarize_grid",
    "EnsembleMoments", "ExcessiveDivergence", "make_rng", "run_ensemble",
    "REGIME_PRESETS", "__version__",
]
