"""One-phase Stefan problem simulator on a periodic strip.

The moving melting interface is a graph over the lower edge of the
reference strip; a harmonic-gauge map fixes the domain, and the coupled
temperature/height system is advanced with an IMEX splitting under one
of three interface laws, selected by sigma and kappa (melting temperature
pinned to zero, curvature-coupled surface tension for sigma > 0, or a
penalized regularization with smoothed geometry for kappa > 0).
Energy functionals, stability-margin and geometric-identity diagnostics,
and sweep harnesses live alongside the solver.
"""

__version__ = "0.1.0"

from .numerics import Grid
from .geometry import mean_curvature, metric_bundle
from .mollifier import smooth_2d, smooth_horizontal
from .initdata import (
    CompatReport,
    DataSpec,
    build_regularized_datum,
    build_sigma_data,
    compat_residuals,
    taylor_margin,
)
from .operators import compute_velocity
from .stepper import SolverConfig, SolverState, advance, init_state
from .analysis import (
    EnergyReport,
    Trajectory,
    energy_table,
    geometric_identities,
    mixed_cnorm,
)
from .harness import (
    RunManifest,
    SweepResult,
    mms_convergence,
    run_simulation,
    simulate,
    sweep_kappa,
    sweep_sigma,
)

__all__ = [
    "Grid", "mean_curvature", "metric_bundle", "smooth_2d", "smooth_horizontal",
    "CompatReport", "DataSpec", "build_regularized_datum", "build_sigma_data",
    "compat_residuals", "taylor_margin",
    "compute_velocity",
    "SolverConfig", "SolverState", "advance", "init_state",
    "EnergyReport", "Trajectory", "energy_table", "geometric_identities",
    "mixed_cnorm",
    "RunManifest", "SweepResult", "mms_convergence", "run_simulation",
    "simulate", "sweep_kappa", "sweep_sigma",
]
