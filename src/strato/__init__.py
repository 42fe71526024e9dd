"""Numerical laboratory for slightly viscous stratified flow in 2D.

The package integrates the vorticity-density formulation of the 2D
Boussinesq system with unit density diffusivity and small vorticity
diffusivity, and carries the analysis toolbox needed to measure how the
diffusive solutions approach the inviscid one: dyadic frequency blocks
and Besov norms, patch initial data with boundary machinery, adapted
vector families for anisotropic regularity, and a closed-form heated
disc profile whose error ladders pin the expected convergence rates.
"""

__version__ = "0.1.0"  # before the submodules, which record it in their reports

from .grid import (
    GridSpec,
    ScalarField,
    VelocityField,
    biot_savart,
    derivative,
    dx1_inv_laplacian,
    heat_propagate,
    laplacian,
    lp_norm,
    sample_at,
    velocity_gradient_sup,
)
from .littlewood_paley import (
    BesovParams,
    DyadicPartition,
    TimeSeries,
    besov_norm,
    bony_decompose,
    time_besov_norm,
)
from .initdata import (
    DensitySpec,
    PatchSpec,
    boundary_curve,
    bv_norm,
    initial_vector_family,
    make_density,
    rasterize_patch,
)
from .solver import (
    DiagnosticsRecord,
    RunResult,
    SimParams,
    SolverBlowupError,
    commutator_source,
    good_unknown,
    good_unknown_residual,
    run,
)
from .conormal import (
    BoundaryCurve,
    VectorFieldFamily,
    advect_legs,
    conormal_norm,
    family_floor,
    holder_quotient,
    log_estimate_ratio,
)
from .rankine import (
    FitResult,
    RateSeries,
    exact_vorticity,
    fit_exponent,
    patch_deficit,
    similarity_deficit,
    velocity_lp_error,
    vorticity_lp_error,
)
from .harness import SweepConfig, SweepResult, emit_report, run_sweep
