"""Periodic functional-differential systems with measure-valued delays.

The package analyzes resonance structure of the linear part, certifies
saturation-type existence conditions on the resonant kernel sphere (in
closed form on two-dimensional kernels, by sampling otherwise), and
computes 2 pi periodic solutions by spectral harmonic balance with
pointwise defect verification.
"""

from .errors import (BlockStructureError, DimensionMismatch, FdeError,
                     GridTooSmall, NotInImageError, ProblemFormatError,
                     R2ViolationError, ScanBoundExceeded)
from .trigpoly import TrigPoly, analyze_grid, eval_grid, differentiate
from .measures import (ConstProfile, Density, MeasureMatrix, PolyProfile,
                       ScalarMeasure, SinProfile, apply_deviation,
                       matrix_transform, total_variation_bound)
from .nonlinearity import (BoundedNonlinearity, ComponentProfile, DelayTap,
                           HistoryPerturbation, PerturbationTerm,
                           nemytskii_eval, saturating)
from .problem import MatrixPolynomial, ProblemSpec, SolveConfig
from .resonance import (ConditionFlags, KernelElement, ResonanceReport,
                        ResonantMode, apply_symbol, check_linear_conditions,
                        project_kernel, resonant_set, right_inverse,
                        scan_bound, symbol)
from .lazer_leach import (SphereSample, SphereScan, certify, degree_product,
                          degree_winding, gamma_convergence, gamma_tilde,
                          ll_margin, small_set_measure, sphere_samples,
                          sphere_scan)
from .solver import (SolveResult, assemble_residual, coefficient_jacobian,
                     seed_kernel, solve_best, solve_periodic,
                     time_shift_gauge, verify_pointwise)
from .catalog import (EXAMPLE_IDS, build_example, emit_example, load_problem,
                      parse_problem)
# loaded with the package: perfbench's tracer wraps ``fde.cli.main`` right
# after ``import fde``.  ``fde.cli`` is a package, so ``python -m fde.cli``
# runs its ``__main__`` rather than re-running an already imported module.
from . import cli  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    "BlockStructureError", "DimensionMismatch", "FdeError",
    "GridTooSmall", "NotInImageError", "ProblemFormatError",
    "R2ViolationError", "ScanBoundExceeded",
    "TrigPoly", "analyze_grid", "eval_grid", "differentiate",
    "ConstProfile", "Density", "MeasureMatrix", "PolyProfile",
    "ScalarMeasure", "SinProfile", "apply_deviation", "matrix_transform",
    "total_variation_bound",
    "BoundedNonlinearity", "ComponentProfile", "DelayTap",
    "HistoryPerturbation", "PerturbationTerm", "nemytskii_eval", "saturating",
    "MatrixPolynomial", "ProblemSpec", "SolveConfig",
    "ConditionFlags", "KernelElement", "ResonanceReport", "ResonantMode",
    "apply_symbol", "check_linear_conditions", "project_kernel",
    "resonant_set", "right_inverse", "scan_bound", "symbol",
    "SphereSample", "SphereScan", "certify", "degree_product", "degree_winding",
    "gamma_convergence", "gamma_tilde", "ll_margin", "small_set_measure",
    "sphere_samples", "sphere_scan",
    "SolveResult", "assemble_residual", "coefficient_jacobian", "seed_kernel",
    "solve_best", "solve_periodic", "time_shift_gauge", "verify_pointwise",
    "EXAMPLE_IDS", "build_example", "emit_example",
    "load_problem", "parse_problem",
]
