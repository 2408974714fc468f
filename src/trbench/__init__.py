"""Matrix-free trust-region subproblem solvers over L-BFGS models.

The package provides the pair memory with implicit products, a stable
shifted-system recursion, two subproblem solvers (sigma-Newton to any
boundary accuracy, and Steihaug-Toint truncated CG), a basic trust-region
driver, a native scalable test-problem suite, and benchmark reporting
with Dolan-More performance profiles.
"""

from .bench import (
    ProfileCurve,
    RunRecord,
    performance_profile,
    read_csv,
    render_profile_svg,
    run_suite,
    write_csv,
    write_profile,
)
from .driver import (
    CONVERGED,
    FE_BUDGET_EXHAUSTED,
    RADIUS_TOO_SMALL,
    TrConfig,
    TrResult,
    minimize,
    rho,
)
from .errors import (
    CsvFormatError,
    ModelInconsistencyError,
    NumericalBreakdownError,
)
from .memory import EPS, SQRT_EPS, AbVectors, PairMemory, PanelProduct
from .problems import PROBLEM_NAMES, ProblemInstance, fd_gradient_check, make
from .shifted import ShiftedRecursionState, apply, prepare
from .subproblem import (
    BOUNDARY,
    BREAKDOWN,
    INTERIOR,
    MAX_ITERATIONS,
    GramIterate,
    MssOptions,
    OptimalityReport,
    Subproblem,
    SubproblemResult,
    check_optimality,
    dense_reference_solve,
    frame,
    frame_step,
    gram_iterate,
    mss_solve,
    newton_sigma_update,
    steihaug_solve,
)

__version__ = "0.1.0"

__all__ = [
    "AbVectors",
    "BOUNDARY",
    "BREAKDOWN",
    "CONVERGED",
    "CsvFormatError",
    "EPS",
    "FE_BUDGET_EXHAUSTED",
    "GramIterate",
    "INTERIOR",
    "MAX_ITERATIONS",
    "ModelInconsistencyError",
    "MssOptions",
    "NumericalBreakdownError",
    "OptimalityReport",
    "PROBLEM_NAMES",
    "PairMemory",
    "PanelProduct",
    "ProblemInstance",
    "ProfileCurve",
    "RADIUS_TOO_SMALL",
    "RunRecord",
    "SQRT_EPS",
    "ShiftedRecursionState",
    "Subproblem",
    "SubproblemResult",
    "TrConfig",
    "TrResult",
    "apply",
    "check_optimality",
    "dense_reference_solve",
    "fd_gradient_check",
    "frame",
    "frame_step",
    "gram_iterate",
    "make",
    "minimize",
    "mss_solve",
    "newton_sigma_update",
    "performance_profile",
    "prepare",
    "read_csv",
    "render_profile_svg",
    "rho",
    "run_suite",
    "steihaug_solve",
    "write_csv",
    "write_profile",
]
