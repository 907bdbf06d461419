"""Numerically stable Zernike polynomial evaluation with an exact oracle.

The production evaluator maps radial polynomials onto Jacobi chains and runs
the stable three-term recursion (values and rho-derivatives to third order);
an exact big-integer/rational oracle certifies every float path;
``evaluate_batch`` runs a ``BatchRequest`` on one single-threaded engine,
whose ``strategy`` picks one of two plans: shared chains per azimuthal group
or one chain per mode; the CLI reproduces the accuracy, timing and precision
studies.
"""

from .batch import BatchRequest, StepCounter, evaluate_batch
from .exact import (
    ErrorRow,
    ExactRadialPoly,
    differentiate_exact,
    eval_exact,
    max_abs_error,
    oracle_table,
    precision_sweep,
    radial_coefficients,
)
from .evaluate import (
    jacobi_chain,
    jacobi_derivative_scale,
    radial_at_zero,
    radial_direct,
    radial_jacobi,
    radial_ztt,
    radial_ztt_table,
    zernike_eval,
)
from .modes import (
    BoundViolation,
    DedupPlan,
    DegreeViolation,
    Mode,
    ModeError,
    ModeSet,
    ParityViolation,
    as_mode_set,
    dedup_plan,
    full_mode_set,
    make_mode,
)
from .tables import (
    EvalMatrix,
    GridError,
    angular_grid,
    linear_radial_grid,
    radial_grid,
    rational_radial_grid,
)

__version__ = "0.1.0"

__all__ = [
    "BatchRequest",
    "BoundViolation",
    "DedupPlan",
    "DegreeViolation",
    "ErrorRow",
    "EvalMatrix",
    "ExactRadialPoly",
    "GridError",
    "Mode",
    "ModeError",
    "ModeSet",
    "ParityViolation",
    "StepCounter",
    "angular_grid",
    "as_mode_set",
    "dedup_plan",
    "differentiate_exact",
    "eval_exact",
    "evaluate_batch",
    "full_mode_set",
    "jacobi_chain",
    "jacobi_derivative_scale",
    "linear_radial_grid",
    "make_mode",
    "max_abs_error",
    "oracle_table",
    "precision_sweep",
    "radial_at_zero",
    "radial_coefficients",
    "radial_direct",
    "radial_grid",
    "radial_jacobi",
    "radial_ztt",
    "radial_ztt_table",
    "rational_radial_grid",
    "zernike_eval",
]
