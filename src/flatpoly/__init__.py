"""Flatness-based polynomial trajectory optimization for constrained
linear systems.

Pipeline: a controllable LTI system is parameterized by its flat outputs
(`flat`), trajectories become degree-N polynomials affine in a free
parameter vector (`polybasis`), quadratic costs and pointwise constraints
condition into a finite-dimensional QP (`costcond`, `polyconstraint`),
solved exactly or via an L1 surrogate LP (`solver`).  `pmsm_sim` applies
the pipeline as a receding-horizon torque controller for a PMSM, and `cli`
exposes everything as a command-line tool.
"""

__version__ = "0.1.0"

from .errors import (
    FlatpolyError,
    DimensionMismatch,
    UncontrollableSystem,
    DegreeTooLow,
    DegreeOutOfRange,
    NotPositiveDefinite,
    NonFinite,
)
from .flat import (
    LtiSystem,
    FlatMap,
    QuadraticCostSpec,
    LinearConstraintSpec,
    controllability_matrix,
    brunovsky_indices,
    flat_transform,
)
from .polybasis import (
    BasisSpec,
    AffinePoly,
    AffinePolyVector,
    ExtrapolationWarning,
    apply_initial_conditions,
    parameterize_outputs,
    parameterize_states_inputs,
    evaluate,
)
from .costcond import (
    ParameterizedCost,
    LeastDistanceProblem,
    gram_weights,
    condition_cost,
    assert_convexity,
    unconstrained_optimum,
    least_distance_transform,
    quadratic_value,
)
from .polyconstraint import (
    AffineConstraintSet,
    DeltaTable,
    sample_matrix,
    compute_delta,
    delta_table,
    constraint_polynomials,
    condition_constraints,
    verify_nonpositivity,
)
from .solver import (
    SolveResult,
    SuboptimalityReport,
    solve_unconstrained,
    solve_qp,
    solve_lp,
    suboptimality_report,
    FEASIBILITY_TOL,
)
from .pmsm_sim import (
    PmsmParams,
    Scenario,
    TraceRow,
    pmsm_linearize,
    pmsm_cost,
    pmsm_constraints,
    torque_constant,
    step_plant,
    pi_speed_controller,
    run_closed_loop,
)

__all__ = [
    "__version__",
    "FlatpolyError",
    "DimensionMismatch",
    "UncontrollableSystem",
    "DegreeTooLow",
    "DegreeOutOfRange",
    "NotPositiveDefinite",
    "NonFinite",
    "LtiSystem",
    "FlatMap",
    "QuadraticCostSpec",
    "LinearConstraintSpec",
    "controllability_matrix",
    "brunovsky_indices",
    "flat_transform",
    "BasisSpec",
    "AffinePoly",
    "AffinePolyVector",
    "ExtrapolationWarning",
    "apply_initial_conditions",
    "parameterize_outputs",
    "parameterize_states_inputs",
    "evaluate",
    "ParameterizedCost",
    "LeastDistanceProblem",
    "gram_weights",
    "condition_cost",
    "assert_convexity",
    "unconstrained_optimum",
    "least_distance_transform",
    "quadratic_value",
    "AffineConstraintSet",
    "DeltaTable",
    "sample_matrix",
    "compute_delta",
    "delta_table",
    "constraint_polynomials",
    "condition_constraints",
    "verify_nonpositivity",
    "SolveResult",
    "SuboptimalityReport",
    "solve_unconstrained",
    "solve_qp",
    "solve_lp",
    "suboptimality_report",
    "FEASIBILITY_TOL",
    "PmsmParams",
    "Scenario",
    "TraceRow",
    "pmsm_linearize",
    "pmsm_cost",
    "pmsm_constraints",
    "torque_constant",
    "step_plant",
    "pi_speed_controller",
    "run_closed_loop",
]
