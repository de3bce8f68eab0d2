"""Frugal forward-backward operator splitting with deviation steps.

Solves monotone inclusions 0 in (sum_i F_i + sum_j B_j)(x) with one
resolvent call per F_i and one evaluation per cocoercive B_j per iteration,
while letting a policy inject norm-bounded deviations into every step
without losing convergence.
"""

from .deviations import (
    DeviationPolicy,
    MomentumPolicy,
    PolicyWindow,
    RandomBallPolicy,
    ZeroPolicy,
    deviation_cost,
    enforce_budget,
    parse_policy,
)
from .exceptions import (
    BudgetViolationError,
    CausalityError,
    CsvParseError,
    DegenerateOperatorError,
    DegenerateStepsizeError,
    DivergenceError,
    InsufficientDataError,
    InvalidInputError,
    InvalidParameterError,
    OracleFailureError,
    SchemeValidationError,
    ShapeError,
    SplitdevError,
)
from .markowitz import (
    ExperimentReport,
    MarketData,
    MarkowitzProblem,
    RunRecord,
    build_problem,
    estimate_moments,
    load_returns_csv,
    portfolio_chain_scale,
    objective,
    run_experiment,
    run_grid,
    sample_simplex,
    shift_window,
    synthetic_instance,
)
from .operators import (
    CocoerciveOp,
    MonotoneOp,
    Problem,
    affine_cocoercive,
    affine_monotone,
    estimate_cocoercivity,
    project_simplex,
    prox_shifted_l1,
    prox_shifted_power32,
    zero_monotone,
)
from .scheme import (
    CheckResult,
    Scheme,
    ValidationReport,
    build_default_S,
    chain_fb,
    check_kernel_condition,
    check_psd_condition,
    check_row_sums,
    compute_stepsizes,
    davis_yin,
    douglas_rachford,
    find_staircase_vector,
    scheme_from_json,
    scheme_to_json,
    validate,
)
from .solver import (
    ParamSchedule,
    SolveResult,
    SolverState,
    StopRule,
    Trajectory,
    solve,
    step,
)

__version__ = "0.1.0"
