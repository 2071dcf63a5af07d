"""Quasi-Newton solvers with cubically enhanced stepsize schedules."""

from .data_io import (
    ConfigError,
    Dataset,
    LibsvmParseError,
    RunSpec,
    load_config,
    parse_libsvm,
    read_trace_csv,
    validate_spec,
    write_summary_json,
    write_trace_csv,
)
from .driver import (
    NumericalFailureError,
    RunResult,
    SolverConfig,
    TraceRecord,
    check_termination,
    run_solver,
)
from .hessian import (
    ApproxConfig,
    DenseInverseOperator,
    LowRankOperator,
    PairBuffer,
    ScaledIdentityOperator,
    rebuild_operator,
    sample_pairs,
)
from .problems import (
    CountingOracle,
    DimensionMismatchError,
    LogisticProblem,
    ProblemOracle,
    QuadraticProblem,
    finite_diff_gradient,
    tridiagonal_quadratic,
)
from .steps import (
    AdaptiveParams,
    CeqnParams,
    IndefiniteOperatorError,
    StepResult,
    adaptive_iteration,
    adaptive_stepsize,
    ceqn_step,
    ceqn_stepsize,
    check_dual,
    check_reg,
    dual_norm,
    fixed_step_iteration,
)

__version__ = "0.1.0"
