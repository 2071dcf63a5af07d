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
    RunResult,
    SolverConfig,
    TraceRecord,
    check_termination,
    run_solver,
)
from .hessian import (
    ApproxConfig,
    DenseInverseOperator,
    IndefiniteOperatorError,
    LowRankOperator,
    PairBuffer,
    dual_norm,
    rebuild_operator,
    sample_pairs,
)
from .problems import (
    CountingOracle,
    DimensionMismatchError,
    LogisticProblem,
    ProblemOracle,
    QuadraticProblem,
    tridiagonal_quadratic,
)
from .steps import (
    AdaptiveParams,
    CeqnParams,
    StepResult,
    adaptive_iteration,
    ceqn_step,
    check_dual,
    check_reg,
    damped_stepsize,
)

__version__ = "0.1.0"
