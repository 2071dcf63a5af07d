"""Outer-loop orchestration: pairs, operator rebuilds, engine steps, telemetry.

One driver owns one run: it wraps the problem, which concurrent runs may
share (its data is fixed and its margin cache is swapped whole), in a
counting oracle, rebuilds the inverse-Hessian operator every iteration from
sampled or historical curvature pairs, delegates the step to the
closed-form or the adaptive engine, as the type of ``SolverConfig.engine``
names, and records one trace row per executed iteration. The driver
evaluates the oracle only at the start point; each engine returns its step
with the objective and gradient there. Every run returns a ``RunResult``: a
run whose objective or gradient stops being finite, or whose H0 fallback is
not usable either, ends ``NUMERICAL_FAILURE`` with its partial trace. Runs are
deterministic given (problem, config): the seed feeds a private generator
used only for direction sampling, and wall-clock time is the sole
nondeterministic trace column.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .hessian import (
    KIND_EXACT,
    STRATEGY_HISTORY,
    ApproxConfig,
    DenseInverseOperator,
    IndefiniteOperatorError,
    LowRankOperator,
    PairBuffer,
    rebuild_operator,
    sample_pairs,
)
from .problems import CountingOracle, ProblemOracle, Vector
from .steps import (
    AdaptiveParams,
    CeqnParams,
    StepResult,
    adaptive_iteration,
    ceqn_step,
)

TERM_GRAD_TOL = "GRAD_TOL"
TERM_MAX_ITERS = "MAX_ITERS"
TERM_TIMEOUT = "TIMEOUT"
TERM_STATIONARY = "STATIONARY"
TERM_NUMERICAL_FAILURE = "NUMERICAL_FAILURE"

X0_ALL_ONES = "ALL_ONES"
X0_ZERO = "ZERO"


@dataclass
class SolverConfig:
    """Everything one run needs.

    ``engine`` is the stepsize schedule's parameter block, and its type picks
    the schedule: ``CeqnParams`` for the closed-form CEQN step,
    and ``AdaptiveParams`` for the adaptive loop (DUAL or REG by its
    ``mode``); the fixed step ``1/L`` is ``CeqnParams(theta=L, cubic=0)``.
    The run stops at a point with ``||g||^2 <= grad_tol``, and the DUAL test
    accepts a trial point with it.
    """

    engine: CeqnParams | AdaptiveParams
    approx: ApproxConfig = field(default_factory=ApproxConfig)
    max_iters: int = 500
    grad_tol: float = 1e-12
    max_seconds: float = math.inf
    seed: int = 0
    x0: str | np.ndarray = X0_ALL_ONES

    def __post_init__(self):
        if not isinstance(self.engine, (CeqnParams, AdaptiveParams)):
            raise ValueError(
                f"engine must be CeqnParams or AdaptiveParams, got {self.engine!r}"
            )
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.grad_tol >= 0:
            raise ValueError(f"grad_tol must be nonnegative, got {self.grad_tol}")
        if not self.max_seconds > 0:
            raise ValueError(f"max_seconds must be positive, got {self.max_seconds}")
        if isinstance(self.x0, str):
            if self.x0 not in (X0_ALL_ONES, X0_ZERO):
                raise ValueError(f"unknown start point {self.x0!r}")
        else:
            self.x0 = np.asarray(self.x0, dtype=np.float64)


@dataclass
class TraceRecord:
    """Telemetry for one executed outer iteration.

    ``f_value``/``grad_norm_sq``/``grad_dual_norm`` describe the iterate the
    step departed from; counters are cumulative oracle totals once the
    iteration (including its post-step evaluations) completed.
    """

    iter: int
    wall_seconds: float
    f: float
    grad_norm_sq: float
    grad_dual_norm: float
    eta: float
    alpha: float
    inner_count: int
    skipped_pairs: int
    fallback: bool
    n_value: int
    n_grad: int
    n_hvp: int


@dataclass
class RunResult:
    """Full record of one run: per-iteration trace plus final state."""

    trace: list[TraceRecord]
    termination: str
    x_final: Vector
    f_final: float
    grad_norm_sq_final: float
    config: SolverConfig
    wall_seconds: float
    n_value: int
    n_grad: int
    n_hvp: int
    final_alpha: float | None = None


def check_termination(
    k: int, grad_norm_sq: float, elapsed: float, config: SolverConfig
) -> str | None:
    """Termination decision with precedence GRAD_TOL > MAX_ITERS > TIMEOUT."""
    if grad_norm_sq <= config.grad_tol:
        return TERM_GRAD_TOL
    if k >= config.max_iters:
        return TERM_MAX_ITERS
    if elapsed >= config.max_seconds:
        return TERM_TIMEOUT
    return None


def _start_point(config: SolverConfig, dimension: int) -> Vector:
    if isinstance(config.x0, str):
        if config.x0 == X0_ALL_ONES:
            return np.ones(dimension)
        return np.zeros(dimension)
    if config.x0.shape != (dimension,):
        raise ValueError(
            f"explicit start point has shape {config.x0.shape}, expected ({dimension},)"
        )
    return config.x0.copy()


def run_solver(problem: ProblemOracle, config: SolverConfig) -> RunResult:
    """Run the configured method on the problem until a termination fires.

    Per iteration: obtain curvature pairs (fresh Gaussian probes at the
    current iterate, or the history buffer), rebuild the operator, take one
    engine iteration, and append a trace record. When the operator cannot be
    built or used (IndefiniteOperatorError), the iteration takes the flagged
    H0 = h0_scale * I, which keeps a built operator's skipped-pair count.
    The run ends NUMERICAL_FAILURE, before any other termination test, at
    the first point where f or ||g||^2 is not finite, the start point
    included, or where g^T H0 g is not positive and finite either; a step
    that leaves x unchanged ends it STATIONARY. Only LSR1 and LBFGS runs
    with HISTORY pairs keep a pair buffer.
    """
    oracle = CountingOracle(problem)
    rng = np.random.default_rng(config.seed)
    x = _start_point(config, oracle.dimension)
    t0 = time.perf_counter()
    trace: list[TraceRecord] = []

    alpha = config.engine.alpha0 if isinstance(config.engine, AdaptiveParams) else None
    f = oracle.value(x)
    g = oracle.gradient(x)

    buffer = (
        PairBuffer(config.approx.memory, oracle.dimension)
        if config.approx.pair_strategy == STRATEGY_HISTORY and config.approx.kind != KIND_EXACT
        else None
    )
    k = 0
    while True:
        # a diverged gradient may square past the float range: inf is the answer
        with np.errstate(over="ignore"):
            gns = float(g @ g)
        if not (math.isfinite(f) and math.isfinite(gns)):
            termination = TERM_NUMERICAL_FAILURE
            break
        termination = check_termination(k, gns, time.perf_counter() - t0, config)
        if termination is not None:
            break

        skipped = 0
        try:
            if config.approx.kind == KIND_EXACT:
                operator = DenseInverseOperator(oracle, x)
            elif buffer is not None:
                operator = rebuild_operator(config.approx, buffer)
            else:
                pairs = sample_pairs(oracle, x, config.approx.memory, rng)
                operator = rebuild_operator(config.approx, pairs)
            skipped = operator.skipped
            step = _engine_iteration(config, oracle, operator, x, g, f, alpha)
        except IndefiniteOperatorError:
            operator = LowRankOperator.identity(config.approx.h0_scale, oracle.dimension, skipped)
            try:
                step = _engine_iteration(config, oracle, operator, x, g, f, alpha)
            except IndefiniteOperatorError:
                termination = TERM_NUMERICAL_FAILURE
                break

        trace.append(
            TraceRecord(
                iter=k,
                wall_seconds=time.perf_counter() - t0,
                f=float(f),
                grad_norm_sq=gns,
                grad_dual_norm=float(step.dual_norm_before),
                eta=float(step.eta),
                alpha=float(step.alpha_used),
                inner_count=step.inner_count,
                skipped_pairs=operator.skipped,
                fallback=operator.fallback,
                n_value=oracle.n_value,
                n_grad=oracle.n_grad,
                n_hvp=oracle.n_hvp,
            )
        )

        stalled = np.array_equal(step.x_next, x)
        if buffer is not None and not stalled:
            buffer.push(step.x_next - x, step.g_next - g)
        x, f, g, alpha = step.x_next, step.f_next, step.g_next, step.alpha_next
        k += 1
        if stalled:
            # the loop top found ||g||^2 above grad_tol at this very point
            termination = TERM_STATIONARY
            break

    return RunResult(
        trace=trace,
        termination=termination,
        x_final=x,
        f_final=float(f),
        grad_norm_sq_final=gns,
        config=config,
        wall_seconds=time.perf_counter() - t0,
        n_value=oracle.n_value,
        n_grad=oracle.n_grad,
        n_hvp=oracle.n_hvp,
        final_alpha=alpha,
    )


def _engine_iteration(
    config: SolverConfig,
    oracle: CountingOracle,
    operator,
    x: Vector,
    g: Vector,
    f: float,
    alpha: float | None,
) -> StepResult:
    engine = config.engine
    if isinstance(engine, CeqnParams):
        return ceqn_step(engine, oracle, operator, x, g)
    return adaptive_iteration(engine, oracle, operator, x, g, f, alpha, config.grad_tol)
