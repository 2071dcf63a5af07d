"""Outer-loop orchestration: pairs, operator rebuilds, engine steps, telemetry.

One driver owns one run: it wraps the problem, which concurrent runs may
share (its data is fixed and its margin cache is swapped whole), in a
counting oracle, rebuilds the inverse-Hessian operator every iteration from
sampled or historical curvature pairs, delegates the step to the engine
that the type of ``SolverConfig.engine`` names, and records one trace row
per executed iteration. Runs are deterministic given (problem, config): the
seed feeds a private generator used only for direction sampling, and
wall-clock time is the sole nondeterministic trace column.
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
    LowRankOperator,
    PairBuffer,
    rebuild_operator,
    sample_pairs,
)
from .problems import CountingOracle, ProblemOracle, Vector
from .steps import (
    AdaptiveParams,
    CeqnParams,
    IndefiniteOperatorError,
    StepResult,
    adaptive_iteration,
    ceqn_step,
    fixed_step_iteration,
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
    ``AdaptiveParams`` for the adaptive loop (DUAL or REG by its ``mode``),
    and a float ``L`` for the fixed step ``1/L``. The run stops at a
    point with ``||g||^2 <= grad_tol``, and the DUAL test accepts a trial
    point with it.
    """

    engine: CeqnParams | AdaptiveParams | float
    approx: ApproxConfig = field(default_factory=ApproxConfig)
    max_iters: int = 500
    grad_tol: float = 1e-12
    max_seconds: float = math.inf
    seed: int = 0
    x0: str | np.ndarray = X0_ALL_ONES

    def __post_init__(self):
        if not isinstance(self.engine, (CeqnParams, AdaptiveParams, float)):
            raise ValueError(
                f"engine must be CeqnParams, AdaptiveParams or a float L, got {self.engine!r}"
            )
        if isinstance(self.engine, float) and not self.engine > 0:
            raise ValueError(f"fixed_l must be positive, got {self.engine}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.grad_tol < 0:
            raise ValueError(f"grad_tol must be nonnegative, got {self.grad_tol}")
        if self.max_seconds <= 0:
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


class NumericalFailureError(RuntimeError):
    """The objective or gradient became non-finite; carries the partial run."""

    def __init__(self, message: str, result: RunResult):
        super().__init__(message)
        self.result = result


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
    engine iteration, and append a trace record. On an indefinite operator
    the iteration is redone with the scaled-identity fallback and flagged; an
    exact Hessian that cannot be factored takes the same fallback.
    Raises NumericalFailureError (carrying the partial result) as soon as the
    objective or gradient stops being finite.
    """
    oracle = CountingOracle(problem)
    rng = np.random.default_rng(config.seed)
    x = _start_point(config, oracle.dimension)
    t0 = time.perf_counter()
    trace: list[TraceRecord] = []

    alpha = config.engine.alpha0 if isinstance(config.engine, AdaptiveParams) else None

    def finish(termination: str, x_end: Vector, f_end: float, g_end: Vector) -> RunResult:
        # a diverged gradient may square past the float range: inf is the answer
        with np.errstate(over="ignore"):
            gns_end = float(g_end @ g_end)
        return RunResult(
            trace=trace,
            termination=termination,
            x_final=x_end,
            f_final=float(f_end),
            grad_norm_sq_final=gns_end,
            config=config,
            wall_seconds=time.perf_counter() - t0,
            n_value=oracle.n_value,
            n_grad=oracle.n_grad,
            n_hvp=oracle.n_hvp,
            final_alpha=alpha,
        )

    f = oracle.value(x)
    g = oracle.gradient(x)
    if not math.isfinite(f) or not np.all(np.isfinite(g)):
        raise NumericalFailureError(
            "objective or gradient non-finite at the start point",
            finish(TERM_NUMERICAL_FAILURE, x, f, g),
        )

    buffer = (
        PairBuffer(config.approx.memory, oracle.dimension)
        if config.approx.pair_strategy == STRATEGY_HISTORY
        else None
    )
    k = 0
    while True:
        gns = float(g @ g)
        termination = check_termination(k, gns, time.perf_counter() - t0, config)
        if termination is not None:
            break

        if config.approx.kind == KIND_EXACT:
            try:
                operator = DenseInverseOperator(oracle, x)
            except np.linalg.LinAlgError:
                # a Hessian that is not positive definite or is singular to
                # working precision (mu = 0 on a rank-deficient design) gets
                # the indefinite-operator fallback
                operator = _fallback_operator(config, oracle.dimension)
        elif buffer is None:
            pairs = sample_pairs(oracle, x, config.approx.memory, rng)
            operator = rebuild_operator(config.approx, pairs)
        else:
            operator = rebuild_operator(config.approx, buffer)
        skipped_pairs = operator.skipped

        try:
            result, alpha_next = _engine_iteration(config, oracle, operator, x, g, f, alpha)
        except IndefiniteOperatorError:
            operator = _fallback_operator(config, oracle.dimension)
            result, alpha_next = _engine_iteration(config, oracle, operator, x, g, f, alpha)

        x_next = result.x_next
        f_next = result.f_next if result.f_next is not None else oracle.value(x_next)
        g_next = result.g_next if result.g_next is not None else oracle.gradient(x_next)

        trace.append(
            TraceRecord(
                iter=k,
                wall_seconds=time.perf_counter() - t0,
                f=float(f),
                grad_norm_sq=gns,
                grad_dual_norm=float(result.dual_norm_before),
                eta=float(result.eta),
                alpha=float(result.alpha_used),
                inner_count=result.inner_count,
                skipped_pairs=skipped_pairs,
                fallback=operator.fallback,
                n_value=oracle.n_value,
                n_grad=oracle.n_grad,
                n_hvp=oracle.n_hvp,
            )
        )

        if not math.isfinite(f_next) or not np.all(np.isfinite(g_next)):
            raise NumericalFailureError(
                f"objective or gradient non-finite at iteration {k}",
                finish(TERM_NUMERICAL_FAILURE, x_next, f_next, g_next),
            )

        stalled = np.array_equal(x_next, x)
        if buffer is not None and not stalled:
            buffer.push(x_next - x, g_next - g)
        x, f, g = x_next, f_next, g_next
        alpha = alpha_next
        k += 1
        if stalled:
            gns = float(g @ g)
            if gns > config.grad_tol:
                termination = TERM_STATIONARY
                break

    return finish(termination, x, f, g)


def _fallback_operator(config: SolverConfig, dimension: int) -> LowRankOperator:
    """H0 = h0_scale * I with no rows, flagged: the step taken in place of an
    operator that cannot be used."""
    return LowRankOperator(
        config.approx.h0_scale, np.empty((0, dimension)), np.empty((0, 0)), 0, True
    )


def _engine_iteration(
    config: SolverConfig,
    oracle: CountingOracle,
    operator,
    x: Vector,
    g: Vector,
    f: float,
    alpha: float | None,
) -> tuple[StepResult, float | None]:
    engine = config.engine
    if isinstance(engine, CeqnParams):
        return ceqn_step(engine, oracle, operator, x, g), alpha
    if isinstance(engine, AdaptiveParams):
        return adaptive_iteration(engine, oracle, operator, x, g, f, alpha, config.grad_tol)
    return fixed_step_iteration(engine, oracle, operator, x, g), alpha
