"""Stepsize engines: closed-form cubic-enhanced and adaptive variants.

The closed-form engine damps a quasi-Newton step by
eta = 2 / (theta + sqrt(theta^2 + L * ||g||*)) where ||g||* is the gradient
norm dual to the current curvature operator. The adaptive engines take the
same form at theta = 1 + alpha, L = (1 + alpha)^{3/2} * cubic, with a single
inexactness level alpha that is grown geometrically until a per-step
acceptance test passes and optionally decayed after success; both call
``damped_stepsize``. The classical baseline x+ = x - (1/L) H g is the
closed-form engine at theta = L, cubic = 0.

``SolverConfig.engine`` holds one engine's parameters (``CeqnParams`` or
``AdaptiveParams``), and the driver calls the engine that the block's type
names. An engine returns the next point already evaluated: its objective and
gradient come back in the ``StepResult``, so the driver evaluates the oracle
only at the start point.

All dual norms inside one outer iteration use the operator frozen at that
iteration, including inside acceptance tests on the trial point's gradient.
They come from ``hessian.dual_norm``, which also decides whether the
operator can be used; an engine passes its raise on to the driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hessian import dual_norm
from .problems import CountingOracle, Vector

MODE_DUAL = "DUAL"
MODE_REG = "REG"


@dataclass
class CeqnParams:
    """Closed-form schedule constants: damping theta > 0 and cubic weight >= 0."""

    theta: float = 1.0
    cubic: float = 0.0

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not self.cubic >= 0:
            raise ValueError(f"cubic must be nonnegative, got {self.cubic}")


@dataclass
class AdaptiveParams:
    """Adaptive schedule: inexactness level alpha with geometric updates.

    gamma_dec = 1 reproduces the increase-only scheme (alpha carried forward
    unchanged after acceptance); gamma_dec < 1 decays alpha after every
    accepted step.
    """

    cubic: float = 1.0
    alpha0: float = 1.0
    gamma_inc: float = 2.0
    gamma_dec: float = 0.5
    mode: str = MODE_DUAL
    max_inner: int = 30

    def __post_init__(self):
        if not self.cubic > 0:
            raise ValueError(f"cubic must be positive, got {self.cubic}")
        if not self.alpha0 > 0:
            raise ValueError(f"alpha0 must be positive, got {self.alpha0}")
        if not self.gamma_inc > 1:
            raise ValueError(f"gamma_inc must exceed 1, got {self.gamma_inc}")
        if not 0 < self.gamma_dec <= 1:
            raise ValueError(f"gamma_dec must lie in (0, 1], got {self.gamma_dec}")
        if self.mode not in (MODE_DUAL, MODE_REG):
            raise ValueError(f"unknown acceptance mode {self.mode!r}")
        if self.max_inner < 1:
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner}")


@dataclass
class StepResult:
    """Outcome of one engine iteration: the next point and its evaluations.

    ``f_next``/``g_next`` are the objective and gradient at ``x_next``.
    ``cap_hit`` marks a step taken while the acceptance test still fails (see
    ``adaptive_iteration``). ``alpha_next`` is the alpha the adaptive engine
    carries into the next outer iteration, None for the closed-form engine.
    """

    x_next: Vector
    f_next: float
    g_next: Vector = field(repr=False)
    eta: float
    alpha_used: float
    inner_count: int
    dual_norm_before: float
    cap_hit: bool = False
    alpha_next: float | None = None


def damped_stepsize(theta: float, lg: float) -> float:
    """The damped stepsize eta = 2 / (theta + sqrt(theta^2 + lg)).

    Every engine steps with it: CEQN at (theta, cubic * gdual), the adaptive
    loop at (c, c^{3/2} * cubic * gdual) with c = 1 + alpha. eta lies in
    (0, 1/theta], does not increase with lg, and equals 1/theta exactly at
    lg = 0, which makes CEQN at theta = L, cubic = 0 the fixed step 1/L.

    eta is the positive root of R(eta) = (lg/4) eta^2 + theta eta - 1.
    Rounding bound, with u = 2^-53 and lg normal: the five operations give
    the computed eta' = eta (1 + d) with |d| <= 4u + O(u^2), all terms being
    nonnegative. As (lg/4) eta^2 = 1 - theta eta with 0 < theta eta <= 1,
    R(eta') = d ((1 - theta eta)(2 + d) + theta eta), so |R(eta')| <= 8u +
    O(u^2). Evaluating R in floating point adds at most 4u: each term is at
    most 1, (lg/4) eta'^2 carries two roundings, theta eta' one and their
    sum one, and the final subtraction of 1 is exact: a computed residual is
    at most 12u + O(u^2).
    """
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if not lg >= 0:
        raise ValueError(f"lg must be nonnegative, got {lg}")
    if lg == 0.0:
        return 1.0 / theta
    return 2.0 / (theta + math.sqrt(theta * theta + lg))


def ceqn_step(
    params: CeqnParams,
    oracle: CountingOracle,
    operator,
    x_k: Vector,
    g_k: Vector,
) -> StepResult:
    """One closed-form iteration: x+ = x - eta * H g, then f and g at x+."""
    gdual, hg = dual_norm(operator, g_k)
    eta = damped_stepsize(params.theta, params.cubic * gdual)
    x_next = x_k - eta * hg
    return StepResult(
        x_next=x_next,
        f_next=oracle.value(x_next),
        g_next=oracle.gradient(x_next),
        eta=eta,
        alpha_used=0.0,
        inner_count=0,
        dual_norm_before=gdual,
    )


def check_dual(
    g_next: Vector,
    x_k: Vector,
    x_next: Vector,
    operator,
    alpha: float,
    cubic: float,
    grad_tol: float,
) -> bool:
    """DUAL acceptance test; True means the step is rejected.

    Rejects when <g+, x_k - x+> fails to exceed the curvature-scaled
    threshold min{ (||g+||*)^2 / 4a, (||g+||*)^{3/2} / sqrt(6 (1+a)^{3/2} L) },
    with the dual norm taken under the frozen operator of this iteration (one
    operator application). Accepts without the dual norm once ||g+||^2 <=
    grad_tol, the run's stationarity test, where the threshold degenerates
    to 0 <= 0. Rejects without the dual norm a trial whose ||g+||^2
    overflows, so alpha grows until the trial is finite or the retry cap
    ends the loop.
    """
    with np.errstate(over="ignore"):
        gg = float(g_next @ g_next)
    if gg == math.inf:
        return True
    if gg <= grad_tol:
        return False
    gdual_next, _ = dual_norm(operator, g_next)
    lhs = float(g_next @ (x_k - x_next))
    threshold = min(
        gdual_next**2 / (4.0 * alpha),
        gdual_next**1.5 / math.sqrt(6.0 * (1.0 + alpha) ** 1.5 * cubic),
    )
    return lhs <= threshold


def check_reg(
    f_k: float,
    f_next: float,
    eta: float,
    gdual: float,
    cubic: float,
    alpha: float,
) -> bool:
    """REG acceptance test; True means the step is rejected.

    Requires the decrease f+ <= f_k - eta/2 * gdual^2 - L_eff/6 * eta^3 *
    gdual^3 with L_eff = cubic * (1+alpha)^{3/2}, gdual being the dual norm
    of the gradient at the step's origin. A threshold whose powers leave
    the float range, where Python's ``**`` raises OverflowError, rejects.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not gdual >= 0:
        raise ValueError(f"gdual must be nonnegative, got {gdual}")
    try:
        l_eff = cubic * (1.0 + alpha) ** 1.5
        required = f_k - 0.5 * eta * gdual**2 - (l_eff / 6.0) * eta**3 * gdual**3
    except OverflowError:
        return True
    return f_next > required


def adaptive_iteration(
    params: AdaptiveParams,
    oracle: CountingOracle,
    operator,
    x_k: Vector,
    g_k: Vector,
    f_k: float,
    alpha_in: float,
    grad_tol: float,
) -> StepResult:
    """One adaptive outer iteration with its inner acceptance loop.

    Grows alpha by gamma_inc and retries the trial step while the configured
    acceptance test rejects, up to max_inner retries; at the cap the last
    trial is taken and flagged. A rejected trial equal to x_k is taken and
    flagged too: a larger alpha only shortens the step, so every later trial
    would be x_k as well. ``grad_tol`` is the run's ||g||^2 bound, passed to
    ``check_dual``. The test evaluates one of f and g at each trial (REG the
    value, DUAL the gradient); the other is evaluated once, at the step taken.
    ``alpha_next`` is alpha decayed by gamma_dec.
    """
    if not alpha_in > 0:
        raise ValueError(f"alpha_in must be positive, got {alpha_in}")
    gdual, hg = dual_norm(operator, g_k)
    alpha = alpha_in
    inner = 0
    while True:
        c = 1.0 + alpha
        eta = damped_stepsize(c, c**1.5 * params.cubic * gdual)
        x_next = x_k - eta * hg
        if params.mode == MODE_REG:
            f_next = oracle.value(x_next)
            rejected = check_reg(f_k, f_next, eta, gdual, params.cubic, alpha)
        else:
            g_next = oracle.gradient(x_next)
            rejected = check_dual(g_next, x_k, x_next, operator, alpha, params.cubic, grad_tol)
        if not rejected or inner >= params.max_inner or (x_next == x_k).all():
            break
        alpha *= params.gamma_inc
        inner += 1
    if params.mode == MODE_REG:
        g_next = oracle.gradient(x_next)
    else:
        f_next = oracle.value(x_next)
    return StepResult(
        x_next=x_next,
        f_next=f_next,
        g_next=g_next,
        eta=eta,
        alpha_used=alpha,
        inner_count=inner,
        dual_norm_before=gdual,
        cap_hit=rejected,
        alpha_next=alpha * params.gamma_dec,
    )
