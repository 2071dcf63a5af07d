"""Stepsize engines: closed-form cubic-enhanced, adaptive variants, and fixed.

The closed-form engine damps a quasi-Newton step by
eta = 2 / (theta + sqrt(theta^2 + L * ||g||*)) where ||g||* is the gradient
norm dual to the current curvature operator. The adaptive engines take the
same form at theta = 1 + alpha, L = (1 + alpha)^{3/2} * cubic, with a single
inexactness level alpha that is grown geometrically until a per-step
acceptance test passes and optionally decayed after success; both call
``damped_stepsize``. The fixed engine is the classical baseline
x+ = x - (1/L) H g.

``SolverConfig.engine`` holds one engine's parameters (``CeqnParams``,
``AdaptiveParams``, or the fixed engine's L as a float), and the driver
calls the engine that the block's type names.

All dual norms inside one outer iteration use the operator frozen at that
iteration, including inside acceptance tests on the trial point's gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .problems import CountingOracle, Vector

MODE_DUAL = "DUAL"
MODE_REG = "REG"


class IndefiniteOperatorError(RuntimeError):
    """The curvature operator produced a nonpositive gradient quadratic form.

    SR1 approximations are not positive definite in general; callers fall
    back to a scaled identity for the affected iteration.
    """


@dataclass
class CeqnParams:
    """Closed-form schedule constants: damping theta > 0 and cubic weight >= 0."""

    theta: float = 1.0
    cubic: float = 0.0

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.cubic < 0:
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
        if self.cubic <= 0:
            raise ValueError(f"cubic must be positive, got {self.cubic}")
        if self.alpha0 <= 0:
            raise ValueError(f"alpha0 must be positive, got {self.alpha0}")
        if self.gamma_inc <= 1:
            raise ValueError(f"gamma_inc must exceed 1, got {self.gamma_inc}")
        if not 0 < self.gamma_dec <= 1:
            raise ValueError(f"gamma_dec must lie in (0, 1], got {self.gamma_dec}")
        if self.mode not in (MODE_DUAL, MODE_REG):
            raise ValueError(f"unknown acceptance mode {self.mode!r}")
        if self.max_inner < 1:
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner}")


@dataclass
class StepResult:
    """Outcome of one engine iteration.

    ``f_next``/``g_next`` carry evaluations the acceptance loop already paid
    for, so the driver never re-evaluates them. ``cap_hit`` marks a step taken
    while the acceptance test still fails (see ``adaptive_iteration``).
    """

    x_next: Vector
    eta: float
    alpha_used: float
    inner_count: int
    dual_norm_before: float
    cap_hit: bool = False
    f_next: float | None = None
    g_next: Vector | None = field(default=None, repr=False)


def dual_norm(operator, g: Vector) -> tuple[float, Vector]:
    """Gradient norm dual to the operator: sqrt(g^T H g), plus H g itself.

    Exactly one operator application; the returned H g doubles as the step
    direction. Raises IndefiniteOperatorError when the quadratic form is not
    safely positive and finite for a nonzero gradient.
    """
    hg = operator.apply(g)
    gg = float(g @ g)
    ghg = float(g @ hg)
    # written so that a NaN quadratic form also fails the test
    if gg > 0.0 and not 1e-14 * gg < ghg < math.inf:
        raise IndefiniteOperatorError(
            f"g^T H g = {ghg:.3e} with ||g||^2 = {gg:.3e}"
        )
    return math.sqrt(max(ghg, 0.0)), hg


def damped_stepsize(theta: float, lg: float) -> float:
    """The damped stepsize eta = 2 / (theta + sqrt(theta^2 + lg)).

    Every engine but the fixed one steps with it: CEQN at (theta, cubic *
    gdual), the adaptive loop at (c, c^{3/2} * cubic * gdual) with c = 1 +
    alpha. eta lies in (0, 1/theta], does not increase with lg, and equals
    1/theta exactly at lg = 0.

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
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if lg < 0:
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
    """One closed-form iteration: x+ = x - eta * H g."""
    gdual, hg = dual_norm(operator, g_k)
    eta = damped_stepsize(params.theta, params.cubic * gdual)
    return StepResult(
        x_next=x_k - eta * hg,
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
    to 0 <= 0.
    """
    if float(g_next @ g_next) <= grad_tol:
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
    of the gradient at the step's origin.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if gdual < 0:
        raise ValueError(f"gdual must be nonnegative, got {gdual}")
    l_eff = cubic * (1.0 + alpha) ** 1.5
    required = f_k - 0.5 * eta * gdual**2 - (l_eff / 6.0) * eta**3 * gdual**3
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
) -> tuple[StepResult, float]:
    """One adaptive outer iteration with its inner acceptance loop.

    Grows alpha by gamma_inc and retries the trial step while the configured
    acceptance test rejects, up to max_inner retries; at the cap the last
    trial is taken and flagged. A rejected trial equal to x_k is taken and
    flagged too: a larger alpha only shortens the step, so every later trial
    would be x_k as well. ``grad_tol`` is the run's ||g||^2 bound, passed to
    ``check_dual``. Returns the step plus the alpha to carry into
    the next outer iteration (decayed by gamma_dec after success).
    """
    if alpha_in <= 0:
        raise ValueError(f"alpha_in must be positive, got {alpha_in}")
    gdual, hg = dual_norm(operator, g_k)
    alpha = alpha_in
    inner = 0
    while True:
        c = 1.0 + alpha
        eta = damped_stepsize(c, c**1.5 * params.cubic * gdual)
        x_next = x_k - eta * hg
        f_next: float | None = None
        g_next: Vector | None = None
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
    result = StepResult(
        x_next=x_next,
        eta=eta,
        alpha_used=alpha,
        inner_count=inner,
        dual_norm_before=gdual,
        cap_hit=rejected,
        f_next=f_next,
        g_next=g_next,
    )
    return result, alpha * params.gamma_dec


def fixed_step_iteration(
    inverse_step: float,
    oracle: CountingOracle,
    operator,
    x_k: Vector,
    g_k: Vector,
) -> StepResult:
    """Classical baseline iteration x+ = x - (1/L) H g with constant L.

    Never raises on indefinite operators; the dual norm is reported as a
    diagnostic with negative quadratic forms clamped to zero.
    """
    if inverse_step <= 0:
        raise ValueError(f"inverse stepsize must be positive, got {inverse_step}")
    hg = operator.apply(g_k)
    gdual = math.sqrt(max(float(g_k @ hg), 0.0))
    eta = 1.0 / inverse_step
    return StepResult(
        x_next=x_k - eta * hg,
        eta=eta,
        alpha_used=0.0,
        inner_count=0,
        dual_norm_before=gdual,
    )
