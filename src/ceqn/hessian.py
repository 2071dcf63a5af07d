"""Limited-memory inverse-Hessian operators built from curvature pairs.

Every limited-memory operator has the form H = c*I + U^T M U: a scaled
identity plus a symmetric low-rank term with a few rows U and a small matrix
M, so applying H to a vector costs two matrix-vector products with U. Two
update rules fill (c, U, M): SR1, whose rank-one update vectors are the rows
of U, and BFGS in the compact form of Byrd, Nocedal and Schnabel (Math. Prog.
63, 1994), whose U is the pair storage itself. Curvature pairs are rows of
arrays, collected either along the optimization history (a FIFO ring) or by
Hessian-vector probes along fresh Gaussian directions.

Every build is finite. An operator is usable when g^T H g is positive and
finite at a nonzero g, with no floor in the units of ||g||^2. ``dual_norm``,
and the exact inverse of a Hessian that is not positive definite, raise
IndefiniteOperatorError, and the step takes H0 = ``LowRankOperator.identity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .problems import ProblemOracle, Vector, _check_dim

KIND_LSR1 = "LSR1"
KIND_LBFGS = "LBFGS"
KIND_EXACT = "EXACT"
STRATEGY_HISTORY = "HISTORY"
STRATEGY_SAMPLED = "SAMPLED"

# the pair safeguards' tolerances, read by _build_lsr1 and _build_lbfgs
SR1_SKIP_TOL = 1e-8
BFGS_CURVATURE_TOL = 1e-12


@dataclass
class ApproxConfig:
    """How to build the inverse-Hessian operator each outer iteration.

    ``kind`` EXACT assembles the true Hessian by d probes and inverts it with
    a dense factorization; LSR1/LBFGS build limited-memory approximations from
    ``memory`` curvature pairs starting at H0 = h0_scale * I.
    """

    memory: int = 10
    h0_scale: float = 1e-4
    kind: str = KIND_LSR1
    pair_strategy: str = STRATEGY_SAMPLED

    def __post_init__(self):
        if self.memory < 1:
            raise ValueError(f"memory must be >= 1, got {self.memory}")
        if not self.h0_scale > 0:
            raise ValueError(f"h0_scale must be positive, got {self.h0_scale}")
        if self.kind not in (KIND_LSR1, KIND_LBFGS, KIND_EXACT):
            raise ValueError(f"unknown approximation kind {self.kind!r}")
        if self.pair_strategy not in (STRATEGY_HISTORY, STRATEGY_SAMPLED):
            raise ValueError(f"unknown pair strategy {self.pair_strategy!r}")


class IndefiniteOperatorError(RuntimeError):
    """The operator cannot give a positive, finite gradient quadratic form."""


def dual_norm(operator, g: Vector) -> tuple[float, Vector]:
    """Gradient norm dual to the operator: sqrt(g^T H g), plus H g itself.

    Exactly one operator application; the returned H g doubles as the step
    direction. Raises IndefiniteOperatorError when the quadratic form of a
    nonzero gradient is not positive and finite.
    """
    gg = float(g @ g)
    # an H g or a form past the float range gives an inf or NaN form, which
    # fails the rule below
    with np.errstate(over="ignore", invalid="ignore"):
        hg = operator.apply(g)
        ghg = float(g @ hg)
    # written so that a NaN quadratic form also fails the test
    if gg > 0.0 and not 0.0 < ghg < math.inf:
        raise IndefiniteOperatorError(f"g^T H g = {ghg:.3e} with ||g||^2 = {gg:.3e}")
    return math.sqrt(max(ghg, 0.0)), hg


class PairBuffer:
    """Bounded FIFO of curvature pairs (s, y) held as rows of one array.

    ``s`` and ``y`` are the two halves of a (2, capacity, dimension) array,
    so ``rows`` = [s; y] is a view, never a copy. Slots fill in order and a
    full buffer overwrites its oldest slot; ``order()`` lists the filled
    slots oldest first. Slots not filled yet hold zeros.
    """

    def __init__(self, capacity: int, dimension: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dimension = dimension
        self._data = np.zeros((2, capacity, dimension))
        self.s, self.y = self._data
        self._pushed = 0

    def push(self, s: Vector, y: Vector) -> None:
        if s.shape != (self.dimension,) or y.shape != (self.dimension,):
            raise ValueError(
                f"pair vectors must have shape ({self.dimension},), got {s.shape} / {y.shape}"
            )
        slot = self._pushed % self.capacity
        self.s[slot] = s
        self.y[slot] = y
        self._pushed += 1

    def __len__(self) -> int:
        return min(self._pushed, self.capacity)

    def order(self) -> np.ndarray:
        """Slot indices of the stored pairs, oldest first."""
        return np.arange(self._pushed - len(self), self._pushed) % self.capacity

    @property
    def rows(self) -> np.ndarray:
        """All slots as one (2 * capacity, dimension) array: s rows, then y rows."""
        return self._data.reshape(2 * self.capacity, self.dimension)


def sample_pairs(
    oracle: ProblemOracle, x: Vector, m: int, rng: np.random.Generator
) -> PairBuffer:
    """Draw m standard-normal directions d_i and pair them with H(x) d_i.

    Decouples curvature estimation from the trajectory; costs exactly m
    Hessian-vector products, made in one ``hvp_batch`` call. Deterministic
    given the generator state: one (m, d) draw consumes the same stream as m
    draws of size d. The directions are drawn straight into the buffer's s
    rows, oldest first.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    pairs = PairBuffer(m, oracle.dimension)
    rng.standard_normal(out=pairs.s)
    pairs.y[:] = oracle.hvp_batch(x, pairs.s)
    pairs._pushed = m
    return pairs


class LowRankOperator:
    """H = c*I + U^T M U with a few rows U and a small symmetric matrix M.

    With no rows, H = c*I, and ``apply`` returns exactly c*g. ``skipped``
    counts the pairs the update rule dropped; ``fallback`` marks the scaled
    identity H0 taken in place of an operator: a build that was offered pairs
    but kept none or could not form a finite block, or an operator that
    raised IndefiniteOperatorError. U may be a view of a PairBuffer's
    storage, so the operator describes the pairs held at build time only
    until the buffer's next push.
    """

    def __init__(self, scale: float, u: np.ndarray, m: np.ndarray, skipped: int, fallback: bool):
        self.scale = scale
        self.u = u
        self.m = m
        self.skipped = skipped
        self.fallback = fallback

    @classmethod
    def identity(cls, scale: float, dimension: int, skipped=0, fallback=True) -> LowRankOperator:
        """H0 = scale * I with no rows, flagged as a fallback by default."""
        return cls(scale, np.zeros((0, dimension)), np.zeros((0, 0)), skipped, fallback)

    def apply(self, g: Vector) -> Vector:
        if g.shape[0] != self.u.shape[1]:
            raise ValueError(f"vector has dimension {g.shape[0]}, expected {self.u.shape[1]}")
        if not len(self.u):
            return self.scale * g
        return self.scale * g + (self.m @ (self.u @ g)) @ self.u


def _build_lsr1(pairs: PairBuffer, scale: float) -> LowRankOperator:
    """Limited-memory SR1 from H0 = scale * I over the pairs, oldest first.

    Pair i contributes v_i v_i^T / (v_i^T y_i) with v_i = s_i - H_{i-1} y_i,
    H_{i-1} being the operator built from the pairs kept before it. A pair is
    skipped when s_i or y_i vanishes, or when |v_i^T y_i| <= SR1_SKIP_TOL ||v_i||
    ||y_i||, the standard SR1 safeguard against a vanishing denominator, or
    when its weight 1 / v_i^T y_i is not finite. The kept v_i are the rows of
    U and M = diag(1 / v_i^T y_i), so U and M are finite.
    """
    n = len(pairs)
    v = np.empty((n, pairs.dimension))
    inv_vty = np.empty(n)
    k = 0
    # a row near either end of the float range may overflow v or a norm
    with np.errstate(over="ignore", invalid="ignore"):
        for slot in pairs.order():
            s, y = pairs.s[slot], pairs.y[slot]
            # a vanished displacement or curvature carries no information and
            # would inject a singular direction the denominator rule misses
            if not (s.any() and y.any()):
                continue
            kept, vk = v[:k], v[k]
            np.subtract(s, scale * y + (inv_vty[:k] * (kept @ y)) @ kept, out=vk)
            vty = float(vk @ y)
            # a NaN on either side skips the pair too
            if not abs(vty) > SR1_SKIP_TOL * math.sqrt(vk @ vk) * math.sqrt(y @ y):
                continue
            # a subnormal v^T y has no finite weight, and a v that overflowed
            # has no finite v^T y: either would put inf or NaN into U or M
            inv_vty[k] = 1.0 / vty
            if math.isfinite(vty) and math.isfinite(inv_vty[k]):
                k += 1
    return LowRankOperator(scale, v[:k], np.diag(inv_vty[:k]), n - k, n > 0 and k == 0)


def _build_lbfgs(pairs: PairBuffer, scale: float) -> LowRankOperator:
    """Limited-memory BFGS in compact form over the positive-curvature pairs.

    Pairs with s^T y <= BFGS_CURVATURE_TOL ||s|| ||y|| are dropped, preserving
    positive definiteness, and so are pairs whose gamma = s^T y / y^T y is
    not finite (y^T y underflowed to 0 or the quotient overflowed). With the
    kept pairs as rows S, Y, oldest first, R = triu(S Y^T), D = diag(S Y^T)
    and H0 = gamma * I scaled by the newest kept pair:

        H = gamma I + [S; Y]^T [[R^-T (D + gamma Y Y^T) R^-1, -gamma R^-T],
                                [-gamma R^-1,                  0         ]] [S; Y]

    U is the buffer's own storage, so M is zero on dropped and unfilled
    slots. With no kept pair, or a block past the float range, H = scale * I,
    flagged unless no pair was offered.
    """
    n = len(pairs)
    s, y = pairs.s[:n], pairs.y[:n]
    order = pairs.order()
    # a product past the float range drops its pair or fails the block check
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sy = s @ y.T
        yy = y @ y.T
        sty = np.diag(sy)
        yty = np.diag(yy)
        floor = BFGS_CURVATURE_TOL * np.sqrt(np.einsum("ij,ij->i", s, s)) * np.sqrt(yty)
        gammas = sty / yty
        kept = order[(sty[order] > floor[order]) & np.isfinite(gammas[order])]
        if kept.size == 0:
            return LowRankOperator.identity(scale, pairs.dimension, n, n > 0)
        gamma = gammas[kept[-1]]
        r_inv = scipy.linalg.solve_triangular(np.triu(sy[np.ix_(kept, kept)]), np.eye(kept.size))
        top = r_inv.T @ (np.diag(sty[kept]) + gamma * yy[np.ix_(kept, kept)]) @ r_inv
        block = np.block([[top, -gamma * r_inv.T], [-gamma * r_inv, np.zeros_like(r_inv)]])
    if not np.isfinite(block).all():
        return LowRankOperator.identity(scale, pairs.dimension, n - kept.size)
    idx = np.concatenate([kept, pairs.capacity + kept])
    m = np.zeros((2 * pairs.capacity, 2 * pairs.capacity))
    m[np.ix_(idx, idx)] = block
    return LowRankOperator(gamma, pairs.rows, m, n - kept.size, False)


class DenseInverseOperator:
    """Exact inverse Hessian at a point, assembled from d unit probes.

    Costs d Hessian-vector products (one ``hvp_batch`` over the identity)
    plus one Cholesky factorization; only meant for small problems and for
    exact-Hessian reference runs. Raises IndefiniteOperatorError when the
    Hessian is not positive definite, or when its Cholesky factor has a
    pivot p with p^2 < d * eps * max(p)^2: such a Hessian is singular up to
    round-off even though the factorization went through.
    """

    def __init__(self, oracle: ProblemOracle, x: Vector):
        d = oracle.dimension
        _check_dim(x, d)
        # row j is H e_j, i.e. column j of the symmetric Hessian
        hess = oracle.hvp_batch(x, np.eye(d))
        try:
            self._factor = scipy.linalg.cho_factor((hess + hess.T) / 2.0)
        except np.linalg.LinAlgError as exc:
            raise IndefiniteOperatorError("Hessian is not positive definite") from exc
        pivots = np.diag(self._factor[0]) ** 2
        if pivots.min() < d * np.finfo(np.float64).eps * pivots.max():
            raise IndefiniteOperatorError("Hessian is singular to working precision")
        self.skipped = 0
        self.fallback = False

    def apply(self, g: Vector) -> Vector:
        return scipy.linalg.cho_solve(self._factor, g)


def rebuild_operator(config: ApproxConfig, pairs: PairBuffer) -> LowRankOperator:
    """Build the configured limited-memory operator from the buffered pairs."""
    if config.kind == KIND_LSR1:
        return _build_lsr1(pairs, config.h0_scale)
    if config.kind == KIND_LBFGS:
        return _build_lbfgs(pairs, config.h0_scale)
    raise ValueError(
        f"operator kind {config.kind!r} is not pair-based; build it in the driver"
    )
