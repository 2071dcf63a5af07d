"""Convex objectives exposing values, gradients, and Hessian-vector products.

Two concrete problems are provided: l2-regularized logistic regression over a
sparse design matrix, and a dense symmetric-positive-definite quadratic used
as an exactly solvable test bed. Solvers talk to problems through the
``ProblemOracle`` protocol; per-run evaluation counting lives in
``CountingOracle``, so one problem can be shared by concurrent runs. The
problem data never changes after construction. ``LogisticProblem`` keeps one
cache slot, the margins of the last point it evaluated, so ``value``,
``gradient`` and ``hvp_batch`` at the same x compute them once; the slot is
swapped whole and its arrays are never written, so sharing stays safe.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np
import scipy.sparse as sp
from numpy.typing import NDArray

Vector = NDArray[np.float64]


class DimensionMismatchError(ValueError):
    """A vector argument does not match the problem dimension."""


def _check_dim(x: np.ndarray, d: int, what: str = "x") -> None:
    if x.shape != (d,):
        raise DimensionMismatchError(
            f"{what} has shape {x.shape}, expected ({d},)"
        )


def _check_batch(v: np.ndarray, d: int) -> None:
    if v.ndim != 2 or v.shape[1] != d:
        raise DimensionMismatchError(f"V has shape {v.shape}, expected (m, {d})")


def _log1p_exp_neg(t: np.ndarray) -> np.ndarray:
    """log(1 + exp(-t)) evaluated without overflow for either sign of t."""
    return np.log1p(np.exp(-np.abs(t))) + np.maximum(-t, 0.0)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """Logistic sigmoid evaluated without overflow for either sign of t."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


@runtime_checkable
class ProblemOracle(Protocol):
    """Interface solvers rely on: dimension plus f, grad-f, and Hessian action.

    ``hvp_batch(x, V)`` takes an (m, d) array of directions and returns the
    (m, d) array whose row i is H(x) v_i, so m probes at one point share the
    work that depends only on x.
    """

    dimension: int

    def value(self, x: Vector) -> float: ...

    def gradient(self, x: Vector) -> Vector: ...

    def hvp(self, x: Vector, v: Vector) -> Vector: ...

    def hvp_batch(self, x: Vector, V: np.ndarray) -> np.ndarray: ...


class LogisticProblem:
    """l2-regularized logistic regression over a sparse design matrix.

        f(x) = (1/n) sum_i log(1 + exp(-b_i <a_i, x>)) + (mu/2) ||x||^2

    with labels b_i in {-1, +1} and regularization strength mu >= 0. The
    design matrix is CSR; rows are the feature vectors a_i. Margins are fed
    through log1p/sigmoid forms that exponentiate only -|t|, so
    large-magnitude scores do not overflow.
    """

    def __init__(self, design: sp.csr_matrix, labels, mu: float):
        design = sp.csr_matrix(design, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if labels.ndim != 1 or labels.shape[0] != design.shape[0]:
            raise ValueError(
                f"label count {labels.shape} does not match {design.shape[0]} rows"
            )
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if mu < 0:
            raise ValueError(f"mu must be nonnegative, got {mu}")
        if design.nnz and not np.all(np.isfinite(design.data)):
            raise ValueError("design matrix contains non-finite values")
        self.design = design
        self.labels = labels
        self.mu = float(mu)
        self.n = design.shape[0]
        self.dimension = design.shape[1]
        # (private copy of x, read-only margins) of the last point evaluated
        self._last = None

    def _margins(self, x: Vector) -> np.ndarray:
        """labels * (design @ x), reused while x equals the last point.

        The slot is read once and replaced by one store, so a problem shared
        by threads never pairs one point with another point's margins.
        Equality is element by element: a NaN never matches, so a NaN-bearing
        x always recomputes; +0 and -0 match, which can flip only the sign of
        a zero margin, and no output depends on that sign.
        """
        last = self._last
        if last is not None and np.array_equal(last[0], x):
            return last[1]
        # overflow to inf is the designed behavior for diverging iterates;
        # drivers detect the non-finite result and abort
        with np.errstate(over="ignore"):
            t = self.labels * (self.design @ x)
        t.flags.writeable = False
        self._last = (x.copy(), t)
        return t

    def value(self, x: Vector) -> float:
        _check_dim(x, self.dimension)
        t = self._margins(x)
        with np.errstate(over="ignore"):
            return float(
                np.sum(_log1p_exp_neg(t)) / self.n + 0.5 * self.mu * float(x @ x)
            )

    def gradient(self, x: Vector) -> Vector:
        _check_dim(x, self.dimension)
        t = self._margins(x)
        coeff = -self.labels * _sigmoid(-t) / self.n
        return self.design.T @ coeff + self.mu * x

    def hvp(self, x: Vector, v: Vector) -> Vector:
        _check_dim(v, self.dimension, "v")
        return self.hvp_batch(x, v[None])[0]

    def hvp_batch(self, x: Vector, V: np.ndarray) -> np.ndarray:
        """Rows H(x) v_i: margins and weights once, then two sparse mat-mats.

        ``design.T`` is the CSC view of the CSR design, not a copy; with a
        handful of directions it is faster than a cached CSR transpose.
        """
        _check_dim(x, self.dimension)
        _check_batch(V, self.dimension)
        t = self._margins(x)
        sig = _sigmoid(t)
        w = sig * (1.0 - sig) / self.n
        return (self.design.T @ (w[:, None] * (self.design @ V.T))).T + self.mu * V


class QuadraticProblem:
    """Dense SPD quadratic f(x) = 0.5 x^T A x - b^T x.

    Positive definiteness is checked at construction via Cholesky; symmetry
    within 1e-12 absolute. The Hessian action is constant in x, so curvature
    pairs collected anywhere on this problem are exact.
    """

    def __init__(self, matrix, linear):
        a = np.array(matrix, dtype=np.float64)
        b = np.asarray(linear, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if b.shape != (a.shape[0],):
            raise ValueError("linear term does not match matrix dimension")
        if np.max(np.abs(a - a.T), initial=0.0) > 1e-12:
            raise ValueError("matrix is not symmetric within 1e-12")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise ValueError("matrix is not positive definite") from exc
        self.matrix = a
        self.linear = b
        self.dimension = a.shape[0]

    def value(self, x: Vector) -> float:
        _check_dim(x, self.dimension)
        return float(0.5 * x @ (self.matrix @ x) - self.linear @ x)

    def gradient(self, x: Vector) -> Vector:
        _check_dim(x, self.dimension)
        return self.matrix @ x - self.linear

    def hvp(self, x: Vector, v: Vector) -> Vector:
        _check_dim(v, self.dimension, "v")
        return self.hvp_batch(x, v[None])[0]

    def hvp_batch(self, x: Vector, V: np.ndarray) -> np.ndarray:
        _check_dim(x, self.dimension)
        _check_batch(V, self.dimension)
        # a stack of matrix-vector products, so row i equals matrix @ V[i]
        # bit for bit; one matrix-matrix product would round differently
        return (self.matrix @ V[:, :, None])[:, :, 0]

    def solution(self) -> Vector:
        """Unique minimizer, solving A x = b."""
        return np.linalg.solve(self.matrix, self.linear)


class CountingOracle:
    """Wraps a problem and counts evaluations.

    One instance per solver run; the wrapped problem can be shared, since
    its data never changes and its margin cache is swapped whole. Each
    oracle call bumps exactly one counter and reaches the problem, cache hit
    or not; ``n_hvp`` counts Hessian-vector products, so a batch of m
    directions adds m.
    """

    def __init__(self, problem: ProblemOracle):
        self.problem = problem
        self.dimension = problem.dimension
        self.n_value = 0
        self.n_grad = 0
        self.n_hvp = 0

    def value(self, x: Vector) -> float:
        self.n_value += 1
        return self.problem.value(x)

    def gradient(self, x: Vector) -> Vector:
        self.n_grad += 1
        return self.problem.gradient(x)

    def hvp(self, x: Vector, v: Vector) -> Vector:
        self.n_hvp += 1
        return self.problem.hvp(x, v)

    def hvp_batch(self, x: Vector, V: np.ndarray) -> np.ndarray:
        self.n_hvp += V.shape[0]
        return self.problem.hvp_batch(x, V)


def finite_diff_gradient(oracle: ProblemOracle, x: Vector, h: float = 1e-6) -> Vector:
    """Central-difference gradient, (f(x + h e_j) - f(x - h e_j)) / (2h).

    Independent check for analytic gradients; costs 2d value evaluations.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    d = oracle.dimension
    _check_dim(x, d)
    out = np.empty(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        out[j] = (oracle.value(x + e) - oracle.value(x - e)) / (2.0 * h)
    return out


def tridiagonal_quadratic(dimension: int) -> QuadraticProblem:
    """Deterministic well-conditioned quadratic: A = I + second-difference, b = 1.

    Used by configs that ask for a built-in quadratic fixture; eigenvalues lie
    in [1, 5] so Cholesky and Newton steps are well behaved at any size.
    """
    if dimension < 1:
        raise ValueError(f"dimension must be positive, got {dimension}")
    a = np.eye(dimension) * 3.0
    off = -np.ones(dimension - 1)
    a += np.diag(off, 1) + np.diag(off, -1)
    return QuadraticProblem(a, np.ones(dimension))
