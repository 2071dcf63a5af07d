"""Convex objectives exposing values, gradients, and Hessian-vector products.

Two concrete problems are provided: l2-regularized logistic regression over a
sparse design matrix, and a dense symmetric-positive-definite quadratic used
as an exactly solvable test bed. Solvers talk to problems through the
``ProblemOracle`` protocol; per-run evaluation counting lives in
``CountingOracle``, so one problem can be shared by concurrent runs. The
problem data never changes after construction. ``LogisticProblem`` keeps one
cache slot, ``(x, t, e)``: a private copy of the last point it evaluated, that
point's margins t and e = exp(-|t|). ``value``, ``gradient`` and
``hvp_batch`` each make one pass over the row blocks, running their
per-sample step on each block right after its margins at a new point, or on
the cached arrays at the same x, so t and e are computed once per point. The
slot is swapped whole and its arrays are never written, so sharing stays
safe.

``LogisticProblem`` splits its sparse products into row blocks of about equal
stored entries and runs them on threads, since scipy's sparse kernels release
the interpreter lock. It takes one block per usable CPU, but never fewer than
``_NNZ_PER_THREAD`` stored entries per block; a smaller design keeps one block
and starts no thread. Usable CPUs are those of ``sched_getaffinity`` (so
``taskset`` pins it to one), capped by the CPU time a cgroup quota allows.
Each output element is summed in the same order as by one serial product, so
results are bitwise identical to the serial kernels and deterministic,
whatever the block count. With two or more blocks the problem also keeps a
CSR copy of the transposed design, about 12 bytes per stored entry. All
problems share one process-wide pool of kernel threads.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Protocol, runtime_checkable

import numpy as np
import scipy.sparse as sp
from numpy.typing import NDArray

Vector = NDArray[np.float64]


class DimensionMismatchError(ValueError):
    """A vector argument does not match the problem dimension."""


def _check_dim(x: np.ndarray, d: int) -> None:
    if x.shape != (d,):
        raise DimensionMismatchError(f"x has shape {x.shape}, expected ({d},)")


def _check_batch(v: np.ndarray, d: int) -> None:
    if v.ndim != 2 or v.shape[1] != d:
        raise DimensionMismatchError(f"V has shape {v.shape}, expected (m, {d})")


# A block of fewer stored entries costs more in thread hand-off than its share
# of the product saves; set from a sweep of solver iteration time over 1e5 to
# 4e6 nonzeros (ROADMAP, aim 1)
_NNZ_PER_THREAD = 2**18


# cgroup v2 and v1 keep their CPU quota files under this root
_CGROUP_ROOT = "/sys/fs/cgroup"
_CGROUP_MEMBERSHIP = "/proc/self/cgroup"


def _read_quota(directory: str, controllers: str) -> float | None:
    """CPUs' worth of time one cgroup directory allows, or None if unlimited."""
    try:
        if controllers:  # v1: quota and period in their own files, -1 unlimited
            with open(os.path.join(directory, "cpu.cfs_quota_us")) as f:
                quota = f.read().strip()
            with open(os.path.join(directory, "cpu.cfs_period_us")) as f:
                period = f.read().strip()
        else:  # v2: "quota period", quota "max" when unlimited
            with open(os.path.join(directory, "cpu.max")) as f:
                quota, period = f.read().split()
        if quota in ("max", "-1"):
            return None
        return int(quota) / int(period)
    except (OSError, ValueError):
        return None


def _cpu_quota() -> int | None:
    """Whole CPUs (rounded up) that the process's cgroups let it use, the
    tightest limit over its cgroup and every ancestor; None when unlimited or
    unreadable."""
    try:
        with open(_CGROUP_MEMBERSHIP) as f:
            lines = f.read().splitlines()
    except OSError:
        return None
    limits = []
    for line in lines:
        _, controllers, path = line.split(":", 2)
        if controllers and "cpu" not in controllers.split(","):
            continue
        # a v1 hierarchy is mounted under its controller names, v2 at the root
        base = os.path.join(_CGROUP_ROOT, controllers)
        parts = [part for part in path.split("/") if part]
        # inside a container the path may name the host's cgroup, which is
        # then not mounted; its ancestors down to the mount root still count
        for depth in range(len(parts), -1, -1):
            quota = _read_quota(os.path.join(base, *parts[:depth]), controllers)
            if quota is not None:
                limits.append(max(1, math.ceil(quota)))
    return min(limits, default=None)


def _usable_cpus() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


def _block_count(nnz: int) -> int:
    """Row blocks for a design with nnz stored entries: one per usable CPU,
    each holding at least ``_NNZ_PER_THREAD`` entries."""
    return max(1, min(_usable_cpus(), nnz // _NNZ_PER_THREAD))


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _kernel_pool() -> ThreadPoolExecutor:
    """The process's pool of kernel threads, one fewer than its usable CPUs,
    shared by every problem and made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max(1, _usable_cpus() - 1), thread_name_prefix="ceqn-kernel"
            )
        return _pool


def _forget_pool() -> None:
    # a forked child inherits the executor but none of its threads, and the
    # lock in whatever state another thread left it
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _split(offsets: np.ndarray, k: int) -> list[slice]:
    """k consecutive row slices holding about equal entries; offsets is an indptr."""
    total = int(offsets[-1])
    cuts = np.searchsorted(offsets, [total * i // k for i in range(1, k)]).tolist()
    edges = [0, *cuts, len(offsets) - 1]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _row_view(matrix: sp.csr_matrix, rows: slice) -> sp.csr_matrix:
    """Rows of a CSR matrix as a CSR matrix sharing its data and indices."""
    start, stop = matrix.indptr[rows.start], matrix.indptr[rows.stop]
    view = sp.csr_matrix((rows.stop - rows.start, matrix.shape[1]))
    # set after construction: the constructor copies a slice under half its base
    view.data = matrix.data[start:stop]
    view.indices = matrix.indices[start:stop]
    view.indptr = matrix.indptr[rows.start : rows.stop + 1] - start
    return view


# Per-sample formulas over margins t and e = exp(-|t|), written into out.
# Only -|t| is exponentiated, so no margin overflows. e lies in [0, 1] or is
# NaN, so np.maximum(e, mask) picks 1 where the mask holds and e, or its NaN,
# elsewhere: the select of np.where, at a fraction of its cost.


def _log1p_exp_neg(t: np.ndarray, e: np.ndarray, out: np.ndarray) -> None:
    """out = log(1 + exp(-t)) = log1p(exp(-|t|)) - min(t, 0)."""
    np.log1p(e, out=out)
    np.subtract(out, np.minimum(t, 0.0), out=out)


def _sigmoid(t: np.ndarray, e: np.ndarray, out: np.ndarray) -> None:
    """out = 1 / (1 + exp(-t)) = (1 if t >= 0 else e) / (1 + e)."""
    np.maximum(e, t >= 0, out=out)
    np.divide(out, 1.0 + e, out=out)


def _sigmoid_neg(t: np.ndarray, e: np.ndarray, out: np.ndarray) -> None:
    """out = 1 / (1 + exp(t)), the sigmoid of -t, which shares e with t."""
    np.maximum(e, t <= 0, out=out)
    np.divide(out, 1.0 + e, out=out)


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

    def hvp_batch(self, x: Vector, V: np.ndarray) -> np.ndarray: ...


class LogisticProblem:
    """l2-regularized logistic regression over a sparse design matrix.

        f(x) = (1/n) sum_i log(1 + exp(-b_i <a_i, x>)) + (mu/2) ||x||^2

    with labels b_i in {-1, +1} and regularization strength mu >= 0. The
    design matrix is CSR; rows are the feature vectors a_i. Margins
    t_i = b_i <a_i, x> are fed through log1p/sigmoid forms that exponentiate
    only -|t|, so large-magnitude scores do not overflow.

    The cache slot holds ``(x, t, e)`` for the last point, with
    e = exp(-|t|), both arrays read-only. Each call makes one pass over the
    row blocks of the design: at a new point a block's task computes its t
    and e and runs the call's per-sample step on them, at the cached point
    the step runs on the cached arrays. Per-feature passes run over row
    blocks of the transpose, a CSR copy, or with a single block the CSC view
    ``design.T``. The calling thread and the process's kernel pool share out
    the blocks.
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
        if not mu >= 0:
            raise ValueError(f"mu must be nonnegative, got {mu}")
        if design.nnz and not np.all(np.isfinite(design.data)):
            raise ValueError("design matrix contains non-finite values")
        self.design = design
        self.labels = labels
        self.mu = float(mu)
        self.n = design.shape[0]
        self.dimension = design.shape[1]
        k = _block_count(design.nnz)
        # (slice of the output, matrix computing it) per block
        self._rows = [(s, _row_view(design, s)) for s in _split(design.indptr, k)]
        if k == 1:
            self._cols = [(slice(0, self.dimension), design.T)]
        else:
            # the transposed copy's rows hold each feature's entries in sample
            # order, the order in which the CSC product adds them up
            design_t = design.T.tocsr()
            self._cols = [(s, _row_view(design_t, s)) for s in _split(design_t.indptr, k)]
        # (private copy of x, read-only t, read-only e) of the last point
        self._last = None

    def _run(self, fn, blocks) -> None:
        """fn(out, matrix) for every block, in this thread and the pool's.

        Each thread takes the next block not yet taken. A pool thread slow
        to start (its CPU busy elsewhere, or taken by another call) does not
        hold up the call: this thread takes the remaining blocks and cancels
        the unstarted tasks.
        """
        if len(blocks) == 1:
            fn(*blocks[0])
            return
        pool = _kernel_pool()
        pending = blocks[::-1]

        def drain():
            while True:
                try:
                    block = pending.pop()  # atomic: no block runs twice
                except IndexError:
                    return
                fn(*block)

        futures = [pool.submit(drain) for _ in blocks[1:]]
        try:
            drain()
        finally:
            for future in futures:
                if not future.cancel():
                    future.result()

    def _per_sample(self, x: Vector, step) -> None:
        """step(rows, block, t, e) on every row block, with the block's
        margins t = labels * (block @ x) and e = exp(-|t|).

        At a new point each block's task fills its part of fresh t and e and
        runs the step right after; the slot is then replaced by one store, so
        a problem shared by threads never pairs one point with another
        point's arrays. At an x equal to the slot's, the steps run on the
        cached arrays. Equality is element by element: a NaN never matches,
        so a NaN-bearing x always recomputes; +0 and -0 match, which can flip
        only the sign of a zero margin, and no output depends on that sign.
        """
        last = self._last
        if last is not None and np.array_equal(last[0], x):
            _, t, e = last
            self._run(lambda rows, block: step(rows, block, t[rows], e[rows]), self._rows)
            return
        t, e = np.empty(self.n), np.empty(self.n)

        def fill(rows, block):
            # overflow to inf is the designed behavior for diverging
            # iterates; drivers detect the non-finite result and abort
            with np.errstate(over="ignore"):
                np.multiply(self.labels[rows], block @ x, out=t[rows])
            np.abs(t[rows], out=e[rows])
            np.negative(e[rows], out=e[rows])
            np.exp(e[rows], out=e[rows])
            step(rows, block, t[rows], e[rows])

        self._run(fill, self._rows)
        t.flags.writeable = e.flags.writeable = False
        self._last = (x.copy(), t, e)

    def value(self, x: Vector) -> float:
        _check_dim(x, self.dimension)
        loss = np.empty(self.n)
        self._per_sample(x, lambda rows, block, t, e: _log1p_exp_neg(t, e, loss[rows]))
        with np.errstate(over="ignore"):
            return float(np.sum(loss) / self.n + 0.5 * self.mu * float(x @ x))

    def gradient(self, x: Vector) -> Vector:
        _check_dim(x, self.dimension)
        coeff = np.empty(self.n)
        g = np.empty(self.dimension)

        def rows(out, block, t, e):
            # -b * sigmoid(-t) / n in place, as (sigmoid(-t) * b) / (-n): the
            # same bits, since b is +-1
            c = coeff[out]
            _sigmoid_neg(t, e, c)
            np.multiply(c, self.labels[out], out=c)
            np.divide(c, -self.n, out=c)

        def cols(out, block_t):
            np.add(block_t @ coeff, self.mu * x[out], out=g[out])

        self._per_sample(x, rows)
        self._run(cols, self._cols)
        return g

    def hvp_batch(self, x: Vector, V: np.ndarray) -> np.ndarray:
        """Rows H(x) v_i: one pass over the row blocks for the weights
        sigmoid(t) (1 - sigmoid(t)) / n and the weighted products with the
        directions, then one sparse mat-mat with ``design.T``.

        The product with ``design.T`` runs on this thread through the CSC
        view, not the transposed copy: with a handful of directions the view
        is the faster of the two.
        """
        _check_dim(x, self.dimension)
        _check_batch(V, self.dimension)
        vt = np.ascontiguousarray(V.T)
        weights = np.empty(self.n)
        weighted = np.empty((self.n, V.shape[0]))

        def rows(out, block, t, e):
            w = weights[out]
            _sigmoid(t, e, w)
            np.multiply(w, 1.0 - w, out=w)
            np.divide(w, self.n, out=w)
            np.multiply(w[:, None], block @ vt, out=weighted[out])

        self._per_sample(x, rows)
        return (self.design.T @ weighted).T + self.mu * V


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
    its data never changes and its cache slot is swapped whole. Each
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

    def hvp_batch(self, x: Vector, V: np.ndarray) -> np.ndarray:
        self.n_hvp += V.shape[0]
        return self.problem.hvp_batch(x, V)


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
