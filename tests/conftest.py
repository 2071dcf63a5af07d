from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

from ceqn.problems import LogisticProblem

# derandomized: every run of the suite draws the same property-test examples
settings.register_profile("ceqn", derandomize=True, deadline=None)
settings.load_profile("ceqn")

DATA_DIR = Path(__file__).parent / "data"
FIXTURE_LIBSVM = DATA_DIR / "synthetic.libsvm"

# committed fixture shape: updated only when the file is regenerated
FIXTURE_N = 300
FIXTURE_D = 60
FIXTURE_NNZ = 2588

# a bound on ||g||^2 for engine-level tests, SolverConfig's default
GRAD_TOL = 1e-12


def random_logistic(rng, n=50, d=10, mu=1e-4, density=0.4):
    """Random sparse logistic instance with labels from a noisy hyperplane."""
    mask = rng.random((n, d)) < density
    design = sp.csr_matrix(rng.normal(size=(n, d)) * mask)
    w = rng.normal(size=d)
    labels = np.where(design @ w + 0.5 * rng.normal(size=n) > 0, 1.0, -1.0)
    return LogisticProblem(design, labels, mu)


def finite_diff_gradient(oracle, x, h=1e-6):
    """Central-difference gradient, (f(x + h e_j) - f(x - h e_j)) / (2h).

    Independent check for analytic gradients; costs 2d value evaluations.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    d = oracle.dimension
    out = np.empty(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        out[j] = (oracle.value(x + e) - oracle.value(x - e)) / (2.0 * h)
    return out


def random_spd(rng, d, eig_low=0.5, eig_high=3.0):
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return q @ np.diag(np.linspace(eig_low, eig_high, d)) @ q.T


class ScaledIdentity:
    """H = c * I, a stand-in operator for engine tests."""

    skipped = 0
    fallback = False

    def __init__(self, scale):
        self.scale = scale

    def apply(self, g):
        return self.scale * g


class AffinePullback:
    """The composition f(A x) with analytic gradient and Hessian action."""

    def __init__(self, problem, a):
        self.problem = problem
        self.a = np.asarray(a, dtype=np.float64)
        self.dimension = problem.dimension

    def value(self, x):
        return self.problem.value(self.a @ x)

    def gradient(self, x):
        return self.a.T @ self.problem.gradient(self.a @ x)

    def hvp_batch(self, x, V):
        return self.problem.hvp_batch(self.a @ x, V @ self.a.T) @ self.a


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
