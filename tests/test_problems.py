import math
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ceqn import problems
from ceqn.problems import (
    CountingOracle,
    DimensionMismatchError,
    LogisticProblem,
    QuadraticProblem,
    _log1p_exp_neg,
    _sigmoid,
    _sigmoid_neg,
    tridiagonal_quadratic,
)

from conftest import finite_diff_gradient, random_logistic, random_spd


def single_sample_problem(a, b, mu=0.0):
    return LogisticProblem(sp.csr_matrix(np.asarray([a])), [b], mu)


class TestLogisticValue:
    def test_zero_point_gives_log_two(self, rng):
        prob = random_logistic(rng, n=30, d=8, mu=0.37)
        assert prob.value(np.zeros(8)) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_single_sample_zero_margin(self):
        prob = single_sample_problem([1.0, 0.0], 1)
        assert prob.value(np.zeros(2)) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_matches_naive_per_sample_summation(self, rng):
        prob = random_logistic(rng, n=50, d=10, mu=1e-4)
        x = rng.normal(size=10)
        naive = 0.0
        dense = prob.design.toarray()
        for i in range(prob.n):
            naive += math.log(1.0 + math.exp(-prob.labels[i] * float(dense[i] @ x)))
        naive = naive / prob.n + 0.5 * prob.mu * float(x @ x)
        assert prob.value(x) == pytest.approx(naive, rel=1e-12)

    def test_large_margins_do_not_overflow(self):
        prob = single_sample_problem([1.0, 0.0], -1)
        v = prob.value(np.array([5000.0, 0.0]))
        assert math.isfinite(v) and v == pytest.approx(5000.0, rel=1e-12)
        assert math.isfinite(prob.value(np.array([-5000.0, 0.0])))


class TestLogisticGradient:
    def test_single_sample_closed_form(self):
        prob = single_sample_problem([2.0, 0.0], 1)
        np.testing.assert_allclose(prob.gradient(np.zeros(2)), [-1.0, 0.0])

    def test_zero_design_reduces_to_regularizer(self):
        prob = LogisticProblem(sp.csr_matrix((3, 4)), [1, -1, 1], mu=0.25)
        x = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_allclose(prob.gradient(x), 0.25 * x)

    def test_matches_finite_differences(self, rng):
        prob = random_logistic(rng, n=50, d=10, mu=1e-4)
        oracle = CountingOracle(prob)
        x = rng.normal(size=10)
        grad = prob.gradient(x)
        fd = finite_diff_gradient(oracle, x, 1e-6)
        assert np.linalg.norm(grad - fd) <= 1e-6 * (1.0 + np.linalg.norm(grad))


class TestLogisticHvp:
    def test_zero_vector_maps_to_zero(self, rng):
        prob = random_logistic(rng)
        np.testing.assert_array_equal(prob.hvp_batch(rng.normal(size=10), np.zeros((1, 10)))[0], 0.0)

    def test_zero_design_reduces_to_regularizer(self):
        prob = LogisticProblem(sp.csr_matrix((2, 3)), [1, -1], mu=1e-4)
        v = np.array([1.0, 2.0, -1.0])
        np.testing.assert_allclose(prob.hvp_batch(np.zeros(3), v[None])[0], 1e-4 * v)

    def test_matches_directional_gradient_differences(self, rng):
        prob = random_logistic(rng, n=50, d=10)
        x, v = rng.normal(size=10), rng.normal(size=10)
        h = 1e-6
        fd = (prob.gradient(x + h * v) - prob.gradient(x - h * v)) / (2.0 * h)
        hv = prob.hvp_batch(x, v[None])[0]
        assert np.linalg.norm(hv - fd) <= 1e-6 * (1.0 + np.linalg.norm(hv))

    def test_label_sign_does_not_affect_weights(self, rng):
        design = sp.csr_matrix(rng.normal(size=(20, 5)))
        flipped = LogisticProblem(design, -np.ones(20), mu=0.0)
        original = LogisticProblem(design, np.ones(20), mu=0.0)
        x, v = rng.normal(size=5), rng.normal(size=5)
        np.testing.assert_allclose(flipped.hvp_batch(x, v[None]), original.hvp_batch(x, v[None]))


def masked_log1p_exp_neg(t):
    """Reference log(1 + exp(-t)): each sign on its own masked subarray."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = np.log1p(np.exp(-t[pos]))
    neg = ~pos
    out[neg] = -t[neg] + np.log1p(np.exp(t[neg]))
    return out


def masked_sigmoid(t):
    """Reference sigmoid: each sign on its own masked subarray."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    neg = ~pos
    et = np.exp(t[neg])
    out[neg] = et / (1.0 + et)
    return out


def same_bits(a, b):
    """Bitwise equality of two float arrays, taking every NaN as one value.

    Only a NaN's sign and payload may differ: the masked reference itself
    gives a NaN input either sign, depending on its array's length and
    position, and no result of the package depends on that bit.
    """
    a, b = (np.where(np.isnan(u), np.nan, u) for u in (a, b))
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


SPECIAL_MARGINS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    36.0, -37.0, 709.8, -709.8, 745.2, -745.2, 746.0, -746.0, 1e300, -1e300,
]


def stable(kernel, t):
    """A per-sample formula over t and e = exp(-|t|), into a fresh array."""
    out = np.empty_like(t)
    kernel(t, np.exp(-np.abs(t)), out)
    return out


class TestStableKernels:
    """The mask-free per-sample formulas against the masked reference, bit
    for bit."""

    @settings(max_examples=400)
    @given(hnp.arrays(
        np.float64,
        st.integers(1, 67),
        elements=st.one_of(
            st.sampled_from(SPECIAL_MARGINS),
            st.floats(-60.0, 60.0),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
    ))
    @example(np.array(SPECIAL_MARGINS))
    @example(np.array(SPECIAL_MARGINS[::-1] * 3 + [1.0]))
    def test_equal_to_masked_reference(self, t):
        assert same_bits(stable(_log1p_exp_neg, t), masked_log1p_exp_neg(t))
        assert same_bits(stable(_sigmoid, t), masked_sigmoid(t))
        assert same_bits(stable(_sigmoid_neg, t), masked_sigmoid(-t))


def reference_hvp(prob, x, v):
    """The single-vector Hessian action, margins recomputed for each v."""
    with np.errstate(over="ignore"):
        t = prob.labels * (prob.design @ x)
    sig = masked_sigmoid(t)
    w = sig * (1.0 - sig) / prob.n
    return prob.design.T @ (w * (prob.design @ v)) + prob.mu * v


class TestHvpBatch:
    def test_logistic_rows_equal_single_vector_loop(self, rng):
        for trial in range(30):
            n, d = int(rng.integers(1, 80)), int(rng.integers(1, 25))
            prob = random_logistic(
                rng, n=n, d=d, mu=float(rng.choice([0.0, 1e-4, 0.3])),
                density=float(rng.uniform(0.05, 1.0)),
            )
            # huge margins saturate the sigmoid, so some weights are exactly 0
            x = rng.normal(size=d) * (1e3 if trial % 3 == 0 else 1.0)
            m = 1 if trial % 5 == 0 else int(rng.integers(2, 12))
            V = rng.normal(size=(m, d))
            if trial % 4 == 1:
                V[-1] = 0.0
            expected = np.array([reference_hvp(prob, x, v) for v in V])
            np.testing.assert_array_equal(prob.hvp_batch(x, V), expected)
            np.testing.assert_array_equal(prob.hvp_batch(x, V[:1])[0], expected[0])

    def test_quadratic_rows_equal_single_vector_loop(self, rng):
        for d in (1, 4, 17):
            prob = QuadraticProblem(random_spd(rng, d), np.zeros(d))
            x, V = rng.normal(size=d), rng.normal(size=(6, d))
            expected = np.array([prob.matrix @ v for v in V])
            # a stack of matrix-vector products: equal bit for bit
            np.testing.assert_array_equal(prob.hvp_batch(x, V), expected)
            np.testing.assert_array_equal(prob.hvp_batch(x, V[:1])[0], expected[0])

    def test_counting_oracle_counts_each_direction(self, rng):
        oracle = CountingOracle(random_logistic(rng))
        oracle.hvp_batch(np.zeros(10), rng.normal(size=(7, 10)))
        oracle.hvp_batch(np.zeros(10), rng.normal(size=(1, 10)))
        assert (oracle.n_value, oracle.n_grad, oracle.n_hvp) == (0, 0, 8)

    def test_wrong_shape_raises(self, rng):
        for prob in (random_logistic(rng, d=10), tridiagonal_quadratic(10)):
            for bad in (np.zeros(10), np.zeros((3, 9)), np.zeros((2, 3, 10))):
                with pytest.raises(DimensionMismatchError):
                    prob.hvp_batch(np.zeros(10), bad)
            with pytest.raises(DimensionMismatchError):
                prob.hvp_batch(np.zeros(9), np.zeros((3, 10)))


def oracle_bytes(prob, x, V):
    """value, gradient and hvp_batch at x, in that order, as bytes."""
    return (
        np.float64(prob.value(x)).tobytes(),
        prob.gradient(x).tobytes(),
        prob.hvp_batch(x, V).tobytes(),
    )


def fresh_copy(prob):
    return LogisticProblem(prob.design, prob.labels, prob.mu)


class TestMarginCache:
    """The one-slot margin cache never changes a result."""

    def test_changing_x_in_place_gives_fresh_results(self, rng):
        prob = random_logistic(rng)
        x, V = rng.normal(size=10), rng.normal(size=(3, 10))
        prob.gradient(x)
        x[3] += 0.5
        assert oracle_bytes(prob, x, V) == oracle_bytes(fresh_copy(prob), x, V)
        x[:] = 0.0
        assert oracle_bytes(prob, x, V) == oracle_bytes(fresh_copy(prob), x, V)

    def test_alternating_points_match_a_fresh_problem(self, rng):
        prob = random_logistic(rng, n=60, d=10, mu=0.3)
        V = rng.normal(size=(4, 10))
        # +0 and -0 share the cached margins: results must not tell them apart
        pairs = [(rng.normal(size=10), rng.normal(size=10)), (np.zeros(10), -np.zeros(10))]
        calls = [
            lambda p, x: np.float64(p.value(x)).tobytes(),
            lambda p, x: p.gradient(x).tobytes(),
            lambda p, x: p.hvp_batch(x, V).tobytes(),
        ]
        for a, b in pairs:
            # every call follows every other call at the same and the other point
            order = [a, b, a, b, a, b, b, b, a, a, a, b, b, a, a, b, b, a]
            for k, x in enumerate(order):
                call = calls[k % 3]
                assert call(prob, x) == call(fresh_copy(prob), x)

    def test_writing_into_results_does_not_leak(self, rng):
        prob = random_logistic(rng)
        x, V = rng.normal(size=10), rng.normal(size=(3, 10))
        expected = oracle_bytes(fresh_copy(prob), x, V)
        prob.gradient(x)[:] = 7.0
        prob.hvp_batch(x, V)[:] = 7.0
        _, t, e = prob._last
        for cached in (t, e):
            with pytest.raises(ValueError):
                cached[0] = 7.0
        assert oracle_bytes(prob, x, V) == expected

    def test_equal_point_hits_and_nan_point_misses(self, rng):
        prob = random_logistic(rng)
        x, V = rng.normal(size=10), rng.normal(size=(3, 10))
        prob.gradient(x)
        slot = prob._last
        cached = [a.tobytes() for a in slot]
        prob.value(x.copy())
        prob.hvp_batch(x.copy(), V)
        assert prob._last is slot
        assert [a.tobytes() for a in slot] == cached
        x[0] = math.nan
        prob.value(x)
        nan_slot = prob._last
        assert nan_slot is not slot
        assert math.isnan(prob.value(x.copy()))
        assert prob._last is not nan_slot

    def test_threads_sharing_one_problem_match_serial_runs(self, rng):
        prob = random_logistic(rng, n=200, d=20)
        assert_threads_match_serial(prob, fresh_copy(prob), rng)

    def test_threads_sharing_a_blocked_problem_match_serial_runs(self, rng):
        serial = random_logistic(rng, n=200, d=20)
        assert_threads_match_serial(blocked(serial, 3), serial, rng)


def assert_threads_match_serial(prob, serial, rng):
    """6 threads calling one shared problem get the results of ``serial``."""
    points = [rng.normal(size=prob.dimension) for _ in range(5)]
    V = rng.normal(size=(3, prob.dimension))
    expected = [oracle_bytes(fresh_copy(serial), x, V) for x in points]
    mismatches, done = [], []

    def worker(offset):
        calls = 0
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            k = (offset + calls) % len(points)
            if oracle_bytes(prob, points[k], V) != expected[k]:
                mismatches.append(k)
            calls += 1
        done.append(calls)

    # more threads than cores and a short switch interval, so threads
    # swap the slot between another thread's read and its use
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(done) == 6 and min(done) > 0
    assert mismatches == []


def blocked(prob, k):
    """A copy of prob whose kernels run on k row blocks, whatever its size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(problems, "_block_count", lambda nnz: k)
        return fresh_copy(prob)


def serial_oracle(prob, x, V):
    """value, gradient and hvp_batch at x by the one-block formulas over the
    masked references."""
    with np.errstate(over="ignore"):
        t = prob.labels * (prob.design @ x)
        value = np.sum(masked_log1p_exp_neg(t)) / prob.n + 0.5 * prob.mu * float(x @ x)
    gradient = prob.design.T @ (-prob.labels * masked_sigmoid(-t) / prob.n) + prob.mu * x
    sig = masked_sigmoid(t)
    w = sig * (1.0 - sig) / prob.n
    hvps = (prob.design.T @ (w[:, None] * (prob.design @ V.T))).T + prob.mu * V
    return np.float64(value), gradient, hvps


@st.composite
def messy_problems(draw):
    """Sparse designs with empty rows, all-zero columns, and entries stored
    out of column order or more than once, as the constructor receives them."""
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    entry = st.tuples(st.integers(0, d - 1), st.floats(-5.0, 5.0))
    rows = draw(st.lists(st.lists(entry, max_size=6), min_size=n, max_size=n))
    indptr = np.cumsum([0] + [len(row) for row in rows])
    pairs = [pair for row in rows for pair in row]
    indices = np.array([j for j, _ in pairs], dtype=np.int32)
    data = np.array([v for _, v in pairs], dtype=np.float64)
    design = sp.csr_matrix((data, indices, indptr), shape=(n, d))
    labels = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    return LogisticProblem(design, labels, draw(st.sampled_from([0.0, 1e-4, 0.3])))


class TestBlockedKernels:
    """Kernels on k row blocks against the one-block formulas, bit for bit."""

    def test_block_count_follows_entries_and_cpus(self, monkeypatch):
        monkeypatch.setattr(problems, "_usable_cpus", lambda: 4)
        per = problems._NNZ_PER_THREAD
        counts = [problems._block_count(nnz) for nnz in (0, per - 1, 2 * per, 3 * per + 1, 99 * per)]
        assert counts == [1, 1, 2, 3, 4]
        monkeypatch.setattr(problems, "_usable_cpus", lambda: 1)
        assert problems._block_count(99 * per) == 1

    def test_cpus_are_capped_by_the_cgroup_quota(self, monkeypatch):
        monkeypatch.setattr(problems.os, "sched_getaffinity", lambda pid: set(range(4)))
        monkeypatch.setattr(problems, "_cpu_quota", lambda: None)
        assert problems._usable_cpus() == 4
        monkeypatch.setattr(problems, "_cpu_quota", lambda: 1)
        assert problems._usable_cpus() == 1
        assert problems._block_count(99 * problems._NNZ_PER_THREAD) == 1

    @pytest.mark.parametrize(
        "membership, files, expected",
        [
            # v2: the tightest limit on the path, rounded up to whole CPUs
            ("0::/a/b\n", {"cpu.max": "max 100000", "a/cpu.max": "250000 100000",
                           "a/b/cpu.max": "max 100000"}, 3),
            ("0::/\n", {"cpu.max": "50000 100000"}, 1),
            ("0::/a\n", {"a/cpu.max": "max 100000"}, None),
            # v1: a host path not mounted here falls back to the mount root
            ("3:cpuset:/\n1:cpu,cpuacct:/host/ctr\n",
             {"cpu,cpuacct/cpu.cfs_quota_us": "200000",
              "cpu,cpuacct/cpu.cfs_period_us": "100000"}, 2),
            ("1:cpu:/\n", {"cpu/cpu.cfs_quota_us": "-1",
                           "cpu/cpu.cfs_period_us": "100000"}, None),
            ("1:cpu:/\n", {}, None),
        ],
    )
    def test_cpu_quota_reads_cgroup_files(self, tmp_path, monkeypatch, membership, files, expected):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text + "\n")
        (tmp_path / "membership").write_text(membership)
        monkeypatch.setattr(problems, "_CGROUP_ROOT", str(tmp_path))
        monkeypatch.setattr(problems, "_CGROUP_MEMBERSHIP", str(tmp_path / "membership"))
        assert problems._cpu_quota() == expected

    def test_blocks_are_views_covering_every_row(self, rng):
        serial = random_logistic(rng, n=40, d=9)
        prob = blocked(serial, 3)
        design_t = prob._cols[0][1]
        for (rows, block), (cols, block_t) in zip(prob._rows, prob._cols):
            assert np.shares_memory(block.data, prob.design.data)
            assert np.shares_memory(block.indices, prob.design.indices)
            # every transposed block is a view of one transposed copy
            assert np.shares_memory(block_t.data, design_t.data.base)
            np.testing.assert_array_equal(block.toarray(), prob.design[rows].toarray())
            np.testing.assert_array_equal(block_t.toarray(), prob.design.T[cols].toarray())
        for blocks, size in ((prob._rows, prob.n), (prob._cols, prob.dimension)):
            bounds = [(s.start, s.stop) for s, _ in blocks]
            assert bounds[0][0] == 0 and bounds[-1][1] == size
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    def test_one_block_uses_the_csc_view_and_no_pool(self, rng, monkeypatch):
        prob = random_logistic(rng)
        assert len(prob._rows) == len(prob._cols) == 1
        assert prob._cols[0][1].format == "csc"
        assert np.shares_memory(prob._cols[0][1].data, prob.design.data)

        def no_pool():
            raise AssertionError("a one-block problem asked for the pool")

        monkeypatch.setattr(problems, "_kernel_pool", no_pool)
        x, V = rng.normal(size=10), rng.normal(size=(4, 10))
        oracle_bytes(prob, x, V)

    def test_problems_share_one_pool(self, rng):
        first, second = (blocked(random_logistic(rng, n=60, d=9), k) for k in (2, 3))
        x = rng.normal(size=9)
        first.gradient(x)
        pool = problems._pool
        second.gradient(x)
        assert pool is not None and problems._pool is pool
        assert pool._max_workers == max(1, problems._usable_cpus() - 1)

    @settings(max_examples=150)
    @given(
        messy_problems(),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([1, 5, 10]),
        st.sampled_from([1.0, 1e3]),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_equal_to_serial_formulas(self, serial, k, m, scale, with_nan, random):
        rng = np.random.default_rng(random.getrandbits(32))
        d = serial.dimension
        x = rng.normal(size=d) * scale
        if with_nan:
            x[random.randrange(d)] = math.nan
        V = rng.normal(size=(m, d))
        expected = serial_oracle(serial, x, V)
        for prob in (serial, blocked(serial, k)):
            got = np.float64(prob.value(x)), prob.gradient(x), prob.hvp_batch(x, V)
            for a, b in zip(got, expected):
                assert same_bits(a, b)
            assert same_bits(prob.hvp_batch(x, V[:1])[0], expected[2][0])

    @settings(max_examples=100)
    @given(
        messy_problems(),
        st.sampled_from([1, 2, 3]),
        st.lists(st.sampled_from(["normal", "1e3", "+0", "-0", "nan"]), min_size=2, max_size=3),
        st.lists(
            st.tuples(st.sampled_from(["value", "gradient", "hvp_batch", "one_row"]), st.integers(0, 2)),
            min_size=1, max_size=12,
        ),
        st.randoms(use_true_random=False),
    )
    def test_any_call_order_equals_serial_formulas(self, serial, k, kinds, calls, random):
        """Calls in any order over a few points, each a cache hit or a miss,
        give the one-block results on k blocks."""
        rng = np.random.default_rng(random.getrandbits(32))
        d = serial.dimension
        points = []
        for kind in kinds:
            x = rng.normal(size=d) * (1e3 if kind == "1e3" else 1.0)
            if kind in ("+0", "-0"):
                x[:] = -0.0 if kind == "-0" else 0.0
            elif kind == "nan":
                x[random.randrange(d)] = math.nan
            points.append(x)
        V = rng.normal(size=(3, d))
        expected = [serial_oracle(serial, x, V) for x in points]
        prob = blocked(serial, k)
        for name, i in calls:
            x, (value, gradient, hvps) = points[i % len(points)], expected[i % len(points)]
            if name == "value":
                assert same_bits(np.float64(prob.value(x)), value)
            elif name == "gradient":
                assert same_bits(prob.gradient(x), gradient)
            elif name == "hvp_batch":
                assert same_bits(prob.hvp_batch(x, V), hvps)
            else:
                assert same_bits(prob.hvp_batch(x, V[1:2])[0], hvps[1])

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork"
    )
    def test_forked_child_computes_the_parents_gradient(self, rng):
        serial = random_logistic(rng, n=200, d=20)
        prob = blocked(serial, 2)
        x, y = rng.normal(size=20), rng.normal(size=20)
        prob.gradient(x)  # the parent's pool now has its thread
        assert problems._pool is not None
        context = multiprocessing.get_context("fork")
        queue = context.Queue()

        def child_gradient():
            # the parent's kernel thread is gone here: the child needs its own
            got = prob.gradient(y).tobytes()
            live = [t for t in threading.enumerate() if t.name.startswith("ceqn-kernel")]
            queue.put((got, len(live)))

        child = context.Process(target=child_gradient)
        child.start()
        try:
            got, kernel_threads = queue.get(timeout=30.0)
        finally:
            child.join(timeout=30.0)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        assert kernel_threads >= 1
        assert got == serial.gradient(y).tobytes() == prob.gradient(y).tobytes()


class TestQuadratic:
    def test_identity_values(self):
        prob = QuadraticProblem(np.eye(2), np.zeros(2))
        x = np.ones(2)
        assert prob.value(x) == 1.0
        np.testing.assert_array_equal(prob.gradient(x), x)

    def test_gradient_vanishes_at_solution(self, rng):
        a = random_spd(rng, 4)
        prob = QuadraticProblem(a, rng.normal(size=4))
        np.testing.assert_allclose(prob.gradient(prob.solution()), 0.0, atol=1e-12)

    def test_hvp_matches_dense_multiply(self, rng):
        a = random_spd(rng, 5)
        prob = QuadraticProblem(a, np.zeros(5))
        v = rng.normal(size=5)
        expected = np.array([float(a[i] @ v) for i in range(5)])
        np.testing.assert_allclose(prob.hvp_batch(rng.normal(size=5), v[None])[0], expected, rtol=1e-12)

    def test_rejects_asymmetric_matrix(self):
        a = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticProblem(a, np.zeros(2))

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(ValueError, match="positive definite"):
            QuadraticProblem(np.diag([1.0, -1.0]), np.zeros(2))


class TestFiniteDiff:
    def test_exact_on_quadratic(self):
        oracle = CountingOracle(QuadraticProblem(np.eye(2), np.zeros(2)))
        fd = finite_diff_gradient(oracle, np.array([1.0, 0.0]), 1e-5)
        np.testing.assert_allclose(fd, [1.0, 0.0], atol=1e-8)

    def test_zero_on_constant_function(self):
        class Constant:
            dimension = 3

            def value(self, x):
                return 4.2

        np.testing.assert_array_equal(
            finite_diff_gradient(Constant(), np.zeros(3), 1e-6), 0.0
        )

    def test_rejects_nonpositive_step(self, rng):
        oracle = CountingOracle(random_logistic(rng))
        with pytest.raises(ValueError):
            finite_diff_gradient(oracle, np.zeros(10), 0.0)


class TestInvariants:
    def test_gradient_consistency_sweep(self, rng):
        for _ in range(20):
            mu = float(rng.choice([0.0, 1e-4]))
            prob = random_logistic(rng, n=50, d=10, mu=mu)
            x = rng.normal(size=10)
            grad = prob.gradient(x)
            fd = finite_diff_gradient(CountingOracle(prob), x, 1e-6)
            assert np.linalg.norm(grad - fd) <= 1e-6 * (1.0 + np.linalg.norm(grad))

    def test_hvp_symmetry(self, rng):
        prob = random_logistic(rng, n=40, d=12)
        x = rng.normal(size=12)
        for _ in range(10):
            u, v = rng.normal(size=12), rng.normal(size=12)
            left = float(prob.hvp_batch(x, u[None])[0] @ v)
            right = float(u @ prob.hvp_batch(x, v[None])[0])
            assert abs(left - right) <= 1e-10 * (1.0 + abs(left))

    def test_convexity_witness(self, rng):
        mu = 1e-4
        prob = random_logistic(rng, n=40, d=12, mu=mu)
        x = rng.normal(size=12)
        for _ in range(10):
            v = rng.normal(size=12)
            assert float(prob.hvp_batch(x, v[None])[0] @ v) >= mu * float(v @ v) - 1e-12

    def test_counters_increment_once_per_call(self, rng):
        oracle = CountingOracle(random_logistic(rng))
        x = np.zeros(10)
        oracle.value(x)
        oracle.value(x)
        oracle.gradient(x)
        oracle.hvp_batch(x, x[None])
        assert (oracle.n_value, oracle.n_grad, oracle.n_hvp) == (2, 1, 1)


class TestValidation:
    def test_dimension_mismatch_raises(self, rng):
        prob = random_logistic(rng, d=10)
        with pytest.raises(DimensionMismatchError):
            prob.value(np.zeros(9))
        with pytest.raises(DimensionMismatchError):
            prob.gradient(np.zeros(11))
        with pytest.raises(DimensionMismatchError):
            prob.hvp_batch(np.zeros(10), np.zeros((1, 9)))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            LogisticProblem(sp.csr_matrix((2, 2)), [1, 2], mu=0.0)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError, match="mu"):
            LogisticProblem(sp.csr_matrix((1, 2)), [1], mu=-1.0)

    def test_tridiagonal_fixture_is_spd(self):
        prob = tridiagonal_quadratic(5)
        assert prob.dimension == 5
        np.testing.assert_allclose(prob.matrix, prob.matrix.T)
