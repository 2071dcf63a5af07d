import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ceqn
from ceqn import hessian, steps
from ceqn.hessian import (
    ApproxConfig,
    DenseInverseOperator,
    IndefiniteOperatorError,
    LowRankOperator,
    PairBuffer,
    _build_lsr1,
    dual_norm,
    rebuild_operator,
    sample_pairs,
)
from ceqn.problems import CountingOracle, LogisticProblem, QuadraticProblem

from conftest import random_logistic, random_spd


def build(kind, pairs, scale):
    return rebuild_operator(ApproxConfig(kind=kind, h0_scale=scale), pairs)


def buffer_of(d, pairs, capacity=None):
    """A buffer holding the (s, y) pairs, oldest first."""
    buf = PairBuffer(capacity or max(len(pairs), 1), d)
    for s, y in pairs:
        buf.push(s, y)
    return buf


def quadratic_pairs(a, rng, count):
    """Exact curvature pairs (d_i, A d_i) along random directions."""
    d = a.shape[0]
    return buffer_of(d, [(s, a @ s) for s in rng.normal(size=(count, d))])


def newest(buf):
    slot = buf.order()[-1]
    return buf.s[slot], buf.y[slot]


def dense_lsr1(pairs, c, d, skip_tol=1e-8):
    """SR1 by explicit dense rank-one updates; returns (H, skipped)."""
    dense = c * np.eye(d)
    skipped = 0
    for s, y in pairs:
        if not np.any(s) or not np.any(y):
            skipped += 1
            continue
        v = s - dense @ y
        vty = float(v @ y)
        if abs(vty) <= skip_tol * np.linalg.norm(v) * np.linalg.norm(y):
            skipped += 1
            continue
        dense = dense + np.outer(v, v) / vty
    return dense, skipped


def dense_lbfgs(pairs, c, d, curvature_tol=1e-12):
    """BFGS by explicit dense inverse updates over the positive-curvature
    pairs, from H0 scaled by the newest of them; returns (H, skipped)."""
    kept = [
        (s, y)
        for s, y in pairs
        if float(s @ y) > curvature_tol * np.linalg.norm(s) * np.linalg.norm(y)
    ]
    if not kept:
        return c * np.eye(d), len(pairs)
    s_new, y_new = kept[-1]
    dense = float(s_new @ y_new) / float(y_new @ y_new) * np.eye(d)
    for s, y in kept:
        rho = 1.0 / float(s @ y)
        left = np.eye(d) - rho * np.outer(s, y)
        dense = left @ dense @ left.T + rho * np.outer(s, s)
    return dense, len(pairs) - len(kept)


def reference_lsr1(pairs, scale, skip_tol=1e-8):
    """The LSR1 build as first written, one numpy call per operation and
    pair; returns (U, M, skipped, fallback)."""
    n = len(pairs)
    v = np.empty((n, pairs.dimension))
    inv_vty = np.empty(n)
    k = 0
    for slot in pairs.order():
        s, y = pairs.s[slot], pairs.y[slot]
        if not (np.any(s) and np.any(y)):
            continue
        hy = scale * y + (inv_vty[:k] * (v[:k] @ y)) @ v[:k]
        np.subtract(s, hy, out=v[k])
        vty = float(v[k] @ y)
        if abs(vty) <= skip_tol * np.linalg.norm(v[k]) * np.linalg.norm(y):
            continue
        inv_vty[k] = 1.0 / vty
        if math.isfinite(vty) and math.isfinite(inv_vty[k]):
            k += 1
    return v[:k], np.diag(inv_vty[:k]), n - k, n > 0 and k == 0


PAIR_KINDS = ("quadratic", "gaussian", "negative", "zero_s", "zero_y")


@st.composite
def pair_histories(draw):
    """Pushes into a small buffer; numpy draws the vectors from a seed.

    Capacity stays below the dimension and at most one pair has s = c*y
    ("h0"). A pair whose SR1 update vector is pure round-off, as after d
    consistent pairs or after a second s = c*y pair cancels the first one's
    update, has no well-defined skip decision.
    """
    d = draw(st.integers(2, 8))
    capacity = draw(st.integers(1, d - 1))
    kinds = draw(st.lists(st.sampled_from(PAIR_KINDS), max_size=12))
    h0_at = draw(st.none() | st.integers(0, len(kinds)))
    if h0_at is not None:
        kinds.insert(h0_at, "h0")
    scale = draw(st.sampled_from((0.1, 0.5, 1.0, 3.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, capacity, kinds, scale, seed


def realize(history, kinds=None):
    """Push a drawn history, or the given kinds in its place, into its
    buffer; returns (rng, buffer, the stored pairs oldest first)."""
    d, capacity, drawn, scale, seed = history
    rng = np.random.default_rng(seed)
    a = random_spd(rng, d)
    buf = PairBuffer(capacity, d)
    pushed = []
    for kind in drawn if kinds is None else kinds:
        s, y = rng.normal(size=d), rng.normal(size=d)
        if kind == "quadratic":
            y = a @ s
        elif kind == "negative":
            y = -(a @ s)
        elif kind == "h0":
            s = scale * y
        elif kind == "zero_s":
            s = np.zeros(d)
        elif kind == "zero_y":
            y = np.zeros(d)
        buf.push(s, y)
        pushed.append((s, y))
    return rng, buf, pushed[-capacity:]


@st.composite
def extreme_histories(draw):
    """A drawn history whose s and y rows are each left as drawn or scaled
    by about 1e-160 or 1e160, where Gram products leave the float range."""
    history = draw(pair_histories())
    factors = st.sampled_from((1.0, 1e-160, 1e160))
    rows = st.lists(factors, min_size=history[1], max_size=history[1])
    return history, np.array(draw(rows)), np.array(draw(rows))


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u) with unit roundoff u = eps / 2."""
    nu = n * np.finfo(np.float64).eps / 2
    return nu / (1 - nu)


def abs_apply(op, v):
    """|H| |v| with |H| = c I + |U|^T |M| |U|, the magnitudes ``apply`` sums."""
    u = np.abs(op.u)
    return op.scale * np.abs(v) + (np.abs(op.m) @ (u @ np.abs(v))) @ u


class TestLsr1:
    def test_empty_pairs_is_scaled_identity(self, rng):
        g = rng.normal(size=6)
        g[0] = -0.0
        op = build("LSR1", PairBuffer(3, 6), 0.5)
        # exactly c * g, down to the sign of a zero
        assert op.apply(g).tobytes() == (0.5 * g).tobytes()
        assert op.skipped == 0 and not op.fallback

    def test_pair_matching_h0_is_skipped(self, rng):
        y = rng.normal(size=4)
        c = 0.7
        op = build("LSR1", buffer_of(4, [(c * y, y)]), c)
        assert op.skipped == 1
        np.testing.assert_array_equal(op.apply(y), c * y)

    def test_hereditary_exactness_on_quadratic(self, rng):
        a = random_spd(rng, 4)
        pairs = quadratic_pairs(a, rng, 4)
        inv = np.linalg.inv(a)
        op = build("LSR1", pairs, 1.0)
        assert op.skipped == 0
        g = rng.normal(size=4)
        expected = inv @ g
        err = np.linalg.norm(op.apply(g) - expected) / np.linalg.norm(expected)
        assert err <= 1e-8

    def test_secant_on_newest_pair(self, rng):
        a = random_spd(rng, 7)
        pairs = quadratic_pairs(a, rng, 3)
        op = build("LSR1", pairs, 0.3)
        s, y = newest(pairs)
        assert np.linalg.norm(op.apply(y) - s) <= 1e-8 * (1.0 + np.linalg.norm(s))

    def test_all_pairs_skipped_sets_fallback(self, rng):
        y = rng.normal(size=5)
        c = 0.2
        op = build("LSR1", buffer_of(5, [(c * y, y), (2 * c * y, 2 * y)]), c)
        assert op.fallback and op.skipped == 2
        g = rng.normal(size=5)
        np.testing.assert_array_equal(op.apply(g), c * g)

    def test_pair_matching_h0_past_the_float_range_is_skipped(self, rng):
        # v = s - c y is exactly zero and ||y||^2 overflows, so the skip
        # test compares 0 with 0 * inf = NaN
        y = 1e160 * rng.normal(size=4)
        op = build("LSR1", buffer_of(4, [(0.7 * y, y)]), 0.7)
        assert op.fallback and op.skipped == 1

    def test_pair_without_finite_weight_is_skipped(self, rng):
        # v^T y is subnormal, so its weight 1 / v^T y overflows to inf
        s = rng.normal(size=5)
        op = build("LSR1", buffer_of(5, [(s, np.full(5, 1e-320))]), 1e-2)
        assert op.fallback and op.skipped == 1
        assert op.u.shape == (0, 5) and op.m.shape == (0, 0)

    def test_degenerate_pairs_never_produce_nan(self, rng):
        pairs = buffer_of(3, [(np.zeros(3), np.zeros(3)), (rng.normal(size=3), np.zeros(3))])
        op = build("LSR1", pairs, 1.0)
        assert op.skipped <= len(pairs)
        assert np.all(np.isfinite(op.apply(rng.normal(size=3))))


class TestLbfgs:
    def test_empty_memory_uses_h0_scale(self, rng):
        g = rng.normal(size=5)
        op = build("LBFGS", PairBuffer(3, 5), 1e-4)
        np.testing.assert_array_equal(op.apply(g), 1e-4 * g)
        assert op.skipped == 0 and not op.fallback

    def test_single_pair_secant_algebra(self, rng):
        y = rng.normal(size=6)
        op = build("LBFGS", buffer_of(6, [(y, y)]), 1.0)
        np.testing.assert_allclose(op.apply(y), y, rtol=1e-12)

    def test_secant_on_quadratic(self, rng):
        a = random_spd(rng, 5)
        pairs = quadratic_pairs(a, rng, 5)
        op = build("LBFGS", pairs, 1.0)
        s, y = newest(pairs)
        assert np.linalg.norm(op.apply(y) - s) <= 1e-8 * (1.0 + np.linalg.norm(s))

    def test_nonpositive_curvature_skipped(self, rng):
        s = rng.normal(size=4)
        # s^T y < 0, then a usable pair
        op = build("LBFGS", buffer_of(4, [(s, -s), (s, 2.0 * s)]), 1.0)
        assert op.skipped == 1
        assert np.all(np.isfinite(op.apply(rng.normal(size=4))))

    def test_pair_whose_y_norm_underflows_is_dropped(self):
        # y^T y = 4e-340 underflows to 0, so gamma = s^T y / y^T y is not
        # finite; the suite turns a divide or invalid warning into an error
        pairs = PairBuffer(3, 4)
        pairs.push(np.ones(4), np.full(4, 1e-170))
        op = build("LBFGS", pairs, 0.5)
        assert op.fallback and op.skipped == 1
        assert op.u.shape == (0, 4) and op.m.shape == (0, 0)

    def test_all_skipped_sets_fallback(self, rng):
        s = rng.normal(size=4)
        op = build("LBFGS", buffer_of(4, [(s, -s)]), 0.5)
        assert op.fallback
        g = rng.normal(size=4)
        np.testing.assert_array_equal(op.apply(g), 0.5 * g)

    def test_block_past_the_float_range_gives_flagged_h0(self):
        # both pairs pass the curvature test, but R has a diagonal entry of
        # 1e-320, so R^-1 overflows and the compact block holds inf and NaN
        e = np.eye(4)
        op = build("LBFGS", buffer_of(4, [(e[0], e[0]), (1e-160 * e[1], 1e-160 * e[1])]), 0.5)
        assert op.fallback and op.skipped == 0
        assert op.u.shape == (0, 4) and op.m.shape == (0, 0)
        g = np.arange(1.0, 5.0)
        assert op.apply(g).tobytes() == (0.5 * g).tobytes()


class TestFiniteBuilds:
    @settings(max_examples=200, deadline=None)
    @given(extreme_histories())
    def test_rows_near_the_float_range_ends_build_finite_operators(self, drawn):
        """Every build is finite, and so is its product with a finite g.

        Squares of rows near 1e160 overflow and those of rows near 1e-160
        underflow, so Gram products, SR1 update vectors and the L-BFGS
        block may leave the float range; the suite turns any overflow or
        invalid-value warning into an error.
        """
        history, s_factors, y_factors = drawn
        d, capacity, _, scale, _ = history
        rng, buf, _ = realize(history)
        buf.s *= (s_factors * rng.uniform(0.5, 2.0, capacity))[:, None]
        buf.y *= (y_factors * rng.uniform(0.5, 2.0, capacity))[:, None]
        for kind in ("LSR1", "LBFGS"):
            op = build(kind, buf, scale)
            assert np.isfinite(op.u).all() and np.isfinite(op.m).all()
            for g in rng.normal(size=(3, d)):
                assert np.isfinite(op.apply(g)).all()


class TestDenseReferenceEquivalence:
    """The low-rank operators must match explicit dense update formulas."""

    def test_lsr1_matches_dense_rank_one_updates(self, rng):
        d = 7
        pairs = [(rng.normal(size=d), rng.normal(size=d)) for _ in range(5)]
        c = 0.4
        dense, _ = dense_lsr1(pairs, c, d)
        op = build("LSR1", buffer_of(d, pairs), c)
        for _ in range(5):
            g = rng.normal(size=d)
            np.testing.assert_allclose(op.apply(g), dense @ g, rtol=1e-10, atol=1e-12)

    def test_lbfgs_matches_dense_inverse_updates(self, rng):
        d = 6
        spd = random_spd(rng, d)
        pairs = [(s, spd @ s) for s in rng.normal(size=(4, d))]
        dense, _ = dense_lbfgs(pairs, 1.0, d)
        op = build("LBFGS", buffer_of(d, pairs), 1.0)
        for _ in range(5):
            g = rng.normal(size=d)
            np.testing.assert_allclose(op.apply(g), dense @ g, rtol=1e-10, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(pair_histories())
    def test_random_histories_match_dense_updates(self, history):
        d, _, _, scale, _ = history
        rng, buf, stored = realize(history)
        for kind, reference in (("LSR1", dense_lsr1), ("LBFGS", dense_lbfgs)):
            op = build(kind, buf, scale)
            dense, skipped = reference(stored, scale, d)
            assert op.skipped == skipped
            assert op.fallback == (bool(stored) and skipped == len(stored))
            for g in rng.normal(size=(3, d)):
                np.testing.assert_allclose(op.apply(g), dense @ g, rtol=1e-10, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(pair_histories())
    def test_random_histories_lsr1_equals_reference_bits(self, history):
        d, _, _, scale, _ = history
        _, buf, _ = realize(history)
        self.assert_lsr1_equals_reference(buf, scale)

    @pytest.mark.parametrize("d", [60, 500])
    def test_wide_histories_lsr1_equals_reference_bits(self, d):
        # a 1-D norm is sqrt(dot) at every length, where BLAS splits the sum
        kinds = ["quadratic", "gaussian", "negative", "h0", "zero_y"] * 2 + ["quadratic"]
        _, buf, _ = realize((d, 10, kinds, 0.5, d))
        self.assert_lsr1_equals_reference(buf, 0.5)

    @staticmethod
    def assert_lsr1_equals_reference(buf, scale):
        op = build("LSR1", buf, scale)
        u, m, skipped, fallback = reference_lsr1(buf, scale)
        assert op.u.tobytes() == u.tobytes() and op.m.tobytes() == m.tobytes()
        assert (op.skipped, op.fallback) == (skipped, fallback)

    @settings(max_examples=200, deadline=None)
    @given(pair_histories())
    def test_random_histories_give_symmetric_operators(self, history):
        """a.(H b) = b.(H a) for every build, up to rounding.

        With u = eps/2 and gamma_n = n u / (1 - n u), an n-term dot product
        is off by at most gamma_n |x|.|y|. ``apply`` forms U b (d terms),
        M (U b) (r terms, r the rows of U), its product with U (r terms) and
        c b plus that (2 roundings), and the dot with a adds d terms, so
        fl(a.(H b)) is within gamma_K |a|.(|H| |b|) of a.(H b) for the
        stored (c, U, M), with K = 2d + 2r + 2 and |H| = c I + |U|^T |M| |U|.
        The two sides then differ by at most gamma_K (|a|.|H||b| +
        |b|.|H||a|) plus |U a|.(|M - M^T| |U b|), and M's own asymmetry is
        bounded apart: SR1's M is diagonal, and L-BFGS's M has off-diagonal
        blocks -g R^-T and -g R^-1, exact transposes, over the top block
        T = R^-T B R^-1 with B = D + g Y Y^T, whose two products put at
        most gamma_{2k} |R^-T| |B| |R^-1| into each entry (k kept pairs),
        so |T - T^T| <= 2 gamma_{2k} |R^-T| (D + g |Y| |Y|^T) |R^-1|.
        """
        d, _, _, scale, _ = history
        rng, buf, stored = realize(history)
        for kind in ("LSR1", "LBFGS"):
            op = build(kind, buf, scale)
            asym = np.abs(op.m - op.m.T)
            if kind == "LSR1":
                assert not asym.any()
            else:
                kept = [
                    slot for slot in buf.order()
                    if buf.s[slot] @ buf.y[slot]
                    > 1e-12 * np.linalg.norm(buf.s[slot]) * np.linalg.norm(buf.y[slot])
                ]
                s, y = buf.s[kept], buf.y[kept]
                r_inv = np.abs(np.linalg.inv(np.triu(s @ y.T)))
                b = np.diag(np.einsum("ij,ij->i", s, y)) + op.scale * np.abs(y) @ np.abs(y).T
                bound = 2 * gamma(2 * len(kept)) * r_inv.T @ b @ r_inv
                assert np.all(asym[np.ix_(kept, kept)] <= bound)
            k = gamma(2 * d + 2 * len(op.u) + 2)
            for a, b in rng.normal(size=(3, 2, d)):
                tol = k * (np.abs(a) @ abs_apply(op, b) + np.abs(b) @ abs_apply(op, a))
                tol += np.abs(op.u @ a) @ asym @ np.abs(op.u @ b)
                assert abs(a @ op.apply(b) - b @ op.apply(a)) <= tol

    @settings(max_examples=200, deadline=None)
    @given(pair_histories())
    def test_random_histories_lbfgs_secant_on_newest_kept_pair(self, history):
        """H y = s for the newest pair that passes the curvature test.

        In exact arithmetic S y_k is R's last column, so R^-1 S y_k = e_k
        and the compact form collapses to s_k. Rounding enters in forming
        S Y^T and g (2d terms each), the triangular inverse (k terms), T
        (2k), and ``apply`` (d + 2r + 2, as in the symmetry property). Each
        error is at first order gamma_n times a product of magnitudes that
        is a term of |H| |y_k| with |H| = c I + |U|^T |M| |U|: an error
        E = R^-1 R - I of size gamma_k |R^-1| |R| reaches H y_k through
        g Y^T E e_k, bounded by gamma_k |Y|^T |g R^-1| |S| |y_k|, which is
        M's off-diagonal block between |U| factors. Summing the counts,
        ||H y_k - s_k|| <= gamma_K || |H| |y_k| || with
        K = 5d + 2r + 3k + 2.
        """
        d, _, _, scale, _ = history
        _, buf, stored = realize(history)
        kept = [
            (s, y) for s, y in stored
            if s @ y > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y)
        ]
        if not kept:
            return
        op = build("LBFGS", buf, scale)
        s, y = kept[-1]
        k = gamma(5 * d + 2 * len(op.u) + 3 * len(kept) + 2)
        assert np.linalg.norm(op.apply(y) - s) <= k * np.linalg.norm(abs_apply(op, y))

    @settings(max_examples=200, deadline=None)
    @given(pair_histories())
    def test_lsr1_on_quadratic_pairs_meets_every_secant(self, history):
        """An SR1 build that keeps every exact quadratic pair has H y_i = s_i.

        The history's pushes are replaced by pairs (s, A s). Building pair
        j computes v_j = s_j - H_{j-1} y_j and its weight 1 / v_j.y_j, so
        right after its own update pair j's residual H_j y_j - s_j is the
        rounding of H_{j-1} y_j (the ``apply`` count d + 2r + 2) and of the
        subtraction, plus the weight's relative error gamma_d rho_j with
        rho_j = ||v_j|| ||y_j|| / |v_j.y_j|. A later update l adds
        v_l (v_l.y_j) / (v_l.y_l); in exact arithmetic v_l.y_j = 0, and
        with a residual r_j it is -y_l.r_j, plus the rounding of y = A s
        (d terms on each side of s_l.y_j = y_l.s_j), so each later update
        grows the residual by at most the factor 1 + rho_l. Hence
        ||H y_j - s_j|| <= gamma_K (|| |H| |y_j| || + ||s_j||) prod_l (1 + rho_l)
        with K = 4d + 2r + 2 and |H| = c I + |U|^T |M| |U|.
        """
        d, _, kinds, scale, _ = history
        _, buf, stored = realize(history, ["quadratic"] * len(kinds))
        op = build("LSR1", buf, scale)
        if op.skipped:
            return
        weights = np.diag(op.m)
        rho = np.prod(
            1 + np.linalg.norm(op.u, axis=1) * np.linalg.norm(buf.y[buf.order()], axis=1)
            * np.abs(weights)
        )
        k = gamma(4 * d + 2 * len(op.u) + 2)
        for s, y in stored:
            tol = k * (np.linalg.norm(abs_apply(op, y)) + np.linalg.norm(s)) * rho
            assert np.linalg.norm(op.apply(y) - s) <= tol


class TestPairSources:
    def test_history_pair_contents(self, rng):
        buf = PairBuffer(3, 4)
        x0, x1 = rng.normal(size=4), rng.normal(size=4)
        g0, g1 = rng.normal(size=4), rng.normal(size=4)
        buf.push(x1 - x0, g1 - g0)
        s, y = newest(buf)
        np.testing.assert_array_equal(s, x1 - x0)
        np.testing.assert_array_equal(y, g1 - g0)

    def test_null_step_pair_dropped_by_skip_rules(self, rng):
        buf = PairBuffer(3, 4)
        x = rng.normal(size=4)
        buf.push(x - x, rng.normal(size=4) - rng.normal(size=4))
        assert build("LSR1", buf, 1.0).skipped == 1
        assert build("LBFGS", buf, 1.0).skipped == 1

    def test_fifo_eviction_at_capacity(self, rng):
        buf = PairBuffer(2, 2)
        for i in range(3):
            buf.push(np.full(2, float(i)), np.ones(2))
        assert len(buf) == 2
        np.testing.assert_array_equal(buf.s[buf.order()], [[1.0, 1.0], [2.0, 2.0]])

    def test_push_rejects_mismatched_shapes(self):
        buf = PairBuffer(2, 3)
        with pytest.raises(ValueError):
            buf.push(np.zeros(3), np.zeros(4))

    def test_history_y_matches_hvp_on_quadratic(self, rng):
        a = random_spd(rng, 5)
        prob = QuadraticProblem(a, rng.normal(size=5))
        x0, x1 = rng.normal(size=5), rng.normal(size=5)
        buf = PairBuffer(1, 5)
        buf.push(x1 - x0, prob.gradient(x1) - prob.gradient(x0))
        s, y = newest(buf)
        np.testing.assert_allclose(y, prob.hvp_batch(x0, s[None])[0], rtol=1e-12)

    def test_sampling_is_deterministic(self, rng):
        a = random_spd(rng, 4)
        oracle = CountingOracle(QuadraticProblem(a, np.zeros(4)))
        x = rng.normal(size=4)
        first = sample_pairs(oracle, x, 5, np.random.default_rng(99))
        second = sample_pairs(oracle, x, 5, np.random.default_rng(99))
        np.testing.assert_array_equal(first.rows, second.rows)

    def test_sampling_draws_one_direction_per_probe(self):
        oracle = CountingOracle(QuadraticProblem(np.eye(3), np.zeros(3)))
        pairs = sample_pairs(oracle, np.zeros(3), 4, np.random.default_rng(7))
        separate = np.random.default_rng(7)
        expected = [separate.standard_normal(3) for _ in range(4)]
        np.testing.assert_array_equal(pairs.s[pairs.order()], expected)

    def test_sampling_counts_hvp_calls(self, rng):
        oracle = CountingOracle(QuadraticProblem(np.eye(3), np.zeros(3)))
        pairs = sample_pairs(oracle, np.zeros(3), 10, rng)
        assert oracle.n_hvp == 10 and len(pairs) == 10

    def test_sampling_matches_per_probe_loop(self, rng):
        # the reference is the per-probe loop: push(d, H(x) d) per row, one row per batch
        prob = random_logistic(rng, n=60, d=12)
        x = rng.normal(size=12)
        for m in (1, 4, 10):
            oracle = CountingOracle(prob)
            batched = np.random.default_rng(m)
            pairs = sample_pairs(oracle, x, m, batched)
            loop = np.random.default_rng(m)
            expected = buffer_of(12, [(d, prob.hvp_batch(x, d[None])[0]) for d in loop.standard_normal((m, 12))])
            np.testing.assert_array_equal(pairs.rows, expected.rows)
            np.testing.assert_array_equal(pairs.order(), expected.order())
            assert oracle.n_hvp == m
            # both leave the generator in the same state
            assert batched.random() == loop.random()

    def test_sampled_y_is_exact_on_quadratic(self, rng):
        a = random_spd(rng, 4)
        oracle = CountingOracle(QuadraticProblem(a, np.zeros(4)))
        pairs = sample_pairs(oracle, np.zeros(4), 3, rng)
        for s, y in zip(pairs.s, pairs.y):
            np.testing.assert_array_equal(y, a @ s)


class TestRebuild:
    def test_lsr1_empty_equals_scaled_identity(self, rng):
        config = ApproxConfig(kind="LSR1", h0_scale=0.25)
        op = rebuild_operator(config, PairBuffer(2, 5))
        g = rng.normal(size=5)
        np.testing.assert_array_equal(op.apply(g), 0.25 * g)

    def test_lbfgs_single_pair_secant(self, rng):
        a = random_spd(rng, 4)
        # a buffer with a free slot
        buf = PairBuffer(2, 4)
        s = rng.normal(size=4)
        buf.push(s, a @ s)
        op = rebuild_operator(ApproxConfig(kind="LBFGS"), buf)
        assert np.linalg.norm(op.apply(a @ s) - s) <= 1e-8

    def test_exact_kind_is_not_pair_based(self):
        with pytest.raises(ValueError):
            rebuild_operator(ApproxConfig(kind="EXACT"), PairBuffer(1, 3))

    def test_apply_rejects_wrong_dimension(self, rng):
        pairs = quadratic_pairs(random_spd(rng, 4), rng, 2)
        for kind in ("LSR1", "LBFGS"):
            with pytest.raises(ValueError):
                build(kind, pairs, 1.0).apply(np.ones(5))

    def test_linearity_of_apply(self, rng):
        a = random_spd(rng, 6)
        pairs = quadratic_pairs(a, rng, 4)
        for op in (
            build("LSR1", pairs, 0.5),
            build("LBFGS", pairs, 0.5),
            build("LSR1", PairBuffer(2, 6), 0.5),
        ):
            for _ in range(5):
                u, v = rng.normal(size=6), rng.normal(size=6)
                alpha, beta = rng.normal(), rng.normal()
                combined = op.apply(alpha * u + beta * v)
                split = alpha * op.apply(u) + beta * op.apply(v)
                scale = np.linalg.norm(combined)
                assert np.linalg.norm(combined - split) <= 1e-10 * (1.0 + scale)


class TestDenseInverse:
    def test_exact_inverse_on_quadratic(self, rng):
        a = random_spd(rng, 5)
        oracle = CountingOracle(QuadraticProblem(a, np.zeros(5)))
        op = DenseInverseOperator(oracle, np.zeros(5))
        g = rng.normal(size=5)
        np.testing.assert_allclose(op.apply(g), np.linalg.solve(a, g), rtol=1e-10)
        assert oracle.n_hvp == 5

    def test_hessian_not_positive_definite_raises(self):
        class Saddle:
            dimension = 3

            def hvp_batch(self, x, V):
                return V * np.array([1.0, -1.0, 2.0])

        with pytest.raises(IndefiniteOperatorError) as caught:
            DenseInverseOperator(Saddle(), np.zeros(3))
        assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)

    def test_hessian_singular_to_working_precision_raises(self):
        # at mu = 0 each feature sits in a row of its own, so the Hessian is
        # diagonal and factors exactly, but its pivots span 18 decades: a
        # rank-deficient design's factorization goes through or not by the
        # rounding of its zero pivot, this one on every platform
        design = sp.csr_matrix(np.diag([1.0, 1.0, 1e-9]))
        problem = LogisticProblem(design, [1.0, -1.0, 1.0], 0.0)
        with pytest.raises(IndefiniteOperatorError, match="singular"):
            DenseInverseOperator(problem, np.zeros(3))


class TestUnusableOperator:
    def test_one_exception_class(self):
        # the rule and its exception live in hessian alone
        assert ceqn.IndefiniteOperatorError is IndefiniteOperatorError
        assert ceqn.dual_norm is steps.dual_norm is dual_norm
        assert dual_norm.__module__ == hessian.__name__
        assert not hasattr(steps, "IndefiniteOperatorError")

    @given(pair_histories(), st.integers(-200, 200))
    def test_rule_is_invariant_under_powers_of_two(self, history, k):
        """H and 2^k H are usable at the same g: a power of two scales scale,
        M and so every product exactly, and the rule has no floor in the
        units of ||g||^2 that would tell them apart."""
        rng, buf, _ = realize(history)
        op = _build_lsr1(buf, history[3])
        scaled = LowRankOperator(op.scale * 2.0**k, op.u, op.m * 2.0**k, op.skipped, op.fallback)
        g = rng.normal(size=buf.dimension)
        outcomes = []
        for operator in (op, scaled):
            try:
                outcomes.append(dual_norm(operator, g)[1])
            except IndefiniteOperatorError:
                outcomes.append(None)
        if outcomes[0] is None:
            assert outcomes[1] is None
        else:
            assert outcomes[1] is not None
            assert outcomes[1].tobytes() == (2.0**k * outcomes[0]).tobytes()

    def test_identity_is_flagged_h0(self, rng):
        g = rng.normal(size=5)
        g[0] = -0.0
        op = LowRankOperator.identity(0.3, 5, skipped=2)
        assert op.apply(g).tobytes() == (0.3 * g).tobytes()
        assert op.fallback and op.skipped == 2
        assert op.u.shape == (0, 5) and op.m.shape == (0, 0)
        assert not LowRankOperator.identity(0.3, 5, fallback=False).fallback


class TestConfigValidation:
    def test_rejects_bad_memory(self):
        with pytest.raises(ValueError):
            ApproxConfig(memory=0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            ApproxConfig(h0_scale=0.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ApproxConfig(kind="DFP")

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            ApproxConfig(pair_strategy="MIXED")
