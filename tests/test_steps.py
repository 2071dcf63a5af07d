import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ceqn.hessian import (
    ApproxConfig,
    DenseInverseOperator,
    PairBuffer,
    rebuild_operator,
)
from ceqn.problems import CountingOracle, LogisticProblem, QuadraticProblem
from ceqn.steps import (
    AdaptiveParams,
    CeqnParams,
    IndefiniteOperatorError,
    adaptive_iteration,
    ceqn_step,
    check_dual,
    check_reg,
    damped_stepsize,
    dual_norm,
)

from conftest import GRAD_TOL, ScaledIdentity, random_logistic, random_spd


class IdentityOperator(ScaledIdentity):
    def __init__(self):
        super().__init__(1.0)


class NegatedOperator:
    skipped = 0
    fallback = False

    def apply(self, g):
        return -g


class TestDualNorm:
    def test_identity_euclidean(self):
        value, hg = dual_norm(IdentityOperator(), np.array([3.0, 4.0]))
        assert value == 5.0
        np.testing.assert_array_equal(hg, [3.0, 4.0])

    def test_zero_gradient(self):
        value, _ = dual_norm(IdentityOperator(), np.zeros(3))
        assert value == 0.0

    def test_scaled_identity(self):
        value, _ = dual_norm(ScaledIdentity(2.0), np.array([1.0, 1.0]))
        assert value == pytest.approx(2.0, rel=1e-15)

    def test_indefinite_operator_raises(self):
        with pytest.raises(IndefiniteOperatorError):
            dual_norm(NegatedOperator(), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_quadratic_form_raises(self, entry):
        class NonFinite(NegatedOperator):
            def apply(self, g):
                return np.full_like(g, entry)

        with pytest.raises(IndefiniteOperatorError):
            dual_norm(NonFinite(), np.array([1.0, 2.0]))


def adaptive_eta(cubic, alpha, gdual):
    """The adaptive engine's stepsize at inexactness level alpha."""
    c = 1.0 + alpha
    return damped_stepsize(c, c**1.5 * cubic * gdual)


U = 2.0**-53
THETA = st.floats(min_value=1e-3, max_value=1e3)
# lg = 0 or normal: the rounding bound and the x4 identity hold there
LG = st.just(0.0) | st.floats(min_value=1e-200, max_value=1e200)
# cubic * gdual and 4 * cubic * gdual stay normal
FACTOR = st.floats(min_value=1e-90, max_value=1e90)


def exact_root_stepsize(theta, cubic, gdual):
    """The retired EXACT_ROOT stepsize, the root of
    cubic*gdual*eta^2 + theta*eta - 1 = 0, as the library computed it."""
    lg = cubic * gdual
    lg *= 4.0
    if lg == 0.0:
        return 1.0 / theta
    return 2.0 / (theta + math.sqrt(theta * theta + lg))


class TestDampedStepsize:
    @given(theta=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_zero_lg_gives_inverse_theta_exactly(self, theta):
        # for every positive finite theta: the fixed step 1/L is CEQN at
        # theta = L, cubic = 0
        assert damped_stepsize(theta, 0.0) == 1.0 / theta

    def test_direct_evaluation(self):
        # theta=1, lg = 3: 2 / (1 + sqrt(1 + 3)) = 2/3
        assert damped_stepsize(1.0, 3.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
        # the adaptive form at alpha=1, cubic=1, gdual=2 evaluated independently:
        # 2 / (2 + sqrt(4 + 2^1.5 * 2)) = 0.3915773322812624
        assert adaptive_eta(1.0, 1.0, 2.0) == pytest.approx(0.3915773322812624, abs=1e-16)

    @pytest.mark.parametrize(
        "theta, lg",
        [(0.0, 1.0), (-1.0, 1.0), (1.0, -1e-300), (math.nan, 0.0), (1.0, math.nan)],
    )
    def test_rejects_nonpositive_theta_and_negative_lg(self, theta, lg):
        with pytest.raises(ValueError):
            damped_stepsize(theta, lg)

    @given(theta=THETA, lgs=st.lists(LG, min_size=2, max_size=2))
    def test_bounded_and_nonincreasing(self, theta, lgs):
        low, high = sorted(lgs)
        eta_low, eta_high = damped_stepsize(theta, low), damped_stepsize(theta, high)
        assert 0.0 < eta_high <= eta_low <= 1.0 / theta

    @given(theta=THETA, lg=LG)
    def test_solves_the_quadratic_within_the_rounding_bound(self, theta, lg):
        eta = damped_stepsize(theta, lg)
        residual = lg / 4.0 * (eta * eta) + theta * eta - 1.0
        # 12u from the docstring's bound, plus room for its O(u^2) terms
        assert abs(residual) <= 13 * U

    @given(theta=THETA, cubic=FACTOR, gdual=st.just(0.0) | FACTOR)
    def test_exact_root_is_the_standard_form_at_four_times_cubic(self, theta, cubic, gdual):
        assert exact_root_stepsize(theta, cubic, gdual) == damped_stepsize(
            theta, 4.0 * cubic * gdual
        )

    @given(theta=THETA, cubic=st.floats(0.0, 1e3), scale=st.floats(1e-3, 1e3))
    def test_ceqn_step_takes_the_damped_stepsize(self, theta, cubic, scale):
        prob = QuadraticProblem(np.diag([1.0, 3.0]), np.array([0.5, -2.0]))
        oracle = CountingOracle(prob)
        x = np.array([1.7, 0.3])
        g = oracle.gradient(x)
        res = ceqn_step(CeqnParams(theta=theta, cubic=cubic), oracle, ScaledIdentity(scale), x, g)
        assert res.eta == damped_stepsize(theta, cubic * res.dual_norm_before)
        np.testing.assert_array_equal(res.x_next, x - res.eta * (scale * g))

    @given(
        cubic=st.floats(1e-2, 1e2),
        alpha0=st.floats(1e-3, 1e2),
        scale=st.floats(1e-2, 1e2),
        mode=st.sampled_from(["DUAL", "REG"]),
    )
    def test_adaptive_iteration_takes_the_damped_stepsize(self, cubic, alpha0, scale, mode):
        prob = QuadraticProblem(np.diag([1.0, 3.0]), np.array([0.5, -2.0]))
        oracle = CountingOracle(prob)
        x = np.array([1.7, 0.3])
        params = AdaptiveParams(cubic=cubic, alpha0=alpha0, mode=mode)
        res = adaptive_iteration(
            params, oracle, ScaledIdentity(scale), x, oracle.gradient(x), oracle.value(x),
            alpha0, GRAD_TOL,
        )
        assert res.eta == adaptive_eta(cubic, res.alpha_used, res.dual_norm_before)


class TestAcceptanceAtLargeAlpha:
    """REG and DUAL accept once alpha is large enough, so the inner loop ends.

    Write c = 1 + alpha, p = H g and gd^2 = g^T p for a positive-definite H
    with largest eigenvalue lam, r = ||p||^2 / gd^2 <= lam, L for ``cubic``
    and M = ||A||_2^2 / (4n) + mu for the largest Hessian eigenvalue of the
    logistic objective. The stepsize obeys 1 / (c (1 + sqrt(L gd) / (2 c^{1/4})))
    <= eta <= 1/c.

    REG: the descent lemma gives f(x - eta p) <= f - eta gd^2 + M/2 eta^2 ||p||^2,
    so the test passes when M ||p||^2 / c + L gd^3 / (3 sqrt c) <= gd^2; each
    term is at most half of that once c >= c_reg = max(2 M r, (2 L gd / 3)^2).

    DUAL: with g+ = g - eta B p and 0 <= B <= M, <g+, p> >= gd^2 (1 - eta M r)
    and ||g+||_*^2 <= gd^2 (1 + eta^2 lam M^2 r). Once c >= c_dual =
    max(6, 4 M r, M sqrt(lam r), 16 L^2 gd^2), eta >= 1 / (1.25 c), so
    <g+, x - x+> >= 0.6 gd^2 / c > gd^2 / (2 alpha) >= the threshold.

    Doubling from alpha0 passes 2 c_* after at most ceil(log2(2 c_* / alpha0))
    doublings: that is the bound asserted. The factor 2 leaves rounding
    room: REG's f(x+) then lies at least 0.2 eta gd^2 below the required
    value. On 400 draws from these ranges the bound reached 44 doublings
    for REG and 49 for DUAL, and the loop needed at most 33 and 22.
    """

    @given(
        seed=st.integers(0, 2**32 - 1),
        operator_kind=st.sampled_from(["identity", "lbfgs"]),
        log_scale=st.floats(-4.0, 4.0),
        log_cubic=st.floats(-4.0, 4.0),
        log_mu=st.floats(-6.0, 0.0),
    )
    def test_accepts_within_the_doublings_bound(
        self, seed, operator_kind, log_scale, log_cubic, log_mu
    ):
        rng = np.random.default_rng(seed)
        n, d, alpha0 = 40, 8, 1e-3
        mu, cubic, scale = 10.0**log_mu, 10.0**log_cubic, 10.0**log_scale
        prob = random_logistic(rng, n=n, d=d, mu=mu)
        x = rng.normal(size=d)
        if operator_kind == "identity":
            op = ScaledIdentity(scale)
        else:
            # curvature pairs of a positive-definite B / scale: H is positive definite
            b = random_spd(rng, d) / scale
            pairs = PairBuffer(5, d)
            for s in rng.normal(size=(5, d)):
                pairs.push(s, b @ s)
            op = rebuild_operator(ApproxConfig(kind="LBFGS", h0_scale=scale, memory=5), pairs)
        h = np.array([op.apply(e) for e in np.eye(d)])
        lam = float(np.linalg.eigvalsh(0.5 * (h + h.T)).max())
        m = np.linalg.norm(prob.design.toarray(), 2) ** 2 / (4 * n) + mu
        g = prob.gradient(x)
        gd, p = dual_norm(op, g)
        r = float(p @ p) / gd**2
        c_star = {
            "REG": max(2 * m * r, (2 * cubic * gd / 3) ** 2),
            "DUAL": max(6.0, 4 * m * r, m * math.sqrt(lam * r), 16 * cubic**2 * gd**2),
        }
        for mode, c in c_star.items():
            bound = max(0, math.ceil(math.log2(2 * c / alpha0)))
            params = AdaptiveParams(
                cubic=cubic, alpha0=alpha0, gamma_inc=2.0, mode=mode, max_inner=max(bound, 1)
            )
            oracle = CountingOracle(prob)
            res = adaptive_iteration(
                params, oracle, op, x, g, oracle.value(x), alpha0, GRAD_TOL
            )
            assert not res.cap_hit, (mode, bound)
            assert res.inner_count <= bound


class TestCeqnStep:
    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_null_gradient_is_fixed_point(self, rng, theta):
        prob = QuadraticProblem(random_spd(rng, 3), rng.normal(size=3))
        oracle = CountingOracle(prob)
        x = prob.solution()
        res = ceqn_step(CeqnParams(theta=theta), oracle, IdentityOperator(), x, np.zeros(3))
        np.testing.assert_array_equal(res.x_next, x)

    @pytest.mark.parametrize("theta, scale", [(1.0, 1.0), (3.7, 1.0), (10.0, 0.3), (1e-3, 2.0)])
    def test_cubic_zero_is_the_fixed_step(self, rng, theta, scale):
        # at theta = L, cubic = 0 the step is x - (1/L) H g bit for bit; with
        # the identity operator, gradient descent
        prob = QuadraticProblem(random_spd(rng, 3), rng.normal(size=3))
        oracle = CountingOracle(prob)
        x = np.ones(3)
        g = oracle.gradient(x)
        res = ceqn_step(CeqnParams(theta=theta, cubic=0.0), oracle, ScaledIdentity(scale), x, g)
        np.testing.assert_array_equal(res.x_next, x - (1.0 / theta) * (scale * g))

    def test_newton_solves_quadratic_in_one_step(self, rng):
        prob = QuadraticProblem(random_spd(rng, 4), rng.normal(size=4))
        oracle = CountingOracle(prob)
        x = np.ones(4)
        op = DenseInverseOperator(oracle, x)
        res = ceqn_step(CeqnParams(theta=1.0, cubic=0.0), oracle, op, x, oracle.gradient(x))
        np.testing.assert_allclose(res.x_next, prob.solution(), rtol=1e-10)

    def test_step_length_identity_in_operator_norm(self, rng):
        prob = random_logistic(rng, n=30, d=6)
        oracle = CountingOracle(prob)
        x = np.full(6, 0.3)
        g = oracle.gradient(x)
        op = DenseInverseOperator(oracle, x)
        res = ceqn_step(CeqnParams(theta=1.1, cubic=1.0), oracle, op, x, g)
        h = res.x_next - x
        step_norm = math.sqrt(float(h @ prob.hvp_batch(x, h[None])[0]))
        assert abs(step_norm - res.eta * res.dual_norm_before) <= 1e-10


class TestCheckDual:
    def test_zero_gradient_accepts(self, rng):
        class Unusable:
            def apply(self, g):
                raise AssertionError("the stationarity shortcut applied the operator")

        x = rng.normal(size=3)
        assert not check_dual(np.zeros(3), x, x + 0.1, Unusable(), 1.0, 1.0, GRAD_TOL)

    def test_exact_hessian_quadratic_accepts(self, rng):
        prob = QuadraticProblem(random_spd(rng, 3), rng.normal(size=3))
        oracle = CountingOracle(prob)
        x = np.ones(3)
        g = oracle.gradient(x)
        op = DenseInverseOperator(oracle, x)
        gd, hg = dual_norm(op, g)
        eta = adaptive_eta(1.0, 1e-3, gd)
        x_next = x - eta * hg
        assert not check_dual(oracle.gradient(x_next), x, x_next, op, 1e-3, 1.0, GRAD_TOL)

    def test_badly_scaled_operator_rejects_first_trial(self, rng):
        prob = random_logistic(rng, n=50, d=10)
        x = np.ones(10)
        g = prob.gradient(x)
        op = ScaledIdentity(1e6)
        alpha, cubic = 1.0, 0.1
        gd, hg = dual_norm(op, g)
        eta = adaptive_eta(cubic, alpha, gd)
        x_next = x - eta * hg
        g_next = prob.gradient(x_next)
        assert check_dual(g_next, x, x_next, op, alpha, cubic, GRAD_TOL)
        # the rejection agrees with direct evaluation
        gdn, _ = dual_norm(op, g_next)
        lhs = float(g_next @ (x - x_next))
        threshold = min(
            gdn**2 / (4 * alpha), gdn**1.5 / math.sqrt(6 * (1 + alpha) ** 1.5 * cubic)
        )
        assert lhs <= threshold

    def test_gradient_whose_square_overflows_rejects(self):
        class Unusable:
            def apply(self, g):
                raise AssertionError("an overflowing trial reached the dual norm")

        g_next = np.full(3, 1e160)
        assert check_dual(g_next, np.ones(3), np.zeros(3), Unusable(), 1.0, 1.0, GRAD_TOL)


class TestCheckReg:
    def test_no_decrease_rejects(self):
        assert check_reg(f_k=1.0, f_next=1.0, eta=0.5, gdual=0.2, cubic=1.0, alpha=0.1)

    def test_null_step_accepts(self):
        assert not check_reg(f_k=1.0, f_next=1.0, eta=0.5, gdual=0.0, cubic=1.0, alpha=0.1)

    @pytest.mark.parametrize("gdual, alpha", [(1e110, 1.0), (1e200, 1.0), (1.0, 1e300)])
    def test_threshold_past_the_float_range_rejects(self, gdual, alpha):
        # gdual**3, gdual**2 or (1 + alpha)**1.5 raises OverflowError
        assert check_reg(f_k=1.0, f_next=-1e300, eta=0.5, gdual=gdual, cubic=1.0, alpha=alpha)

    @pytest.mark.parametrize(
        "eta, gdual", [(0.0, 1.0), (math.nan, 1.0), (0.5, -1e-300), (0.5, math.nan)]
    )
    def test_rejects_nonpositive_eta_and_negative_gdual(self, eta, gdual):
        # a check written `eta <= 0` would let a NaN stepsize be accepted
        with pytest.raises(ValueError):
            check_reg(f_k=1.0, f_next=0.5, eta=eta, gdual=gdual, cubic=1.0, alpha=1.0)

    @pytest.mark.parametrize("k", [0.1, 10.0, 1e3, 1e4])
    def test_quadratic_threshold_is_eta_times_4c_minus_3(self, rng, k):
        """On a quadratic with the exact Hessian, REG accepts iff eta (4c - 3) >= 1.

        With gd the dual norm, f(x - eta H g) = f - eta gd^2 + eta^2 gd^2 / 2,
        so the decrease REG requires holds with slack eta gd^2 / 6 * (eta (4c -
        3) - 1), using (L_eff gd / 4) eta^2 = 1 - c eta for the damped
        stepsize at c = 1 + alpha, L_eff = c^{3/2} cubic. For large K = cubic
        gd the boundary solves c^{3/2} K = 12 (c - 1)(4c - 3), c ~ K^2 / 2304,
        so the largest step REG accepts is eta ~ 576 / K^2: it shrinks as
        cubic^-2.
        """
        prob = QuadraticProblem(random_spd(rng, 3), rng.normal(size=3))
        oracle = CountingOracle(prob)
        x = np.ones(3)
        f = oracle.value(x)
        op = DenseInverseOperator(oracle, x)
        gd, hg = dual_norm(op, oracle.gradient(x))
        cubic = k / gd
        sides = set()
        largest_accepted = 0.0
        for alpha in np.geomspace(1e-4, 1e6, 2400):
            c = 1.0 + alpha
            eta = adaptive_eta(cubic, alpha, gd)
            margin = eta * (4.0 * c - 3.0) - 1.0
            if abs(margin) < 1e-4:
                continue  # within rounding of the boundary
            rejected = check_reg(f, oracle.value(x - eta * hg), eta, gd, cubic, alpha)
            assert rejected == (margin < 0), (alpha, margin)
            sides.add(rejected)
            if not rejected:
                largest_accepted = max(largest_accepted, eta)
        assert sides == {True, False}
        if k >= 1e3:
            assert largest_accepted * k**2 == pytest.approx(576.0, rel=0.05)

    def test_exact_hessian_quadratic_accepts_every_step(self, rng):
        prob = QuadraticProblem(random_spd(rng, 3), rng.normal(size=3))
        oracle = CountingOracle(prob)
        x = np.ones(3)
        g = oracle.gradient(x)
        f = oracle.value(x)
        alpha = 0.1
        params = AdaptiveParams(cubic=0.1, alpha0=alpha, mode="REG", gamma_dec=1.0)
        for _ in range(40):
            if float(g @ g) <= 1e-20:
                break
            op = DenseInverseOperator(oracle, x)
            res = adaptive_iteration(params, oracle, op, x, g, f, alpha, GRAD_TOL)
            assert res.inner_count == 0 and not res.cap_hit
            x, f, g, alpha = res.x_next, res.f_next, res.g_next, res.alpha_next


class TestAdaptiveIteration:
    def test_rejects_nonpositive_alpha(self):
        oracle = CountingOracle(QuadraticProblem(np.eye(2), np.zeros(2)))
        x = np.ones(2)
        for alpha in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="alpha_in"):
                adaptive_iteration(
                    AdaptiveParams(), oracle, IdentityOperator(), x, x, 1.0, alpha, GRAD_TOL
                )

    def test_exact_hessian_quadratic_alpha_never_grows(self, rng):
        prob = QuadraticProblem(random_spd(rng, 3), rng.normal(size=3))
        oracle = CountingOracle(prob)
        x = np.ones(3)
        g = oracle.gradient(x)
        f = oracle.value(x)
        alpha = 1e-3
        params = AdaptiveParams(cubic=1.0, alpha0=alpha, mode="DUAL", gamma_dec=1.0)
        for _ in range(50):
            if float(g @ g) <= 1e-24:
                break
            op = DenseInverseOperator(oracle, x)
            res = adaptive_iteration(params, oracle, op, x, g, f, alpha, GRAD_TOL)
            assert res.inner_count == 0
            assert res.alpha_next == alpha
            x, f, g, alpha = res.x_next, res.f_next, res.g_next, res.alpha_next
        assert alpha == 1e-3

    def test_geometric_schedule_on_two_rejections(self):
        # 1-d quadratic from x=2 with these constants rejects exactly twice
        prob = QuadraticProblem(np.array([[1.0]]), np.array([0.0]))
        oracle = CountingOracle(prob)
        x = np.array([2.0])
        params = AdaptiveParams(cubic=0.5, alpha0=0.02, mode="REG", gamma_dec=1.0)
        op = DenseInverseOperator(oracle, x)
        res = adaptive_iteration(
            params, oracle, op, x, oracle.gradient(x), oracle.value(x), 0.02, GRAD_TOL
        )
        assert res.inner_count == 2
        assert res.alpha_used == pytest.approx(0.08, rel=1e-15)
        assert res.alpha_next == res.alpha_used  # gamma_dec = 1 carries alpha forward

    def test_gamma_dec_decays_alpha_after_success(self, rng):
        prob = QuadraticProblem(random_spd(rng, 2), rng.normal(size=2))
        oracle = CountingOracle(prob)
        x = np.ones(2)
        params = AdaptiveParams(cubic=0.1, alpha0=1.0, mode="REG", gamma_dec=0.5)
        op = DenseInverseOperator(oracle, x)
        res = adaptive_iteration(
            params, oracle, op, x, oracle.gradient(x), oracle.value(x), 1.0, GRAD_TOL
        )
        assert res.inner_count == 0
        assert res.alpha_next == 0.5

    def test_cap_hit_accepts_last_trial(self):
        # constant objective: REG can never certify a decrease
        class Flat:
            dimension = 2

            def value(self, x):
                return 1.0

            def gradient(self, x):
                return np.array([1.0, 0.0])

            def hvp_batch(self, x, V):
                return V

        oracle = CountingOracle(Flat())
        x = np.zeros(2)
        params = AdaptiveParams(cubic=1.0, alpha0=1.0, mode="REG", max_inner=5)
        res = adaptive_iteration(
            params, oracle, IdentityOperator(), x, oracle.gradient(x), 1.0, 1.0, GRAD_TOL
        )
        assert res.cap_hit
        assert res.inner_count == 5

    def test_trial_that_does_not_move_x_ends_the_loop(self):
        # steps of at most 1 against an ulp of x of 16384: every trial rounds
        # back to x, so f makes none of the decrease REG asks for and
        # <g+, x - x+> = 0 fails DUAL
        class Flat:
            dimension = 2

            def value(self, x):
                return 1.0

            def gradient(self, x):
                return np.array([1.0, 0.0])

        x = np.full(2, 1e20)
        for mode in ("DUAL", "REG"):
            oracle = CountingOracle(Flat())
            params = AdaptiveParams(cubic=1.0, mode=mode, max_inner=30)
            res = adaptive_iteration(
                params, oracle, IdentityOperator(), x, oracle.gradient(x), 1.0, 1.0, 0.0
            )
            np.testing.assert_array_equal(res.x_next, x)
            assert res.cap_hit and res.inner_count == 0, mode

    def test_alpha_nondecreasing_and_rep_bound_without_decay(self, rng):
        prob = random_logistic(rng, n=60, d=8)
        oracle = CountingOracle(prob)
        x = np.ones(8)
        g = oracle.gradient(x)
        f = oracle.value(x)
        alpha0 = alpha = 1e-2
        params = AdaptiveParams(cubic=0.5, alpha0=alpha0, mode="DUAL", gamma_dec=1.0)
        total_inner = 0
        alphas = []
        iters = 40
        for _ in range(iters):
            op = ScaledIdentity(1e-2)
            res = adaptive_iteration(params, oracle, op, x, g, f, alpha, GRAD_TOL)
            assert res.alpha_next >= alpha
            total_inner += res.inner_count
            alphas.append(res.alpha_next)
            x, f, g, alpha = res.x_next, res.f_next, res.g_next, res.alpha_next
        assert alphas == sorted(alphas)
        expected = math.log(alpha / alpha0, params.gamma_inc)
        assert total_inner <= expected + iters + 1e-9

    def test_null_gradient_is_fixed_point(self):
        prob = QuadraticProblem(np.eye(3), np.zeros(3))
        x = np.zeros(3)  # exact stationary point, gradient identically zero
        for mode in ("DUAL", "REG"):
            oracle = CountingOracle(prob)
            params = AdaptiveParams(cubic=1.0, alpha0=0.5, mode=mode)
            res = adaptive_iteration(
                params, oracle, IdentityOperator(), x, oracle.gradient(x),
                oracle.value(x), 0.5, GRAD_TOL,
            )
            np.testing.assert_array_equal(res.x_next, x)
            assert not res.cap_hit

    def test_monotone_descent_when_accepted(self, rng):
        prob = random_logistic(rng, n=80, d=10)
        for mode in ("DUAL", "REG"):
            oracle = CountingOracle(prob)
            x = np.ones(10)
            g = oracle.gradient(x)
            f = oracle.value(x)
            alpha = 1.0
            params = AdaptiveParams(cubic=0.1, alpha0=1.0, mode=mode)
            for _ in range(30):
                op = ScaledIdentity(0.5)
                res = adaptive_iteration(params, oracle, op, x, g, f, alpha, GRAD_TOL)
                if not res.cap_hit:
                    assert res.f_next <= f
                x, f, g, alpha = res.x_next, res.f_next, res.g_next, res.alpha_next


class TestStepContract:
    """An engine returns its step evaluated: f and g at x_next, bit for bit
    what the problem gives there, paid for with a fixed count per step."""

    @pytest.mark.parametrize("engine", ["CEQN", "DUAL", "REG"])
    def test_step_carries_f_and_g_at_x_next(self, rng, engine):
        prob = random_logistic(rng, n=80, d=10)
        # a fresh instance: its margin cache never holds the engine's points
        reference = LogisticProblem(prob.design, prob.labels, prob.mu)
        oracle = CountingOracle(prob)
        # H = 50 I overshoots at small alpha, so the adaptive tests reject
        op = ScaledIdentity(50.0)
        x = np.ones(10)
        f, g = oracle.value(x), oracle.gradient(x)
        alpha = 1e-3
        rejections = 0
        for _ in range(10):
            before = (oracle.n_value, oracle.n_grad)
            if engine == "CEQN":
                res = ceqn_step(CeqnParams(theta=1.0, cubic=1.0), oracle, op, x, g)
                expected = (1, 1)
                assert res.alpha_next is None
            else:
                params = AdaptiveParams(cubic=1.0, alpha0=alpha, mode=engine)
                res = adaptive_iteration(params, oracle, op, x, g, f, alpha, GRAD_TOL)
                trials = res.inner_count + 1
                expected = (1, trials) if engine == "DUAL" else (trials, 1)
                assert res.alpha_next == res.alpha_used * params.gamma_dec
                rejections += res.inner_count
            assert (oracle.n_value - before[0], oracle.n_grad - before[1]) == expected
            assert res.f_next == reference.value(res.x_next)
            assert res.g_next.tobytes() == reference.gradient(res.x_next).tobytes()
            x, f, g, alpha = res.x_next, res.f_next, res.g_next, res.alpha_next
        if engine != "CEQN":
            assert rejections > 0


class TestOneStepDecreaseChain:
    def test_quadratic_exact_hessian_decrease(self, rng):
        # f(x+) - f(x) <= -eta/2 * (dual norm)^2 on quadratics for theta >= 1
        for theta in (1.0, 1.3, 2.0):
            prob = QuadraticProblem(random_spd(rng, 4), rng.normal(size=4))
            oracle = CountingOracle(prob)
            x = rng.normal(size=4) * 2.0
            f, g = oracle.value(x), oracle.gradient(x)
            params = CeqnParams(theta=theta, cubic=0.7)
            for _ in range(15):
                if float(g @ g) <= 1e-22:
                    break
                op = DenseInverseOperator(oracle, x)
                res = ceqn_step(params, oracle, op, x, g)
                bound = -0.5 * res.eta * res.dual_norm_before**2
                assert res.f_next - f <= bound + 1e-10
                x, f, g = res.x_next, res.f_next, res.g_next


class TestParamValidation:
    def test_ceqn_params(self):
        with pytest.raises(ValueError):
            CeqnParams(theta=0.0)
        with pytest.raises(ValueError):
            CeqnParams(cubic=-1.0)

    def test_adaptive_params(self):
        with pytest.raises(ValueError):
            AdaptiveParams(cubic=0.0)
        with pytest.raises(ValueError):
            AdaptiveParams(gamma_inc=1.0)
        with pytest.raises(ValueError):
            AdaptiveParams(gamma_dec=0.0)
        with pytest.raises(ValueError):
            AdaptiveParams(gamma_dec=1.5)
        with pytest.raises(ValueError):
            AdaptiveParams(max_inner=0)
