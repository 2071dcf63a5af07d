import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from ceqn.data_io import parse_libsvm, validate_spec
from ceqn.driver import SolverConfig, check_termination, run_solver
from ceqn.hessian import ApproxConfig
from ceqn.problems import LogisticProblem, QuadraticProblem, tridiagonal_quadratic
from ceqn import steps
from ceqn.steps import AdaptiveParams, CeqnParams, check_dual

from conftest import FIXTURE_LIBSVM, random_logistic, random_spd


def exact_newton_config(**kwargs):
    defaults = dict(
        engine=CeqnParams(theta=1.0, cubic=0.0),
        approx=ApproxConfig(kind="EXACT"),
        max_iters=50,
    )
    defaults.update(kwargs)
    return SolverConfig(**defaults)


def adaptive_config(mode, cubic=0.1, **kwargs):
    defaults = dict(
        engine=AdaptiveParams(cubic=cubic, mode=mode),
        approx=ApproxConfig(memory=10, h0_scale=1e-4),
        max_iters=300,
        grad_tol=1e-12,
        seed=0,
    )
    defaults.update(kwargs)
    return SolverConfig(**defaults)


class TestTermination:
    def test_grad_tol(self):
        cfg = exact_newton_config(grad_tol=1e-12)
        assert check_termination(3, 0.0, 0.0, cfg) == "GRAD_TOL"

    def test_max_iters(self):
        cfg = exact_newton_config(max_iters=10)
        assert check_termination(10, 1.0, 0.0, cfg) == "MAX_ITERS"

    def test_precedence_grad_tol_wins(self):
        cfg = exact_newton_config(max_iters=10, grad_tol=1e-6)
        assert check_termination(10, 1e-7, 1e9, cfg) == "GRAD_TOL"

    def test_timeout(self):
        cfg = exact_newton_config(max_seconds=5.0)
        assert check_termination(2, 1.0, 6.0, cfg) == "TIMEOUT"

    def test_no_termination(self):
        cfg = exact_newton_config()
        assert check_termination(2, 1.0, 0.0, cfg) is None


class TestRunSolver:
    def test_newton_one_step_on_quadratic(self):
        result = run_solver(tridiagonal_quadratic(3), exact_newton_config())
        assert result.termination == "GRAD_TOL"
        assert len(result.trace) == 1
        assert result.grad_norm_sq_final <= 1e-20

    def test_start_at_minimizer_terminates_immediately(self, rng):
        prob = QuadraticProblem(random_spd(rng, 3), rng.normal(size=3))
        cfg = exact_newton_config(x0=prob.solution())
        result = run_solver(prob, cfg)
        assert result.termination == "GRAD_TOL"
        assert result.trace == []

    def test_adaptive_reg_descends_across_seeds(self, rng):
        prob = random_logistic(rng, n=200, d=20, mu=1e-4)
        for seed in range(5):
            result = run_solver(prob, adaptive_config("REG", seed=seed))
            fs = [rec.f for rec in result.trace]
            assert all(b < a for a, b in zip(fs, fs[1:]))
            assert result.termination == "GRAD_TOL"

    def test_numerical_failure_carries_partial_trace(self, rng):
        prob = random_logistic(rng, n=100, d=15)
        cfg = SolverConfig(
            engine=CeqnParams(theta=1e-8),  # stepsize 1e8 diverges immediately
            approx=ApproxConfig(memory=5, h0_scale=1.0),
            max_iters=50,
        )
        result = run_solver(prob, cfg)
        assert result.termination == "NUMERICAL_FAILURE"
        assert len(result.trace) >= 1

    def test_gradient_overflowing_its_square_is_a_numerical_failure(self):
        # on the fixture this run's gradient grows past 1e154 before it stops
        # being finite, so its squared norm overflows; the suite turns the
        # overflow warning into an error
        dataset = parse_libsvm(FIXTURE_LIBSVM)
        prob = LogisticProblem(dataset.design, dataset.labels, mu=1e-4)
        cfg = SolverConfig(
            engine=CeqnParams(theta=1e-12),
            approx=ApproxConfig(kind="LSR1", h0_scale=1.0),
            max_iters=200,
        )
        result = run_solver(prob, cfg)
        assert result.termination == "NUMERICAL_FAILURE"
        assert result.grad_norm_sq_final == math.inf
        assert len(result.trace) >= 1

    @pytest.mark.parametrize("engine", [CeqnParams(), AdaptiveParams()])
    def test_finite_gradient_whose_square_overflows_is_a_numerical_failure(self, engine):
        # every entry of g is finite, about 2.3e153, but ||g||^2 ~ 3.2e308 is
        # not: the run ends at the start point, with no warning and no raise
        dataset = parse_libsvm(FIXTURE_LIBSVM)
        prob = LogisticProblem(dataset.design, dataset.labels, mu=4.0)
        d = prob.dimension
        cfg = SolverConfig(engine=engine, x0=np.full(d, math.sqrt(2e307 / d)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_solver(prob, cfg)
        assert result.termination == "NUMERICAL_FAILURE"
        assert result.trace == []
        assert math.isfinite(result.f_final)
        assert result.grad_norm_sq_final == math.inf

    @pytest.mark.parametrize("mode", ["REG", "DUAL"])
    def test_trials_past_the_float_range_are_rejected(self, mode):
        # with H0 = 1e300 I every trial overflows the acceptance test: REG's
        # threshold powers raise OverflowError and DUAL's ||g+||^2 is inf.
        # Both reject, the retry cap takes the last trial, and the run ends at
        # the non-finite point, with no warning (the suite makes one an error)
        dataset = parse_libsvm(FIXTURE_LIBSVM)
        prob = LogisticProblem(dataset.design, dataset.labels, mu=1e-4)
        cfg = SolverConfig(
            engine=AdaptiveParams(cubic=1e-3, mode=mode),
            approx=ApproxConfig(kind="LBFGS", pair_strategy="HISTORY", h0_scale=1e300),
        )
        result = run_solver(prob, cfg)
        assert result.termination == "NUMERICAL_FAILURE"
        assert len(result.trace) == 1
        assert result.trace[0].inner_count == cfg.engine.max_inner

    def test_stationary_safeguard_on_underflowing_step(self):
        prob = tridiagonal_quadratic(3)
        cfg = SolverConfig(
            engine=CeqnParams(theta=1e300),  # step underflows to zero displacement
            approx=ApproxConfig(memory=2, h0_scale=1.0),
            max_iters=10,
            grad_tol=0.0,
        )
        result = run_solver(prob, cfg)
        assert result.termination == "STATIONARY"
        assert len(result.trace) == 1

    def test_indefinite_operator_falls_back_to_identity(self):
        class Concave:
            dimension = 4

            def value(self, x):
                return -0.5 * float(x @ x)

            def gradient(self, x):
                return -x

            def hvp_batch(self, x, V):
                return -V

        cfg = SolverConfig(
            engine=CeqnParams(theta=1.0, cubic=1.0),
            approx=ApproxConfig(memory=3, h0_scale=0.1, kind="LSR1"),
            max_iters=1,
            seed=1,
        )
        result = run_solver(Concave(), cfg)
        assert result.trace[0].fallback

        adaptive = SolverConfig(
            engine=AdaptiveParams(cubic=1.0, mode="DUAL", max_inner=10),
            approx=ApproxConfig(memory=3, h0_scale=0.1, kind="LSR1"),
            max_iters=2,
            seed=1,
        )
        result = run_solver(Concave(), adaptive)
        assert all(rec.fallback for rec in result.trace)

    def test_fixed_method_falls_back_on_an_indefinite_operator(self):
        """FIXED is CEQN at theta = L, cubic = 0, so it takes CEQN's fallback.

        With trajectory pairs on the fixture, LSR1 at L = 1 meets operators
        whose gradient quadratic form is not positive. Stepping along H g
        there (no fallback) ends MAX_ITERS at f 0.141875; with the flagged
        fallback the run ends GRAD_TOL.
        """
        spec = validate_spec({
            "method": "FIXED",
            "cubic": 1.0,
            "dataset": str(FIXTURE_LIBSVM),
            "mu": 1e-4,
            "approx_kind": "LSR1",
            "pair_strategy": "HISTORY",
            "memory": 10,
            "h0_scale": 1e-4,
            "max_iters": 400,
            "grad_tol": 1e-10,
            "seed": 0,
        })
        problem, _ = spec.load_problem()
        result = run_solver(problem, spec.to_solver_config())
        assert any(rec.fallback for rec in result.trace)
        assert result.termination == "GRAD_TOL"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_curvature_takes_the_flagged_fallback(self):
        """Saturated sigmoids leave only subnormal sampled curvature.

        On the fixture with its first 10 columns appended again and mu = 0,
        this CEQN run reaches an iterate where every sampled y is subnormal,
        so every SR1 weight 1 / v^T y overflows. Such pairs are skipped, and
        an operator with no pair is the flagged scaled identity. Every step is
        then a finite multiple of a finite gradient, and the logistic loss and
        its gradient are finite at every finite point, so the run cannot end
        NUMERICAL_FAILURE: it runs to max_iters unless the gradient vanishes.
        """
        dataset = parse_libsvm(FIXTURE_LIBSVM)
        design = sp.hstack([dataset.design, dataset.design[:, :10]], format="csr")
        cfg = SolverConfig(
            engine=CeqnParams(theta=1.0, cubic=1.0),
            approx=ApproxConfig(kind="LSR1", pair_strategy="SAMPLED", h0_scale=1e-2),
            max_iters=20,
        )
        result = run_solver(LogisticProblem(design, dataset.labels, mu=0.0), cfg)
        assert result.termination in ("MAX_ITERS", "GRAD_TOL")
        assert all(math.isfinite(rec.eta) for rec in result.trace)
        # the iterate the reproduction first saturates at
        assert result.trace[3].fallback and result.trace[3].skipped_pairs == 10

    def test_history_strategy_converges(self, rng):
        prob = random_logistic(rng, n=150, d=15)
        cfg = adaptive_config("REG")
        cfg = dataclasses.replace(
            cfg, approx=ApproxConfig(memory=10, h0_scale=1e-4, pair_strategy="HISTORY")
        )
        result = run_solver(prob, cfg)
        assert result.termination == "GRAD_TOL"

    def test_dual_test_takes_the_runs_grad_tol(self, rng, monkeypatch):
        seen = []

        def recording(*args):
            seen.append(args[-1])
            return check_dual(*args)

        monkeypatch.setattr(steps, "check_dual", recording)
        prob = random_logistic(rng, n=100, d=10)
        run_solver(prob, adaptive_config("DUAL", max_iters=5, grad_tol=3e-7))
        assert seen and set(seen) == {3e-7}

    def test_lbfgs_kind_converges(self, rng):
        prob = random_logistic(rng, n=150, d=15)
        cfg = adaptive_config("REG")
        cfg = dataclasses.replace(
            cfg, approx=ApproxConfig(memory=10, h0_scale=1e-4, kind="LBFGS")
        )
        result = run_solver(prob, cfg)
        assert result.termination == "GRAD_TOL"


class TestSublinearRate:
    """The global rate f(x_k) - f* = O(1/k) on a convex logistic loss, for
    CEQN and for ADAPTIVE_DUAL over cubic from 1e-3 to 1e3.

    The instance is the fixture plus every second row again with its label
    flipped, at mu = 0: the loss is convex and unregularized, and the
    flipped copies keep its minimizer finite. f* is the least f of an
    ADAPTIVE_DUAL/LBFGS/HISTORY run taken to ||g||^2 <= 1e-20.

    The rate says k (f_k - f*) <= C for every k, but the paper's abstract
    gives no constant to derive C from. So the test reads C off the first
    100 iterations, as C_100 = max_{k <= 100} k (f_k - f*), and asserts
    that no iterate up to k = 1000 exceeds it. Each run also stops
    at ||g||^2 <= 1e-20, where f_k - f* is rounding, a few ulps of f* ~ 0.65
    (1e-16), so k (f_k - f*) there stays below 1e-12, far under C_100, which
    is asserted to be at least 1. C_100 is 4.9 to 84 on the CEQN runs and 2.87
    to 18.2 on the ADAPTIVE_DUAL runs, which end in 16 to 514 iterations.
    """

    def test_max_of_k_times_gap_stops_growing_after_100_iterations(self):
        data = parse_libsvm(FIXTURE_LIBSVM)
        design = sp.vstack([data.design, data.design[::2]]).tocsr()
        labels = np.concatenate([data.labels, -data.labels[::2]])
        prob = LogisticProblem(design, labels, 0.0)
        reference = run_solver(prob, SolverConfig(
            engine=AdaptiveParams(cubic=1.0),
            approx=ApproxConfig(kind="LBFGS", pair_strategy="HISTORY"),
            max_iters=2000,
            grad_tol=1e-20,
        ))
        assert reference.termination == "GRAD_TOL"
        f_star = min([rec.f for rec in reference.trace] + [reference.f_final])
        cases = [
            (CeqnParams(theta=1.0, cubic=1000.0), "EXACT", "SAMPLED"),
            (CeqnParams(theta=1.0, cubic=1000.0), "LBFGS", "HISTORY"),
            (CeqnParams(theta=1.0, cubic=1000.0), "LSR1", "SAMPLED"),
            (CeqnParams(theta=1.0, cubic=100.0), "LSR1", "SAMPLED"),
        ] + [
            (AdaptiveParams(cubic=cubic), kind, strategy)
            for cubic in (1e-3, 0.1, 1.0, 10.0, 1000.0)
            for kind, strategy in (("EXACT", "SAMPLED"), ("LBFGS", "HISTORY"), ("LSR1", "SAMPLED"))
        ]
        for engine, kind, strategy in cases:
            result = run_solver(prob, SolverConfig(
                engine=engine,
                approx=ApproxConfig(kind=kind, pair_strategy=strategy),
                max_iters=2000,
                grad_tol=1e-20,
            ))
            assert result.termination == "GRAD_TOL", (engine, kind)
            f = np.array([rec.f for rec in result.trace] + [result.f_final])
            scaled_gap = np.arange(f.size) * (f - f_star)
            c_100 = scaled_gap[:101].max()
            assert c_100 >= 1.0
            assert scaled_gap[:1001].max() <= c_100, (engine, kind)


class TestDeterminism:
    def test_identical_seeds_identical_traces(self, rng):
        prob = random_logistic(rng, n=120, d=12)
        cfg = adaptive_config("REG", seed=3, max_iters=60, grad_tol=0.0)
        first = run_solver(prob, cfg)
        second = run_solver(prob, cfg)
        assert len(first.trace) == len(second.trace)
        np.testing.assert_array_equal(first.x_final, second.x_final)
        for a, b in zip(first.trace, second.trace):
            for field in (
                "iter", "f", "grad_norm_sq", "grad_dual_norm", "eta", "alpha",
                "inner_count", "skipped_pairs", "fallback", "n_value", "n_grad", "n_hvp",
            ):
                assert getattr(a, field) == getattr(b, field), field

    def test_different_seeds_differ(self, rng):
        prob = random_logistic(rng, n=120, d=12)
        first = run_solver(prob, adaptive_config("REG", seed=0, max_iters=20, grad_tol=0.0))
        second = run_solver(prob, adaptive_config("REG", seed=1, max_iters=20, grad_tol=0.0))
        assert any(a.f != b.f for a, b in zip(first.trace, second.trace))


class TestTraceIntegrity:
    def test_record_count_and_counters(self, rng):
        prob = random_logistic(rng, n=100, d=10)
        # this run reaches ||g||^2 ~ 1e-26 at iteration 12; beyond that the
        # DUAL test, with no stationarity shortcut at grad_tol 0, decides on
        # round-off, retries, and the run ends STATIONARY at a trial that no
        # longer moves x
        config = adaptive_config("DUAL", max_iters=40, grad_tol=0.0)
        result = run_solver(prob, config)
        assert result.termination == "STATIONARY"
        assert len(result.trace) < 40
        last = result.trace[-1]
        assert 0 < last.inner_count < config.engine.max_inner
        assert (last.n_value, last.n_grad, last.n_hvp) == (
            result.n_value, result.n_grad, result.n_hvp,
        )
        # one value at x_next, one gradient per trial and m probes per
        # iteration, after the value and gradient at x0
        counts = [(1, 1, 0)] + [(r.n_value, r.n_grad, r.n_hvp) for r in result.trace]
        steps = [tuple(b - a for a, b in zip(*pair)) for pair in zip(counts, counts[1:])]
        assert steps == [(1, 1 + r.inner_count, 10) for r in result.trace]
        assert sum(r.inner_count for r in result.trace[12:]) > 0
        iters = [rec.iter for rec in result.trace]
        assert iters == list(range(len(result.trace)))
        walls = [rec.wall_seconds for rec in result.trace]
        assert all(b >= a for a, b in zip(walls, walls[1:]))

    def test_monotone_f_without_cap_or_fallback(self, rng):
        prob = random_logistic(rng, n=150, d=15)
        for mode in ("DUAL", "REG"):
            result = run_solver(prob, adaptive_config(mode, max_iters=200))
            clean = not any(
                rec.inner_count >= result.config.engine.max_inner or rec.fallback
                for rec in result.trace
            )
            if clean:
                fs = [rec.f for rec in result.trace]
                assert all(b <= a for a, b in zip(fs, fs[1:]))


class TestConfigValidation:
    def test_missing_engine_block(self):
        with pytest.raises(TypeError):
            SolverConfig()

    @pytest.mark.parametrize("engine", ["NEWTON", 10.0])
    def test_unknown_method(self, engine):
        # an engine that is not a parameter block names no schedule; the
        # fixed step 1/L is CeqnParams(theta=L), not a bare float
        with pytest.raises(ValueError, match="engine"):
            SolverConfig(engine=engine)

    @pytest.mark.parametrize("name, build", [
        ("theta", lambda: CeqnParams(theta=math.nan)),
        ("cubic", lambda: CeqnParams(cubic=math.nan)),
        ("cubic", lambda: AdaptiveParams(cubic=math.nan)),
        ("alpha0", lambda: AdaptiveParams(alpha0=math.nan)),
        ("gamma_inc", lambda: AdaptiveParams(gamma_inc=math.nan)),
        ("h0_scale", lambda: ApproxConfig(h0_scale=math.nan)),
        ("grad_tol", lambda: exact_newton_config(grad_tol=math.nan)),
        ("max_seconds", lambda: exact_newton_config(max_seconds=math.nan)),
        ("mu", lambda: LogisticProblem(sp.csr_matrix(np.eye(2)), [1.0, -1.0], math.nan)),
    ])
    def test_nan_setting_is_rejected(self, name, build):
        # a range check written `x <= 0` lets NaN through
        with pytest.raises(ValueError, match=name):
            build()

    def test_explicit_x0_dimension_checked(self):
        cfg = exact_newton_config(x0=np.ones(4))
        with pytest.raises(ValueError, match="start point"):
            run_solver(tridiagonal_quadratic(3), cfg)
