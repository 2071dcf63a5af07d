import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from ceqn.data_io import parse_libsvm
from ceqn.driver import (
    NumericalFailureError,
    SolverConfig,
    check_termination,
    run_solver,
)
from ceqn.hessian import ApproxConfig
from ceqn.problems import LogisticProblem, QuadraticProblem, tridiagonal_quadratic
from ceqn.steps import AdaptiveParams, CeqnParams

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
            engine=1e-8,  # stepsize 1e8 diverges immediately
            approx=ApproxConfig(memory=5, h0_scale=1.0),
            max_iters=50,
        )
        with pytest.raises(NumericalFailureError) as excinfo:
            run_solver(prob, cfg)
        result = excinfo.value.result
        assert result.termination == "NUMERICAL_FAILURE"
        assert len(result.trace) >= 1

    def test_gradient_overflowing_its_square_is_a_numerical_failure(self):
        # on the fixture this run's gradient grows past 1e154 before it stops
        # being finite, so its squared norm overflows; the suite turns the
        # overflow warning into an error
        dataset = parse_libsvm(FIXTURE_LIBSVM)
        prob = LogisticProblem(dataset.design, dataset.labels, mu=1e-4)
        cfg = SolverConfig(
            engine=1e-12,
            approx=ApproxConfig(kind="LSR1", h0_scale=1.0),
            max_iters=200,
        )
        with pytest.raises(NumericalFailureError) as excinfo:
            run_solver(prob, cfg)
        result = excinfo.value.result
        assert result.termination == "NUMERICAL_FAILURE"
        assert result.grad_norm_sq_final == math.inf
        assert len(result.trace) >= 1

    def test_stationary_safeguard_on_underflowing_step(self):
        prob = tridiagonal_quadratic(3)
        cfg = SolverConfig(
            engine=1e300,  # step underflows to zero displacement
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

    def test_lbfgs_kind_converges(self, rng):
        prob = random_logistic(rng, n=150, d=15)
        cfg = adaptive_config("REG")
        cfg = dataclasses.replace(
            cfg, approx=ApproxConfig(memory=10, h0_scale=1e-4, kind="LBFGS")
        )
        result = run_solver(prob, cfg)
        assert result.termination == "GRAD_TOL"


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
        result = run_solver(prob, adaptive_config("DUAL", max_iters=40, grad_tol=0.0))
        assert len(result.trace) == 40
        last = result.trace[-1]
        assert (last.n_value, last.n_grad, last.n_hvp) == (
            result.n_value, result.n_grad, result.n_hvp,
        )
        iters = [rec.iter for rec in result.trace]
        assert iters == list(range(40))
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

    def test_unknown_method(self):
        # an engine that is not a parameter block names no schedule
        with pytest.raises(ValueError, match="engine"):
            SolverConfig(engine="NEWTON")

    def test_fixed_l_must_be_positive(self):
        with pytest.raises(ValueError, match="fixed_l must be positive"):
            SolverConfig(engine=0.0)

    def test_explicit_x0_dimension_checked(self):
        cfg = exact_newton_config(x0=np.ones(4))
        with pytest.raises(ValueError, match="start point"):
            run_solver(tridiagonal_quadratic(3), cfg)
