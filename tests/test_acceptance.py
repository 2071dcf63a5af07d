"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line so the suite doubles as a report:
run `pytest tests/test_acceptance.py -s` to see the lines as they complete.
The benchmark checks (8 and 9) share one tuned grid sweep over the bundled
synthetic dataset.
"""

import json
import math
import time

import numpy as np
import pytest

from ceqn.cli import GRID_PRESETS, GridSpec, build_compare_report, run_grid
from ceqn.data_io import parse_libsvm, read_trace_csv, validate_spec
from ceqn.driver import SolverConfig, run_solver
from ceqn.hessian import (
    ApproxConfig,
    DenseInverseOperator,
    IndefiniteOperatorError,
    dual_norm,
    rebuild_operator,
    sample_pairs,
)
from ceqn.problems import CountingOracle, QuadraticProblem
from ceqn.steps import (
    AdaptiveParams,
    CeqnParams,
    adaptive_iteration,
    ceqn_step,
    damped_stepsize,
)

from conftest import (
    AffinePullback,
    FIXTURE_D,
    FIXTURE_LIBSVM,
    FIXTURE_N,
    FIXTURE_NNZ,
    GRAD_TOL,
    ScaledIdentity,
    finite_diff_gradient,
    random_logistic,
    random_spd,
)


def report(num, description, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}")
    assert ok, f"criterion {num}: {description} {detail}".rstrip()


def test_criterion_01_oracle_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    violations = []
    for trial in range(20):
        mu = 0.0 if trial % 2 == 0 else 1e-4
        prob = random_logistic(rng, n=50, d=10, mu=mu)
        x = rng.normal(size=10)
        grad = prob.gradient(x)
        fd = finite_diff_gradient(CountingOracle(prob), x, 1e-6)
        if np.linalg.norm(grad - fd) > 1e-6 * (1.0 + np.linalg.norm(grad)):
            violations.append(("grad", trial))
        v = rng.normal(size=10)
        h = 1e-6
        hv = prob.hvp_batch(x, v[None])[0]
        fd_hv = (prob.gradient(x + h * v) - prob.gradient(x - h * v)) / (2.0 * h)
        if np.linalg.norm(hv - fd_hv) > 1e-6 * (1.0 + np.linalg.norm(hv)):
            violations.append(("hvp", trial))
    elapsed = time.perf_counter() - start
    report(
        1,
        "analytic gradient and hvp match finite differences (20 instances)",
        not violations and elapsed < 5.0,
        f"violations={violations} elapsed={elapsed:.2f}s",
    )


def test_criterion_02_sr1_hereditary_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    skips = 0
    for d in (3, 4, 5, 6):
        a = random_spd(rng, d)
        oracle = CountingOracle(QuadraticProblem(a, np.zeros(d)))
        pairs = sample_pairs(oracle, np.zeros(d), d, rng)
        op = rebuild_operator(ApproxConfig(kind="LSR1", h0_scale=1.0), pairs)
        skips += op.skipped
        inv = np.linalg.inv(a)
        for _ in range(10):
            g = rng.normal(size=d)
            expected = inv @ g
            err = np.linalg.norm(op.apply(g) - expected) / np.linalg.norm(expected)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(
        2,
        "limited-memory SR1 equals the dense inverse on quadratics (d=3..6)",
        worst <= 1e-8 and skips == 0 and elapsed < 1.0,
        f"worst={worst:.2e} skips={skips} elapsed={elapsed:.2f}s",
    )


def test_criterion_03_secant_conditions():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(10):
        d = int(rng.integers(4, 9))
        a = random_spd(rng, d)
        pairs = sample_pairs(
            CountingOracle(QuadraticProblem(a, np.zeros(d))),
            np.zeros(d),
            int(rng.integers(2, 6)),
            rng,
        )
        newest = pairs.order()[-1]
        s, y = pairs.s[newest], pairs.y[newest]
        for kind in ("LSR1", "LBFGS"):
            op = rebuild_operator(ApproxConfig(kind=kind, h0_scale=0.5), pairs)
            if np.linalg.norm(op.apply(y) - s) > 1e-8 * (1.0 + np.linalg.norm(s)):
                ok = False
    elapsed = time.perf_counter() - start
    report(
        3,
        "newest-pair secant condition holds for both operator kinds",
        ok and elapsed < 1.0,
        f"elapsed={elapsed:.2f}s",
    )


def _dual_mode_run(problem, seed, iters, approx_memory, cubic):
    """Drive DUAL-mode iterations by hand, re-checking the decrease bound."""
    rng = np.random.default_rng(seed)
    oracle = CountingOracle(problem)
    params = AdaptiveParams(cubic=cubic, alpha0=1.0, mode="DUAL")
    approx = ApproxConfig(kind="LSR1", h0_scale=1e-2)
    x = np.ones(oracle.dimension)
    f = oracle.value(x)
    g = oracle.gradient(x)
    alpha = params.alpha0
    violations = []
    monotone_breaks = []
    for k in range(iters):
        if float(g @ g) <= 1e-12:
            break
        operator = rebuild_operator(approx, sample_pairs(oracle, x, approx_memory, rng))
        try:
            res = adaptive_iteration(params, oracle, operator, x, g, f, alpha, GRAD_TOL)
        except IndefiniteOperatorError:
            operator = ScaledIdentity(1e-2)
            res = adaptive_iteration(params, oracle, operator, x, g, f, alpha, GRAD_TOL)
        f_next = res.f_next
        guarded = float(res.g_next @ res.g_next) <= GRAD_TOL
        if not res.cap_hit and not guarded:
            # the dual norm the acceptance test took at the accepted point
            gdn, _ = dual_norm(operator, res.g_next)
            bound = min(
                gdn**2 / (4.0 * res.alpha_used),
                gdn**1.5 / math.sqrt(6.0 * (1.0 + res.alpha_used) ** 1.5 * params.cubic),
            )
            if f - f_next < bound - 1e-10:
                violations.append((seed, k, f - f_next, bound))
        if not res.cap_hit and f_next > f:
            monotone_breaks.append((seed, k))
        x, f, g, alpha = res.x_next, f_next, res.g_next, res.alpha_next
    return violations, monotone_breaks


def test_criterion_04_one_step_decrease():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    logistic = random_logistic(rng, n=200, d=20, mu=1e-4)
    quadratic = QuadraticProblem(random_spd(rng, 8), rng.normal(size=8))
    violations = []
    for seed in range(5):
        v, _ = _dual_mode_run(logistic, seed, 200, approx_memory=10, cubic=0.1)
        violations += v
        v, _ = _dual_mode_run(quadratic, seed, 200, approx_memory=4, cubic=1.0)
        violations += v
    elapsed = time.perf_counter() - start
    report(
        4,
        "accepted DUAL steps satisfy the one-step decrease bound (200 it x 5 seeds)",
        not violations and elapsed < 30.0,
        f"violations={violations[:3]} elapsed={elapsed:.2f}s",
    )


def test_criterion_05_monotone_descent():
    rng = np.random.default_rng(404)
    logistic = random_logistic(rng, n=200, d=20, mu=1e-4)
    breaks = []
    for seed in range(5):
        for mode in ("DUAL", "REG"):
            config = SolverConfig(
                engine=AdaptiveParams(cubic=0.1, mode=mode),
                approx=ApproxConfig(memory=10, h0_scale=1e-2),
                max_iters=200,
                grad_tol=1e-12,
                seed=seed,
            )
            result = run_solver(logistic, config)
            cap = config.engine.max_inner
            records = result.trace
            for a, b in zip(records, records[1:]):
                if a.inner_count >= cap or a.fallback:
                    continue
                if b.f > a.f:
                    breaks.append((mode, seed, a.iter))
    report(
        5,
        "adaptive traces are nonincreasing in f absent cap/fallback events",
        not breaks,
        f"breaks={breaks[:5]}",
    )


def test_criterion_06_exact_hessian_degenerate_cases():
    rng = np.random.default_rng(606)
    one_step_ok = True
    for _ in range(3):
        prob = QuadraticProblem(random_spd(rng, 4), rng.normal(size=4))
        config = SolverConfig(
            engine=CeqnParams(theta=1.0, cubic=0.0),
            approx=ApproxConfig(kind="EXACT"),
            max_iters=20,
        )
        result = run_solver(prob, config)
        if not (
            result.termination == "GRAD_TOL"
            and len(result.trace) == 1
            and result.grad_norm_sq_final <= 1e-20
        ):
            one_step_ok = False
    eta_exact = all(
        damped_stepsize(theta, rng.uniform(0.0, 5.0) * 0.0) == 1.0 / theta
        for theta in (1.0, 0.3, 1.7, 4.0)
    )
    report(
        6,
        "unit Newton step solves quadratics at iteration 1; eta(0) = 1/theta exactly",
        one_step_ok and eta_exact,
    )


def test_criterion_07_affine_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    base = random_logistic(rng, n=40, d=6, mu=1e-4)
    params = CeqnParams(theta=1.0, cubic=0.5)
    worst = 0.0
    mats = [rng.normal(size=(6, 6)) + 3.0 * np.eye(6) for _ in range(5)]
    # scaled reparameterizations: g^T H^-1 g stays put while ||g||^2 grows
    # by the square of the scale, so a usability floor in the units of
    # ||g||^2 would reject the exact operator
    for a in mats + [1e4 * mats[0], 1e8 * mats[0]]:
        pulled = AffinePullback(base, a)
        x_base = np.ones(6)
        x_pulled = np.linalg.solve(a, x_base)
        o_base, o_pulled = CountingOracle(base), CountingOracle(pulled)
        for _ in range(20):
            f_base, f_pulled = o_base.value(x_base), o_pulled.value(x_pulled)
            worst = max(worst, abs(f_base - f_pulled) / (1.0 + abs(f_base)))
            r_base = ceqn_step(
                params, o_base, DenseInverseOperator(o_base, x_base),
                x_base, o_base.gradient(x_base),
            )
            r_pulled = ceqn_step(
                params, o_pulled, DenseInverseOperator(o_pulled, x_pulled),
                x_pulled, o_pulled.gradient(x_pulled),
            )
            x_base, x_pulled = r_base.x_next, r_pulled.x_next
    elapsed = time.perf_counter() - start
    report(
        7,
        "exact-Hessian f-traces are invariant under affine reparameterization",
        worst <= 1e-6 and elapsed < 5.0,
        f"worst={worst:.2e} elapsed={elapsed:.2f}s",
    )


@pytest.fixture(scope="module")
def tuned_benchmark(tmp_path_factory):
    """Grid-tune ADAPTIVE_REG and FIXED on the bundled dataset, 5 seeds each."""
    out_root = tmp_path_factory.mktemp("bench")
    base = {
        "dataset": str(FIXTURE_LIBSVM),
        "mu": 1e-4,
        "approx_kind": "LSR1",
        "pair_strategy": "SAMPLED",
        "memory": 10,
        "h0_scale": 1e-4,
        "max_iters": 400,
        "grad_tol": 1e-10,
        "x0": "ALL_ONES",
        "cubic": 1.0,
    }
    start = time.perf_counter()
    reports = {}
    outs = {}
    for method in ("ADAPTIVE_REG", "FIXED"):
        spec = validate_spec({**base, "method": method})
        out = out_root / method.lower()
        reports[method] = run_grid(
            spec,
            GridSpec("cubic", GRID_PRESETS["a9a-grid"]),
            seeds=[0, 1, 2, 3, 4],
            out_dir=out,
        )
        outs[method] = out
    return {
        "reports": reports,
        "outs": outs,
        "elapsed": time.perf_counter() - start,
    }


def _winner_runs(bench, method):
    report_dict = bench["reports"][method]
    winner = report_dict["winner"]["value"]
    runs = []
    for row in report_dict["rows"]:
        if row["cubic"] == winner and row["status"] == "ok":
            run_dir = bench["outs"][method] / row["run_id"]
            summary = json.loads((run_dir / "summary.json").read_text())
            runs.append((read_trace_csv(run_dir / "trace.csv"), summary))
    return winner, runs


def test_criterion_08_benchmark_ordering(tuned_benchmark):
    compare = build_compare_report(
        [str(tuned_benchmark["outs"]["ADAPTIVE_REG"]), str(tuned_benchmark["outs"]["FIXED"])]
    )
    rows = {m["method"]: m for m in compare["methods"]}
    adaptive_iters = rows["ADAPTIVE_REG"]["iters_to_1e-06"]
    fixed_iters = rows["FIXED"]["iters_to_1e-06"]
    adaptive_iters = math.inf if adaptive_iters is None else adaptive_iters
    fixed_iters = math.inf if fixed_iters is None else fixed_iters
    ok = adaptive_iters < fixed_iters and tuned_benchmark["elapsed"] < 600.0
    report(
        8,
        "tuned adaptive REG reaches grad^2 <= 1e-6 in fewer median iterations than tuned FIXED",
        ok,
        f"adaptive={adaptive_iters} fixed={fixed_iters} "
        f"tuned L: adaptive={tuned_benchmark['reports']['ADAPTIVE_REG']['winner']['value']:g} "
        f"fixed={tuned_benchmark['reports']['FIXED']['winner']['value']:g} "
        f"elapsed={tuned_benchmark['elapsed']:.0f}s",
    )


def test_criterion_09_inner_loop_boundedness(tuned_benchmark):
    winner, runs = _winner_runs(tuned_benchmark, "ADAPTIVE_REG")
    assert runs, "tuned configuration has no successful runs"
    cap_events = 0
    bound_breaks = []
    for trace, summary in runs:
        max_inner = summary["config"]["max_inner"]
        cap_events += sum(1 for rec in trace if rec.inner_count >= max_inner)
        total_inner = sum(rec.inner_count for rec in trace)
        alpha0 = summary["config"]["alpha0"]
        alpha_final = summary["final_alpha"]
        iters = summary["iterations"]
        bound = math.log2(alpha_final / alpha0) + iters + 1
        if total_inner > bound:
            bound_breaks.append((summary["seed"], total_inner, bound))
    report(
        9,
        "no inner-loop cap events; total repetitions obey the log bound",
        cap_events == 0 and not bound_breaks,
        f"cap_events={cap_events} breaks={bound_breaks}",
    )


def test_criterion_10_determinism_and_io(tmp_path):
    from ceqn.data_io import write_trace_csv

    spec = validate_spec({
        "method": "ADAPTIVE_REG",
        "dataset": str(FIXTURE_LIBSVM),
        "cubic": 0.1,
        "max_iters": 40,
        "grad_tol": 0.0,
        "seed": 7,
    })
    problem, _ = spec.load_problem()
    csv_texts = []
    for attempt in range(2):
        result = run_solver(problem, spec.to_solver_config())
        path = tmp_path / f"trace{attempt}.csv"
        write_trace_csv(result, path)
        csv_texts.append(path.read_text())

    def drop_wall(text):
        rows = []
        for line in text.splitlines():
            parts = line.split(",")
            rows.append(",".join(parts[:1] + parts[2:]))
        return "\n".join(rows)

    deterministic = drop_wall(csv_texts[0]) == drop_wall(csv_texts[1])

    result = run_solver(problem, spec.to_solver_config())
    path = tmp_path / "roundtrip.csv"
    write_trace_csv(result, path)
    lossless = read_trace_csv(path) == result.trace

    ds = parse_libsvm(FIXTURE_LIBSVM)
    fixture_ok = (ds.n, ds.d, ds.nnz) == (FIXTURE_N, FIXTURE_D, FIXTURE_NNZ)

    report(
        10,
        "equal seeds give identical traces modulo wall time; CSV round-trips; fixture triple matches",
        deterministic and lossless and fixture_ok,
        f"deterministic={deterministic} lossless={lossless} fixture={fixture_ok}",
    )
