"""Benchmark for ceqn: end-to-end solver metrics and a traced per-layer split.

Run from the repository root:

    python3 bench/run.py --workload sparse_history --seed 1 --seconds 55 --trace 0

``--trace 0`` repeats the workload's sweep, untraced, for ``--seconds`` and
reports the end-to-end metrics. ``--trace 1`` alternates untraced and traced
sweeps for the same time and reports the per-layer split and the tracing
overhead. Either way the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment, goes to ``.bench_out/``. bench/README.md defines every
workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# LSR1 construction applies the partly built operator to each pair; those
# applies are build work, so hessian.apply counts only applies made elsewhere
SPAN_SKIP = {"hessian.apply": "hessian.build"}

# per-layer metric -> (span it is read from, field); the others are derived below
SPAN_METRICS = {
    "problems.value.calls": ("problems.value", "calls"),
    "problems.value.s": ("problems.value", "s"),
    "problems.gradient.calls": ("problems.gradient", "calls"),
    "problems.gradient.s": ("problems.gradient", "s"),
    "hessian.pairs.calls": ("hessian.pairs", "calls"),
    "hessian.pairs.s": ("hessian.pairs", "s"),
    "hessian.pairs.self_s": ("hessian.pairs", "self_s"),
    "hessian.build.calls": ("hessian.build", "calls"),
    "hessian.build.s": ("hessian.build", "s"),
    "hessian.apply.calls": ("hessian.apply", "calls"),
    "hessian.apply.s": ("hessian.apply", "s"),
    "steps.engine.s": ("steps.engine", "s"),
    "steps.engine.self_s": ("steps.engine", "self_s"),
    "driver.run_solver.s": ("driver.run_solver", "s"),
    "driver.self_s": ("driver.run_solver", "self_s"),
    "data_io.parse_libsvm.s": ("data_io.parse_libsvm", "s"),
    "data_io.write_trace.s": ("data_io.write_trace", "s"),
    "data_io.write_summary.s": ("data_io.write_summary", "s"),
    "data_io.read_trace.s": ("data_io.read_trace", "s"),
    "cli.run_grid.s": ("cli.run_grid", "s"),
    "cli.run_grid.self_s": ("cli.run_grid", "self_s"),
    "cli.compare.s": ("cli.compare", "s"),
}
DERIVED_METRICS = {
    "hessian.pairs_kept_ratio": "hessian.build",
    "steps.trials_per_iter": "steps.engine",
    "steps.accept_ratio": "steps.engine",
    "data_io.write_trace.bytes": "data_io.write_trace",
    "trace_overhead_ratio": "driver.run_solver",
}


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this pass."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git_commit() -> str:
    # the ceiling keeps git from searching directories above the checkout
    env = os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu() -> dict:
    info = {"model": platform.processor() or "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache_root.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "load": "closed loop: one caller, one process, runs back to back",
    }


def end_to_end(workload, sweeps, setup_times) -> tuple[dict, dict]:
    """End-to-end metrics from untraced sweeps, plus the extra facts behind them."""
    runs = [run for sweep in sweeps for run in sweep.runs]
    first = sweeps[0].runs
    iters = sum(run.iterations for run in first)
    walls = [run.columns.get("wall_seconds", []) for run in runs]
    deltas = [(b - a) * 1e3 for wall in walls for a, b in zip(wall, wall[1:])]
    reached = [run.first_at(workload.tol) for run in runs if run.reference]
    reached = [r for r in reached if r is not None]
    n = len(first)
    # a diverged run stops wherever its iterate blew up, so only runs that
    # ended normally say what a run costs
    run_seconds = [run.seconds for run in runs if run.status == "ok"]
    diverged = sum(run.status == "diverged" for run in first)
    failed = sum(run.status == "failed" for run in first)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(s.seconds for s in sweeps),
        "run_s_p50": statistics.median(run_seconds) if run_seconds else float("nan"),
        "iter_ms_p50": statistics.median(deltas) if deltas else float("nan"),
        "iter_ms_p90": statistics.quantiles(deltas, n=10)[-1] if len(deltas) > 1 else float("nan"),
        "time_to_tol_s": statistics.median(r[1] for r in reached) if reached else float("nan"),
        "iters_to_tol": statistics.median(r[0] for r in reached) if reached else float("nan"),
        "evals_per_iter": sum(r.n_value + r.n_grad + r.n_hvp for r in first) / max(iters, 1),
        "grad_per_iter": sum(r.n_grad for r in first) / max(iters, 1),
        "value_per_iter": sum(r.n_value for r in first) / max(iters, 1),
        "finite_frac": (n - diverged) / n,
        "completed_frac": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    facts = {
        "sweeps": len(sweeps),
        "sweep_seconds": [s.seconds for s in sweeps],
        "runs_per_sweep": n,
        "iterations_per_sweep": iters,
        "iter_ms_samples": len(deltas),
        "setup_samples": len(setup_times),
        "reference_runs_per_sweep": sum(run.reference for run in first),
        "hvp_per_iter": sum(r.n_hvp for r in first) / max(iters, 1),
        "diverged_frac": diverged / n,
        "failed_frac": failed / n,
        "tolerance": workload.tol,
    }
    return metrics, facts


def _after_build(tracer, operator, args) -> None:
    offered = len(args[1])
    if offered:
        tracer.count("pairs_offered", offered)
        tracer.count("pairs_kept", offered - getattr(operator, "skipped", 0))


def _after_adaptive(tracer, out, args) -> None:
    step = out[0] if isinstance(out, tuple) else out
    inner = getattr(step, "inner_count", 0)
    cap_hit = bool(getattr(step, "cap_hit", False))
    tracer.count("adaptive_iters")
    tracer.count("trials", inner + 1)
    tracer.count("accepted", 0 if cap_hit else 1)
    tracer.count("cap_hits", cap_hit)


def _after_write_trace(tracer, out, args) -> None:
    sink = args[1]
    if isinstance(sink, (str, Path)):
        tracer.count("trace_bytes", os.path.getsize(sink))


def install_spans(tracer) -> set[str]:
    """Wrap each layer's public functions; returns the span names now live."""
    from ceqn import cli, data_io, driver, hessian, problems

    targets = [
        (problems.LogisticProblem, "value", "problems.value", None, False),
        (problems.LogisticProblem, "gradient", "problems.gradient", None, False),
        (problems.LogisticProblem, "hvp", "problems.hvp", None, False),
        (driver, "sample_pairs", "hessian.pairs", None, False),
        (hessian.PairBuffer, "push", "hessian.pairs", None, False),
        (driver, "rebuild_operator", "hessian.build", _after_build, False),
        (driver, "adaptive_iteration", "steps.engine", _after_adaptive, False),
        (driver, "fixed_step_iteration", "steps.engine", None, False),
        (driver, "ceqn_step", "steps.engine", None, False),
        (driver, "run_solver", "driver.run_solver", None, True),
        (cli, "run_solver", "driver.run_solver", None, True),
        (data_io, "parse_libsvm", "data_io.parse_libsvm", None, False),
        (cli, "write_trace_csv", "data_io.write_trace", _after_write_trace, False),
        (cli, "write_summary_json", "data_io.write_summary", None, False),
        (cli, "read_trace_csv", "data_io.read_trace", None, False),
        (cli, "run_grid", "cli.run_grid", None, False),
        (cli, "build_compare_report", "cli.compare", None, False),
    ]
    # every operator class with an apply method, whatever the module holds
    targets += [
        (cls, "apply", "hessian.apply", None, False)
        for cls in vars(hessian).values()
        if isinstance(cls, type) and cls.__module__ == hessian.__name__ and "apply" in vars(cls)
    ]
    live = set()
    for owner, attr, name, after, new_run in targets:
        if tracer.patch(owner, attr, name, after, new_run):
            live.add(name)
    return live


def per_layer(problem, tracer, live, traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics, per sweep, from the spans of the traced sweeps.

    Every metric here is nonzero on every workload. Figures that are 0 on
    some workload (Hessian-vector products and fallbacks, on one) are facts.
    """
    spans = tracer.summary(SPAN_SKIP)
    k = len(traced)
    c = tracer.counters
    metrics = {}
    for metric, (span, key) in SPAN_METRICS.items():
        if span in live:
            metrics[metric] = spans.get(span, {}).get(key, 0) / k
    runs = traced[0].runs
    iters = sum(run.iterations for run in runs)
    ratio = statistics.median(s.seconds for s in traced) / statistics.median(s.seconds for s in untraced)
    derived = {
        "hessian.pairs_kept_ratio": c.get("pairs_kept", 0.0) / c["pairs_offered"] if c.get("pairs_offered") else 0.0,
        "steps.trials_per_iter": c.get("trials", 0.0) / c["adaptive_iters"] if c.get("adaptive_iters") else 0.0,
        "steps.accept_ratio": c.get("accepted", 0.0) / c["trials"] if c.get("trials") else 0.0,
        "data_io.write_trace.bytes": c.get("trace_bytes", 0.0) / k,
        "trace_overhead_ratio": ratio,
    }
    for metric, span in DERIVED_METRICS.items():
        if span in live:
            metrics[metric] = derived[metric]
    hvp = spans.get("problems.hvp", {})
    facts = {
        "problems.hvp.calls": hvp.get("calls", 0) / k,
        "problems.hvp.s": hvp.get("s", 0.0) / k,
        "problems.hvp.nnz_per_s": 2.0 * problem.design.nnz * hvp["calls"] / hvp["s"] if hvp.get("s") else 0.0,
        "hessian.fallback_frac": sum(sum(run.columns.get("fallback", [])) for run in runs) / max(iters, 1),
        "steps.cap_hits": c.get("cap_hits", 0.0) / k,
        "trace_overhead_frac": ratio - 1.0,
    }
    return metrics, facts


def checks(workload, sweeps, traced, tracer, live) -> list[tuple[str, bool, str]]:
    """Output checks; any False fails the benchmark."""
    out = []
    first = sweeps[0]
    refs = [run for run in first.runs if run.reference]
    missed = [f"{run.label} seed={run.seed}" for run in refs if run.first_at(workload.tol) is None]
    out.append((
        f"every seed of the reference configuration reaches grad_norm_sq <= {workload.tol:g}",
        bool(refs) and not missed,
        f"reference runs={len(refs)} missed={missed}",
    ))
    breaks = []
    for run in first.runs:
        if not run.method.startswith("ADAPTIVE") or run.status != "ok":
            continue
        f, inner, fallback = (run.columns[c] for c in ("f", "inner_count", "fallback"))
        breaks += [
            f"{run.label} seed={run.seed} iter={i}"
            for i in range(len(f) - 1)
            if inner[i] < run.max_inner and not fallback[i] and f[i + 1] > f[i]
        ]
    out.append(("adaptive objectives are non-increasing absent cap or fallback events", not breaks, f"breaks={breaks[:5]}"))
    for sweep in sweeps:
        out += sweep.checks
    reference = [run.signature() for run in first.runs]
    repeats = sum(1 for sweep in sweeps[1:] + traced if [r.signature() for r in sweep.runs] != reference)
    out.append((
        "traces and oracle counts repeat exactly across sweeps, traced or not (wall_seconds aside)",
        repeats == 0,
        f"sweeps={len(sweeps) + len(traced)} differing={repeats}",
    ))
    if traced:
        spans = tracer.summary()
        for span, attr in (("problems.value", "n_value"), ("problems.gradient", "n_grad")):
            if span not in live:
                continue
            counted = spans.get(span, {}).get("calls", 0)
            expected = sum(getattr(run, attr) for sweep in traced for run in sweep.runs)
            out.append((f"{span} spans match the oracle's {attr}", counted == expected, f"spans={counted} oracle={expected}"))
    return out


def measure(workload, seconds: float, trace: bool):
    """Closed loop: round after round until ``seconds`` would be exceeded.

    A round is a batch of set-ups, then one untraced sweep and, when tracing,
    one traced sweep. Spreading set-ups over the whole run samples the host's
    speed as often as the sweeps do.
    """
    from tracing import Tracer

    setup_times, untraced, traced = [], [], []
    tracer, live = Tracer(), set()

    def setup():
        for _ in range(workload.setups):
            t0 = time.perf_counter()
            problem = workload.setup()
            setup_times.append(time.perf_counter() - t0)
        return problem

    workload.prepare()
    workload.warm_up(setup())
    start = time.perf_counter()
    while True:
        problem = setup()
        untraced.append(workload.sweep(problem))
        if trace:
            live = install_spans(tracer)
            try:
                traced.append(workload.sweep(problem))
            finally:
                tracer.unpatch()
        elapsed = time.perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            return problem, setup_times, untraced, traced, tracer, live


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # cap BLAS threads before numpy loads; one caller needs no more than one
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)

    # measure the checkout's own source, never an installed copy
    if not (ROOT / "src" / "ceqn").is_dir():
        print(f"error: no ceqn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)

    e2e_units, layer_units = declared_units(False), declared_units(True)
    problem, setup_times, sweeps, traced, tracer, live = measure(workload, args.seconds, bool(args.trace))
    e2e, facts = end_to_end(workload, sweeps, setup_times)
    results = checks(workload, sweeps, traced, tracer, live)
    correct = all(ok for _, ok, _ in results)
    if args.trace:
        reported, layer_facts = per_layer(problem, tracer, live, traced, sweeps)
        units = layer_units
        facts |= layer_facts
        facts["traced_sweeps"] = len(traced)
        facts["spans"] = len(tracer.start)
        facts["absent_targets"] = sorted(tracer.missing)
        facts["absent_metrics"] = sorted(set(layer_units) - set(reported))
        tracer.save(OUT / f"{workload.name}-spans.npz")
    else:
        reported, units = e2e, e2e_units
    attempted = sum(len(s.runs) for s in sweeps + traced)
    failed = sum(run.status == "failed" for s in sweeps + traced for run in s.runs)

    for name, ok, detail in results:
        print(f"check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    for name, value in facts.items():
        print(f"fact {name} = {value}")
    for name, value in (e2e | reported).items():
        print(f"metric {name} = {value!r} {(e2e_units | layer_units)[name]}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "correct": correct,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
        "facts": facts,
        "end_to_end": e2e,
        "per_layer": reported if args.trace else {},
    }
    with open(OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, default=str)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": reported[m], "unit": u} for m, u in units.items() if m in reported},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
