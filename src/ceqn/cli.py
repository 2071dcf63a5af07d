"""Command-line benchmark harness: single runs, grid sweeps, comparisons.

Commands:
  run         execute one configuration, writing trace.csv and summary.json
  grid        sweep one parameter over a value grid x seed set, pick a winner
  compare     aggregate completed run sets into a side-by-side report

All machine-readable output is JSON first; aligned text rendering is layered
on top for humans.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

from .data_io import (
    ConfigError,
    RunSpec,
    load_config,
    read_trace_csv,
    write_summary_json,
    write_trace_csv,
)
from .driver import NumericalFailureError, run_solver

GRID_PRESETS: dict[str, list[float]] = {
    # log-spaced decades with 3.16 (~10^0.5) midpoints
    "a9a-grid": [
        1e-5, 3.16e-5, 1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2, 3.16e-2,
        1e-1, 3.16e-1, 1.0, 3.16, 10.0, 3.16e1, 1e2, 3.16e2, 1e3,
    ],
    "realsim-grid": [
        1e-5, 2.82e-5, 7.95e-5, 2.24e-4, 6.31e-4, 1.78e-3, 5.02e-3,
        1.41e-2, 3.99e-2, 1.12e-1, 3.17e-1, 8.93e-1, 2.52, 7.10, 20.0,
    ],
}

GRAD_TARGETS = (1e-4, 1e-6, 1e-8)

# a grid row repeats these summary.json entries of its run, in this order
_SUMMARY_ROW_KEYS = ("seed", "termination", "iterations", "final_f", "final_grad_norm_sq")


@dataclass
class GridSpec:
    """One swept parameter and its explicit value list."""

    parameter: str
    values: list[float]

    def __post_init__(self):
        if not self.values:
            raise ValueError("grid must be nonempty")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("grid values must be finite")


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        key, sep, text = pair.partition("=")
        if not sep:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        try:
            out[key] = json.loads(text)
        except json.JSONDecodeError:
            out[key] = text
    return out


def _run_one(spec: RunSpec, problem, dataset_info: dict, out_dir: Path) -> dict:
    """Execute one configured run and write its artifacts.

    A run that diverges keeps its partial artifacts with status ``failed``.
    Any other exception the run raises becomes a row with status ``error``,
    the exception type and message, and no artifacts, so the rest of a sweep
    still runs. Only failing to write into ``out_dir`` raises.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    row = {"run_id": out_dir.name, "status": "ok", "message": ""}
    try:
        result = run_solver(problem, spec.to_solver_config())
    except NumericalFailureError as exc:
        result = exc.result
        row.update(status="failed", message=str(exc))
    except Exception as exc:  # noqa: BLE001 - one run's crash is data, not a sweep abort
        row.update(status="error", message=f"{type(exc).__name__}: {exc}")
        # the summary keys of a run that left no summary
        return row | dict.fromkeys(_SUMMARY_ROW_KEYS) | {"seed": spec["seed"], "iterations": 0}
    write_trace_csv(result, out_dir / "trace.csv")
    summary = write_summary_json(result, out_dir / "summary.json", dataset_info)
    return row | {key: summary[key] for key in _SUMMARY_ROW_KEYS}


def cmd_run(args) -> int:
    try:
        spec = load_config(args.config)
        overrides = _parse_overrides(args.override)
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            spec = spec.with_overrides(overrides)
        problem, dataset_info = spec.load_problem()
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_id = args.run_id or f"{spec['method'].lower()}-seed{spec['seed']}"
    row = _run_one(spec, problem, dataset_info, Path(args.out) / run_id)
    print(json.dumps(row, indent=2))
    if row["status"] != "ok":
        print(f"error: {row['message']}", file=sys.stderr)
        return 1
    return 0


def select_winner(rows: list[dict], parameter: str) -> dict | None:
    """Pick the grid winner from summary rows: lowest median final f,
    ties broken by lower median final squared gradient norm, then by the
    smaller parameter value. Failed runs count as +inf; runs that raised
    (status ``error``) left no result and are skipped. Pure function of the
    rows, so re-running selection on saved artifacts reproduces the winner.
    """
    by_value: dict[float, list[dict]] = {}
    for row in rows:
        if row["status"] != "error":
            by_value.setdefault(row[parameter], []).append(row)
    if not by_value:
        return None

    def med(entries, key):
        vals = [
            e[key] if e["status"] == "ok" and e[key] is not None else math.inf
            for e in entries
        ]
        return statistics.median(vals)

    ranked = sorted(
        (
            (med(entries, "final_f"), med(entries, "final_grad_norm_sq"), value)
            for value, entries in by_value.items()
        ),
    )
    best_f, best_g, best_value = ranked[0]
    if math.isinf(best_f):
        return None
    return {
        "value": best_value,
        "median_final_f": best_f,
        "median_final_grad_norm_sq": best_g,
    }


def run_grid(
    spec: RunSpec,
    grid: GridSpec,
    seeds: list[int],
    out_dir: Path,
    loaded: tuple | None = None,
) -> dict:
    """Run the grid x seeds cross product and assemble the report.

    ``loaded`` is the result of ``spec.load_problem()`` when the caller has
    already loaded it; otherwise the problem is loaded here.
    """
    problem, dataset_info = loaded or spec.load_problem()
    rows = []
    for value in grid.values:
        for seed in seeds:
            child = spec.with_overrides({grid.parameter: value, "seed": seed})
            run_id = f"{child['method'].lower()}-{grid.parameter}{value:g}-seed{seed}"
            row = _run_one(child, problem, dataset_info, out_dir / run_id)
            row[grid.parameter] = value
            rows.append(row)

    winner = select_winner(rows, grid.parameter)
    report = {
        "parameter": grid.parameter,
        "values": grid.values,
        "seeds": seeds,
        "method": spec["method"],
        "rows": rows,
        "winner": winner,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "grid-report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def cmd_grid(args) -> int:
    try:
        spec = load_config(args.config)
        overrides = _parse_overrides(args.override)
        if overrides:
            spec = spec.with_overrides(overrides)
        if args.grid_preset:
            values = GRID_PRESETS[args.grid_preset]
        elif args.values:
            values = [float(v) for v in args.values.split(",") if v]
        else:
            values = GRID_PRESETS["a9a-grid"]
        grid = GridSpec(args.param, values)
        seeds = [int(s) for s in args.seeds.split(",") if s]
        loaded = spec.load_problem()
    except (ConfigError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_grid(spec, grid, seeds, Path(args.out), loaded)
    n_failed = sum(1 for r in report["rows"] if r["status"] != "ok")
    if report["winner"] is None:
        print("error: every grid configuration failed", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {"winner": report["winner"], "runs": len(report["rows"]), "failed": n_failed},
            indent=2,
        )
    )
    return 0


def _iterations_to_target(trace_records, summary: dict, target: float) -> float:
    for rec in trace_records:
        if rec.grad_norm_sq <= target:
            return rec.iter
    final = summary.get("final_grad_norm_sq")
    if final is not None and final <= target:
        return summary["iterations"]
    return math.inf


def _load_run_sets(directories: list[str]) -> list[dict]:
    entries = []
    for directory in directories:
        base = Path(directory)
        summaries = sorted(base.rglob("summary.json"))
        if not summaries:
            raise FileNotFoundError(f"no summary.json found under {directory}")
        for summary_path in summaries:
            with open(summary_path, "r", encoding="utf-8") as fh:
                summary = json.load(fh)
            trace_path = summary_path.parent / "trace.csv"
            if not trace_path.exists():
                raise FileNotFoundError(f"missing trace next to {summary_path}")
            entries.append(
                {
                    "summary": summary,
                    "trace": read_trace_csv(trace_path),
                    "path": str(summary_path.parent),
                }
            )
    return entries


def build_compare_report(directories: list[str]) -> dict:
    """Aggregate run sets into one per-method comparison table.

    For each method the best configuration (by median final f) is selected,
    then its runs are aggregated across seeds by medians: final f, final
    squared gradient norm, iterations to reach each gradient target, and the
    extrema of the stepsize trajectory.
    """
    entries = _load_run_sets(directories)
    by_method: dict[str, dict[float, list[dict]]] = {}
    for entry in entries:
        cfg = entry["summary"]["config"]
        method = cfg["method"]
        by_method.setdefault(method, {}).setdefault(cfg.get("cubic"), []).append(entry)

    methods = []
    for method, configs in sorted(by_method.items()):
        scored = []
        for value, runs in configs.items():
            finals = [
                r["summary"]["final_f"]
                if r["summary"]["final_f"] is not None
                else math.inf
                for r in runs
            ]
            scored.append((statistics.median(finals), value, runs))
        scored.sort(key=lambda t: (t[0], t[1] if t[1] is not None else math.inf))
        median_f, best_value, runs = scored[0]

        def across(getter):
            # non-finite per-run values (no data, divergence) sort as +inf
            values = [v if math.isfinite(v) else math.inf for v in map(getter, runs)]
            value = statistics.median(values)
            return value if math.isfinite(value) else None

        row = {
            "method": method,
            "config": f"cubic={best_value:g}" if best_value is not None else "default",
            "seeds": sorted({r["summary"]["seed"] for r in runs}),
            "runs": len(runs),
            "median_final_f": median_f if math.isfinite(median_f) else None,
            "median_final_grad_norm_sq": across(
                lambda r: r["summary"]["final_grad_norm_sq"]
                if r["summary"]["final_grad_norm_sq"] is not None
                else math.inf
            ),
            "eta_min": across(
                lambda r: min((rec.eta for rec in r["trace"]), default=math.nan)
            ),
            "eta_max": across(
                lambda r: max((rec.eta for rec in r["trace"]), default=math.nan)
            ),
        }
        for target in GRAD_TARGETS:
            row[f"iters_to_{target:g}"] = across(
                lambda r: _iterations_to_target(r["trace"], r["summary"], target)
            )
        methods.append(row)
    return {"targets": list(GRAD_TARGETS), "methods": methods}


def render_compare_text(report: dict) -> str:
    columns = ["method", "config"] + [
        f"iters_to_{t:g}" for t in GRAD_TARGETS
    ] + ["median_final_f", "median_final_grad_norm_sq", "eta_min", "eta_max"]

    def fmt(value):
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    rows = [[fmt(m.get(c)) for c in columns] for m in report["methods"]]
    widths = [
        max(len(col), *(len(r[i]) for r in rows)) if rows else len(col)
        for i, col in enumerate(columns)
    ]
    lines = ["  ".join(col.ljust(w) for col, w in zip(columns, widths))]
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def cmd_compare(args) -> int:
    if len(args.directories) < 2:
        print("error: compare needs at least two run sets", file=sys.stderr)
        return 2
    try:
        report = build_compare_report(args.directories)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(json.dumps(report, indent=2))
    print()
    print(render_compare_text(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ceqn", description="Quasi-Newton stepsize benchmark harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one configuration")
    run_p.add_argument("--config", required=True, help="path to a JSON run config")
    run_p.add_argument("--out", default="out", help="output directory root")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.add_argument("--run-id", default=None, help="artifact subdirectory name")
    run_p.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    run_p.set_defaults(func=cmd_run)

    grid_p = sub.add_parser("grid", help="sweep a parameter grid across seeds")
    grid_p.add_argument("--config", required=True)
    grid_p.add_argument("--out", default="out")
    grid_p.add_argument("--param", default="cubic", help="config key to sweep")
    grid_p.add_argument("--values", default=None, help="comma-separated grid values")
    grid_p.add_argument(
        "--grid-preset", default=None, choices=sorted(GRID_PRESETS),
        help="named value grid",
    )
    grid_p.add_argument(
        "--seeds", default="0,1,2,3,4", help="comma-separated seed list"
    )
    grid_p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    grid_p.set_defaults(func=cmd_grid)

    cmp_p = sub.add_parser("compare", help="compare completed run sets")
    cmp_p.add_argument("directories", nargs="+", help="run-set directories")
    cmp_p.add_argument("--out", default=None, help="also write the JSON report here")
    cmp_p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
