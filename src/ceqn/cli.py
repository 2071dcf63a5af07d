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
    typed_value,
    write_summary_json,
    write_trace_csv,
)
from .driver import TERM_NUMERICAL_FAILURE, run_solver

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
# a row's wall_seconds is its run's, and null on an error row like the rest
_SUMMARY_ROW_KEYS = (
    "seed", "termination", "iterations", "final_f", "final_grad_norm_sq", "wall_seconds",
)
_STATUSES = ("ok", "failed", "error")


@dataclass
class GridSpec:
    """One swept parameter and its explicit value list, each value typed as
    the parameter's config key takes it. The seed is not a parameter: a
    sweep's seeds are its own list, and ``children`` sets each child's."""

    parameter: str
    values: list[float | int]

    def __post_init__(self):
        if self.parameter == "seed":
            raise ConfigError("grid cannot sweep 'seed'; list the seeds with --seeds")
        if not self.values:
            raise ValueError("grid must be nonempty")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("grid values must be finite")
        self.values = [typed_value(self.parameter, v) for v in self.values]

    def children(self, spec: RunSpec, seeds: list[int]) -> list[tuple[float | int, RunSpec]]:
        """Each run's value and validated spec, values outer and seeds inner;
        a value the config rejects raises ConfigError before any run."""
        return [
            (value, spec.with_overrides({self.parameter: value, "seed": seed}))
            for value in self.values
            for seed in seeds
        ]


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

    A run that ends NUMERICAL_FAILURE keeps its partial artifacts with status
    ``failed``. An exception the run raises becomes a row with status
    ``error``, the exception type and message, and no artifacts, so the rest
    of a sweep still runs. Only failing to write into ``out_dir`` raises.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    row = {"run_id": out_dir.name, "status": "ok", "message": ""}
    try:
        result = run_solver(problem, spec.to_solver_config())
    except Exception as exc:  # noqa: BLE001 - one run's crash is data, not a sweep abort
        row.update(status="error", message=f"{type(exc).__name__}: {exc}")
        # the summary keys of a run that left no summary
        return row | dict.fromkeys(_SUMMARY_ROW_KEYS) | {"seed": spec["seed"], "iterations": 0}
    if result.termination == TERM_NUMERICAL_FAILURE:
        where = f"iteration {result.trace[-1].iter}" if result.trace else "the start point"
        row.update(status="failed", message=f"objective or gradient non-finite at {where}")
    write_trace_csv(result, out_dir / "trace.csv")
    summary = write_summary_json(result, out_dir / "summary.json", spec.values, dataset_info)
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


def _median(values) -> float:
    """Median with a missing or non-finite value counted as +inf."""
    return statistics.median(
        v if v is not None and math.isfinite(v) else math.inf for v in values
    )


def rank_groups(groups: dict) -> list[tuple[float, float, object]]:
    """Rank groups of run rows, best first.

    Each group is a list of rows with ``status``, ``final_f`` and
    ``final_grad_norm_sq``, and is scored by (median final f, median final
    squared gradient norm, key); ties go to the smaller key. A value that is
    missing or non-finite, or belongs to a run whose status is not ``ok``,
    counts as +inf.
    """

    def med(rows, key):
        return _median(row[key] if row["status"] == "ok" else None for row in rows)

    return sorted(
        (med(rows, "final_f"), med(rows, "final_grad_norm_sq"), key)
        for key, rows in groups.items()
    )


def select_winner(rows: list[dict], parameter: str) -> dict | None:
    """Pick the grid winner from summary rows by ``rank_groups`` over the
    parameter's values, so ties go to the smaller value. Runs that raised
    (status ``error``) left no result and are skipped. Pure function of the
    rows, so re-running selection on saved artifacts reproduces the winner.
    """
    by_value: dict[float, list[dict]] = {}
    for row in rows:
        if row["status"] != "error":
            by_value.setdefault(row[parameter], []).append(row)
    if not by_value:
        return None
    best_f, best_g, best_value = rank_groups(by_value)[0]
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

    Every child spec is validated before the first run. ``loaded`` is the
    result of ``spec.load_problem()`` when the caller has already loaded it;
    otherwise the problem is loaded here.
    """
    children = grid.children(spec, seeds)
    problem, dataset_info = loaded or spec.load_problem()
    rows = []
    for value, child in children:
        run_id = f"{child['method'].lower()}-{grid.parameter}{value:g}-seed{child['seed']}"
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
        "status_counts": {s: sum(row["status"] == s for row in rows) for s in _STATUSES},
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
        grid.children(spec, seeds)  # a rejected child exits 2 before any run
        loaded = spec.load_problem()
    except (ConfigError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_grid(spec, grid, seeds, Path(args.out), loaded)
    n_failed = len(report["rows"]) - report["status_counts"]["ok"]
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


def _iterations_to_target(run: dict, target: float) -> float:
    for rec in run["trace"]:
        if rec.grad_norm_sq <= target:
            return rec.iter
    final = run["final_grad_norm_sq"]
    if final is not None and final <= target:
        return run["iterations"]
    return math.inf


def _load_run_sets(directories: list[str]) -> list[dict]:
    """Every run's summary under the directories, with its ``status``, as
    ``_run_one`` reports it, and its trace records as ``trace``. A summary
    reached through more than one directory is read once."""
    paths: dict[Path, None] = {}
    for directory in directories:
        summaries = sorted(Path(directory).rglob("summary.json"))
        if not summaries:
            raise FileNotFoundError(f"no summary.json found under {directory}")
        paths.update(dict.fromkeys(path.resolve() for path in summaries))
    runs = []
    for summary_path in paths:
        with open(summary_path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        trace_path = summary_path.parent / "trace.csv"
        if not trace_path.exists():
            raise FileNotFoundError(f"missing trace next to {summary_path}")
        failed = summary["termination"] == TERM_NUMERICAL_FAILURE
        runs.append(
            summary
            | {"status": "failed" if failed else "ok", "trace": read_trace_csv(trace_path)}
        )
    return runs


def _format_setting(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return value if isinstance(value, str) else json.dumps(value)


def _config_label(configs: list[dict], chosen: dict) -> str | None:
    """The chosen configuration's values of the keys on which the configs
    differ, e.g. ``theta=100``; None for a single configuration."""
    if len(configs) == 1:
        return None
    keys = sorted({key for config in configs for key in config})
    differing = [
        key for key in keys if len({json.dumps(config.get(key)) for config in configs}) > 1
    ]
    return ",".join(f"{key}={_format_setting(chosen.get(key))}" for key in differing)


def build_compare_report(directories: list[str]) -> dict:
    """Aggregate run sets into one per-method comparison table.

    A configuration is a run's config echo without its seed. For each method
    the configurations are ranked by ``rank_groups``, so a failed run counts
    as +inf, and the best one's runs are aggregated across seeds by medians:
    final f, final squared gradient norm, iterations to reach each gradient
    target, and the extrema of the stepsize trajectory. Its label lists the
    settings that tell it from the method's other configurations.
    """
    by_method: dict[str, dict[str, list[dict]]] = {}
    for run in _load_run_sets(directories):
        config = {key: value for key, value in run["config"].items() if key != "seed"}
        by_method.setdefault(config["method"], {}).setdefault(
            json.dumps(config, sort_keys=True), []
        ).append(run)

    def finite(value):
        return value if math.isfinite(value) else None

    methods = []
    for method, configs in sorted(by_method.items()):
        median_f, median_g, best = rank_groups(configs)[0]
        runs = configs[best]

        def across(getter):
            return finite(_median(map(getter, runs)))

        row = {
            "method": method,
            "config": _config_label(list(map(json.loads, configs)), json.loads(best)),
            "seeds": sorted({r["seed"] for r in runs}),
            "runs": len(runs),
            "median_final_f": finite(median_f),
            "median_final_grad_norm_sq": finite(median_g),
            "eta_min": across(lambda r: min((rec.eta for rec in r["trace"]), default=None)),
            "eta_max": across(lambda r: max((rec.eta for rec in r["trace"]), default=None)),
        }
        for target in GRAD_TARGETS:
            row[f"iters_to_{target:g}"] = across(lambda r: _iterations_to_target(r, target))
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
