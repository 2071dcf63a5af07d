"""The benchmark workloads and the instances they run on.

Each workload has an untimed preparation (write its inputs), a timed set-up
step (make the problem the solver runs on), a warm-up, and a sweep: a fixed
list of solver runs whose artifacts are read back into ``Run`` records. The
sweep goes through the library's public entry points only:
``cli.run_grid``, which parses the input and calls ``run_solver``, and
``cli.build_compare_report``. Module attributes are looked up at call time,
so a traced pass can wrap them.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from ceqn import cli, driver
from ceqn.data_io import read_trace_csv, validate_spec
from ceqn.problems import LogisticProblem

OK, DIVERGED, FAILED = "ok", "diverged", "failed"
NUMERICAL_FAILURE = "NUMERICAL_FAILURE"


@dataclass
class Run:
    """One solver run as the benchmark saw it."""

    label: str
    method: str
    seed: int
    status: str
    seconds: float = 0.0
    columns: dict[str, list] = field(default_factory=dict)
    n_value: int = 0
    n_grad: int = 0
    n_hvp: int = 0
    final_grad_norm_sq: float = math.inf
    reference: bool = False
    max_inner: int = 0

    @property
    def iterations(self) -> int:
        return len(self.columns.get("iter", ()))

    def signature(self) -> tuple:
        """Every trace column but wall_seconds, plus the final counts."""
        cols = tuple(
            (name, tuple(values))
            for name, values in sorted(self.columns.items())
            if name != "wall_seconds"
        )
        return (self.label, self.seed, self.status, self.n_value, self.n_grad, self.n_hvp, cols)

    def first_at(self, tol: float) -> tuple[int, float] | None:
        """Iterations and seconds until an iterate first has grad_norm_sq <= tol.

        Record k describes iterate k, which became available when record k-1
        was written; an iterate past the last record is the final one.
        """
        gns = self.columns.get("grad_norm_sq", [])
        wall = self.columns.get("wall_seconds", [])
        for k, value in enumerate(gns):
            if value <= tol:
                return k, (wall[k - 1] if k else 0.0)
        if gns and self.final_grad_norm_sq <= tol:
            return len(gns), wall[-1]
        return None


@dataclass
class Sweep:
    runs: list[Run]
    seconds: float
    checks: list[tuple[str, bool, str]] = field(default_factory=list)


def _failed(label: str, method: str, seed: int, what: str) -> Run:
    print(f"run {label} seed={seed} failed: {what}", file=sys.stderr)
    return Run(label=label, method=method, seed=seed, status=FAILED)


def sparse_logistic(rng: np.random.Generator, n: int, d: int, density: float, mu: float) -> LogisticProblem:
    """Random sparse logistic instance with noisy planted labels.

    Nonzeros are standard normal at uniformly drawn rows and columns.
    """
    nnz = int(round(n * d * density))
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, d, nnz)
    design = sp.csr_matrix((rng.standard_normal(nnz), (rows, cols)), shape=(n, d))
    scores = design @ rng.standard_normal(d) + 0.5 * rng.standard_normal(n)
    labels = np.where(scores >= 0.0, 1.0, -1.0)
    return LogisticProblem(design, labels, mu)


def write_libsvm(problem: LogisticProblem, path: Path) -> None:
    """Write the instance as LIBSVM text; floats round-trip exactly."""
    design, labels = problem.design, problem.labels
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(design.shape[0]):
            lo, hi = design.indptr[i], design.indptr[i + 1]
            pairs = zip(design.indices[lo:hi].tolist(), design.data[lo:hi].tolist())
            fh.write(f"{labels[i]:+.0f} " + " ".join(f"{j + 1}:{v!r}" for j, v in pairs) + "\n")


def trace_columns(records) -> dict[str, list]:
    """Trace records as columns, keyed by field name."""
    rows = [vars(rec) for rec in records]
    return {name: [row[name] for row in rows] for name in rows[0]} if rows else {}


class GridWorkload:
    """A tuning sweep with ``ceqn grid``, as a user runs it.

    Each generated instance is a LIBSVM file. For each one, ``cli.run_grid``
    parses the file, sweeps ``cubic`` over ``values`` for every solver seed
    and writes every run's artifacts, and ``cli.build_compare_report`` reads
    them back. Set-up is the program's own: parse a file and construct the
    problem, as ``run_grid`` does. Subclasses choose the instance and the
    method.
    """

    name: str
    shape: tuple[int, int, float]  # rows, columns, density
    instances: int
    solver_seeds: int  # drawn from the workload seed
    setups: int  # per round, taking the instances in turn
    tol: float
    method: str
    values: list[float]
    reference_cubic: float
    spec_values: dict

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.datasets = [out / f"{self.name}-{i}.libsvm" for i in range(self.instances)]
        self.out = out / self.name
        self.run_seeds = [int(s) for s in np.random.default_rng([seed, 1]).integers(0, 2**31, self.solver_seeds)]
        self._setups = 0

    def prepare(self) -> None:
        """Untimed: generate the instances and write them for the grid to parse."""
        n, d, density = self.shape
        for i, path in enumerate(self.datasets):
            write_libsvm(sparse_logistic(np.random.default_rng([self.seed, i]), n, d, density, 1e-4), path)

    def setup(self) -> LogisticProblem:
        """Parse the next instance's LIBSVM file and construct the problem."""
        dataset = self.datasets[self._setups % self.instances]
        self._setups += 1
        problem, _ = self.spec(dataset).load_problem()
        return problem

    def spec(self, dataset: Path, **overrides):
        return validate_spec({
            "method": self.method,
            "dataset": str(dataset),
            "dimension": self.shape[1],
            "mu": 1e-4,
            "memory": 10,
            "grad_tol": 1e-12,
            "cubic": self.reference_cubic,
            **self.spec_values,
            **overrides,
        })

    def warm_up(self, problem) -> None:
        """Untimed: a short run warms caches and lazy imports."""
        config = self.spec(self.datasets[0], max_iters=3).to_solver_config()
        driver.run_solver(problem, config)

    def sweep(self, problem) -> Sweep:
        shutil.rmtree(self.out, ignore_errors=True)
        runs, checks, seconds = [], [], 0.0
        for i, dataset in enumerate(self.datasets):
            out = self.out / f"instance{i}"
            report = compare = error = None
            start = time.perf_counter()
            try:
                grid = cli.GridSpec("cubic", self.values)
                report = cli.run_grid(self.spec(dataset), grid, self.run_seeds, out)
                compare = cli.build_compare_report([str(out)])
            except Exception:  # noqa: BLE001 - a raising grid is counted, not fatal
                error = traceback.format_exc()
            seconds += time.perf_counter() - start
            if report is None:
                runs += [
                    _failed(f"{self.method} cubic={v:g} instance={i}", self.method, s, error)
                    for v in self.values
                    for s in self.run_seeds
                ]
            else:
                runs += [self._read_run(row, out, i) for row in report["rows"]]
            checks += self._checks(compare, error, i)
        return Sweep(runs, seconds, checks)

    def _read_run(self, row: dict, out: Path, instance: int) -> Run:
        label = f"{self.method} cubic={row['cubic']:g} instance={instance}"
        run_dir = out / row["run_id"]
        try:
            summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
            columns = trace_columns(read_trace_csv(run_dir / "trace.csv"))
        except (OSError, ValueError) as exc:
            return _failed(label, self.method, row.get("seed", -1), f"artifacts unreadable: {exc}")
        if row["status"] == "ok":
            status = OK
        elif summary.get("termination") == NUMERICAL_FAILURE:
            status = DIVERGED
        else:
            status = FAILED
        evals = summary.get("evaluations", {})
        final = summary.get("final_grad_norm_sq")
        return Run(
            label=label,
            method=self.method,
            seed=summary["seed"],
            status=status,
            seconds=summary["wall_seconds"],
            columns=columns,
            n_value=evals.get("n_value", 0),
            n_grad=evals.get("n_grad", 0),
            n_hvp=evals.get("n_hvp", 0),
            final_grad_norm_sq=math.inf if final is None else final,
            reference=row["cubic"] == self.reference_cubic,
            max_inner=summary["config"].get("max_inner", 0),
        )

    def _checks(self, compare, error, instance: int) -> list[tuple[str, bool, str]]:
        """The compare report must find a tuned configuration reaching 1e-8."""
        if compare is None:
            return [(f"grid and compare report complete on instance {instance}", False, error or "")]
        rows = {m["method"]: m for m in compare.get("methods", [])}
        iters = rows.get(self.method, {}).get("iters_to_1e-08")
        return [(
            f"tuned {self.method} reaches 1e-8 in the compare report of instance {instance}",
            iters is not None,
            f"iters={iters}",
        )]


class SparseSampled(GridWorkload):
    """Adaptive REG with sampled LSR1 pairs on one 20k x 2k instance.

    One ``cubic`` value, three solver seeds drawn from the workload seed, a
    fixed budget of 60 iterations: Hessian-vector probes inside
    ``sample_pairs`` dominate.
    """

    name = "sparse_sampled"
    shape = (20_000, 2_000, 0.01)
    instances = 1
    solver_seeds = 3
    setups = 3
    tol = 1e-8
    method = "ADAPTIVE_REG"
    values = [0.1]
    reference_cubic = 0.1
    spec_values = {"approx_kind": "LSR1", "pair_strategy": "SAMPLED", "h0_scale": 300.0, "max_iters": 60}


class SparseHistory(GridWorkload):
    """Adaptive DUAL with trajectory L-BFGS pairs on two 100k x 10k instances.

    ``cubic`` is swept over the ``a9a-grid`` preset. There are no
    Hessian-vector products: the gradient and value kernels, the operator
    built from the history buffer, LIBSVM parsing and trace I/O carry the
    cost.
    """

    name = "sparse_history"
    shape = (100_000, 10_000, 0.001)
    instances = 2
    solver_seeds = 1  # pairs come from the trajectory, so the seed changes nothing
    setups = 1
    tol = 1e-10
    method = "ADAPTIVE_DUAL"
    values = cli.GRID_PRESETS["a9a-grid"]
    reference_cubic = 1.0
    spec_values = {"approx_kind": "LBFGS", "pair_strategy": "HISTORY", "h0_scale": 1.0, "max_iters": 500}


WORKLOADS = {w.name: w for w in (SparseSampled, SparseHistory)}
