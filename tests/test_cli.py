import json
import math

import pytest

from ceqn.cli import (
    GridSpec,
    build_compare_report,
    main,
    rank_groups,
    render_compare_text,
    select_winner,
)
from ceqn.data_io import ConfigError, RunSpec, read_trace_csv, validate_spec
from ceqn.driver import run_solver

from conftest import FIXTURE_D, FIXTURE_LIBSVM


@pytest.fixture
def quadratic_config(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({
        "method": "CEQN",
        "problem": "quadratic",
        "dimension": 3,
        "approx_kind": "EXACT",
        "theta": 1.0,
        "max_iters": 50,
    }))
    return path


@pytest.fixture
def fixed_config(tmp_path):
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps({
        "method": "FIXED",
        "dataset": str(FIXTURE_LIBSVM),
        "cubic": 10.0,
        "memory": 5,
        "max_iters": 30,
    }))
    return path


def strip_wall_seconds(text):
    rows = []
    for line in text.splitlines():
        parts = line.split(",")
        rows.append(",".join(parts[:1] + parts[2:]))
    return "\n".join(rows)


class TestRun:
    def test_quadratic_fixture_run(self, quadratic_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(quadratic_config), "--out", str(out)])
        assert code == 0
        run_dir = out / "ceqn-seed0"
        assert (run_dir / "trace.csv").exists()
        assert (run_dir / "summary.json").exists()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["termination"] == "GRAD_TOL"
        assert summary["iterations"] == 1

    def test_broken_config_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"method": "FIXED"}))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "dataset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"method": "CEQN", "cubic": math.nan, "max_iters": 5},
            {"method": "ADAPTIVE_REG", "cubic": math.inf, "max_iters": 5},
            {"method": "FIXED", "cubic": 10.0, "x0": [1.0] * 59 + [-math.inf]},
            # the echo of an older summary.json, which held the safeguard
            # tolerances and the CEQN radicand switch
            {"method": "FIXED", "cubic": 10.0, "sr1_skip_tol": 1e-8},
            {"method": "FIXED", "cubic": 10.0, "bfgs_curvature_tol": 1e-12},
            {"method": "CEQN", "cubic": 1.0, "stepsize_form": "STANDARD"},
        ],
    )
    def test_rejected_config_exits_2_naming_the_key(self, config, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": str(FIXTURE_LIBSVM), **config}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        key = "cubic" if "max_iters" in config else list(config)[-1]
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_equal_seeds_give_identical_traces_modulo_wall(
        self, fixed_config, tmp_path, capsys
    ):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "run", "--config", str(fixed_config), "--out", str(out),
                "--seed", "7", "--run-id", "r",
            ])
            assert code == 0
            outs.append((out / "r" / "trace.csv").read_text())
        assert strip_wall_seconds(outs[0]) == strip_wall_seconds(outs[1])
        assert outs[0].splitlines()[0] == outs[1].splitlines()[0]

    def test_override_changes_behavior(self, fixed_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(fixed_config), "--out", str(out),
            "--override", "max_iters=5", "--run-id", "short",
        ])
        assert code == 0
        summary = json.loads((out / "short" / "summary.json").read_text())
        assert summary["iterations"] == 5

    def test_numerical_failure_exits_nonzero(self, fixed_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(fixed_config), "--out", str(out),
            "--override", "cubic=1e-9", "--run-id", "boom",
        ])
        assert code == 1
        summary = json.loads((out / "boom" / "summary.json").read_text())
        assert summary["termination"] == "NUMERICAL_FAILURE"
        row = json.loads(capsys.readouterr().out)
        assert row["status"] == "failed"
        last = summary["iterations"] - 1
        assert row["message"] == f"objective or gradient non-finite at iteration {last}"

    def test_start_point_failure_is_a_failed_row(self, fixed_config, tmp_path, capsys):
        # ||g||^2 overflows at this start point, every entry of g being finite
        x0 = json.dumps([math.sqrt(2e307 / FIXTURE_D)] * FIXTURE_D)
        code = main([
            "run", "--config", str(fixed_config), "--out", str(tmp_path),
            "--override", "mu=4", "--override", f"x0={x0}", "--run-id", "start",
        ])
        assert code == 1
        row = json.loads(capsys.readouterr().out)
        assert row["status"] == "failed" and row["iterations"] == 0
        assert row["message"] == "objective or gradient non-finite at the start point"

    def test_unusable_h0_is_a_failed_row(self, quadratic_config, tmp_path, capsys):
        # g = (1, 0, 1) at the start point, so g^T H0 g = 2e308 overflows
        code = main([
            "run", "--config", str(quadratic_config), "--out", str(tmp_path),
            "--override", "approx_kind=LSR1", "--override", "pair_strategy=HISTORY",
            "--override", "h0_scale=1e308", "--run-id", "h0",
        ])
        assert code == 1
        row = json.loads(capsys.readouterr().out)
        assert row["status"] == "failed" and row["iterations"] == 0
        assert row["message"] == "g^T H0 g not positive and finite at iteration 0"
        summary = json.loads((tmp_path / "h0" / "summary.json").read_text())
        assert summary["termination"] == "NUMERICAL_FAILURE"


    def test_summary_config_reproduces_the_run(
        self, fixed_config, quadratic_config, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert main(["run", "--config", str(quadratic_config), "--out", str(out / "run")]) == 0
        assert main([
            "grid", "--config", str(fixed_config), "--out", str(out / "grid"),
            "--values", "3.16,10", "--seeds", "0,1",
        ]) == 0
        summaries = sorted(out.rglob("summary.json"))
        assert len(summaries) == 5
        for i, path in enumerate(summaries):
            summary = json.loads(path.read_text())
            validate_spec(summary["config"])
            echo = tmp_path / f"echo{i}.json"
            echo.write_text(json.dumps(summary["config"]))
            again = tmp_path / "again" / str(i)
            code = main(["run", "--config", str(echo), "--out", str(again.parent), "--run-id", str(i)])
            assert code == 0
            assert strip_wall_seconds((again / "trace.csv").read_text()) == strip_wall_seconds(
                (path.parent / "trace.csv").read_text()
            )
            rerun = json.loads((again / "summary.json").read_text())
            del summary["wall_seconds"], rerun["wall_seconds"]
            assert rerun == summary


class TestGrid:
    def test_degenerate_grid_equals_single_run(self, fixed_config, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main([
            "grid", "--config", str(fixed_config), "--out", str(out),
            "--values", "10", "--seeds", "0",
        ])
        assert code == 0
        report = json.loads((out / "grid-report.json").read_text())
        assert len(report["rows"]) == 1
        assert report["winner"]["value"] == 10.0

        single = tmp_path / "single"
        main(["run", "--config", str(fixed_config), "--out", str(single),
              "--seed", "0", "--run-id", "solo"])
        grid_trace = (out / "fixed-cubic10-seed0" / "trace.csv").read_text()
        solo_trace = (single / "solo" / "trace.csv").read_text()
        assert strip_wall_seconds(grid_trace) == strip_wall_seconds(solo_trace)

    def test_diverging_value_recorded_not_fatal(self, fixed_config, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main([
            "grid", "--config", str(fixed_config), "--out", str(out),
            "--values", "1e-9,10", "--seeds", "0,1",
        ])
        assert code == 0
        report = json.loads((out / "grid-report.json").read_text())
        assert len(report["rows"]) == 4
        statuses = {row["cubic"]: row["status"] for row in report["rows"]}
        assert statuses[1e-9] == "failed"
        assert report["winner"]["value"] == 10.0
        assert report["status_counts"] == {"ok": 2, "failed": 2, "error": 0}
        # a failed run keeps its partial result, and so its wall time
        for row in report["rows"]:
            summary = json.loads((out / row["run_id"] / "summary.json").read_text())
            assert row["wall_seconds"] == summary["wall_seconds"] > 0

    def test_winner_selection_is_pure(self, fixed_config, tmp_path, capsys):
        out = tmp_path / "grid"
        main([
            "grid", "--config", str(fixed_config), "--out", str(out),
            "--values", "3.16,10", "--seeds", "0,1,2",
        ])
        report = json.loads((out / "grid-report.json").read_text())
        again = select_winner(report["rows"], "cubic")
        assert again == report["winner"]

    def test_sweep_completeness(self, fixed_config, tmp_path, capsys):
        out = tmp_path / "grid"
        main([
            "grid", "--config", str(fixed_config), "--out", str(out),
            "--values", "1,10", "--seeds", "0,1,2",
        ])
        report = json.loads((out / "grid-report.json").read_text())
        assert len(report["rows"]) == 6

    def test_raising_run_becomes_error_row(self, fixed_config, tmp_path, capsys, monkeypatch):
        def flaky(problem, config):
            if config.seed == 1:
                raise MemoryError("probe buffer")
            return run_solver(problem, config)

        monkeypatch.setattr("ceqn.cli.run_solver", flaky)
        out = tmp_path / "grid"
        code = main([
            "grid", "--config", str(fixed_config), "--out", str(out),
            "--values", "1,10", "--seeds", "0,1,2",
        ])
        assert code == 0
        report = json.loads((out / "grid-report.json").read_text())
        assert len(report["rows"]) == 6
        errors = [row for row in report["rows"] if row["status"] == "error"]
        assert [(row["cubic"], row["seed"]) for row in errors] == [(1.0, 1), (10.0, 1)]
        for row in errors:
            assert row["message"] == "MemoryError: probe buffer"
            assert row["wall_seconds"] is None
            assert list((out / row["run_id"]).iterdir()) == []
        assert report["status_counts"] == {"ok": 4, "failed": 0, "error": 2}
        assert all(row["status"] == "ok" for row in report["rows"] if row["seed"] != 1)

        # the winner and the compare report see only the runs that completed
        clean = tmp_path / "clean"
        main([
            "grid", "--config", str(fixed_config), "--out", str(clean),
            "--values", "1,10", "--seeds", "0,2",
        ])
        assert report["winner"] == json.loads((clean / "grid-report.json").read_text())["winner"]
        compared = build_compare_report([str(out)])["methods"][0]
        assert compared["seeds"] == [0, 2] and compared["runs"] == 2

    def test_singular_exact_hessian_falls_back(self, tmp_path, capsys):
        # 4 samples in 6 features at mu = 0: the Hessian is singular
        data = tmp_path / "rank4.libsvm"
        data.write_text(
            "+1 1:1 2:0.5 5:1\n-1 2:1 3:-1\n+1 1:0.3 4:2 6:1\n-1 3:1 6:-0.5\n"
        )
        config = tmp_path / "exact.json"
        config.write_text(json.dumps({
            "method": "ADAPTIVE_DUAL",
            "dataset": str(data),
            "mu": 0.0,
            "approx_kind": "EXACT",
            "h0_scale": 1.0,
            "cubic": 1.0,
            "max_iters": 5,
        }))
        out = tmp_path / "grid"
        code = main([
            "grid", "--config", str(config), "--out", str(out),
            "--values", "0.1,1", "--seeds", "0,1",
        ])
        assert code == 0
        report = json.loads((out / "grid-report.json").read_text())
        assert [row["status"] for row in report["rows"]] == ["ok"] * 4
        # a rank-4 Hessian is singular at every iterate, whether or not its
        # Cholesky factorization goes through in floating point
        for row in report["rows"]:
            trace = read_trace_csv(out / row["run_id"] / "trace.csv")
            assert len(trace) == 5
            assert all(rec.fallback and rec.skipped_pairs == 0 for rec in trace)

    def test_bad_dataset_is_usage_error_like_run(self, tmp_path, capsys):
        malformed = tmp_path / "bad.libsvm"
        malformed.write_text("+1 1:1.0\nfoo 1:1.0\n")
        for dataset, message in (
            (malformed, "error: line 2: non-numeric label 'foo'"),
            (tmp_path / "missing.libsvm", "No such file or directory"),
        ):
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"method": "FIXED", "dataset": str(dataset), "cubic": 1.0}))
            errors = []
            for command in (["run"], ["grid", "--values", "1", "--seeds", "0"]):
                code = main(command + ["--config", str(config), "--out", str(tmp_path / "o")])
                assert code == 2
                errors.append(capsys.readouterr().err)
            assert errors[0] == errors[1] and message in errors[0]
            assert not (tmp_path / "o").exists()

    def test_grid_loads_its_dataset_once(self, fixed_config, tmp_path, capsys, monkeypatch):
        calls = []
        load = RunSpec.load_problem

        def counting_load(spec):
            calls.append(spec)
            return load(spec)

        monkeypatch.setattr(RunSpec, "load_problem", counting_load)
        code = main([
            "grid", "--config", str(fixed_config), "--out", str(tmp_path / "g"),
            "--values", "10,20", "--seeds", "0,1",
        ])
        assert code == 0
        assert len(calls) == 1

    def test_summaries_hold_the_entries_the_benchmark_reads(self, tmp_path, capsys):
        # bench/workloads.py and acceptance criterion 9 read these entries
        config = tmp_path / "reg.json"
        config.write_text(json.dumps({
            "method": "ADAPTIVE_REG",
            "dataset": str(FIXTURE_LIBSVM),
            "cubic": 1.0,
            "max_iters": 20,
        }))
        out = tmp_path / "grid"
        code = main([
            "grid", "--config", str(config), "--out", str(out),
            "--values", "0.1,1", "--seeds", "0,1",
        ])
        assert code == 0
        summaries = sorted(out.rglob("summary.json"))
        assert len(summaries) == 4
        for path in summaries:
            summary = json.loads(path.read_text())
            assert isinstance(summary["config"]["max_inner"], int)
            assert isinstance(summary["config"]["alpha0"], float)
            assert isinstance(summary["seed"], int)
            assert isinstance(summary["termination"], str)
            assert isinstance(summary["wall_seconds"], float)
            assert {"n_value", "n_grad", "n_hvp"} <= set(summary["evaluations"])
            assert isinstance(summary["final_grad_norm_sq"], float)
            assert isinstance(summary["final_alpha"], float)

    @pytest.fixture
    def short_fixed_config(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({
            "method": "FIXED",
            "dataset": str(FIXTURE_LIBSVM),
            "cubic": 10.0,
            "max_iters": 5,
            "mu": 1e-3,
        }))
        return path

    def test_int_key_grid_runs_whole_values(self, short_fixed_config, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main([
            "grid", "--config", str(short_fixed_config), "--out", str(out),
            "--param", "memory", "--values", "5,10", "--seeds", "0",
        ])
        assert code == 0
        report = json.loads((out / "grid-report.json").read_text())
        assert [row["memory"] for row in report["rows"]] == [5, 10]
        assert all(row["status"] == "ok" for row in report["rows"])
        summary = json.loads((out / "fixed-memory5-seed0" / "summary.json").read_text())
        assert summary["config"]["memory"] == 5

    def test_int_key_grid_rejects_fraction_before_any_run(
        self, short_fixed_config, tmp_path, capsys
    ):
        out = tmp_path / "grid"
        code = main([
            "grid", "--config", str(short_fixed_config), "--out", str(out),
            "--param", "memory", "--values", "5,5.5", "--seeds", "0",
        ])
        assert code == 2
        assert "memory" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_value_exits_2_before_any_run(
        self, short_fixed_config, tmp_path, capsys
    ):
        out = tmp_path / "grid"
        code = main([
            "grid", "--config", str(short_fixed_config), "--out", str(out),
            "--values", "10,-1", "--seeds", "0",
        ])
        assert code == 2
        assert "key 'cubic' must be positive for method FIXED" in capsys.readouterr().err
        assert not out.exists()

    def test_float_key_grid_keeps_float_values(self, short_fixed_config, tmp_path, capsys):
        out = tmp_path / "grid"
        main([
            "grid", "--config", str(short_fixed_config), "--out", str(out),
            "--values", "1,10", "--seeds", "0",
        ])
        text = (out / "grid-report.json").read_text()
        assert '"values": [\n    1.0,\n    10.0\n  ]' in text
        report = json.loads(text)
        assert [row["run_id"] for row in report["rows"]] == [
            "fixed-cubic1-seed0", "fixed-cubic10-seed0",
        ]
        assert all(isinstance(row["cubic"], float) for row in report["rows"])

    def test_seed_grid_exits_2_before_any_run(self, short_fixed_config, tmp_path, capsys):
        out = tmp_path / "grid"
        code = main([
            "grid", "--config", str(short_fixed_config), "--out", str(out),
            "--param", "seed", "--values", "5,6", "--seeds", "0",
        ])
        assert code == 2
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec("cubic", [])
        with pytest.raises(ValueError):
            GridSpec("cubic", [float("inf")])
        with pytest.raises(ValueError, match="memory"):
            GridSpec("memory", [2.5])
        with pytest.raises(ValueError, match="unknown configuration key"):
            GridSpec("cubik", [1.0])
        assert GridSpec("memory", [5.0, 10]).values == [5, 10]
        with pytest.raises(ValueError, match="differ"):
            GridSpec("memory", [5, 5.0])
        spec = validate_spec({"method": "CEQN", "problem": "quadratic"})
        for seeds in ([], [3, 3]):
            with pytest.raises(ConfigError, match="seeds"):
                GridSpec("cubic", [1.0]).children(spec, seeds)

    def test_values_alike_to_six_digits_get_their_own_runs(
        self, quadratic_config, tmp_path, capsys
    ):
        out = tmp_path / "grid"
        code = main([
            "grid", "--config", str(quadratic_config), "--out", str(out),
            "--param", "theta", "--values", "1.0000001,1.0000002", "--seeds", "0",
        ])
        assert code == 0
        rows = json.loads((out / "grid-report.json").read_text())["rows"]
        assert [row["run_id"] for row in rows] == [
            "ceqn-theta1.0000001-seed0", "ceqn-theta1.0000002-seed0",
        ]
        for row in rows:
            summary = json.loads((out / row["run_id"] / "summary.json").read_text())
            assert summary["config"]["theta"] == row["theta"]

    def test_run_ids_keep_the_short_spelling_where_it_reads_back(self):
        from ceqn.cli import GRID_PRESETS, _value_label

        for value in GRID_PRESETS["a9a-grid"] + GRID_PRESETS["realsim-grid"]:
            assert _value_label(value) == f"{value:g}"
        assert _value_label(1234567) == "1234567"  # not 1.23457e+06
        assert _value_label(0.1 + 0.2) == "0.30000000000000004"

    @pytest.mark.parametrize("option, text", [
        ("--seeds", "3,3"),
        ("--seeds", ","),
        ("--values", "10,10"),
    ])
    def test_empty_or_repeated_list_exits_2_before_any_run(
        self, short_fixed_config, tmp_path, capsys, option, text
    ):
        out = tmp_path / "grid"
        lists = {"--values": "10", "--seeds": "0"} | {option: text}
        code = main([
            "grid", "--config", str(short_fixed_config), "--out", str(out),
            *(item for pair in lists.items() for item in pair),
        ])
        assert code == 2
        assert option.strip("-") in capsys.readouterr().err
        assert not out.exists()

    def test_builtin_presets_are_pinned(self):
        from ceqn.cli import GRID_PRESETS

        a9a = GRID_PRESETS["a9a-grid"]
        assert len(a9a) == 17
        assert a9a[0] == 1e-5 and a9a[-1] == 1e3
        assert a9a == sorted(a9a)
        realsim = GRID_PRESETS["realsim-grid"]
        assert len(realsim) == 15
        assert realsim[0] == 1e-5 and realsim[-1] == 20.0
        assert realsim == sorted(realsim)

    def test_sweeping_theta_for_closed_form(self, tmp_path, capsys):
        config = tmp_path / "ceqn.json"
        config.write_text(json.dumps({
            "method": "CEQN",
            "dataset": str(FIXTURE_LIBSVM),
            "cubic": 0.1,
            "max_iters": 10,
        }))
        out = tmp_path / "sweep"
        code = main([
            "grid", "--config", str(config), "--out", str(out),
            "--param", "theta", "--values", "1.0,2.0", "--seeds", "0",
        ])
        assert code == 0
        report = json.loads((out / "grid-report.json").read_text())
        assert {row["theta"] for row in report["rows"]} == {1.0, 2.0}


class TestCompare:
    def test_self_comparison_has_identical_columns(self, fixed_config, tmp_path, capsys):
        out = tmp_path / "runs"
        main(["run", "--config", str(fixed_config), "--out", str(out), "--run-id", "one"])
        report = build_compare_report([str(out)])
        assert len(report["methods"]) == 1
        text = render_compare_text(report)
        assert "FIXED" in text

    def test_theta_sweep_is_ranked_per_configuration(self, fixed_config, tmp_path, capsys):
        config = tmp_path / "ceqn.json"
        config.write_text(json.dumps({
            "method": "CEQN",
            "dataset": str(FIXTURE_LIBSVM),
            "cubic": 1.0,
            "approx_kind": "LSR1",
            "pair_strategy": "SAMPLED",
            "h0_scale": 1e-2,
            "max_iters": 60,
        }))
        grid, fixed = tmp_path / "grid", tmp_path / "fixed"
        assert main([
            "grid", "--config", str(config), "--out", str(grid),
            "--param", "theta", "--values", "0.01,1,100", "--seeds", "0,1",
        ]) == 0
        assert main(["run", "--config", str(fixed_config), "--out", str(fixed)]) == 0
        winner = json.loads((grid / "grid-report.json").read_text())["winner"]
        rows = {m["method"]: m for m in build_compare_report([str(grid), str(fixed)])["methods"]}
        ceqn = rows["CEQN"]
        assert ceqn["config"] == "theta=100" == f"theta={winner['value']:g}"
        assert ceqn["runs"] == 2 and ceqn["seeds"] == [0, 1]
        assert ceqn["median_final_f"] == winner["median_final_f"]
        assert ceqn["median_final_grad_norm_sq"] == winner["median_final_grad_norm_sq"]
        assert rows["FIXED"]["config"] is None

    def test_failed_and_missing_values_rank_as_inf(self):
        def row(f, g, status="ok"):
            return {"status": status, "final_f": f, "final_grad_norm_sq": g}

        groups = {
            "b": [row(1.0, 1e-3), row(1.0, 1e-3)],
            "a": [row(1.0, 1e-3), row(1.0, 1e-3)],
            # one run of three is finite and ok
            "c": [row(0.5, 1e-3), row(0.1, 1e-9, "failed"), row(None, None)],
            "d": [row(0.9, math.nan)],
        }
        assert rank_groups(groups) == [
            (0.9, math.inf, "d"),
            (1.0, 1e-3, "a"),
            (1.0, 1e-3, "b"),
            (math.inf, math.inf, "c"),
        ]

    @pytest.mark.parametrize("column, bad", [("f", "x"), ("fallback", "7")])
    def test_unparsable_trace_value_is_usage_error(self, fixed_config, tmp_path, capsys, column, bad):
        out = tmp_path / "runs"
        main(["run", "--config", str(fixed_config), "--out", str(out), "--run-id", "one"])
        trace = out / "one" / "trace.csv"
        header, *rows = trace.read_text().splitlines()
        fields = rows[3].split(",")
        fields[header.split(",").index(column)] = bad
        rows[3] = ",".join(fields)
        trace.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        code = main(["compare", str(out)])
        assert code == 2
        assert f"line 5: column '{column}'" in capsys.readouterr().err

    def test_compare_one_set_exits_0(self, fixed_config, tmp_path, capsys):
        out = tmp_path / "runs"
        for seed in ("0", "1"):
            main(["run", "--config", str(fixed_config), "--out", str(out), "--seed", seed])
        capsys.readouterr()
        assert main(["compare", str(out)]) == 0
        assert '"runs": 2' in capsys.readouterr().out

    def test_a_set_named_twice_is_read_once(self, fixed_config, tmp_path, capsys):
        out = tmp_path / "runs"
        for seed in ("0", "1"):
            main(["run", "--config", str(fixed_config), "--out", str(out), "--seed", seed])
        once = build_compare_report([str(out)])
        twice = build_compare_report([str(out), str(tmp_path / "." / "runs")])
        assert once["methods"][0]["runs"] == 2
        assert twice == once

    def test_compare_cli_emits_json_and_text(self, fixed_config, quadratic_config, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["run", "--config", str(fixed_config), "--out", str(a)])
        main(["run", "--config", str(quadratic_config), "--out", str(b)])
        code = main(["compare", str(a), str(b), "--out", str(tmp_path / "cmp.json")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "methods" in stdout
        saved = json.loads((tmp_path / "cmp.json").read_text())
        assert {m["method"] for m in saved["methods"]} == {"FIXED", "CEQN"}

    def test_truncated_trace_row_is_usage_error(self, fixed_config, tmp_path, capsys):
        out = tmp_path / "runs"
        main(["run", "--config", str(fixed_config), "--out", str(out), "--run-id", "one"])
        trace = out / "one" / "trace.csv"
        lines = trace.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["compare", str(out)])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_trace_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "summary.json").write_text("{}")
        code = main(["compare", str(bad)])
        assert code == 2
