"""Command line interface: subcommands, exit codes, JSON output shapes."""

import json
import subprocess
import sys

import pytest

from cgraforge.arch import serialize_design
from cgraforge.cli import EXIT_DOMAIN, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from cgraforge.kernel import BUILTIN_KERNELS

from helpers import make_design


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(serialize_design(make_design(rows=2, cols=2, design_id="cli")))
    return str(path)


@pytest.fixture
def bad_design_file(tmp_path):
    doc = {
        "rows": 0,
        "cols": 2,
        "fu_kinds": ["ADD"],
        "config_mem_depth": 8,
        "data_mem_kb": 0,
        "topology": "MESH",
        "unroll_factor": 1,
        "vectorize_factor": 1,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


class TestKernels:
    def test_text_lists_all_builtins(self, capsys):
        code, out, _ = run_cli(capsys, "kernels")
        assert code == EXIT_OK
        for name in BUILTIN_KERNELS:
            assert name in out

    def test_json_shape(self, capsys):
        code, rows, _ = run_json(capsys, "kernels", "--json")
        assert code == EXIT_OK
        assert len(rows) == len(BUILTIN_KERNELS)
        assert set(rows[0]) == {"name", "nodes", "trip_count", "carried_edges", "total_latency", "op_census"}


class TestValidate:
    def test_clean_design(self, capsys, design_file):
        code, out, _ = run_cli(capsys, "validate", design_file)
        assert code == EXIT_OK
        assert out.startswith("OK ")

    def test_clean_design_json(self, capsys, design_file):
        code, doc, _ = run_json(capsys, "validate", design_file, "--json")
        assert code == EXIT_OK
        assert doc["ok"] is True
        assert doc["violations"] == []

    def test_violations_exit_domain(self, capsys, bad_design_file):
        code, doc, _ = run_json(capsys, "validate", bad_design_file, "--json")
        assert code == EXIT_DOMAIN
        assert doc["ok"] is False
        assert doc["violations"][0]["code"] == "ROWS_RANGE"

    def test_unparseable_design_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert "error:" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "validate", "/does/not/exist.json")
        assert code == EXIT_USAGE
        assert "cannot read" in err


class TestMap:
    def test_maps_and_prints_schedule(self, capsys, design_file):
        code, out, _ = run_cli(capsys, "map", design_file, "--kernel", "fir")
        assert code == EXIT_OK
        assert "ii=" in out and "node 0:" in out

    def test_json_document(self, capsys, design_file):
        code, doc, _ = run_json(capsys, "map", design_file, "--kernel", "fir", "--json")
        assert code == EXIT_OK
        assert set(doc) == {"ii", "schedule_len", "placements", "routes"}
        assert doc["ii"] >= 1
        for entry in doc["placements"].values():
            assert set(entry) == {"tile", "start"}
            assert len(entry["tile"]) == 2

    def test_mapping_failure_exit_and_json_error(self, capsys, design_file):
        code, doc, err = run_json(capsys, "map", design_file, "--kernel", "fir", "--max-ii", "1", "--json")
        assert code == EXIT_DOMAIN
        assert "II_BOUND_EXCEEDED" in doc["error"]
        assert "mapping failed" in err

    def test_invalid_design_fails_before_mapping(self, capsys, bad_design_file):
        code, _, err = run_cli(capsys, "map", bad_design_file, "--kernel", "fir")
        assert code == EXIT_DOMAIN
        assert "structurally invalid" in err

    def test_unknown_kernel_is_usage_error(self, capsys, design_file):
        code, _, err = run_cli(capsys, "map", design_file, "--kernel", "nonesuch")
        assert code == EXIT_USAGE
        assert "nonesuch" in err

    def test_bad_budget_flags(self, capsys, design_file):
        code, _, err = run_cli(capsys, "map", design_file, "--kernel", "fir", "--attempts", "0")
        assert code == EXIT_USAGE


class TestEvaluate:
    def test_json_report(self, capsys, design_file):
        code, doc, _ = run_json(capsys, "evaluate", design_file, "--kernel", "fir", "--json")
        assert code == EXIT_OK
        assert set(doc) == {"design_id", "ii", "speedup", "power_mw", "area_kum2", "power_efficiency", "score", "feasible"}
        assert doc["power_efficiency"] == pytest.approx(doc["speedup"] / doc["power_mw"])

    def test_objective_changes_score(self, capsys, design_file):
        _, power_doc, _ = run_json(capsys, "evaluate", design_file, "--kernel", "fir", "--json")
        _, eff_doc, _ = run_json(
            capsys, "evaluate", design_file, "--kernel", "fir", "--objective", "MAX_POWER_EFFICIENCY", "--json"
        )
        assert power_doc["power_mw"] == eff_doc["power_mw"]
        assert power_doc["score"] != eff_doc["score"]

    def test_unknown_objective_is_usage_error(self, capsys, design_file):
        code, _, err = run_cli(capsys, "evaluate", design_file, "--kernel", "fir", "--objective", "FASTEST")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_min_speedup_is_usage_error(self, capsys, design_file, value):
        code, out, err = run_cli(capsys, "evaluate", design_file, "--kernel", "fir", f"--min-speedup={value}")
        assert code == EXIT_USAGE
        assert out == "" and "min_speedup=" in err

    def test_bad_coeffs_file_is_usage_error(self, capsys, design_file, tmp_path):
        coeffs = tmp_path / "c.json"
        coeffs.write_text("{}")
        code, _, err = run_cli(capsys, "evaluate", design_file, "--kernel", "fir", "--coeffs", str(coeffs))
        assert code == EXIT_USAGE
        assert "cost coefficients" in err


class TestSelectSim:
    def test_bundled_constant_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "select-sim", "constant_agreement")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 12
        modes = [r["mode"] for r in records]
        assert modes[:5] == ["TOOL"] * 5
        assert modes[5] == "LLM"

    def test_bundled_interval_forcing(self, capsys):
        code, doc, _ = run_json(capsys, "select-sim", "interval_forcing", "--json")
        assert code == EXIT_OK
        tool_iters = [r["iteration"] for r in doc["trace"] if r["mode"] == "TOOL"]
        assert tool_iters == [5, 10, 15, 20]

    def test_script_file(self, capsys, tmp_path):
        script = tmp_path / "s.json"
        script.write_text(json.dumps({"steps": [{"t_score": 1.0, "l_score": 1.0}]}))
        code, out, _ = run_cli(capsys, "select-sim", str(script))
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1

    def test_unknown_script_name(self, capsys):
        code, _, err = run_cli(capsys, "select-sim", "no_such_script")
        assert code == EXIT_USAGE
        assert "no such script" in err

    def test_malformed_script(self, capsys, tmp_path):
        script = tmp_path / "s.json"
        script.write_text(json.dumps({"steps": [{"t_score": 1.0}]}))
        code, _, err = run_cli(capsys, "select-sim", str(script))
        assert code == EXIT_USAGE


class TestRunAndReport:
    def test_run_then_report(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, "run", "--kernel", "spmv", "--iterations", "2", "--seed", "3", "--out", str(out_dir)
        )
        assert code == EXIT_OK
        assert "best:" in out
        assert (out_dir / "metrics.json").exists()
        assert (out_dir / "history.jsonl").exists()
        assert (out_dir / "best_design.json").exists()

        code, rep_out, _ = run_cli(capsys, "report", str(out_dir))
        assert code == EXIT_OK
        assert "kernel=spmv" in rep_out
        assert "it   1:" in rep_out

        code, doc, _ = run_json(capsys, "report", str(out_dir), "--json")
        assert code == EXIT_OK
        assert doc == json.loads((out_dir / "metrics.json").read_text())

    def test_run_json_prints_metrics(self, capsys, tmp_path):
        code, doc, _ = run_json(
            capsys, "run", "--kernel", "spmv", "--iterations", "1", "--out", str(tmp_path / "r"), "--json"
        )
        assert code == EXIT_OK
        assert doc["kernel"] == "spmv"
        assert doc["iterations_run"] == 1

    def test_run_config_file_with_flag_overrides(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kernel": "spmv", "iterations": 5, "proposals_per_iteration": 3}))
        code, doc, _ = run_json(
            capsys,
            "run",
            "--config",
            str(cfg_path),
            "--iterations",
            "1",
            "--out",
            str(tmp_path / "r"),
            "--json",
        )
        assert code == EXIT_OK
        assert doc["iterations_run"] == 1
        assert doc["iterations"][0]["proposals"] == 3

    def test_run_default_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(capsys, "run", "--kernel", "spmv", "--iterations", "1")
        assert code == EXIT_OK
        assert (tmp_path / "runs" / "spmv-min_power-s0" / "metrics.json").exists()

    def test_infeasible_run_exits_domain(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "kernel": "fir",
                    "iterations": 1,
                    "proposals_per_iteration": 3,
                    "max_fix_rounds": 2,
                    "budget": {"max_ii": 1},
                }
            )
        )
        code, _, err = run_cli(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "r"))
        assert code == EXIT_DOMAIN
        assert "no feasible design" in err

    def test_run_without_kernel_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--iterations", "1")
        assert code == EXIT_USAGE
        assert "kernel is required" in err

    def test_run_bad_config_json(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{broken")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg_path))
        assert code == EXIT_USAGE
        assert "invalid JSON" in err

    def test_run_mistyped_selection_is_usage_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kernel": "spmv", "selection": {"alpha": "0.3"}}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "r"))
        assert code == EXIT_USAGE
        assert "selection.alpha must be a number" in err

    @pytest.mark.parametrize(
        "config_text",
        ['{"kernel": "spmv", "objective": {"min_speedup": NaN}}', '{"kernel": "spmv", "selection": {"sigma": Infinity}}'],
    )
    def test_run_non_finite_number_is_usage_error(self, capsys, tmp_path, config_text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text)
        code, _, err = run_cli(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "r"))
        assert code == EXIT_USAGE
        assert "must be finite" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_run_non_positive_min_speedup_is_usage_error(self, capsys, tmp_path, value):
        out = tmp_path / "r"
        code, _, err = run_cli(capsys, "run", "--kernel", "spmv", "--out", str(out), f"--min-speedup={value}")
        assert code == EXIT_USAGE
        assert err == f"error: min_speedup={float(value)} must be positive\n"
        assert not out.exists()

    def test_resume_without_history_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--kernel", "spmv", "--iterations", "1", "--out", str(tmp_path / "r"), "--resume"
        )
        assert code == EXIT_USAGE

    def test_report_missing_dir(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", str(tmp_path / "nope"))
        assert code == EXIT_USAGE
        assert "cannot read" in err


class TestErrorHandling:
    def test_internal_errors_exit_one(self, capsys, monkeypatch):
        def boom(name):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr("cgraforge.cli.load_kernel", boom)
        code, _, err = run_cli(capsys, "kernels")
        assert code == EXIT_INTERNAL
        assert err.startswith("internal error: RuntimeError")

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_console_script_is_installed(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from cgraforge.cli import main; raise SystemExit(main(['kernels']))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "fir" in proc.stdout
