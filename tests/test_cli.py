"""Command line interface: subcommands, exit codes, JSON output shapes."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

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

    @pytest.mark.parametrize(
        "data",
        [b"[" * 100_000 + b"]" * 100_000, b'{"rows": 1' + b"0" * 5000 + b"}", b'\xff{"rows": 2}'],
        ids=["too_deep", "too_many_digits", "not_utf8"],
    )
    def test_undecodable_design_is_usage_error(self, capsys, tmp_path, data):
        path = tmp_path / "d.json"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ")

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

    def test_the_kernel_loads_before_the_verdict(self, capsys, bad_design_file):
        code, out, err = run_cli(capsys, "map", bad_design_file, "--kernel", "nonesuch", "--json")
        assert code == EXIT_USAGE
        assert out == "" and "unknown kernel 'nonesuch'" in err

    def test_bad_budget_flags(self, capsys, design_file):
        code, _, err = run_cli(capsys, "map", design_file, "--kernel", "fir", "--attempts", "0")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("max_ii", ["0", "-3"])
    def test_max_ii_below_one_is_usage_error(self, capsys, design_file, max_ii):
        code, out, err = run_cli(capsys, "map", design_file, "--kernel", "fir", "--max-ii", max_ii, "--json")
        assert code == EXIT_USAGE
        assert out == "" and f"budget.max_ii={max_ii} must be >= 1" in err


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

    def test_non_finite_coeffs_are_a_usage_error(self, capsys, design_file, tmp_path):
        coeffs = tmp_path / "c.json"
        doc = json.loads(resources.files("cgraforge.data").joinpath("cost_coeffs.json").read_text("utf-8"))
        doc["ctx_power_mw"] = float("nan")  # json.dumps writes NaN
        coeffs.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "evaluate", design_file, "--kernel", "fir", "--coeffs", str(coeffs))
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: cost coefficients: ctx_power_mw must be finite")


class TestSharedVerdict:
    """map and evaluate give the verdict of a run's repair loop
    (orchestrate.check_design), each stage's failure with its own message."""

    FAILURES = {
        "design is structurally invalid: ROWS_RANGE(rows)": dict(rows=0),
        "transform failed: CARRIED_DEP_BLOCKS_VECTORIZATION: carried edge": dict(vectorize_factor=2),
        "mapping failed: CONFIG_MEM_OVERFLOW: ": dict(config_mem_depth=1),
    }

    @pytest.mark.parametrize("message", FAILURES, ids=["structural", "transform", "mapping"])
    @pytest.mark.parametrize("command", ["map", "evaluate"])
    def test_each_stage_fails_with_its_own_message(self, capsys, tmp_path, command, message):
        path = tmp_path / "design.json"
        path.write_text(serialize_design(make_design(**self.FAILURES[message])))
        code, out, err = run_cli(capsys, command, str(path), "--kernel", "fir")
        assert code == EXIT_DOMAIN
        assert out == "" and err.startswith(f"error: {message}")
        code, doc, err = run_json(capsys, command, str(path), "--kernel", "fir", "--json")
        assert code == EXIT_DOMAIN
        assert doc["error"].startswith(message) and doc["error"] in err

    @pytest.mark.parametrize(
        "flag", [("--objective", "NOPE"), ("--min-speedup", "0"), ("--coeffs", "/nonexistent/coeffs.json")]
    )
    @pytest.mark.parametrize("design", ["reference", "maps"])
    def test_evaluate_reads_its_flags_before_the_verdict(self, capsys, monkeypatch, design_file, design, flag):
        """A bad flag is a usage error, both for a design that fails its
        verdict (the packaged spmv reference on latnrm: vectorize 2 crosses a
        carried edge) and for one that maps, which is never searched."""
        from cgraforge import cli

        if design == "reference":
            path, kernel = str(resources.files("cgraforge.data.designs").joinpath("spmv_reference.json")), "latnrm"
        else:
            path, kernel = design_file, "fir"
            monkeypatch.setattr(cli, "check_design", lambda *a: pytest.fail("checked before the flags"))
        code, out, err = run_cli(capsys, "evaluate", path, "--kernel", kernel, *flag)
        assert code == EXIT_USAGE
        assert out == "" and "transform failed" not in err


def _kernel_file(tmp_path, kind) -> str:
    path = tmp_path / "k.json"
    nodes = [{"id": 0, "kind": "LOAD", "latency": 1}, {"id": 1, "kind": kind, "latency": 1}]
    path.write_text(json.dumps({"name": "k", "trip_count": 8, "nodes": nodes, "edges": [{"src": 0, "dst": 1, "distance": 0}]}))
    return str(path)


class TestMalformedKernelFile:
    @pytest.mark.parametrize("command", ["map", "evaluate"])
    @pytest.mark.parametrize("kind", [7, None, ["ADD"], "FOO"])
    def test_bad_node_kind_is_usage_error(self, capsys, design_file, tmp_path, command, kind):
        code, out, err = run_cli(capsys, command, design_file, "--kernel", _kernel_file(tmp_path, kind))
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: kernel ") and "nodes[1].kind must be" in err

    @pytest.mark.parametrize("kind", [7, "FOO"])
    def test_bad_node_kind_in_a_run_is_usage_error(self, capsys, tmp_path, kind):
        out = tmp_path / "r"
        code, _, err = run_cli(capsys, "run", "--kernel", _kernel_file(tmp_path, kind), "--out", str(out))
        assert code == EXIT_USAGE
        assert "nodes[1].kind must be" in err

    def test_a_run_names_the_kernel_file(self, capsys, tmp_path):
        kernel = _kernel_file(tmp_path, 7)
        code, out, err = run_cli(capsys, "run", "--kernel", kernel, "--out", str(tmp_path / "r"))
        assert code == EXIT_USAGE
        assert out == "" and err == f"error: kernel {kernel!r}: nodes[1].kind must be a string, got 7\n"

    def test_a_bad_kernel_leaves_no_out_directory(self, capsys, tmp_path):
        out = tmp_path / "D"
        code, _, _ = run_cli(capsys, "run", "--kernel", _kernel_file(tmp_path, 7), "--out", str(out))
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_a_kernel_file_edited_between_runs_is_read_again(self, capsys, tmp_path):
        """Runs in one process share what a kernel's content decides, keyed
        by the text: a run after an edit maps the new content, and an edit
        that spoils the file still exits 2."""
        kernel = _kernel_file(tmp_path, "ADD")

        def trips(out) -> set[int]:
            """trip_count of the kernel each mapped design was transformed from."""
            sw, got = {}, set()
            for line in (out / "history.jsonl").read_text().splitlines():
                ev = json.loads(line)
                if ev["type"] in ("proposal", "fix"):
                    sw[ev["design_id"]] = ev["design"]["unroll_factor"] * ev["design"]["vectorize_factor"]
                if ev["type"] in ("map_result", "fix") and ev.get("ok"):
                    got.add(ev["trip_after"] * sw[ev["design_id"]])
            return got

        assert run_cli(capsys, "run", "--kernel", kernel, "--iterations", "3", "--out", str(tmp_path / "a"))[0] == EXIT_OK
        doc = json.loads(Path(kernel).read_text())
        Path(kernel).write_text(json.dumps({**doc, "trip_count": 16}))
        assert run_cli(capsys, "run", "--kernel", kernel, "--iterations", "3", "--out", str(tmp_path / "b"))[0] == EXIT_OK
        assert (trips(tmp_path / "a"), trips(tmp_path / "b")) == ({8}, {16})
        _kernel_file(tmp_path, 7)
        code, _, err = run_cli(capsys, "run", "--kernel", kernel, "--out", str(tmp_path / "c"))
        assert code == EXIT_USAGE and "nodes[1].kind must be" in err
        assert not (tmp_path / "c").exists()

    def test_a_bad_kernel_leaves_no_default_run_directory(self, capsys, tmp_path, monkeypatch):
        kernel = _kernel_file(tmp_path, 7)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code, _, _ = run_cli(capsys, "run", "--kernel", kernel)
        assert code == EXIT_USAGE
        assert list(cwd.iterdir()) == []  # no runs/k-min_power-s0, and no runs/

    def test_a_run_names_the_cost_coefficients_file(self, capsys, tmp_path):
        coeffs = tmp_path / "c.json"
        doc = json.loads(resources.files("cgraforge.data").joinpath("cost_coeffs.json").read_text("utf-8"))
        del doc["wiring_mult"]
        coeffs.write_text(json.dumps(doc))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"kernel": "spmv", "iterations": 1, "cost_coeffs": str(coeffs)}))
        code, out, err = run_cli(capsys, "run", "--config", str(config), "--out", str(tmp_path / "r"))
        assert code == EXIT_USAGE
        assert out == "" and err == f"error: cost coefficients {str(coeffs)!r}: missing field wiring_mult\n"


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

    def test_run_json_prints_the_metrics_file(self, capsys, tmp_path):
        """--json prints the bytes of the metrics.json the run wrote, after
        a resume too, whose file splices the restored entries' text."""
        args = ("run", "--kernel", "spmv", "--seed", "2", "--out", str(tmp_path / "r"), "--json")
        for extra in (("--iterations", "2"), ("--iterations", "4", "--resume")):
            code, out, _ = run_cli(capsys, *args, *extra)
            assert code == EXIT_OK
            assert out.encode() == (tmp_path / "r" / "metrics.json").read_bytes()
            assert json.loads(out)["iterations_run"] == int(extra[1])

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

    def test_run_budget_below_one_is_usage_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kernel": "spmv", "budget": {"max_ii": 0}}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "r"))
        assert code == EXIT_USAGE
        assert "budget.max_ii=0 must be >= 1" in err
        assert not (tmp_path / "r").exists()

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

    def test_resume_of_an_empty_history_starts_afresh(self, capsys, tmp_path):
        """A kill after the history file is made but before its header is
        written leaves it empty. A resume then runs from the start, to the
        files of a run that was never stopped (metrics without their meta)."""
        fresh, killed = tmp_path / "fresh", tmp_path / "killed"
        args = ("run", "--kernel", "spmv", "--iterations", "2", "--seed", "3")
        assert run_cli(capsys, *args, "--out", str(fresh))[0] == EXIT_OK
        killed.mkdir()
        (killed / "history.jsonl").write_bytes(b"")
        assert run_cli(capsys, *args, "--out", str(killed), "--resume")[0] == EXIT_OK
        for name in ("history.jsonl", "best_design.json"):
            assert (killed / name).read_bytes() == (fresh / name).read_bytes(), name
        got, want = (json.loads((d / "metrics.json").read_text()) for d in (killed, fresh))
        got.pop("meta"), want.pop("meta")
        assert got == want

    @pytest.mark.parametrize(
        "index, spoil, where",
        [
            (2, lambda line: b"5\n", ":3: history line is not an object"),
            (2, lambda line: b"[1, 2]\n", ":3: history line is not an object"),
            (2, lambda line: line.replace(b'"type"', b'"typ\xff"'), ":3: invalid history line: 'utf-8' codec"),
            (1, lambda line: line.replace(b'"design": {', b'"shape": {'), ": bad event in iteration 1 (seq 2-"),
        ],
        ids=["number", "list", "not_utf8", "proposal_without_design"],
    )
    def test_resume_of_a_malformed_history_is_usage_error(self, capsys, tmp_path, index, spoil, where):
        out = tmp_path / "r"
        args = ("run", "--kernel", "spmv", "--out", str(out))
        assert run_cli(capsys, *args, "--iterations", "2")[0] == EXIT_OK
        history = out / "history.jsonl"
        lines = history.read_bytes().splitlines(keepends=True)
        assert spoil(lines[index]) != lines[index]
        lines[index] = spoil(lines[index])
        history.write_bytes(b"".join(lines))
        code, _, err = run_cli(capsys, *args, "--iterations", "3", "--resume")
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {history}{where}"), err

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda events: events[1:], "history is missing its run_header record"),
            (lambda events: events[:1] + [{k: v for k, v in events[1].items() if k != "iteration"}] + events[2:],
             "history event seq=2 has no iteration"),
            (lambda events: [e for e in events if e.get("iteration") != 2],
             "history iterations are not contiguous at iteration 3"),
        ],
        ids=["no_run_header", "event_without_iteration", "iteration_missing"],
    )
    def test_resume_of_a_history_out_of_order_is_usage_error(self, capsys, tmp_path, spoil, message):
        """Each line parses and the sequence holds, but the fold cannot
        take the events: the resume exits 2 and leaves the file as it was."""
        out = tmp_path / "r"
        args = ("run", "--kernel", "spmv", "--out", str(out))
        assert run_cli(capsys, *args, "--iterations", "3")[0] == EXIT_OK
        history = out / "history.jsonl"
        events = [json.loads(line) for line in history.read_bytes().splitlines()]
        history.write_text("".join(json.dumps({**e, "seq": n}, sort_keys=True) + "\n" for n, e in enumerate(spoil(events), 1)))
        before = history.read_bytes()
        code, _, err = run_cli(capsys, *args, "--iterations", "4", "--resume")
        assert code == EXIT_USAGE
        assert err == f"error: {message}\n"
        assert history.read_bytes() == before

    def test_unreadable_cost_coeffs_in_config_is_usage_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kernel": "spmv", "iterations": 1, "cost_coeffs": str(tmp_path / "none.json")}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "r"))
        assert code == EXIT_USAGE
        assert err.startswith("error: cannot read ") and "none.json" in err

    @pytest.mark.parametrize("flag", [[], ["--json"]])
    @pytest.mark.parametrize("text", ["[1]", "{}", '{"kernel": "spmv"}', "5"])
    def test_report_of_a_file_that_is_not_metrics_is_usage_error(self, capsys, tmp_path, text, flag):
        (tmp_path / "metrics.json").write_text(text)
        code, out, err = run_cli(capsys, "report", str(tmp_path), *flag)
        assert code == EXIT_USAGE
        assert out == "" and err.startswith(f"error: cannot read {tmp_path / 'metrics.json'} as the metrics of a run")

    def test_report_of_invalid_json_is_usage_error(self, capsys, tmp_path):
        (tmp_path / "metrics.json").write_text("{broken")
        code, _, err = run_cli(capsys, "report", str(tmp_path))
        assert code == EXIT_USAGE
        assert "invalid JSON" in err

    def test_run_out_under_a_file_is_usage_error(self, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        code, _, err = run_cli(capsys, "run", "--kernel", "spmv", "--iterations", "1", "--out", str(tmp_path / "file" / "r"))
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "Not a directory" in err

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

    def test_runs_as_a_module(self):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "cgraforge", "kernels"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parents[1],
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fir" in proc.stdout
