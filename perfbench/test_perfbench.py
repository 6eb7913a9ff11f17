"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import worker
from speedref import RefClock
from tracer import Tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))
TINY = Workload("tiny", kernels=("spmv",), iterations=2)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_tiny_config_prints_every_end_to_end_metric_with_its_unit(capsys):
    assert run.bench(TINY, seed=0, seconds=1, trace=False) == 0
    res = _result(capsys)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert res["metrics"] == {
        m["name"]: {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_tiny_config_prints_every_per_layer_metric_with_its_unit(capsys):
    assert run.bench(TINY, seed=0, seconds=1, trace=True) == 0
    res = _result(capsys)
    assert res["correct"] and res["failed"] == 0
    assert res["metrics"] == {
        m["name"]: {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in SPEC["per_layer"]
    }
    assert res["metrics"]["mapper.map_kernel.calls"]["value"] > 0


def test_tracer_leaves_history_bytes_unchanged_and_restores_orchestrate(tmp_path):
    cg = worker.setup(TINY)
    from cgraforge import orchestrate

    originals = {attr: getattr(orchestrate, attr) for attr in ("map_kernel", "propose", "read_history")}
    append = orchestrate.History.append
    plain = worker.run_pass(cg, TINY, 0, tmp_path / "plain", None)
    tracer = Tracer()
    with tracer.installed(orchestrate):
        assert orchestrate.map_kernel is not originals["map_kernel"]
        traced = worker.run_pass(cg, TINY, 0, tmp_path / "traced", tracer)
    assert {attr: getattr(orchestrate, attr) for attr in originals} == originals
    assert orchestrate.History.append is append
    assert [r["sha256"] for r in traced] == [r["sha256"] for r in plain]
    names = {s.name for s in tracer.spans}
    assert {"orchestrate.run", "mapper.map_kernel", "orchestrate.history_append"} <= names
    # Self time never exceeds the span, and children never outlast it.
    assert all(0 <= s.self_s <= s.dur for s in tracer.spans)


def test_ref_clock_counts_the_same_solves_on_a_uniformly_slower_host():
    fast = [(0.0, 1.0), (10.0, 11.0), (21.0, 22.0)]  # 9 s and 10 s between 1-s solves
    slow = [(2 * a, 2 * b) for a, b in fast]
    assert RefClock.norm(fast) == RefClock.norm(slow) == 19.0


def test_resume_chain_matches_uninterrupted_run(tmp_path):
    cg = worker.setup(TINY)
    chain = Workload("tiny_chain", kernels=("spmv",), iterations=3, chain=True)
    (rec,) = worker.run_pass(cg, chain, 0, tmp_path, None)
    assert "error" not in rec and rec["problems"] == []


def test_benchmark_json_records_workloads_and_layer_map():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    assert all(w["why"].strip() and "\n" not in w["why"] for w in SPEC["workloads"])
    assert set(LAYERS["workloads"]) == set(WORKLOADS)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    mapped = {name for row in LAYERS["layers"] for name in row["metrics"]}
    assert mapped == per_layer
    assert {p["metric"] for p in LAYERS["workloads"].values()} <= per_layer
    printed = {"wall_norm", "wall_s", "setup_s", "peak_rss_mb", "best_power_mw", "sr1", "sr2", "feasible_share", "failed_share"}
    assert {m["name"] for m in SPEC["end_to_end"]} <= printed
    for row in LAYERS["layers"]:
        assert set(row["moves"]) <= printed
        assert set(row["on"]) <= set(WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "loop_bound", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
