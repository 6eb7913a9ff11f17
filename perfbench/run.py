"""Benchmark of cgraforge's co-design loop.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; cgraforge is imported from its src/. The
load is a closed loop: one run at a time, one process, no threads. Each
pass of the workload (see workloads.py) runs in a fresh process, so set-up
time and peak memory are those of one pass. Passes repeat until the next
one would end after --seconds.

The timing that is gated, wall_norm, is a pass's wall time counted in
solves of a fixed reference search that is timed every 0.1 s while the
pass runs (speedref.py), the median over the passes. Plain seconds on a
shared host drift by 10-20% between runs of the same code as the host's
speed changes; the reference slows down with the program, so the count
moves far less. The plain wall_s (median over the passes) is printed
beside it. Set-up is timed in every pass and in SETUPS_PER_PASS
set-up-only processes after each, topped up to MIN_SETUPS samples;
set-up time and peak memory are medians.

--trace 0 prints the end-to-end metrics. --trace 1 makes one untraced and
one traced pass, prints the per-layer metrics of the traced one, checks
that tracing left every history byte unchanged, and re-maps the frozen
corpus (corpus.json). The spans of the traced pass are kept in
.perfbench_out/. Metric names and units are those of BENCHMARK.json; the
last line of output is one JSON object with correct, attempted, failed and
metrics. Any run that raises or fails a check counts as failed.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_SETUPS = 11
SETUPS_PER_PASS = 4
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Workload  # noqa: E402


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child(wl: Workload, seed: int, out: Path, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--spec", json.dumps(wl.to_json()), "--seed", str(seed)]
    cmd += ["--out", str(out), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def pass_wall(p: dict, key: str = "wall_s") -> float:
    return sum(r.get(key, 0.0) for r in p["runs"])


def failed(r: dict) -> bool:
    return "error" in r or bool(r["problems"])


def fingerprint(p: dict) -> list[tuple]:
    return [(r["kernel"], r["seed"], r.get("sha256")) for r in p["runs"]]


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """The end-to-end metrics; None where one does not apply."""
    runs = passes[0]["runs"]
    ok = [r for r in runs if "error" not in r]
    feasible = [r for r in ok if r["feasible"]]
    attempted = sum(len(p["runs"]) for p in passes)
    return {
        "wall_norm": statistics.median(pass_wall(p, "wall_norm") for p in passes),
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "best_power_mw": (
            math.exp(statistics.fmean(math.log(r["best_power_mw"]) for r in feasible)) if feasible else None
        ),
        "sr1": statistics.fmean(r["sr1"] for r in ok) if ok else None,
        "sr2": statistics.fmean(r["sr2"] for r in ok) if ok else None,
        "feasible_share": len(feasible) / len(runs),
        "failed_share": sum(failed(r) for p in passes for r in p["runs"]) / attempted,
    }


def measure(wl: Workload, seed: int, seconds: float, work: Path) -> tuple[list[dict], list[float]]:
    """Passes in fresh processes until the next would end after `seconds`."""
    t_start = time.perf_counter()
    passes: list[dict] = []
    setups: list[float] = []
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        passes.append(child(wl, seed, work / f"pass{len(passes)}"))
        shutil.rmtree(work / f"pass{len(passes) - 1}")
        setups.append(passes[-1]["setup_s"])
        # Set-ups sampled after every pass, so their median spans the run.
        for _ in range(SETUPS_PER_PASS):
            setups.append(child(wl, seed, work / "setup", "--setup-only")["setup_s"])
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + statistics.median(durations) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(child(wl, seed, work / "setup", "--setup-only")["setup_s"])
    return passes, setups


def report(wl: Workload, seed: int, passes: list[dict], e2e: dict) -> None:
    units = {
        "wall_norm": "ref_solves",
        "wall_s": "s",
        "setup_s": "s",
        "peak_rss_mb": "MB",
        "best_power_mw": "mW",
        "sr1": "share",
        "sr2": "share",
        "feasible_share": "share",
        "failed_share": "share",
    }
    print(f"workload {wl.name} seed {seed}: {len(passes)} pass(es) of {len(passes[0]['runs'])} run(s)")
    for name, unit in units.items():
        v = e2e[name]
        print(f"  {name:<16} {'n/a' if v is None else f'{v:.6g}':>12} {unit}")
    for r in passes[0]["runs"]:
        print(
            f"  fingerprint {r['kernel']} seed {r['seed']}: history sha256 {r.get('sha256')} "
            f"best {r.get('best_id')} score {r.get('best_score')} sr1 {r.get('sr1')} sr2 {r.get('sr2')}"
        )
    print(f"  fingerprint src_lines {src_lines()}")


def metric_block(names: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in names if values.get(m["name"]) is None]
    if missing:
        raise HarnessError(f"no value for metric(s): {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def check_property(wl: Workload, layers: dict) -> str | None:
    prop = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["workloads"].get(wl.name)
    if prop is None:
        return None
    value = layers[prop["metric"]]
    holds = value >= prop["at_least"] if "at_least" in prop else value < prop["below"]
    return f"property {prop['text']}: {prop['metric']} = {value:.4f} -> {'holds' if holds else 'DOES NOT HOLD'}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except HarnessError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


def bench(wl: Workload, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "cgraforge" / "__init__.py").is_file():
        raise HarnessError(f"no cgraforge sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = OUT / f"{wl.name}-s{seed}-work"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if trace:
            passes = [child(wl, seed, work / "plain")]
            traced = child(wl, seed, work / "traced", "--trace")
            setups = [passes[0]["setup_s"], traced["setup_s"]]
            OUT.mkdir(exist_ok=True)
            shutil.copy(work / "traced" / "spans.jsonl", OUT / f"spans-{wl.name}-s{seed}.jsonl")
        else:
            passes, setups = measure(wl, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checked = passes + [traced] if trace else passes
    runs = [r for p in checked for r in p["runs"]]
    problems = [f"{r['kernel']} seed {r['seed']}: {x}" for r in runs for x in r["problems"]]
    problems += [f"{r['kernel']} seed {r['seed']} raised" for r in runs if "error" in r]
    if any(fingerprint(p) != fingerprint(passes[0]) for p in checked):
        problems.append("history sha256 differs between repetitions of the same pass, traced or not")
    e2e = end_to_end(passes, setups)
    report(wl, seed, passes, e2e)
    if trace:
        problems += traced["corpus_problems"]
        layers = traced["layers"]
        layers["trace.overhead_s"] = pass_wall(traced) - pass_wall(passes[0])
        for name in sorted(layers):
            print(f"  {name:<40} {layers[name]:.6g}")
        line = check_property(wl, layers)
        if line:
            print(f"  {line}")
        metrics = metric_block(spec["per_layer"], layers)
    else:
        metrics = metric_block(spec["end_to_end"], e2e)
    for p in problems:
        print(f"  FAILED CHECK: {p}")
    n_failed = sum(failed(r) for r in runs)
    result = {"correct": not problems, "attempted": len(runs), "failed": n_failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
