"""One pass of a workload in a fresh process; see perfbench/run.py.

    python3 perfbench/worker.py --spec JSON --seed N --out DIR [--trace] [--setup-only]

Times the set-up (importing cgraforge from the checkout's src/ and loading
the workload's kernels and cost coefficients), then the pass, checks the
outputs, and writes DIR/result.json. With --trace the pass runs under the
outside-in tracer and the result also holds the per-layer metrics; the
spans go to DIR/spans.jsonl. Without --trace each run is also timed in
reference solves (speedref.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CORPUS = HERE / "corpus.json"

sys.path.insert(0, str(HERE))
from speedref import RefClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MAP_ERROR_CODES = ("MISSING_FU_KIND", "INSUFFICIENT_TILES", "CONFIG_MEM_OVERFLOW", "ROUTING_FAILURE", "II_BOUND_EXCEEDED")
RUN_KERNELS = tuple(sorted({k for w in WORKLOADS.values() for k in w.kernels}))


def setup(wl: Workload):
    """Import cgraforge from the checkout and load what the pass needs."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cgraforge

    if not Path(cgraforge.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"cgraforge was imported from {cgraforge.__file__}, not from {SRC}")
    for k in wl.kernels:
        cgraforge.load_kernel(k)
    cgraforge.load_cost_coeffs()
    return cgraforge


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def history_facts(path: Path) -> dict:
    """Fingerprint and selection facts of one finished run's history."""
    data = path.read_bytes()
    tool = agree = 0
    for line in data.splitlines():
        ev = json.loads(line)
        if ev["type"] == "selection_step" and ev["trace"]["mode"] == "TOOL":
            tool += 1
            agree += ev["trace"]["judge_choice"] == ev["trace"]["tool_choice"]
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "history_bytes": len(data),
        "tool_rounds": tool,
        "judge_agreed": agree,
    }


@contextmanager
def wall_timing(into: dict):
    t0 = time.perf_counter()
    yield
    into["wall_s"] = time.perf_counter() - t0


def run_pass(cg, wl: Workload, seed: int, out: Path, tracer: Tracer | None) -> list[dict]:
    """Make every run of the pass; return one record per run. A run that
    raises or fails a check is recorded as failed, never fatal. Untraced
    runs are also timed in reference solves (wall_norm)."""

    span = tracer.span if tracer is not None else (lambda name, **attrs: nullcontext())
    timing = RefClock().timing if tracer is None else wall_timing
    records = []
    for i, cfg_json in enumerate(wl.run_configs(seed)):
        rec = {"kernel": cfg_json["kernel"], "seed": cfg_json["seed"], "config": cfg_json, "problems": []}
        run_dir = out / f"r{i:02d}-{cfg_json['kernel']}-s{cfg_json['seed']}"
        rec["dir"] = str(run_dir)
        try:
            with timing(rec):
                if wl.chain:
                    for it in range(1, wl.iterations + 1):
                        cfg = cg.RunConfig.from_json({**cfg_json, "iterations": it})
                        with span("orchestrate.run", run=i, kernel=rec["kernel"], role="chain"):
                            res = cg.run(cfg, run_dir, resume=it > 1)
                else:
                    cfg = cg.RunConfig.from_json(cfg_json)
                    with span("orchestrate.run", run=i, kernel=rec["kernel"], role="run"):
                        res = cg.run(cfg, run_dir)
            m = res.metrics
            best = m["best"] or {}
            rec.update(
                sr1=m["sr1"],
                sr2=m["sr2"],
                feasible=m["feasible"],
                best_id=best.get("design_id"),
                best_score=best.get("score"),
                best_power_mw=best.get("power_mw"),
                **history_facts(res.history_path),
            )
            if wl.expect_infeasible and m["feasible"]:
                rec["problems"].append(f"found feasible design {best['design_id']} on an infeasible workload")
            if wl.chain:
                ref_dir = out / (run_dir.name + "-uninterrupted")
                with span("orchestrate.run", run=i, kernel=rec["kernel"], role="reference"):
                    ref = cg.run(cg.RunConfig.from_json(cfg_json), ref_dir)
                if ref.history_path.read_bytes() != res.history_path.read_bytes():
                    rec["problems"].append("resumed history differs from the uninterrupted run's")
        except Exception:
            rec["error"] = traceback.format_exc()
            print(rec["error"], file=sys.stderr)
        records.append(rec)
    return records


def noop_resumes(cg, records: list[dict], out: Path) -> float:
    """Seconds spent on resumes that add no iterations (read + replay + the
    closing writes), summed over the pass's histories. Each resume works on
    a copy and must leave the history bytes unchanged."""
    total = 0.0
    for rec in records:
        if "error" in rec:
            continue
        copy = out / "noop-resume"
        shutil.copytree(rec["dir"], copy)
        t0 = time.perf_counter()
        res = cg.run(cg.RunConfig.from_json(rec["config"]), copy, resume=True)
        total += time.perf_counter() - t0
        if hashlib.sha256(res.history_path.read_bytes()).hexdigest() != rec["sha256"]:
            rec["problems"].append("a resume that adds no iterations changed the history")
        shutil.rmtree(copy)
    return total


def remap_corpus(cg) -> tuple[dict, list[str]]:
    """Map every frozen (kernel, unroll, vectorize, fabric, budget) call of
    perfbench/corpus.json again, so mapper speed is compared on fixed inputs."""
    from cgraforge.arch import FabricSpec, FuKind, Topology

    entries = json.loads(CORPUS.read_text(encoding="utf-8"))["entries"]
    kernels: dict[tuple, object] = {}
    total = 0.0
    iis: list[int] = []
    changed = 0
    problems: list[str] = []
    for e in entries:
        key = (e["kernel"], e["unroll"], e["vectorize"])
        if key not in kernels:
            kernels[key] = cg.apply_sw_params(cg.load_kernel(e["kernel"]), e["unroll"], e["vectorize"])
        k = kernels[key]
        fd = e["fabric"]
        f = FabricSpec(
            rows=fd["rows"],
            cols=fd["cols"],
            fu_kinds=frozenset(FuKind[x] for x in fd["fu_kinds"]),
            config_mem_depth=fd["config_mem_depth"],
            data_mem_kb=fd["data_mem_kb"],
            topology=Topology[fd["topology"]],
        )
        budget = cg.MapBudget(**e["budget"])
        t0 = time.perf_counter()
        r = cg.map_kernel(k, f, budget)
        total += time.perf_counter() - t0
        code = getattr(r, "code", "OK")
        ii = r.ii if code == "OK" else None
        changed += (code, ii) != (e["code"], e["ii"])
        if code == "OK":
            iis.append(ii)
            problems += [f"corpus {key}: {p}" for p in cg.check_mapping(k, f, r)]
    metrics = {
        "mapper.corpus.wall_s": total,
        "mapper.corpus.mean_ii": statistics.fmean(iis) if iis else 0.0,
        "mapper.corpus.ok_share": len(iis) / len(entries),
        "mapper.corpus.changed": changed,
    }
    return metrics, problems


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def layer_metrics(tr: Tracer, records: list[dict]) -> dict:
    """Per-layer metrics of the timed runs. The uninterrupted reference runs
    of a resume chain are a check, not part of the workload: their spans
    count only towards resume_remap_calls."""
    wall = sum(r.get("wall_s", 0.0) for r in records)
    role = {i: s.attrs["role"] for i, s in enumerate(tr.spans) if s.parent is None}
    spans: dict[str, list] = {}
    for s in tr.spans:
        if role[s.root] != "reference":
            spans.setdefault(s.name, []).append(s)

    def of(name: str) -> list:
        return spans.get(name, [])

    def self_s(name: str) -> float:
        return sum(s.self_s for s in of(name))

    def total_s(name: str) -> float:
        return sum(s.dur for s in of(name))

    m: dict[str, float] = {}
    mk = of("mapper.map_kernel")
    durs = sorted(s.dur for s in mk)
    ok = [s for s in mk if s.attrs["code"] == "OK"]
    m["mapper.map_kernel.calls"] = len(mk)
    m["mapper.map_kernel.self_s"] = self_s("mapper.map_kernel")
    m["mapper.map_kernel.p50_ms"] = _pct(durs, 0.50) * 1e3
    m["mapper.map_kernel.p95_ms"] = _pct(durs, 0.95) * 1e3
    m["mapper.map_kernel.max_ms"] = (durs[-1] if durs else 0.0) * 1e3
    m["mapper.map_kernel.fail_s"] = sum(s.dur for s in mk if s.attrs["code"] != "OK")
    m["mapper.map_kernel.ok_share"] = _share(len(ok), len(mk))
    m["mapper.map_kernel.share"] = _share(sum(durs), wall)
    for code in MAP_ERROR_CODES:
        m[f"mapper.errors.{code}"] = sum(1 for s in mk if s.attrs["code"] == code)
    m["mapper.mean_ii"] = statistics.fmean(s.attrs["ii"] for s in ok) if ok else 0.0

    # A validated design either hits the map cache or is transformed (and,
    # if the transform succeeds, mapped); transforms happen only on a miss.
    passed = sum(1 for s in of("arch.validate_design") if s.attrs["violations"] == 0)
    transforms = of("kernel.apply_sw_params")
    m["orchestrate.map_cache_hit_share"] = 1.0 - _share(len(transforms), passed) if passed else 0.0
    m["orchestrate.self_s"] = self_s("orchestrate.run")
    m["orchestrate.history_append.calls"] = len(of("orchestrate.history_append"))
    m["orchestrate.history_append.self_s"] = self_s("orchestrate.history_append")
    m["orchestrate.history_bytes"] = sum(r.get("history_bytes", 0) for r in records)
    m["orchestrate.read_history.self_s"] = self_s("orchestrate.read_history")
    m["orchestrate.replay.self_s"] = self_s("orchestrate.replay")
    m["orchestrate.read_replay_share"] = _share(
        total_s("orchestrate.read_history") + total_s("orchestrate.replay"), wall
    )
    remaps = {"run": 0, "chain": 0, "reference": 0}
    for s in tr.spans:
        if s.name == "mapper.map_kernel":
            remaps[role[s.root]] += 1
    m["orchestrate.resume_remap_calls"] = remaps["chain"] - remaps["reference"]

    fixes = of("agents.fix_design")
    for name in ("propose", "coarse_judge", "fix_design", "judge_select", "judge_update"):
        m[f"agents.{name}.self_s"] = self_s(f"agents.{name}")
    m["agents.fix_design.ok_share"] = _share(sum(1 for s in fixes if s.attrs["ok"]), len(fixes))
    tool_rounds = sum(r.get("tool_rounds", 0) for r in records)
    m["agents.judge_agreement"] = _share(sum(r.get("judge_agreed", 0) for r in records), tool_rounds)

    m["kernel.apply_sw_params.calls"] = len(transforms)
    m["kernel.apply_sw_params.self_s"] = self_s("kernel.apply_sw_params")
    m["kernel.transform_errors"] = sum(1 for s in transforms if "raised" in s.attrs)
    m["arch.validate_design.self_s"] = self_s("arch.validate_design")
    m["costs.tool_evaluate.self_s"] = self_s("costs.tool_evaluate")
    m["selection.select_step.self_s"] = self_s("selection.select_step")
    m["selection.tool_rounds"] = tool_rounds

    for k in RUN_KERNELS:
        m[f"run_s.{k}"] = sum(r["wall_s"] for r in records if r["kernel"] == k and "wall_s" in r)
    m["trace.spans"] = len(tr.spans)
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True, help="workload as JSON (workloads.Workload)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = Workload.from_json(json.loads(args.spec))
    args.out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    cg = setup(wl)
    result: dict = {"setup_s": time.perf_counter() - t0}
    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        if tracer is None:
            records = run_pass(cg, wl, args.seed, args.out, None)
        else:
            from cgraforge import orchestrate

            with tracer.installed(orchestrate):
                records = run_pass(cg, wl, args.seed, args.out, tracer)
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            for k, f, _, res, root in tracer.mappings:
                if getattr(res, "code", None) is None:
                    records[tracer.spans[root].attrs["run"]]["problems"] += cg.check_mapping(k, f, res)
            layers = layer_metrics(tracer, records)
            layers["orchestrate.replay_s"] = noop_resumes(cg, records, args.out)
            corpus, corpus_problems = remap_corpus(cg)
            layers.update(corpus)
            result["layers"] = layers
            result["corpus_problems"] = corpus_problems
            tracer.write(args.out / "spans.jsonl")
        for rec in records:
            del rec["dir"]
        result["runs"] = records
    (args.out / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
