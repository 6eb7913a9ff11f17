"""Rebuild perfbench/corpus.json, the frozen mapping corpus.

    python3 perfbench/make_corpus.py

Runs the traced pass of the mapper_bound and infeasible workloads at seed 0
and records each distinct (kernel, unroll, vectorize, fabric, budget) call
they make to map_kernel, with the II or error code it gave. Traced runs
re-map the corpus, so mapper speed is compared on fixed inputs even when a
change alters which designs the loop visits. Rebuild it only in a change
that says it re-baselines the benchmark.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import worker
from tracer import Tracer
from workloads import WORKLOADS

SOURCES = ("mapper_bound", "infeasible")


def main() -> int:
    entries: list[dict] = []
    seen: set[str] = set()
    for name in SOURCES:
        wl = WORKLOADS[name]
        cg = worker.setup(wl)
        from cgraforge import orchestrate

        tracer = Tracer()
        with tempfile.TemporaryDirectory(dir=worker.HERE.parent) as tmp, tracer.installed(orchestrate):
            records = worker.run_pass(cg, wl, 0, Path(tmp), tracer)
        if any("error" in r for r in records):
            print(f"{name}: a run failed; corpus not written", file=sys.stderr)
            return 1
        for k, f, budget, res, _ in tracer.mappings:
            kname, u, v, _ = tracer.transforms[id(k)]
            entry = {
                "kernel": kname,
                "unroll": u,
                "vectorize": v,
                "fabric": {
                    "rows": f.rows,
                    "cols": f.cols,
                    "fu_kinds": sorted(x.name for x in f.fu_kinds),
                    "config_mem_depth": f.config_mem_depth,
                    "data_mem_kb": f.data_mem_kb,
                    "topology": f.topology.name,
                },
                "budget": {"max_ii": budget.max_ii, "placement_attempts": budget.placement_attempts},
            }
            key = json.dumps(entry, sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            code = getattr(res, "code", "OK")
            entry.update(code=code, ii=res.ii if code == "OK" else None)
            entries.append(entry)
    doc = {"sources": [f"{n} seed 0" for n in SOURCES], "entries": entries}
    worker.CORPUS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {worker.CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
