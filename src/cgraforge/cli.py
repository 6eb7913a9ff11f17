"""Command line interface.

Exit codes: 0 success, 1 internal error, 2 configuration or usage error
(any InputError, so every malformed input file, and any OSError, such as an
output directory that cannot be written), 3 domain failure (no feasible
design, unmappable design, or structural violations). With --json
every command prints exactly one JSON document to stdout and nothing else
there; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .arch import DesignPoint, parse_design, validate_design
from .costs import Objective, ObjectiveMode, load_cost_coeffs, tool_evaluate
from .decode import InputError, about, loads, package_text, read_text
from .kernel import BUILTIN_KERNELS, KernelGraph, TransformError, load_kernel, summarize
from .mapper import MapBudget, MappedDesign, route_paths
from .orchestrate import RunConfig, RunConfigError, check_design, iteration_line, run, transformed
from .selection import SelectionConfigError, load_sim_script, run_selection, trace_to_jsonl

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

_BUNDLED_SCRIPTS = ("constant_agreement", "interval_forcing")


class CliError(Exception):
    """Fatal CLI failure carrying its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _load_design(path: str) -> DesignPoint:
    text = read_text(path)
    with about(path):
        return parse_design(text)


def _load_kernel(name: str):
    with about(f"kernel {name!r}"):
        return load_kernel(name)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cgraforge", description="Closed-loop CGRA hardware/software co-design.")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full co-design loop")
    run_p.add_argument("--config", help="run config JSON file")
    run_p.add_argument("--kernel", help="built-in kernel name or kernel JSON path")
    run_p.add_argument("--objective", help="MIN_POWER or MAX_POWER_EFFICIENCY")
    run_p.add_argument("--min-speedup", type=float, help="feasibility floor on speedup")
    run_p.add_argument("--iterations", type=int, help="total iterations to run")
    run_p.add_argument("--seed", type=int, help="run seed")
    run_p.add_argument("--out", help="output directory (default runs/<kernel>-<objective>-s<seed>)")
    run_p.add_argument("--resume", action="store_true", help="extend the run already in the output directory")
    run_p.add_argument("--json", action="store_true", help="print the metrics document to stdout")
    run_p.add_argument("--verbose", action="store_true", help="log progress to stderr")

    val_p = sub.add_parser("validate", help="structurally validate a design file")
    val_p.add_argument("design", help="architecture JSON file")
    val_p.add_argument("--json", action="store_true")

    map_p = sub.add_parser("map", help="map a design file onto a kernel")
    map_p.add_argument("design", help="architecture JSON file")
    map_p.add_argument("--kernel", required=True, help="built-in kernel name or kernel JSON path")
    map_p.add_argument("--max-ii", type=int, default=MapBudget.max_ii)
    map_p.add_argument(
        "--attempts", type=int, default=MapBudget.placement_attempts, help="placement attempt budget per II"
    )
    map_p.add_argument("--json", action="store_true")

    ev_p = sub.add_parser("evaluate", help="map a design and report speedup, power, area, and score")
    ev_p.add_argument("design", help="architecture JSON file")
    ev_p.add_argument("--kernel", required=True)
    ev_p.add_argument("--objective", default=RunConfig.objective.mode.name)
    ev_p.add_argument("--min-speedup", type=float, default=RunConfig.objective.min_speedup)
    ev_p.add_argument("--coeffs", help="cost coefficients JSON (default: packaged)")
    ev_p.add_argument("--json", action="store_true")

    sim_p = sub.add_parser("select-sim", help="drive the selection controller over scripted scores")
    sim_p.add_argument("script", help=f"script JSON file, or a bundled name: {', '.join(_BUNDLED_SCRIPTS)}")
    sim_p.add_argument("--json", action="store_true")

    rep_p = sub.add_parser("report", help="summarize a finished run directory")
    rep_p.add_argument("run_dir", help="directory holding metrics.json")
    rep_p.add_argument("--json", action="store_true")

    ker_p = sub.add_parser("kernels", help="list the built-in kernels")
    ker_p.add_argument("--json", action="store_true")

    return p


# ----- command handlers ------------------------------------------------------


def _cmd_run(args) -> int:
    data: dict = {}
    if args.config:
        text = read_text(args.config)
        with about(args.config):
            data = loads(text, RunConfigError)
            if not isinstance(data, dict):
                raise RunConfigError("run config must be a JSON object", "BAD_TYPE")
    if args.kernel:
        data["kernel"] = args.kernel
    if args.iterations is not None:
        data["iterations"] = args.iterations
    if args.seed is not None:
        data["seed"] = args.seed
    obj = data.setdefault("objective", {})
    if isinstance(obj, dict):  # RunConfig.from_json rejects anything else
        if args.objective:
            obj["mode"] = args.objective
        if args.min_speedup is not None:
            obj["min_speedup"] = args.min_speedup
    if "kernel" not in data:
        raise CliError(EXIT_USAGE, "a kernel is required (--kernel or config file)")

    cfg = RunConfig.from_json(data)

    out = args.out
    if out is None:
        out = str(Path("runs") / f"{Path(cfg.kernel).stem}-{cfg.objective.mode.name.lower()}-s{cfg.seed}")

    if args.verbose:
        logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    result = run(cfg, out, resume=args.resume)
    m = result.metrics
    if args.json:
        sys.stdout.write(result.metrics_path.read_text(encoding="utf-8"))  # the text the run wrote, not encoded again
    else:
        print(f"run: kernel={m['kernel']} objective={m['objective']['mode']} seed={m['seed']}")
        print(f"iterations={m['iterations_run']} sr1={m['sr1']:.3f} sr2={m['sr2']:.3f}")
        print(f"tool_rounds={m['tool_rounds']} llm_rounds={m['llm_rounds']} final_confidence={m['final_confidence']:.4f}")
        if m["feasible"]:
            b = m["best"]
            print(
                f"best: {b['design_id']} (iteration {b['iteration']}) score={b['score']:.6g} "
                f"speedup={b['speedup']:.3f} power={b['power_mw']:.4f}mW area={b['area_kum2']:.2f}kum2"
            )
            print(f"artifacts: {result.history_path} {result.metrics_path} {result.best_design_path}")
        else:
            print("no feasible design found", file=sys.stderr)
    return EXIT_OK if m["feasible"] else EXIT_DOMAIN


def _cmd_validate(args) -> int:
    d = _load_design(args.design)
    violations = validate_design(d)
    if args.json:
        _print_json(
            {
                "ok": not violations,
                "design_id": d.id,
                "violations": [{"code": v.code, "field": v.field, "message": v.message} for v in violations],
            }
        )
    elif violations:
        for v in violations:
            print(f"{v.code} ({v.field}): {v.message}")
    else:
        print(f"OK {d.id}")
    return EXIT_OK if not violations else EXIT_DOMAIN


def _mapped(args, budget: MapBudget) -> tuple[KernelGraph, MappedDesign]:
    """The verdict of a run's repair loop (orchestrate.check_design) on the
    design file for --kernel at `budget`: the kernel and the mapped design,
    or exit 3 naming the first stage that failed, as {"error": ...} too
    under --json. The design, then the kernel, load before the verdict."""
    d = _load_design(args.design)
    kernel = _load_kernel(args.kernel)
    verdict = check_design(kernel, d, budget)
    if isinstance(verdict, MappedDesign):
        return kernel, verdict
    if isinstance(verdict, list):
        message = "design is structurally invalid: " + "; ".join(f"{v.code}({v.field})" for v in verdict)
    elif isinstance(verdict, TransformError):
        message = f"transform failed: {verdict.code}: {verdict}"
    else:
        hint = f" hint={json.dumps(verdict.hint, sort_keys=True)}" if verdict.hint else ""
        message = f"mapping failed: {verdict.code}: {verdict.detail}{hint}"
    if args.json:
        _print_json({"error": message})
    raise CliError(EXIT_DOMAIN, message)


def _cmd_map(args) -> int:
    kernel, cand = _mapped(args, MapBudget(max_ii=args.max_ii, placement_attempts=args.attempts))
    res = cand.mapping
    doc = {
        "ii": res.ii,
        "schedule_len": res.schedule_len,
        "placements": {
            str(nid): {"tile": list(tile), "start": start} for nid, (tile, start) in sorted(res.schedule.items())
        },
    }
    if args.json:  # the routes of the kernel check_design mapped, from the transform it kept
        routes = route_paths(transformed(kernel, cand.design.sw), cand.design.fabric, res)
        _print_json({**doc, "routes": [[list(t) for t in path] for path in routes]})
    else:
        print(f"ii={res.ii} schedule_len={res.schedule_len} nodes={len(res.schedule)}")
        for nid, (tile, start) in sorted(res.schedule.items()):
            print(f"  node {nid}: tile=({tile[0]},{tile[1]}) start={start} slot={start % res.ii}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    obj = Objective(mode=ObjectiveMode.parse(args.objective), min_speedup=args.min_speedup)
    with about("cost coefficients"):
        coeffs = load_cost_coeffs(args.coeffs)
    _, cand = _mapped(args, MapBudget())
    report = tool_evaluate([cand], obj, coeffs)[0]
    if args.json:
        _print_json({**vars(report), "ii": cand.mapping.ii})
    else:
        print(
            f"{report.design_id}: ii={cand.mapping.ii} speedup={report.speedup:.3f} power={report.power_mw:.4f}mW "
            f"area={report.area_kum2:.2f}kum2 efficiency={report.power_efficiency:.4f} "
            f"score={report.score:.6g} feasible={report.feasible}"
        )
    return EXIT_OK


def _cmd_select_sim(args) -> int:
    if Path(args.script).exists():
        text = read_text(args.script)
    elif args.script in _BUNDLED_SCRIPTS:
        text = package_text("cgraforge.data.scripts", f"{args.script}.json")
    else:
        raise CliError(EXIT_USAGE, f"no such script file or bundled script: {args.script}")
    with about(args.script):
        cfg, steps = load_sim_script(loads(text, SelectionConfigError))
    trace = run_selection(cfg, steps)
    if args.json:
        _print_json({"trace": [r.to_dict() for r in trace]})
    else:
        sys.stdout.write(trace_to_jsonl(trace))
    return EXIT_OK


def _cmd_report(args) -> int:
    path = Path(args.run_dir) / "metrics.json"
    text = read_text(path)
    with about(str(path)):
        m = loads(text)
    try:
        lines = _report_lines(m)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise InputError("BAD_VALUE", f"cannot read {path} as the metrics of a run: {e!r}") from None
    if args.json:
        _print_json(m)
    else:
        print("\n".join(lines))
    return EXIT_OK


def _report_lines(m: dict) -> list[str]:
    lines = [
        f"kernel={m['kernel']} objective={m['objective']['mode']} seed={m['seed']} iterations={m['iterations_run']}",
        f"sr1={m['sr1']:.3f} sr2={m['sr2']:.3f} tool_rounds={m['tool_rounds']} llm_rounds={m['llm_rounds']}",
    ]
    if m.get("feasible") and m.get("best"):
        b = m["best"]
        lines.append(f"best: {b['design_id']} score={b['score']:.6g} speedup={b['speedup']:.3f} power={b['power_mw']:.4f}mW")
    else:
        lines.append("no feasible design")
    lines += ["  " + iteration_line(entry) for entry in m.get("iterations", [])]
    return lines


def _cmd_kernels(args) -> int:
    rows = []
    for name in BUILTIN_KERNELS:
        s = summarize(load_kernel(name))
        rows.append(
            {
                "name": s.name,
                "nodes": s.node_count,
                "trip_count": s.trip_count,
                "carried_edges": s.carried_edge_count,
                "total_latency": s.total_latency,
                "op_census": s.op_census,
            }
        )
    if args.json:
        _print_json(rows)
    else:
        for r in rows:
            census = ",".join(f"{k}x{v}" for k, v in r["op_census"].items())
            print(
                f"{r['name']:<14} nodes={r['nodes']:<3} trip={r['trip_count']:<6} "
                f"carried={r['carried_edges']} latency={r['total_latency']:<3} ops={census}"
            )
    return EXIT_OK


_HANDLERS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "map": _cmd_map,
    "evaluate": _cmd_evaluate,
    "select-sim": _cmd_select_sim,
    "report": _cmd_report,
    "kernels": _cmd_kernels,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # noqa: BLE001 - last-resort guard for exit code 1
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
