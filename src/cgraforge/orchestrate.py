"""Closed-loop run orchestration.

Each iteration drafts candidates, maps them (repairing failures), screens
the mapped ones down to a top-K, lets the selection controller pick a
winner, and logs everything as append-only JSONL events. The event log is
the single source of truth, and the run state (the proposal window, the
judge's lessons, the controller state, the SR counters and the best-so-far
record) is a fold over it: a live iteration only emits events and folds
them in when it ends, and a resume folds in the logged iterations through
the same code. A run killed at any point resumes cleanly: an unfinished
last iteration and a torn last line are cut from the file and the
iteration runs again, and since proposal randomness is re-derived per
iteration (never carried across events), the events equal those of a run
that was never stopped.

History records carry no timestamps; wall-clock data lives only in the
metrics file's meta block, so logs from identical runs are identical files.
Metrics and the best design are written through a temp file and renamed
into place, so a kill never leaves either of them torn.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .agents import (
    AgentBackend,
    BackendKind,
    DesignOutcome,
    DesignSpaceBounds,
    FixFailure,
    FixableError,
    Lesson,
    LessonCandidate,
    ProposalRequest,
    coarse_judge,
    error_payload,
    fix_design,
    llm_select,
    llm_update,
    make_fine_judge,
    propose,
)
from .arch import (
    DesignPoint,
    FuKind,
    Provenance,
    design_dict,
    design_from_dict,
    serialize_design,
    validate_design,
)
from .costs import (
    CostCoeffs,
    EvalReport,
    Objective,
    ObjectiveMode,
    load_cost_coeffs,
    tool_evaluate,
    tool_select,
)
from .kernel import KernelGraph, TransformError, apply_sw_params, load_kernel, summarize
from .mapper import (
    MapBudget,
    MapError,
    MappedDesign,
    MappingResult,
    config_depth_error,
    fu_kinds_error,
    map_kernel,
)
from .mapper import speedup as compute_speedup
from .selection import SelectionConfig, SelectionState, ToolRound, select_step

SCHEMA_VERSION = 1

HISTORY_FILE = "history.jsonl"
METRICS_FILE = "metrics.json"
BEST_DESIGN_FILE = "best_design.json"


class RunConfigError(ValueError):
    """Malformed run config, or a resume that does not match its history."""


def _as_int(val, where: str) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise RunConfigError(f"{where} must be an integer, got {val!r}")
    return val


def _as_float(val, where: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise RunConfigError(f"{where} must be a number, got {val!r}")
    if not math.isfinite(val):
        raise RunConfigError(f"{where} must be finite, got {val!r}")
    return float(val)


def _as_str(val, where: str) -> str:
    if not isinstance(val, str):
        raise RunConfigError(f"{where} must be a string, got {val!r}")
    return val


def _check_keys(data: dict, allowed: set[str], where: str) -> None:
    if not isinstance(data, dict):
        raise RunConfigError(f"{where} must be an object")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise RunConfigError(f"unknown {where} keys: {', '.join(unknown)}")


# Runs map many candidate designs per iteration, so their default budget
# trades scheduling depth for pace. map_kernel's own default stays thorough
# for one-off mapping; pass an explicit budget to override either way.
RUN_PLACEMENT_ATTEMPTS = 2_000


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; JSON-loadable, strict about unknown keys."""

    kernel: str
    objective: Objective = Objective(ObjectiveMode.MIN_POWER, 1.5)
    iterations: int = 10
    proposals_per_iteration: int = 8
    top_k: int = 3
    seed: int = 0
    backend: AgentBackend = AgentBackend()
    selection: SelectionConfig = SelectionConfig()
    budget: MapBudget = MapBudget(placement_attempts=RUN_PLACEMENT_ATTEMPTS)
    max_fix_rounds: int = 4
    history_window: int = 24
    cost_coeffs: str | None = None

    def __post_init__(self):
        if not self.kernel:
            raise RunConfigError("kernel must be set")
        if self.iterations < 1:
            raise RunConfigError(f"iterations={self.iterations} must be >= 1")
        if self.proposals_per_iteration < 1:
            raise RunConfigError(f"proposals_per_iteration={self.proposals_per_iteration} must be >= 1")
        if self.top_k < 1:
            raise RunConfigError(f"top_k={self.top_k} must be >= 1")
        if self.max_fix_rounds < 0:
            raise RunConfigError(f"max_fix_rounds={self.max_fix_rounds} must be >= 0")
        if self.history_window < 1:
            raise RunConfigError(f"history_window={self.history_window} must be >= 1")
        if self.budget.max_ii < 1 or self.budget.placement_attempts < 1:
            raise RunConfigError("budget fields must be >= 1")

    @staticmethod
    def from_json(data: dict) -> "RunConfig":
        _check_keys(
            data,
            {
                "kernel",
                "objective",
                "iterations",
                "proposals_per_iteration",
                "top_k",
                "seed",
                "backend",
                "selection",
                "budget",
                "max_fix_rounds",
                "history_window",
                "cost_coeffs",
            },
            "run config",
        )
        if "kernel" not in data:
            raise RunConfigError("run config needs a kernel")
        kernel = _as_str(data["kernel"], "kernel")
        seed = _as_int(data.get("seed", 0), "seed")

        obj_data = data.get("objective", {})
        _check_keys(obj_data, {"mode", "min_speedup"}, "objective")
        objective = Objective(
            mode=ObjectiveMode.parse(_as_str(obj_data.get("mode", "MIN_POWER"), "objective.mode")),
            min_speedup=_as_float(obj_data.get("min_speedup", 1.5), "objective.min_speedup"),
        )

        backend_data = data.get("backend", {})
        _check_keys(
            backend_data,
            {"kind", "base_url", "model", "temperature", "timeout_s", "max_retries"},
            "backend",
        )
        kind_token = _as_str(backend_data.get("kind", "HEURISTIC"), "backend.kind").strip().upper()
        try:
            kind = BackendKind[kind_token]
        except KeyError:
            raise RunConfigError(f"backend.kind must be HEURISTIC or LLM, got {kind_token!r}") from None
        base_url = backend_data.get("base_url")
        model = backend_data.get("model")
        backend = AgentBackend(
            kind=kind,
            seed=seed,
            base_url=None if base_url is None else _as_str(base_url, "backend.base_url"),
            model=None if model is None else _as_str(model, "backend.model"),
            temperature=_as_float(backend_data.get("temperature", 0.2), "backend.temperature"),
            timeout_s=_as_float(backend_data.get("timeout_s", 30.0), "backend.timeout_s"),
            max_retries=_as_int(backend_data.get("max_retries", 2), "backend.max_retries"),
        )

        try:
            selection = SelectionConfig.from_dict(data.get("selection", {}))
        except ValueError as e:
            raise RunConfigError(str(e)) from None

        budget_data = data.get("budget", {})
        _check_keys(budget_data, {"max_ii", "placement_attempts"}, "budget")
        budget = MapBudget(
            max_ii=_as_int(budget_data.get("max_ii", 32), "budget.max_ii"),
            placement_attempts=_as_int(
                budget_data.get("placement_attempts", RUN_PLACEMENT_ATTEMPTS),
                "budget.placement_attempts",
            ),
        )

        coeffs = data.get("cost_coeffs")
        return RunConfig(
            kernel=kernel,
            objective=objective,
            iterations=_as_int(data.get("iterations", 10), "iterations"),
            proposals_per_iteration=_as_int(data.get("proposals_per_iteration", 8), "proposals_per_iteration"),
            top_k=_as_int(data.get("top_k", 3), "top_k"),
            seed=seed,
            backend=backend,
            selection=selection,
            budget=budget,
            max_fix_rounds=_as_int(data.get("max_fix_rounds", 4), "max_fix_rounds"),
            history_window=_as_int(data.get("history_window", 24), "history_window"),
            cost_coeffs=None if coeffs is None else _as_str(coeffs, "cost_coeffs"),
        )

    def to_header_dict(self) -> dict:
        """Config as recorded in the run header. Excludes the iteration
        target on purpose: extending a run is not a config change."""
        return {
            "kernel": self.kernel,
            "objective": {"mode": self.objective.mode.name, "min_speedup": self.objective.min_speedup},
            "proposals_per_iteration": self.proposals_per_iteration,
            "top_k": self.top_k,
            "seed": self.seed,
            "backend": {
                "kind": self.backend.kind.name,
                "base_url": self.backend.base_url,
                "model": self.backend.model,
                "temperature": self.backend.temperature,
                "timeout_s": self.backend.timeout_s,
                "max_retries": self.backend.max_retries,
            },
            "selection": {
                "conf_threshold": self.selection.conf_threshold,
                "validation_interval": self.selection.validation_interval,
                "alpha": self.selection.alpha,
                "sigma": self.selection.sigma,
                "initial_confidence": self.selection.initial_confidence,
            },
            "budget": {"max_ii": self.budget.max_ii, "placement_attempts": self.budget.placement_attempts},
            "max_fix_rounds": self.max_fix_rounds,
            "history_window": self.history_window,
            "cost_coeffs": self.cost_coeffs,
        }


class History:
    """Append-only JSONL event log with a monotone sequence number.

    Records are appended through one handle, open while the log is used as
    a context manager (`with history:`), and each is flushed as it is
    written, so the file always ends with the last record appended."""

    def __init__(self, path: Path, seq: int = 0):
        self.path = path
        self.seq = seq
        self._fh = None

    def __enter__(self) -> "History":
        self._fh = self.path.open("a", encoding="utf-8")
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()
        self._fh = None

    def append(self, record: dict) -> None:
        self.seq += 1
        full = {"schema_version": SCHEMA_VERSION, "seq": self.seq}
        full.update(record)
        self._fh.write(json.dumps(full, sort_keys=True) + "\n")
        self._fh.flush()

    def truncate(self) -> None:
        """Cut the file back to its first `seq` records, dropping what a
        kill left behind them: an unfinished iteration, a torn last line."""
        with self.path.open("r+b") as fh:
            size = kept = 0
            for line in fh:
                if kept == self.seq:
                    break
                size += len(line)
                kept += bool(line.strip())
            fh.truncate(size)


def read_history(path: Path) -> list[dict]:
    """The events of a history file. A last line without its newline was
    torn by a kill mid-write and is left out; any other bad line raises."""
    events = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith("\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise RunConfigError(f"{path}:{lineno}: invalid history line: {e}") from None
            if rec.get("seq") != len(events) + 1:
                raise RunConfigError(f"{path}:{lineno}: history sequence broken")
            events.append(rec)
    return events


def _design_event(kind: str, it: int, d: DesignPoint) -> dict:
    return {
        "type": kind,
        "iteration": it,
        "design_id": d.id,
        "design": design_dict(d),
        "provenance": d.provenance.name,
        "note": d.note,
    }


def _map_ok_event(it: int, m: MappedDesign) -> dict:
    return {
        "type": "map_result",
        "iteration": it,
        "design_id": m.design.id,
        "ok": True,
        "ii": m.mapping.ii,
        "schedule_len": m.mapping.schedule_len,
        "nodes": len(m.mapping.schedule),
        "trip_after": m.trip_after,
        "speedup": m.speedup,
    }


def _failure_event(it: int, design_id: str, err: FixableError) -> dict:
    if isinstance(err, MapError):
        return {"type": "map_result", "iteration": it, "design_id": design_id, "ok": False, "error": error_payload(err)}
    return {
        "type": "violation",
        "iteration": it,
        "design_id": design_id,
        "stage": "validate" if isinstance(err, list) else "transform",
        "error": error_payload(err),
    }


def _report_dict(r: EvalReport) -> dict:
    return {
        "speedup": r.speedup,
        "power_mw": r.power_mw,
        "area_kum2": r.area_kum2,
        "power_efficiency": r.power_efficiency,
        "score": r.score,
        "feasible": r.feasible,
    }


def _lesson_dict(lesson: Lesson) -> dict:
    return {
        "tool_choice": lesson.tool_choice,
        "judge_choice": lesson.judge_choice,
        "agreed": lesson.agreed,
        "candidates": [
            {
                "design_id": lc.design_id,
                "base_score": lc.base_score,
                "features": list(lc.features),
                "tool_score": lc.tool_score,
            }
            for lc in lesson.candidates
        ],
    }


def _lesson_from_dict(data: dict) -> Lesson:
    return Lesson(
        candidates=tuple(
            LessonCandidate(
                design_id=lc["design_id"],
                base_score=lc["base_score"],
                features=tuple(lc["features"]),
                tool_score=lc["tool_score"],
            )
            for lc in data["candidates"]
        ),
        tool_choice=data["tool_choice"],
        judge_choice=data["judge_choice"],
        agreed=data["agreed"],
    )


def _payload_code(payload: dict) -> str:
    return "STRUCTURAL" if payload.get("type") == "structural" else payload["code"]


def _closed(events: list[dict]) -> bool:
    """Whether one iteration's events run to its end: iteration_empty, or a
    selection_step and all its evals (each candidate after a TOOL round,
    the pick alone after an LLM round)."""
    sel = next((e for e in events if e["type"] == "selection_step"), None)
    if sel is None:
        return events[-1]["type"] == "iteration_empty"
    evals = len(sel["candidates"]) if sel["trace"]["mode"] == "TOOL" else 1
    return sum(e["type"] == "eval" for e in events) == evals


@dataclass
class BestRecord:
    design_id: str
    iteration: int
    design: DesignPoint
    report: dict


@dataclass
class _Shape:
    """What the transforms and the mapping search gave for one design shape
    (unroll, vectorize, rows, cols, topology): the transformed kernel or
    the transform's error, then the search outcome, None until searched."""

    kernel: KernelGraph | TransformError
    search: MappingResult | MapError | None = None
    speedup: float = 0.0


@dataclass
class RunResult:
    metrics: dict
    best: BestRecord | None
    out_dir: Path
    history_path: Path
    metrics_path: Path
    best_design_path: Path | None


class _Runner:
    def __init__(self, cfg: RunConfig, out_dir: Path):
        self.cfg = cfg
        self.kernel: KernelGraph = load_kernel(cfg.kernel)
        self.ksum = summarize(self.kernel)
        self.coeffs: CostCoeffs = load_cost_coeffs(cfg.cost_coeffs)
        self.history = History(out_dir / HISTORY_FILE)
        self.judge = make_fine_judge(cfg.backend, cfg.objective)
        # The run state: written only by _apply.
        self.sel_state = SelectionState(confidence=cfg.selection.initial_confidence)
        self.outcomes: list[DesignOutcome] = []
        self.best: BestRecord | None = None
        self.iter_entries: list[dict] = []
        self.tool_rounds = 0
        self.llm_rounds = 0
        self.drafts_total = 0
        self.mapped_pre_total = 0
        self.mapped_post_total = 0
        self._map_cache: dict[tuple, _Shape] = {}

    # ----- shared checking -------------------------------------------------

    def _shape(self, d: DesignPoint) -> _Shape:
        f = d.fabric
        key = (d.sw.unroll_factor, d.sw.vectorize_factor, f.rows, f.cols, f.topology)
        shape = self._map_cache.get(key)
        if shape is None:
            try:
                shape = _Shape(apply_sw_params(self.kernel, d.sw.unroll_factor, d.sw.vectorize_factor))
            except TransformError as e:
                shape = _Shape(e)
            self._map_cache[key] = shape
        return shape

    def _check(self, d: DesignPoint) -> FixableError | None:
        """The repair loop's oracle: structural validation, the loop
        transforms, the FU kinds, the mapping search, the config memory
        depth, in that order, as in map_kernel. The transforms and the
        search read only the design's shape, so the map cache keys on
        (unroll, vectorize, rows, cols, topology) and holds what each shape
        gave, failures included: the search runs once per shape, on the
        fabric with every FU kind and a config memory as deep as max_ii,
        and the FU-kind and depth checks run per design."""
        violations = validate_design(d)
        if violations:
            return violations
        shape = self._shape(d)
        if isinstance(shape.kernel, TransformError):
            return shape.kernel
        err = fu_kinds_error(shape.kernel, d.fabric)
        if err is not None:
            return err
        if shape.search is None:
            budget = self.cfg.budget
            fabric = dataclasses.replace(d.fabric, fu_kinds=frozenset(FuKind), config_mem_depth=budget.max_ii)
            shape.search = map_kernel(shape.kernel, fabric, budget)
            if isinstance(shape.search, MappingResult):
                shape.speedup = compute_speedup(self.kernel, shape.search, shape.kernel.trip_count)
        if isinstance(shape.search, MapError):
            return shape.search
        return config_depth_error(shape.search.ii, d.fabric)

    def _mapped(self, d: DesignPoint) -> MappedDesign:
        """The mapping of a design that _check passed."""
        shape = self._shape(d)
        return MappedDesign(design=d, mapping=shape.search, trip_after=shape.kernel.trip_count, speedup=shape.speedup)

    # ----- live iteration ---------------------------------------------------

    def run_iteration(self, it: int) -> None:
        """Do one iteration's work and log its events; the run state takes
        them in through the fold once the iteration is complete."""
        cfg = self.cfg
        events: list[dict] = []

        def emit(record: dict) -> None:
            self.history.append(record)
            events.append(record)

        req = ProposalRequest(
            kernel=self.ksum,
            objective=cfg.objective,
            history_window=tuple(self.outcomes[-cfg.history_window:]),
            count=cfg.proposals_per_iteration,
            bounds=DesignSpaceBounds(),
        )
        drafts = [
            dataclasses.replace(d, id=f"i{it:03d}c{k:02d}")
            for k, d in enumerate(propose(req, cfg.backend))
        ]

        mapped: list[MappedDesign] = []
        for d in drafts:
            emit(_design_event("proposal", it, d))
            err = self._check(d)
            if err is None:
                m = self._mapped(d)
                emit(_map_ok_event(it, m))
                mapped.append(m)
                continue
            emit(_failure_event(it, d.id, err))
            fixed = fix_design(d, err, cfg.backend, self._check, max_rounds=cfg.max_fix_rounds)
            if isinstance(fixed, FixFailure):
                emit(
                    {
                        **_design_event("fix", it, fixed.design),
                        "ok": False,
                        "rounds": fixed.rounds,
                        "error": error_payload(fixed.error),
                    }
                )
            else:
                m = self._mapped(fixed)
                rounds = fixed.note.count("repair:") - d.note.count("repair:")
                emit({**_map_ok_event(it, m), **_design_event("fix", it, fixed), "rounds": rounds})
                mapped.append(m)

        closing = self._select(it, mapped) if mapped else [{"type": "iteration_empty", "iteration": it}]
        for record in closing:
            emit(record)
        self._apply(it, events)

    def _select(self, it: int, mapped: list[MappedDesign]) -> list[dict]:
        """Screen the mapped candidates to the top-K and let the controller
        pick one; returns the selection_step event and the eval events."""
        cfg = self.cfg
        top = coarse_judge(mapped, cfg.objective, cfg.top_k, cfg.backend)
        captured: dict = {}

        def judge_select() -> tuple[str, float]:
            return llm_select(top, self.judge)

        def tool_round() -> ToolRound:
            reports = tuple(tool_evaluate(top, self.kernel, cfg.objective, self.coeffs))
            choice, score = tool_select(reports)
            captured["reports"] = reports
            return ToolRound(reports=reports, choice=choice, score=score)

        def judge_update(round_: ToolRound, judge_choice: str) -> Lesson:
            return llm_update(self.judge, top, round_.reports, round_.choice, judge_choice)

        _, rec, lesson = select_step(self.sel_state, cfg.selection, judge_select, tool_round, judge_update)
        step = {
            "type": "selection_step",
            "iteration": it,
            "candidates": [m.design.id for m in top],
            "trace": rec.to_dict(),
            "lesson": None if lesson is None else _lesson_dict(lesson),
        }
        if rec.mode == "TOOL":
            reports = captured["reports"]
        else:
            chosen = next(m for m in top if m.design.id == rec.final_choice)
            reports = tool_evaluate([chosen], self.kernel, cfg.objective, self.coeffs)
        return [step] + [
            {"type": "eval", "iteration": it, "design_id": r.design_id, "report": _report_dict(r)} for r in reports
        ]

    # ----- the fold -----------------------------------------------------------

    def _apply(self, it: int, events: list[dict]) -> None:
        """Fold one complete iteration's events into the run state. Live and
        resumed runs both come through here, and nothing else writes the
        outcomes, SR counters, best-so-far, iteration entries, controller
        state or the judge's lessons."""
        designs: dict[str, DesignPoint] = {}  # latest version, in proposal order
        mapped: set[str] = set()
        mapped_pre = 0
        fail_code: dict[str, str] = {}
        scores: dict[str, float] = {}
        trace: dict | None = None
        for ev in events:
            kind = ev["type"]
            did = ev.get("design_id")
            if kind in ("proposal", "fix"):
                designs[did] = design_from_dict(ev["design"], did, Provenance[ev["provenance"]], ev["note"])
            if kind == "map_result" and ev["ok"]:
                mapped_pre += 1
                mapped.add(did)
            elif kind == "fix" and ev["ok"]:
                mapped.add(did)
            elif kind == "fix":
                fail_code[did] = _payload_code(ev["error"])
            elif kind == "selection_step":
                trace = ev["trace"]
                self.sel_state = SelectionState(iteration=trace["iteration"], confidence=trace["confidence_after"])
                if ev["lesson"] is not None:
                    self.judge.replay(_lesson_from_dict(ev["lesson"]))
                if trace["mode"] == "TOOL":
                    self.tool_rounds += 1
                else:
                    self.llm_rounds += 1
            elif kind == "eval":
                r = ev["report"]
                scores[did] = r["score"]
                best = self.best
                if r["feasible"] and (best is None or (r["score"], did) < (best.report["score"], best.design_id)):
                    self.best = BestRecord(design_id=did, iteration=it, design=designs[did], report=dict(r))

        self.drafts_total += len(designs)
        self.mapped_pre_total += mapped_pre
        self.mapped_post_total += len(mapped)
        for did, d in designs.items():
            self.outcomes.append(
                DesignOutcome(
                    iteration=it,
                    design=d,
                    score=scores.get(did),
                    feasible=did in mapped,
                    error_code=fail_code.get(did),
                )
            )
        # A TOOL round's tool_score is its pick's eval score, so one lookup
        # serves both modes.
        final_choice = None if trace is None else trace["final_choice"]
        self.iter_entries.append(
            {
                "iteration": it,
                "proposals": len(designs),
                "mapped_pre": mapped_pre,
                "mapped_post": len(mapped),
                "mode": None if trace is None else trace["mode"],
                "final_choice": final_choice,
                "final_score": scores.get(final_choice),
                "best_so_far": None if self.best is None else self.best.report["score"],
            }
        )

    # ----- replay (resume) ---------------------------------------------------

    def replay(self, events: list[dict]) -> int:
        """Rebuild runner state from an event log through the fold; returns
        the last complete iteration. An unfinished last iteration is left
        out and History.seq set to the last event kept, so that the caller
        can cut the file back and run that iteration again."""
        if not events or events[0].get("type") != "run_header":
            raise RunConfigError("history is missing its run_header record")
        header = events[0].get("config")
        if header != self.cfg.to_header_dict():
            raise RunConfigError("config does not match the run being resumed (only iterations may change)")

        groups: list[tuple[int, list[dict]]] = []
        for ev in events[1:]:
            it = ev.get("iteration")
            if not isinstance(it, int):
                raise RunConfigError(f"history event seq={ev.get('seq')} has no iteration")
            if groups and groups[-1][0] == it:
                groups[-1][1].append(ev)
            elif it == (groups[-1][0] + 1 if groups else 1):
                groups.append((it, [ev]))
            else:
                raise RunConfigError(f"history iterations are not contiguous at iteration {it}")

        if groups and not _closed(groups[-1][1]):
            groups.pop()
        for it, evts in groups:
            if not _closed(evts):
                raise RunConfigError(f"history iteration {it} is incomplete")
            self._apply(it, evts)
        self.history.seq = groups[-1][1][-1]["seq"] if groups else events[0]["seq"]
        return len(groups)

    # ----- metrics ------------------------------------------------------------

    def build_metrics(self, started_at: str, duration_s: float) -> dict:
        cfg = self.cfg
        best = None
        if self.best is not None:
            best = {
                "design_id": self.best.design_id,
                "iteration": self.best.iteration,
                **self.best.report,
            }
        return {
            "schema_version": SCHEMA_VERSION,
            "kernel": cfg.kernel,
            "objective": {"mode": cfg.objective.mode.name, "min_speedup": cfg.objective.min_speedup},
            "seed": cfg.seed,
            "backend": cfg.backend.kind.name,
            "iterations_run": len(self.iter_entries),
            "sr1": (self.mapped_pre_total / self.drafts_total) if self.drafts_total else 0.0,
            "sr2": (self.mapped_post_total / self.drafts_total) if self.drafts_total else 0.0,
            "tool_rounds": self.tool_rounds,
            "llm_rounds": self.llm_rounds,
            "final_confidence": self.sel_state.confidence,
            "feasible": self.best is not None,
            "best": best,
            "iterations": list(self.iter_entries),
            "meta": {
                "started_at": started_at,
                "duration_s": duration_s,
            },
        }


def _write_atomic(path: Path, text: str) -> None:
    """Replace `path` with `text` through a temp file beside it, so that a
    reader (or a kill) sees the old file or the new one, never a mix."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def run(cfg: RunConfig, out_dir: str | Path, resume: bool = False) -> RunResult:
    """Execute (or extend) a run, leaving history.jsonl, metrics.json, and
    best_design.json in out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hist_path = out / HISTORY_FILE
    started_at = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()

    runner = _Runner(cfg, out)
    start_iter = 1
    if hist_path.exists() and hist_path.stat().st_size > 0:
        if not resume:
            raise RunConfigError(f"{hist_path} already exists; resume the run or pick a fresh directory")
        start_iter = runner.replay(read_history(hist_path)) + 1
        runner.history.truncate()
    elif resume:
        raise RunConfigError(f"cannot resume: no history at {hist_path}")

    with runner.history:
        if runner.history.seq == 0:  # a fresh log starts with its header
            runner.history.append({"type": "run_header", "config": cfg.to_header_dict()})
        for it in range(start_iter, cfg.iterations + 1):
            runner.run_iteration(it)

    metrics = runner.build_metrics(started_at, time.monotonic() - t0)
    metrics_path = out / METRICS_FILE
    _write_atomic(metrics_path, json.dumps(metrics, indent=2, sort_keys=True) + "\n")

    best_path = None
    if runner.best is not None:
        best_path = out / BEST_DESIGN_FILE
        _write_atomic(best_path, serialize_design(runner.best.design))

    return RunResult(
        metrics=metrics,
        best=runner.best,
        out_dir=out,
        history_path=hist_path,
        metrics_path=metrics_path,
        best_design_path=best_path,
    )
