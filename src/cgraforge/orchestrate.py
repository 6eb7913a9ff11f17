"""Closed-loop run orchestration.

Each iteration drafts candidates, maps them (repairing failures), screens
the mapped ones down to a top-K, lets the selection controller pick a
winner, and logs everything as append-only JSONL events. The event log is
the single source of truth, and the run state (the proposal window, the
judge's lessons, the controller state, the SR counters and the best-so-far
record) is a fold over it: a live iteration only emits events and folds
them in when it ends, and a resume folds in the logged iterations through
the same code. A run ends with a checkpoint of that state (state.json),
tied to the history bytes it covers by their length and sha256; a resume
whose history starts with those bytes restores it and folds only the
events after them, and folds the whole log otherwise, so the checkpoint
is a cache. A run killed at any point resumes cleanly: an unfinished
last iteration and a torn last line are cut from the file and the
iteration runs again, and since proposal randomness is re-derived per
iteration (never carried across events), the events equal those of a run
that was never stopped.

History records carry no timestamps; wall-clock data lives only in the
metrics file's meta block, so logs from identical runs are identical files.
The log is written one complete iteration at a time. Metrics, the best
design and the checkpoint are written through a temp file and renamed into
place, so a kill never leaves any of them torn; the best design is
rewritten only when its bytes change. A resume carries the metrics'
iteration entries over as text, so it encodes only the entries it adds.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .agents import (
    AgentBackend,
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
    PROVENANCE_NAMES,
    DesignPoint,
    Provenance,
    SwParams,
    design_dict,
    design_from_dict,
    design_key,
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
from .decode import InputError, about, json_form, read_dataclass
from .kernel import KernelGraph, TransformError, apply_sw_params, load_kernel, summarize
from .mapper import MapBudget, MapError, MappedDesign, map_kernel
from .mapper import speedup as compute_speedup
from .selection import SelectionConfig, SelectionConfigError, SelectionState, ToolRound, select_step

SCHEMA_VERSION = 1

HISTORY_FILE = "history.jsonl"
METRICS_FILE = "metrics.json"
BEST_DESIGN_FILE = "best_design.json"
STATE_FILE = "state.json"


class RunConfigError(InputError, ValueError):
    """Malformed run config, or a resume that does not match its history."""

    def __init__(self, message: str, code: str = "BAD_CONFIG"):
        super().__init__(code, message)


# Runs map many candidate designs per iteration, so their default budget
# trades scheduling depth for pace. map_kernel's own default stays thorough
# for one-off mapping; pass an explicit budget to override either way.
RUN_PLACEMENT_ATTEMPTS = 2_000


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; JSON-loadable, strict about unknown keys."""

    kernel: str
    objective: Objective = Objective(ObjectiveMode.MIN_POWER)
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

    @staticmethod
    def from_json(data: dict) -> "RunConfig":
        """The config a JSON object holds: every key, and every default of
        an absent one, is the dataclasses' own (decode.read_dataclass)."""
        try:
            return read_dataclass(RunConfig, data, RunConfigError)
        except SelectionConfigError as e:
            raise RunConfigError(str(e), e.code) from None

    def to_header_dict(self) -> dict:
        """Config as recorded in the run header: the config's JSON form
        without the iteration target, on purpose: extending a run is not a
        config change."""
        header = json_form(self)
        del header["iterations"]
        return header


#: The settings of every history line: those of json.dumps(...,
#: sort_keys=True).
_LINE_ENCODER = json.JSONEncoder(sort_keys=True)


def _line_encoder():
    """_LINE_ENCODER.encode, whose every call builds a C encoder, as one
    prebuilt C encoder with its settings and no circular-reference markers
    (records are trees of fresh dicts and lists); without json's C
    accelerator, _LINE_ENCODER.encode itself."""
    make = json.encoder.c_make_encoder
    if make is None:
        return _LINE_ENCODER.encode
    e = _LINE_ENCODER
    chunks = make(None, e.default, json.encoder.encode_basestring_ascii, e.indent, e.key_separator,
                  e.item_separator, e.sort_keys, e.skipkeys, e.allow_nan)
    return lambda record: "".join(chunks(record, 0))


class History:
    """Append-only JSONL event log with a monotone sequence number.

    Records are appended through one handle, open while the log is used as
    a context manager (`with history:`), a block at a time: the run header
    alone, then each iteration's records once the iteration is complete.
    A block is one write and one flush, so the file always ends with the
    last block appended, and an iteration that raises, or is killed before
    its block is written, leaves nothing of itself behind; a kill during
    the write leaves a partial block, which a resume cuts. Each line is
    the record as json.dumps(record, sort_keys=True) writes it, encoded by
    one encoder with those settings, built with the log. It keeps the size
    and a running sha256 of its bytes, for the run's checkpoint."""

    def __init__(self, path: Path, seq: int = 0):
        self.path = path
        self.seq = seq
        self.size = 0
        self.sha = hashlib.sha256()
        self._fh = None
        self._encode = _line_encoder()

    def __enter__(self) -> "History":
        self._fh = self.path.open("ab")
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()
        self._fh = None

    def append(self, records: list[dict]) -> None:
        """Write records as one block, each on its own line with the
        schema version and the next sequence number, which are set on the
        record itself: records are fresh dicts, each appended once, and the
        caller's copy then equals the line read back."""
        encode = self._encode
        lines = []
        for record in records:
            self.seq += 1
            record["schema_version"] = SCHEMA_VERSION
            record["seq"] = self.seq
            lines += encode(record), "\n"
        block = "".join(lines).encode()
        self._fh.write(block)
        self._fh.flush()
        self.size += len(block)
        self.sha.update(block)


def read_history(path: Path, start: int = 0, seq: int = 0, data: bytes | None = None,
                 ends: list[int] | None = None) -> list[dict]:
    """The events of a history file from byte offset `start` on, where the
    events before `start` end at sequence number `seq`. `data` holds the
    file's bytes if the caller has read them already; `ends`, if given,
    receives the offset just past each event's line. A last line without
    its newline was torn by a kill mid-write and is left out; any other
    bad line raises, naming the file and line."""
    data = path.read_bytes() if data is None else data
    events: list[dict] = []
    pos = start
    while (end := data.find(b"\n", pos)) >= 0:
        line, pos = data[pos:end], end + 1
        if not line.strip():
            continue
        try:
            rec = json.loads(line.decode("utf-8"))
        except ValueError as e:  # a JSON or a UTF-8 decoding error
            raise RunConfigError(f"{path}:{data.count(10, 0, end) + 1}: invalid history line: {e}") from None
        if not isinstance(rec, dict):
            raise RunConfigError(f"{path}:{data.count(10, 0, end) + 1}: history line is not an object")
        if rec.get("seq") != seq + len(events) + 1:
            raise RunConfigError(f"{path}:{data.count(10, 0, end) + 1}: history sequence broken")
        events.append(rec)
        if ends is not None:
            ends.append(pos)
    return events


def _design_event(kind: str, it: int, d: DesignPoint) -> dict:
    return {
        "type": kind,
        "iteration": it,
        "design_id": d.id,
        "design": design_dict(d),
        "provenance": PROVENANCE_NAMES[d.provenance],
        "note": d.note,
    }


def _event_design(ev: dict) -> DesignPoint:
    """The design a _design_event (or a record built like one) names."""
    return design_from_dict(ev["design"], ev["design_id"], Provenance[ev["provenance"]], ev["note"])


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


# Eval reports and lessons are written every iteration, so their dicts copy
# the fields with vars(), not dataclasses.asdict, which deep-copies at many
# times the cost. A tuple is written as a list, as JSON reads it back.


def _report_dict(r: EvalReport) -> dict:
    """An eval event's report: the EvalReport's fields but its id."""
    return {k: v for k, v in vars(r).items() if k != "design_id"}


def _lesson_dict(lesson: Lesson) -> dict:
    return {
        **vars(lesson),
        "candidates": [{**vars(lc), "features": list(lc.features)} for lc in lesson.candidates],
    }


def _lesson_from_dict(data: dict) -> Lesson:
    candidates = tuple(LessonCandidate(**{**lc, "features": tuple(lc["features"])}) for lc in data["candidates"])
    return Lesson(**{**data, "candidates": candidates})


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


#: A key that a memo has not seen yet.
_UNCHECKED = object()


def transformed(kernel: KernelGraph, sw: SwParams) -> KernelGraph | TransformError:
    """apply_sw_params(kernel, sw.unroll_factor, sw.vectorize_factor), or
    the TransformError it raises, kept in kernel.derived (see
    check_design)."""
    key = (sw.unroll_factor, sw.vectorize_factor)
    tk = kernel.derived.get(key, _UNCHECKED)
    if tk is _UNCHECKED:
        try:
            tk = apply_sw_params(kernel, *key)
        except TransformError as e:
            tk = e.with_traceback(None)  # its frames would hold the kernel
        kernel.derived[key] = None if tk is kernel else tk
    return kernel if tk is None else tk


def check_design(kernel: KernelGraph, design: DesignPoint, budget: MapBudget) -> FixableError | MappedDesign:
    """A design's verdict, for run's repair loop and cli's map and evaluate
    alike: structural validation, the loop transforms, then map_kernel; the
    first stage's error, or the mapping with its speedup if all pass.

    The transform of each (unroll, vectorize), or its error, is kept in
    kernel.derived. The runs of a process that load one kernel content
    share one kernel object (load_kernel), so each setting is transformed
    once, and every shape of it maps one transformed kernel object, whose
    tables and searches the mapper keeps. Nothing kept refers back to the
    kernel, so it goes when its last user lets go: the identity transform
    is kept as None, an error without its traceback."""
    violations = validate_design(design)
    if violations:
        return violations
    tk = transformed(kernel, design.sw)
    if isinstance(tk, TransformError):
        return tk
    m = map_kernel(tk, design.fabric, budget)
    if isinstance(m, MapError):
        return m
    return MappedDesign(design, m, tk.trip_count, compute_speedup(kernel, m, tk.trip_count))


@dataclass
class RunResult:
    metrics: dict
    best: BestRecord | None
    out_dir: Path
    history_path: Path
    metrics_path: Path
    best_design_path: Path | None


_COUNTERS = ("tool_rounds", "llm_rounds", "drafts_total", "mapped_pre_total", "mapped_post_total")


class _Runner:
    def __init__(self, cfg: RunConfig, out_dir: Path):
        self.cfg = cfg
        with about(f"kernel {cfg.kernel!r}"):
            self.kernel: KernelGraph = load_kernel(cfg.kernel)
        self.ksum = summarize(self.kernel)
        with about(f"cost coefficients {cfg.cost_coeffs!r}"):
            self.coeffs: CostCoeffs = load_cost_coeffs(cfg.cost_coeffs)
        self.history = History(out_dir / HISTORY_FILE)
        self.agent = make_fine_judge(cfg.backend, cfg.objective, cfg.seed)
        # The run state: written only by _apply.
        self.sel_state = SelectionState(confidence=cfg.selection.initial_confidence)
        self.outcomes: list[DesignOutcome] = []
        self.best: BestRecord | None = None
        self.iter_entries: list[dict] = []
        # The text of the first n entries as metrics.json holds them, and n.
        self.iter_text: tuple[str, int] = ("", 0)
        self.tool_rounds = 0
        self.llm_rounds = 0
        self.drafts_total = 0
        self.mapped_pre_total = 0
        self.mapped_post_total = 0
        self._verdicts: dict[tuple, FixableError | MappedDesign] = {}

    # ----- shared checking -------------------------------------------------

    def _check(self, d: DesignPoint) -> FixableError | None:
        """The repair loop's oracle: check_design, memoized per design_key
        for the run. The verdict reads only the design's file-visible
        fields (its shape, FU kinds and config memory depth) and the run's
        kernel and budget, never its id or note, so each distinct design is
        checked once and a repeated draft costs one lookup. A design that
        passed keeps its mapping, for _mapped."""
        key = design_key(d)
        verdict = self._verdicts.get(key, _UNCHECKED)
        if verdict is _UNCHECKED:
            verdict = self._verdicts[key] = check_design(self.kernel, d, self.cfg.budget)
        return None if type(verdict) is MappedDesign else verdict

    def _mapped(self, d: DesignPoint) -> MappedDesign:
        """The mapping of a design that _check passed, as d's own."""
        v = self._verdicts[design_key(d)]
        return MappedDesign(design=d, mapping=v.mapping, trip_after=v.trip_after, speedup=v.speedup)

    # ----- live iteration ---------------------------------------------------

    def run_iteration(self, it: int) -> None:
        """Do one iteration's work, then log its events in one block; the
        run state takes them in through the fold, with the designs the
        events log as the objects that were logged."""
        cfg = self.cfg
        events: list[dict] = []
        designs: list[DesignPoint] = []  # one per proposal and fix event, in event order

        req = ProposalRequest(
            kernel=self.ksum,
            objective=cfg.objective,
            history_window=tuple(self.outcomes[-cfg.history_window:]),
            count=cfg.proposals_per_iteration,
            bounds=DesignSpaceBounds(),
        )
        drafts = [
            DesignPoint(fabric=d.fabric, sw=d.sw, id=f"i{it:03d}c{k:02d}", provenance=d.provenance, note=d.note)
            for k, d in enumerate(propose(req, self.agent))
        ]

        mapped: list[MappedDesign] = []
        for d in drafts:
            events.append(_design_event("proposal", it, d))
            designs.append(d)
            err = self._check(d)
            if err is None:
                m = self._mapped(d)
                events.append(_map_ok_event(it, m))
                mapped.append(m)
                continue
            events.append(_failure_event(it, d.id, err))
            fixed = fix_design(d, err, self.agent, self._check, max_rounds=cfg.max_fix_rounds)
            if isinstance(fixed, FixFailure):
                designs.append(fixed.design)
                events.append(
                    {
                        **_design_event("fix", it, fixed.design),
                        "ok": False,
                        "rounds": fixed.rounds,
                        "error": error_payload(fixed.error),
                    }
                )
            else:
                m = self._mapped(fixed)
                designs.append(fixed)
                rounds = fixed.note.count("repair:") - d.note.count("repair:")
                events.append({**_map_ok_event(it, m), **_design_event("fix", it, fixed), "rounds": rounds})
                mapped.append(m)

        events += self._select(it, mapped) if mapped else [{"type": "iteration_empty", "iteration": it}]
        self.history.append(events)
        self._fold(it, events, designs)

    def _select(self, it: int, mapped: list[MappedDesign]) -> list[dict]:
        """Screen the mapped candidates to the top-K and let the controller
        pick one; returns the selection_step event and the eval events. A
        TOOL round's reports are its evals and teach the judge a lesson; an
        LLM round evaluates its pick alone."""
        cfg = self.cfg
        top = coarse_judge(mapped, cfg.top_k, self.agent)

        def tool_round() -> ToolRound:
            reports = tuple(tool_evaluate(top, cfg.objective, self.coeffs))
            return ToolRound(reports, *tool_select(reports))

        _, rec, round_ = select_step(self.sel_state, cfg.selection, lambda: llm_select(top, self.agent), tool_round)
        if round_ is None:
            chosen = next(m for m in top if m.design.id == rec.final_choice)
            reports = tool_evaluate([chosen], cfg.objective, self.coeffs)
            lesson = None
        else:
            reports = round_.reports
            lesson = _lesson_dict(llm_update(self.agent, top, reports, round_.choice, rec.judge_choice))
        step = {
            "type": "selection_step",
            "iteration": it,
            "candidates": [m.design.id for m in top],
            "trace": rec.to_dict(),
            "lesson": lesson,
        }
        return [step] + [
            {"type": "eval", "iteration": it, "design_id": r.design_id, "report": _report_dict(r)} for r in reports
        ]

    # ----- the fold -----------------------------------------------------------

    def _apply(self, it: int, events: list[dict]) -> None:
        """Fold one complete logged iteration into the run state, with each
        design decoded from its event."""
        self._fold(it, events, [_event_design(ev) for ev in events if ev["type"] in ("proposal", "fix")])

    def _fold(self, it: int, events: list[dict], logged: list[DesignPoint]) -> None:
        """Fold one complete iteration's events into the run state; `logged`
        holds the design of each proposal and fix event, in event order.
        Live and resumed runs both come through here, and nothing else
        writes the outcomes, SR counters, best-so-far, iteration entries,
        controller state or the judge's lessons."""
        logged = iter(logged)
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
                designs[did] = next(logged)
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
                    self.agent.replay(_lesson_from_dict(ev["lesson"]))
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
        del self.outcomes[: -self.cfg.history_window]  # proposals see only this window
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

    # ----- resume -------------------------------------------------------------

    def resume(self) -> int:
        """Rebuild the run state from the history file, read once, cut the
        file back to its last complete iteration, and return that iteration.
        Only the events after the checkpoint's prefix are folded, or all of
        them if there is no checkpoint to restore."""
        data = self.history.path.read_bytes()
        done, seq, start, sha = self._restore_checkpoint(data)
        ends: list[int] = []
        events = read_history(self.history.path, start, seq, data, ends)
        if start:
            events.insert(0, json.loads(data[: data.index(b"\n")]))  # the run header
        done = self.replay(events, done, seq)
        kept = self.history.seq - seq  # events kept after `start`: no unfinished iteration, no torn line
        cut = ends[kept - 1] if kept else start
        os.truncate(self.history.path, cut)
        sha.update(data[start:cut])
        self.history.size, self.history.sha = cut, sha
        return done

    def _restore_checkpoint(self, data: bytes):
        """Restore the checkpoint beside the history if it covers a prefix of
        `data` (same length and sha256); return its iterations, seq, length
        and that prefix's sha256. It is a cache: one that is missing, torn,
        of another schema or of other bytes gives (0, 0, 0, sha256())."""
        try:
            state = json.loads(self.history.path.with_name(STATE_FILE).read_bytes())
            size, seq = state["bytes"], state["seq"]
            ints = all(type(state[k]) is int for k in ("bytes", "seq", "iterations"))
            if ints and state["schema_version"] == SCHEMA_VERSION and 0 < size <= len(data):
                sha = hashlib.sha256(memoryview(data)[:size])
                if sha.hexdigest() == state["sha256"]:
                    return self.restore(state), seq, size, sha
        except (OSError, ValueError, LookupError, TypeError):
            pass
        return 0, 0, 0, hashlib.sha256()

    def replay(self, events: list[dict], done: int = 0, seq: int = 0) -> int:
        """Rebuild runner state through the fold; returns the last complete
        iteration. `events` is the whole log, or the run header and the
        events after a restored checkpoint of `done` iterations ending at
        `seq`. An unfinished last iteration is left out and History.seq set
        to the last event kept, so that the caller can cut the file back and
        run that iteration again. A log with no whole record (a kill tore
        the header line) rebuilds nothing: the file is cut back to empty and
        the run starts afresh."""
        if not events:
            return 0
        if events[0].get("type") != "run_header":
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
            elif it == (groups[-1][0] + 1 if groups else done + 1):
                groups.append((it, [ev]))
            else:
                raise RunConfigError(f"history iterations are not contiguous at iteration {it}")

        for it, evts in groups:
            try:
                closed = _closed(evts)
                if closed:
                    self._apply(it, evts)
            except (AttributeError, LookupError, TypeError, ValueError) as e:
                seqs = f"{evts[0]['seq']}-{evts[-1]['seq']}"
                raise RunConfigError(f"{self.history.path}: bad event in iteration {it} (seq {seqs}): {e!r}") from None
            if not closed:
                if it != groups[-1][0]:
                    raise RunConfigError(f"history iteration {it} is incomplete")
                groups.pop()
        self.history.seq = groups[-1][1][-1]["seq"] if groups else seq or events[0]["seq"]
        return done + len(groups)

    # ----- checkpoint -----------------------------------------------------------

    def checkpoint(self) -> dict:
        """The run state, tied to the history bytes folded into it by their
        length and sha256, and to the last metrics_text's entries by theirs.
        Floats round-trip exactly through JSON repr."""
        h, best = self.history, self.best
        return {
            "schema_version": SCHEMA_VERSION, "bytes": h.size, "sha256": h.sha.hexdigest(), "seq": h.seq,
            "iterations": len(self.iter_entries), "sel_state": json_form(self.sel_state),
            "iterations_sha256": hashlib.sha256(self.iter_text[0].encode()).hexdigest(),
            "theta": self.agent.theta,
            "lessons": [_lesson_dict(lesson) for lesson in self.agent.lessons],
            "outcomes": [{**_design_event("outcome", o.iteration, o.design), "score": o.score,
                          "feasible": o.feasible, "error_code": o.error_code} for o in self.outcomes],
            "best": best and {**_design_event("best", best.iteration, best.design), "report": best.report},
            **{name: getattr(self, name) for name in _COUNTERS},
        }

    def restore(self, state: dict) -> int:
        """Take the run state from a checkpoint, and its iteration entries
        from the metrics.json beside it; return its iterations. All of it is
        decoded and checked before any is set, so a failed restore sets none."""
        text = _iterations_text(self.history.path.with_name(METRICS_FILE).read_text(encoding="utf-8"))
        entries = json.loads(f"[{text}]")
        if len(entries) != state["iterations"] or hashlib.sha256(text.encode()).hexdigest() != state["iterations_sha256"]:
            raise ValueError("metrics.json does not hold the checkpoint's iterations")
        best = state["best"]
        fields = {
            "sel_state": SelectionState(**state["sel_state"]),
            "outcomes": [DesignOutcome(o["iteration"], _event_design(o), o["score"], o["feasible"], o["error_code"])
                         for o in state["outcomes"]],
            "best": best and BestRecord(best["design_id"], best["iteration"], _event_design(best), best["report"]),
            "iter_entries": entries,
            "iter_text": (text, len(entries)),
            **{name: state[name] for name in _COUNTERS},
        }
        self.agent.restore(list(state["theta"]), [_lesson_from_dict(lesson) for lesson in state["lessons"]])
        vars(self).update(fields)
        return state["iterations"]

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
            "objective": json_form(cfg.objective),
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

    def metrics_text(self, metrics: dict) -> str:
        """json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding only
        the iteration entries added since the restore, after the restored
        ones' text; keeps the text of all of them, for the checkpoint."""
        carried, n = self.iter_text
        text = json.dumps({**metrics, "iterations": metrics["iterations"][n:]}, indent=2, sort_keys=True) + "\n"
        if n:
            at = text.index(_ITERATIONS) + len(_ITERATIONS)
            text = text[:at] + carried + ("\n  " if text[at] == "]" else ",") + text[at:]
        self.iter_text = (_iterations_text(text), len(metrics["iterations"]))
        return text


#: Where metrics.json's "iterations" array opens: json.dumps(indent=2) puts
#: each top-level key, and the close of the one top-level list, on a line
#: of its own two spaces in, and no string holds a raw newline.
_ITERATIONS = '\n  "iterations": ['


def _iterations_text(text: str) -> str:
    """The text between the brackets of a metrics text's "iterations"."""
    at = text.index(_ITERATIONS) + len(_ITERATIONS)
    return "" if text[at] == "]" else text[at:text.index("\n  ]", at)]


def iteration_line(entry: dict) -> str:
    """One iteration's entry of the metrics as a line of text: drafts,
    mapped before repair, mapped by repair, selection mode, best score so
    far. `report` prints it and `run` logs it."""
    best = "-" if entry["best_so_far"] is None else f"{entry['best_so_far']:.6g}"
    return (
        f"it {entry['iteration']:>3}: mapped {entry['mapped_pre']}/{entry['proposals']} "
        f"(+repair {entry['mapped_post'] - entry['mapped_pre']}) mode={entry['mode'] or '-'} best={best}"
    )


def _progress_log():
    """This module's logger when it logs INFO, else None. A process that
    never imported logging cannot have turned INFO on, so a run does not
    import it just to find that out."""
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger(__name__)
    return log if log.isEnabledFor(logging.INFO) else None


def _write_atomic(path: Path, text: str) -> None:
    """Replace `path` with `text` through a temp file beside it, renamed
    over the old file, so that a reader (or a kill) sees the old file or
    the new one, never a mix or neither. metrics.json and best_design.json
    are written so, since readers outside the run rely on it."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_checkpoint(path: Path, text: str) -> None:
    """Write state.json through a temp file beside it, renamed into place
    once the old file is removed, so a kill leaves the old checkpoint, the
    new one or none, never a torn one. A rename over an existing file makes
    ext4 (auto_da_alloc) start writing back the new data, which the next
    resume replaces moments later; a rename into a free name does not.
    What a rename over the old file adds is a guard against a power loss,
    which README puts out of scope (no file is fsynced); and a missing
    state.json is ignored: the resume folds the whole log and writes the
    same bytes."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    os.rename(tmp, path)


def _write_if_changed(path: Path, text: str) -> None:
    """_write_atomic, unless `path` already holds exactly `text`."""
    try:
        if path.read_bytes() == text.encode():
            return
    except OSError:
        pass
    _write_atomic(path, text)


def run(cfg: RunConfig, out_dir: str | Path, resume: bool = False) -> RunResult:
    """Execute (or extend) a run, leaving history.jsonl, metrics.json, and
    best_design.json in out_dir. With INFO on for this module's logger,
    each finished iteration logs its iteration_line. The directory is
    made only once the kernel and cost coefficients have loaded and the
    resume check has passed, so bad input leaves nothing behind."""
    out = Path(out_dir)
    hist_path = out / HISTORY_FILE
    started_at = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()

    runner = _Runner(cfg, out)
    start_iter = 1
    if hist_path.exists() and hist_path.stat().st_size > 0:
        if not resume:
            raise RunConfigError(f"{hist_path} already exists; resume the run or pick a fresh directory")
        start_iter = runner.resume() + 1
    elif resume and not hist_path.exists():  # an empty one, killed before its header, starts afresh
        raise RunConfigError(f"cannot resume: no history at {hist_path}")
    out.mkdir(parents=True, exist_ok=True)

    with runner.history:
        if runner.history.seq == 0:  # a fresh log starts with its header
            runner.history.append([{"type": "run_header", "config": cfg.to_header_dict()}])
        log = _progress_log()
        for it in range(start_iter, cfg.iterations + 1):
            runner.run_iteration(it)
            if log is not None:
                log.info("%s", iteration_line(runner.iter_entries[-1]))

    metrics = runner.build_metrics(started_at, time.monotonic() - t0)
    metrics_path = out / METRICS_FILE
    _write_atomic(metrics_path, runner.metrics_text(metrics))

    best_path = None
    if runner.best is not None:
        best_path = out / BEST_DESIGN_FILE
        _write_if_changed(best_path, serialize_design(runner.best.design))
    _write_checkpoint(out / STATE_FILE, json.dumps(runner.checkpoint(), sort_keys=True) + "\n")

    return RunResult(
        metrics=metrics,
        best=runner.best,
        out_dir=out,
        history_path=hist_path,
        metrics_path=metrics_path,
        best_design_path=best_path,
    )
