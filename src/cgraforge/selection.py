"""Adaptive-confidence selection: when to trust the judge, when to pay for
the tool.

Each iteration runs in one of two modes. TOOL mode runs the full evaluator,
takes its choice as final, measures how close the judge's score estimate
came, and folds that similarity into an exponential moving average of
confidence. LLM mode skips the evaluator and takes the judge's choice
directly, leaving confidence untouched. TOOL mode triggers whenever
confidence sits below the threshold, and unconditionally on every
validation_interval-th iteration so a drifting judge is always caught.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .costs import EvalReport
from .decode import Fields, InputError, read_dataclass

#: Relative similarity scale used when sigma is not pinned in config: the
#: score gap is measured against 20% of the tool score's magnitude.
RELATIVE_SIGMA_FRACTION = 0.2
SIGMA_FLOOR = 1e-6


class SelectionConfigError(InputError, ValueError):
    """Malformed selection config or simulation script."""

    def __init__(self, message: str, code: str = "BAD_VALUE"):
        super().__init__(code, message)


@dataclass(frozen=True)
class SelectionConfig:
    """The controller's settings. Read from JSON (from_dict), numbers keep
    their JSON type: an int alpha stays an int."""

    conf_threshold: int | float = 0.7
    validation_interval: int = 5
    alpha: int | float = 0.3
    sigma: int | float | None = None
    initial_confidence: int | float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.conf_threshold <= 1.0):
            raise SelectionConfigError(f"conf_threshold={self.conf_threshold} outside [0, 1]")
        if self.validation_interval < 1:
            raise SelectionConfigError(f"validation_interval={self.validation_interval} must be >= 1")
        if not (0.0 < self.alpha <= 1.0):
            raise SelectionConfigError(f"alpha={self.alpha} outside (0, 1]")
        if self.sigma is not None and not 0.0 < self.sigma < math.inf:
            raise SelectionConfigError(f"sigma={self.sigma} must be positive and finite")
        if not (0.0 <= self.initial_confidence <= 1.0):
            raise SelectionConfigError(f"initial_confidence={self.initial_confidence} outside [0, 1]")

    @staticmethod
    def from_dict(data: dict) -> "SelectionConfig":
        return read_dataclass(SelectionConfig, data, SelectionConfigError, "selection")


@dataclass(frozen=True)
class SelectionState:
    iteration: int = 0
    confidence: float = 0.0


@dataclass(frozen=True)
class TraceRecord:
    """One controller step, fully serializable for history and audit."""

    iteration: int
    mode: str  # "TOOL" or "LLM"
    judge_choice: str
    judge_score: float
    tool_choice: str | None
    tool_score: float | None
    similarity: float | None
    confidence_before: float
    confidence_after: float
    final_choice: str

    def to_dict(self) -> dict:
        """The record's fields as a fresh dict; TraceRecord(**d) reads one
        back. Not dataclasses.asdict, which deep-copies at several times
        the cost, once per iteration."""
        return dict(vars(self))


@dataclass(frozen=True)
class ToolRound:
    """Everything one tool invocation produced: the per-candidate reports
    plus the tool's pick and its score."""

    reports: tuple[EvalReport, ...]
    choice: str
    score: float


def effective_sigma(cfg: SelectionConfig, tool_score: float) -> float:
    if cfg.sigma is not None:
        return cfg.sigma
    return max(SIGMA_FLOOR, RELATIVE_SIGMA_FRACTION * abs(tool_score))


def select_step(
    state: SelectionState,
    cfg: SelectionConfig,
    judge_select: Callable[[], tuple[str, float]],
    tool_round: Callable[[], ToolRound],
) -> tuple[SelectionState, TraceRecord, ToolRound | None]:
    """Run one controller iteration.

    judge_select is always consulted; tool_round only in TOOL mode.
    Returns (new state, trace record, the tool round, or None in LLM
    mode): the caller reads the round's reports and the judge learns from
    them.
    """
    it = state.iteration + 1
    use_tool = state.confidence < cfg.conf_threshold or it % cfg.validation_interval == 0
    judge_choice, judge_score = judge_select()

    round_ = tool_round() if use_tool else None
    if round_ is None:
        similarity = None
        confidence = state.confidence
    else:
        sigma = effective_sigma(cfg, round_.score)
        similarity = math.exp(-abs(judge_score - round_.score) / sigma)
        confidence = cfg.alpha * similarity + (1.0 - cfg.alpha) * state.confidence
    record = TraceRecord(
        iteration=it,
        mode="LLM" if round_ is None else "TOOL",
        judge_choice=judge_choice,
        judge_score=judge_score,
        tool_choice=None if round_ is None else round_.choice,
        tool_score=None if round_ is None else round_.score,
        similarity=similarity,
        confidence_before=state.confidence,
        confidence_after=confidence,
        final_choice=judge_choice if round_ is None else round_.choice,
    )
    return SelectionState(iteration=it, confidence=confidence), record, round_


@dataclass(frozen=True)
class SimStep:
    t_score: float
    l_score: float


def load_sim_script(data: dict) -> tuple[SelectionConfig, list[SimStep]]:
    """Decode a scripted controller run: {"selection": {...}, "steps":
    [{"t_score": x, "l_score": y}, ...]}."""
    f = Fields(data, SelectionConfigError, ("selection", "steps"))
    cfg = SelectionConfig.from_dict(data.get("selection", {}))
    steps = [read_dataclass(SimStep, s, SelectionConfigError, f"steps[{i}]") for i, s in enumerate(f.array("steps"))]
    if not steps:
        raise SelectionConfigError("script needs a non-empty steps list")
    return cfg, steps


def run_selection(cfg: SelectionConfig, steps: Sequence[SimStep]) -> list[TraceRecord]:
    """Drive the controller over scripted scores (no designs, no evaluator);
    used by the select-sim command and the controller's own tests."""
    state = SelectionState(confidence=cfg.initial_confidence)
    trace: list[TraceRecord] = []
    for i, step in enumerate(steps):
        label = f"s{i + 1:03d}"
        state, record, _ = select_step(
            state,
            cfg,
            judge_select=lambda lab=label, s=step: (f"{lab}-judge", s.l_score),
            tool_round=lambda lab=label, s=step: ToolRound(reports=(), choice=f"{lab}-tool", score=s.t_score),
        )
        trace.append(record)
    return trace


def trace_to_jsonl(trace: Sequence[TraceRecord]) -> str:
    return "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in trace)
