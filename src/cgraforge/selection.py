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

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .costs import EvalReport
from .decode import Fields, InputError

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
    conf_threshold: float = 0.7
    validation_interval: int = 5
    alpha: float = 0.3
    sigma: float | None = None
    initial_confidence: float = 0.0

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
        """Numbers keep their JSON type: an int alpha stays an int."""
        f = Fields(data, SelectionConfigError, [x.name for x in dataclasses.fields(SelectionConfig)], "selection")
        return SelectionConfig(
            conf_threshold=f.number("conf_threshold", SelectionConfig.conf_threshold),
            validation_interval=f.integer("validation_interval", SelectionConfig.validation_interval),
            alpha=f.number("alpha", SelectionConfig.alpha),
            sigma=f.number("sigma", None),
            initial_confidence=f.number("initial_confidence", SelectionConfig.initial_confidence),
        )


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
        return {
            "iteration": self.iteration,
            "mode": self.mode,
            "judge_choice": self.judge_choice,
            "judge_score": self.judge_score,
            "tool_choice": self.tool_choice,
            "tool_score": self.tool_score,
            "similarity": self.similarity,
            "confidence_before": self.confidence_before,
            "confidence_after": self.confidence_after,
            "final_choice": self.final_choice,
        }

    @staticmethod
    def from_dict(data: dict) -> "TraceRecord":
        return TraceRecord(**data)


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
    judge_update: Callable[[ToolRound, str], object] | None = None,
) -> tuple[SelectionState, TraceRecord, object | None]:
    """Run one controller iteration.

    judge_select is always consulted; tool_round only in TOOL mode.
    judge_update, when given, is called after a TOOL round with the round
    and the judge's choice, and whatever it returns (a lesson) is passed
    through to the caller for logging. Returns (new state, trace record,
    lesson or None).
    """
    it = state.iteration + 1
    use_tool = state.confidence < cfg.conf_threshold or it % cfg.validation_interval == 0
    judge_choice, judge_score = judge_select()

    if use_tool:
        round_ = tool_round()
        sigma = effective_sigma(cfg, round_.score)
        similarity = math.exp(-abs(judge_score - round_.score) / sigma)
        confidence = cfg.alpha * similarity + (1.0 - cfg.alpha) * state.confidence
        lesson = judge_update(round_, judge_choice) if judge_update is not None else None
        record = TraceRecord(
            iteration=it,
            mode="TOOL",
            judge_choice=judge_choice,
            judge_score=judge_score,
            tool_choice=round_.choice,
            tool_score=round_.score,
            similarity=similarity,
            confidence_before=state.confidence,
            confidence_after=confidence,
            final_choice=round_.choice,
        )
    else:
        confidence = state.confidence
        lesson = None
        record = TraceRecord(
            iteration=it,
            mode="LLM",
            judge_choice=judge_choice,
            judge_score=judge_score,
            tool_choice=None,
            tool_score=None,
            similarity=None,
            confidence_before=state.confidence,
            confidence_after=confidence,
            final_choice=judge_choice,
        )
    return SelectionState(iteration=it, confidence=confidence), record, lesson


@dataclass(frozen=True)
class SimStep:
    t_score: float
    l_score: float


def load_sim_script(data: dict) -> tuple[SelectionConfig, list[SimStep]]:
    """Decode a scripted controller run: {"selection": {...}, "steps":
    [{"t_score": x, "l_score": y}, ...]}."""
    f = Fields(data, SelectionConfigError, ("selection", "steps"))
    cfg = SelectionConfig.from_dict(data.get("selection", {}))
    steps = [
        SimStep(t_score=float(s.number("t_score")), l_score=float(s.number("l_score")))
        for s in f.objects("steps", ("t_score", "l_score"))
    ]
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
