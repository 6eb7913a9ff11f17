"""Agent layer: proposal, repair, and judging, in heuristic and LLM flavors.

A run has one agent object, built once by make_fine_judge from the run's
backend, objective and seed; that factory is the only code that reads the
backend kind. The agent plays four roles:

* propose      - draft candidate design points from a kernel summary and
                 recent history,
* fix_design   - iteratively repair a design that failed validation,
                 transformation, or mapping,
* coarse_judge - cheap top-K filter over mapped candidates,
* fine judge   - score estimate and pick among the top-K (the counterpart
                 the selection controller calibrates against the tool), plus
                 a lesson store it learns from.

The heuristic agent (heuristic.HeuristicAgent) is fully deterministic given
the run's seed. The LLM agent (llm.LlmAgent) extends it: it asks the model
first in each role and falls back to the inherited heuristic method on any
transport, parse, or validation failure, so the pipeline never aborts
because an agent misbehaved. Lessons and the learned correction live in the
heuristic part, so both agents learn the same way. Only the LLM backend
imports the LLM module, so a heuristic run never loads it. Agent calls are
issued sequentially in candidate order (the pipeline stays deterministic;
independent calls could be parallelized without changing results). History
and the lesson store have a single writer: the orchestrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Protocol, Sequence, Union

from ..arch import (
    COLS_MAX,
    COLS_MIN,
    ROWS_MAX,
    ROWS_MIN,
    UNROLL_MAX,
    UNROLL_MIN,
    VECTORIZE_MAX,
    VECTORIZE_MIN,
    DesignPoint,
    StructuralViolation,
    Topology,
)
from ..costs import EvalReport, Objective
from ..decode import InputError
from ..kernel import KernelSummary, TransformError
from ..mapper import MapError, MappedDesign

#: Wiring multipliers for the coefficient-free coarse proxy. These are fixed
#: structural constants, deliberately independent of the cost model config.
PROXY_WIRING = {Topology.MESH: 1.0, Topology.KINGMESH: 1.2, Topology.CROSSBAR: 1.5}

#: Lesson store capacity (FIFO eviction): the lessons the LLM judge shows.
LESSON_CAP = 6


class BackendKind(Enum):
    HEURISTIC = "HEURISTIC"
    LLM = "LLM"


@dataclass(frozen=True)
class AgentBackend:
    """Which implementation answers agent calls, and how.

    LLM connection settings fall back to the MALTA_LLM_URL / MALTA_LLM_MODEL
    environment variables; the bearer token is read from MALTA_LLM_TOKEN and
    never appears in config files. timeout_s must be > 0, and temperature
    and max_retries >= 0. Anything else is bad input (InputError, code
    BAD_VALUE): no call could reach the model with it, and the run would
    fall back to the heuristic agent in silence.
    """

    kind: BackendKind = BackendKind.HEURISTIC
    base_url: str | None = None
    model: str | None = None
    temperature: float = 0.2
    timeout_s: float = 30.0
    max_retries: int = 2

    def __post_init__(self):
        if not self.timeout_s > 0:
            raise InputError("BAD_VALUE", f"backend.timeout_s={self.timeout_s} must be > 0")
        for name in ("temperature", "max_retries"):
            value = getattr(self, name)
            if not value >= 0:
                raise InputError("BAD_VALUE", f"backend.{name}={value} must be >= 0")


@dataclass(frozen=True)
class DesignSpaceBounds:
    """Clamp ranges for proposal fields (validity bounds, not preferences)."""

    rows: tuple[int, int] = (ROWS_MIN, ROWS_MAX)
    cols: tuple[int, int] = (COLS_MIN, COLS_MAX)
    config_mem_depth: tuple[int, int] = (1, 32)
    unroll_factor: tuple[int, int] = (UNROLL_MIN, UNROLL_MAX)
    vectorize_factor: tuple[int, int] = (VECTORIZE_MIN, VECTORIZE_MAX)


@dataclass(frozen=True)
class DesignOutcome:
    """What History remembers about one candidate, as shown to agents."""

    iteration: int
    design: DesignPoint
    score: float | None = None
    feasible: bool | None = None
    error_code: str | None = None


@dataclass(frozen=True)
class ProposalRequest:
    kernel: KernelSummary
    objective: Objective
    history_window: tuple[DesignOutcome, ...]
    count: int
    bounds: DesignSpaceBounds = DesignSpaceBounds()


#: Everything the repair loop can be asked to fix.
FixableError = Union[list[StructuralViolation], TransformError, MapError]


@dataclass(frozen=True)
class FixFailure:
    """Repair gave up: the last attempted design and the surviving error."""

    design: DesignPoint
    rounds: int
    error: FixableError


def error_payload(err: FixableError) -> dict:
    """JSON-safe rendering of any fixable error, shared by history events
    and LLM repair prompts."""
    if isinstance(err, list):
        return {
            "type": "structural",
            "violations": [{"code": v.code, "field": v.field, "message": v.message} for v in err],
        }
    if isinstance(err, TransformError):
        return {
            "type": "transform",
            "code": err.code,
            "message": err.message,
            "factor_field": err.factor_field,
            "factor": err.factor,
            "trip_count": err.trip_count,
        }
    if isinstance(err, MapError):
        return {"type": "mapping", "code": err.code, "detail": err.detail, "hint": dict(err.hint)}
    raise TypeError(f"unsupported error type: {type(err).__name__}")


@dataclass(frozen=True)
class LessonCandidate:
    """One candidate inside a lesson: judge inputs plus the tool's answer."""

    design_id: str
    base_score: float
    features: tuple[float, ...]
    tool_score: float


@dataclass(frozen=True)
class Lesson:
    candidates: tuple[LessonCandidate, ...]
    tool_choice: str
    judge_choice: str
    agreed: bool


class Agent(Protocol):
    """The run's one agent: proposer, repairer, coarse ranker and fine judge
    (the score-and-pick counterpart to the tool evaluator), with the lesson
    store and correction `theta` it learns. make_fine_judge builds it."""

    seed: int
    theta: list[float]
    lessons: Sequence[Lesson]

    def propose(self, req: ProposalRequest) -> list[DesignPoint]: ...

    def repair_once(self, d: DesignPoint, err: FixableError) -> DesignPoint: ...

    def coarse_rank(self, cands: Sequence[MappedDesign]) -> list[MappedDesign]:
        """Every candidate, best first."""
        ...

    def select(self, cands: Sequence[MappedDesign]) -> tuple[str, float]: ...

    def lesson(
        self,
        cands: Sequence[MappedDesign],
        reports: Sequence[EvalReport],
        tool_choice: str,
        judge_choice: str,
    ) -> Lesson:
        """The lesson of one tool-validated round, with no side effect."""
        ...

    def replay(self, lesson: Lesson) -> None:
        """Absorb a lesson; the only way lessons enter the judge."""
        ...

    def restore(self, theta: list[float], lessons: Sequence[Lesson]) -> None:
        """Set the learned state, `theta` and `lessons`, from a checkpoint."""


def proxy_score(cand: MappedDesign) -> float:
    """The pinned coarse proxy: mapper speedup over the structural power
    proxy tiles * |fu_kinds| * wiring. Higher is better."""
    f = cand.design.fabric
    return cand.speedup / (f.tiles * len(f.fu_kinds) * PROXY_WIRING[f.topology])


def make_fine_judge(backend: AgentBackend, objective: Objective, seed: int) -> Agent:
    """The run's one agent; the only code that reads backend.kind. An LLM
    backend without a configured endpoint gets the heuristic agent and one
    warning, since none of its calls could reach a model."""
    from .heuristic import HeuristicAgent

    if backend.kind is BackendKind.LLM:
        from . import llm

        if llm.LlmClient(backend).endpoint() is not None:
            return llm.LlmAgent(backend, objective, seed)
        llm.log.warning("%s; the heuristic agent answers every role", llm.NOT_CONFIGURED)
    return HeuristicAgent(objective, seed)


def propose(req: ProposalRequest, agent: Agent) -> list[DesignPoint]:
    """Draft up to req.count design points (placeholder ids; the orchestrator
    assigns run-unique ids). Drafts need not be valid; fields are clamped
    into bounds but cross-field invariants are validation's job."""
    return agent.propose(req)


def fix_design(
    d: DesignPoint,
    err: FixableError,
    agent: Agent,
    check: Callable[[DesignPoint], FixableError | None],
    max_rounds: int,
) -> DesignPoint | FixFailure:
    """Repair loop: apply one repair per round, re-check, stop on success.

    `check` re-runs validation, transforms, and mapping, returning None on
    success or the next error to fix. Repaired designs keep their id and are
    marked REPAIRED with a note chain of applied rules.
    """
    cur, cur_err = d, err
    for _ in range(max_rounds):
        nxt = agent.repair_once(cur, cur_err)
        outcome = check(nxt)
        if outcome is None:
            return nxt
        cur, cur_err = nxt, outcome
    return FixFailure(design=cur, rounds=max_rounds, error=cur_err)


def coarse_judge(cands: Sequence[MappedDesign], k: int, agent: Agent) -> list[MappedDesign]:
    """Top-k mapped candidates, best first. The heuristic agent ranks by
    the pinned proxy (ties on design id); the LLM agent may reorder but is
    validated against the candidate set and falls back to the proxy."""
    return agent.coarse_rank(cands)[:k]


def llm_select(k_designs: Sequence[MappedDesign], judge: Agent) -> tuple[str, float]:
    """The judge's (choice id, score estimate); score semantics match
    tool_select (lower is better, same units)."""
    return judge.select(k_designs)


def llm_update(
    judge: Agent,
    k_designs: Sequence[MappedDesign],
    reports: Sequence[EvalReport],
    tool_choice: str,
    judge_choice: str,
) -> Lesson:
    """The lesson of one tool-validated round, for the history. Building it
    leaves the judge untouched: the run absorbs it when it folds the round's
    events in (Agent.replay)."""
    return judge.lesson(k_designs, reports, tool_choice, judge_choice)
