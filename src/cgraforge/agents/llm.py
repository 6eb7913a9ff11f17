"""LLM-backed agent over an OpenAI-compatible chat completions endpoint.

Connection settings come from the backend record or the MALTA_LLM_URL /
MALTA_LLM_MODEL environment variables; the bearer token is read from
MALTA_LLM_TOKEN only. LlmAgent extends the heuristic agent, and every role
it overrides degrades to the inherited heuristic method on transport,
parse, or validation failure: a flaky endpoint makes a run slower and
noisier, never dead. The HTTP POST function is injectable so tests can fake
the endpoint without a network.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import re
import string
from dataclasses import dataclass
from typing import Callable, Sequence

from ..arch import (
    ArchError,
    DesignPoint,
    FabricSpec,
    FuKind,
    Provenance,
    SwParams,
    Topology,
    design_dict,
    design_key,
)
from ..costs import Objective
from ..decode import json_form, package_text
from ..mapper import MappedDesign
from . import AgentBackend, FixableError, ProposalRequest, error_payload, proxy_score
from .heuristic import HeuristicAgent, clamp_design

log = logging.getLogger(__name__)

ENV_TOKEN = "MALTA_LLM_TOKEN"
ENV_URL = "MALTA_LLM_URL"
ENV_MODEL = "MALTA_LLM_MODEL"

#: (url, payload, headers, timeout_s) -> decoded response body.
PostFn = Callable[[str, dict, dict, float], dict]

_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*\s*\n(.*?)```", re.DOTALL)


NOT_CONFIGURED = f"LLM endpoint not configured (need {ENV_URL} and {ENV_MODEL})"


class LlmError(Exception):
    """Transport, endpoint, or response-shape failure from the LLM layer."""


def _requests_post(url: str, payload: dict, headers: dict, timeout_s: float) -> dict:
    import requests

    resp = requests.post(url, json=payload, headers=headers, timeout=timeout_s)
    resp.raise_for_status()
    return resp.json()


def extract_json(text: str):
    """Parse the model's JSON answer: the last fenced code block if any,
    otherwise the whole text."""
    blocks = _FENCE_RE.findall(text)
    raw = blocks[-1] if blocks else text
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise LlmError(f"response is not valid JSON: {e}") from e


@dataclass
class LlmClient:
    backend: AgentBackend
    post: PostFn | None = None

    def endpoint(self) -> tuple[str, str] | None:
        """The base URL and model, from the backend record or else the
        environment, or None when either is missing."""
        base_url = self.backend.base_url or os.environ.get(ENV_URL)
        model = self.backend.model or os.environ.get(ENV_MODEL)
        return (base_url, model) if base_url and model else None

    def chat(self, prompt: str) -> str:
        endpoint = self.endpoint()
        if endpoint is None:
            raise LlmError(NOT_CONFIGURED)
        base_url, model = endpoint
        url = base_url.rstrip("/") + "/chat/completions"
        payload = {
            "model": model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.backend.temperature,
        }
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(ENV_TOKEN)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        poster = self.post or _requests_post
        last: Exception | None = None
        for _ in range(self.backend.max_retries + 1):
            try:
                body = poster(url, payload, headers, self.backend.timeout_s)
                return body["choices"][0]["message"]["content"]
            except Exception as e:  # noqa: BLE001 - any failure means retry
                last = e
        raise LlmError(f"chat request failed after retries: {last}")


def _render(template_name: str, **subs: str) -> str:
    return string.Template(package_text("cgraforge.data.prompts", template_name)).substitute(**subs)


def _candidate_dict(c: MappedDesign) -> dict:
    return {
        "design_id": c.design.id,
        "design": design_dict(c.design),
        "ii": c.mapping.ii,
        "schedule_len": c.mapping.schedule_len,
        "nodes": len(c.mapping.schedule),
        "trip_after": c.trip_after,
        "speedup": round(c.speedup, 6),
        "proxy_score": round(proxy_score(c), 6),
    }


def _draft_from_entry(entry: object) -> DesignPoint | None:
    """Lenient draft decoding: missing optional fields default, junk entries
    are dropped rather than failing the batch."""
    if not isinstance(entry, dict):
        return None
    try:
        kinds = frozenset(FuKind.parse(str(k)) for k in entry["fu_kinds"])
        fabric = FabricSpec(
            rows=int(entry["rows"]),
            cols=int(entry["cols"]),
            fu_kinds=kinds,
            config_mem_depth=int(entry["config_mem_depth"]),
            data_mem_kb=int(entry.get("data_mem_kb", 0)),
            topology=Topology.parse(str(entry["topology"])),
        )
        sw = SwParams(
            unroll_factor=int(entry.get("unroll_factor", 1)),
            vectorize_factor=int(entry.get("vectorize_factor", 1)),
        )
    except (ArchError, KeyError, TypeError, ValueError, OverflowError):
        return None
    return DesignPoint(fabric=fabric, sw=sw, id="draft", provenance=Provenance.PROPOSED, note="proposal:llm")


class LlmAgent(HeuristicAgent):
    """The heuristic agent with the model asked first in each role.

    Proposal, repair, coarse ranking and selection go to the model, and
    each falls back to the inherited heuristic method when the model's
    answer cannot be used. Lessons and theta are the heuristic judge's, so
    a fallback continues from a calibrated state rather than zero.
    make_fine_judge builds one only when an endpoint is configured.
    """

    def __init__(self, backend: AgentBackend, objective: Objective, seed: int = 0):
        super().__init__(objective, seed)
        self.client = LlmClient(backend)

    def propose(self, req: ProposalRequest) -> list[DesignPoint]:
        """Ask the model for drafts; top up to req.count with heuristic
        drafts (which also covers the total-failure case)."""
        drafts: list[DesignPoint] = []
        try:
            prompt = _render(
                "proposer.txt",
                kernel=json.dumps(dataclasses.asdict(req.kernel), indent=2, sort_keys=True),
                objective=json.dumps(json_form(req.objective), indent=2),
                bounds=json.dumps(dataclasses.asdict(req.bounds), indent=2),
                history=json.dumps(
                    [{**vars(o), "design": design_dict(o.design)} for o in req.history_window], indent=2
                ),
                count=str(req.count),
            )
            data = extract_json(self.client.chat(prompt))
            entries = data.get("designs", []) if isinstance(data, dict) else []
            for entry in entries:
                d = _draft_from_entry(entry)
                if d is not None:
                    drafts.append(clamp_design(d, req.bounds))
        except Exception as e:  # noqa: BLE001 - degrade, never abort the run
            log.warning("LLM proposer failed (%s); falling back to heuristic drafts", e)

        out: list[DesignPoint] = []
        seen: set[tuple] = set()
        for d in drafts + super().propose(req):
            key = design_key(d)
            if key not in seen:
                seen.add(key)
                out.append(d)
            if len(out) == req.count:
                break
        return out

    def repair_once(self, d: DesignPoint, err: FixableError) -> DesignPoint:
        """One model-guided repair step; falls back to the rule table."""
        try:
            prompt = _render(
                "fixer.txt",
                design=json.dumps(design_dict(d), indent=2),
                error=json.dumps(error_payload(err), indent=2),
            )
            data = extract_json(self.client.chat(prompt))
            entry = data.get("design") if isinstance(data, dict) else None
            fixed = _draft_from_entry(entry)
            if fixed is None:
                raise LlmError("repair response has no usable design")
        except Exception as e:  # noqa: BLE001
            log.warning("LLM fixer failed (%s); falling back to heuristic repair", e)
            return super().repair_once(d, err)
        code = "structural" if isinstance(err, list) else err.code
        tag = f"repair:{code}"
        note = f"{d.note};{tag}" if d.note else tag
        return dataclasses.replace(fixed, id=d.id, provenance=Provenance.REPAIRED, note=note)

    def coarse_rank(self, cands: Sequence[MappedDesign]) -> list[MappedDesign]:
        """Model-ordered candidate list, sanitized against the real
        candidate set; ids the model forgot keep their proxy order at the
        tail."""
        fallback = super().coarse_rank(cands)
        try:
            prompt = _render(
                "coarse_judge.txt",
                objective=json.dumps(json_form(self.objective), indent=2),
                candidates=json.dumps([_candidate_dict(c) for c in cands], indent=2),
            )
            data = extract_json(self.client.chat(prompt))
            ranking = data.get("ranking") if isinstance(data, dict) else None
            if not isinstance(ranking, list):
                raise LlmError("ranking response has no id list")
        except Exception as e:  # noqa: BLE001
            log.warning("LLM coarse judge failed (%s); falling back to proxy ranking", e)
            return fallback
        by_id = {c.design.id: c for c in cands}
        out: list[MappedDesign] = []
        for cid in ranking:
            c = by_id.pop(cid, None) if isinstance(cid, str) else None
            if c is not None:
                out.append(c)
        out.extend(c for c in fallback if c.design.id in by_id)
        return out

    def select(self, cands: Sequence[MappedDesign]) -> tuple[str, float]:
        ids = {c.design.id for c in cands}
        try:
            prompt = _render(
                "fine_judge.txt",
                objective=json.dumps(json_form(self.objective), indent=2),
                candidates=json.dumps([_candidate_dict(c) for c in cands], indent=2),
                lessons=json.dumps(
                    [
                        {
                            "tool_choice": les.tool_choice,
                            "judge_choice": les.judge_choice,
                            "agreed": les.agreed,
                            "tool_scores": {lc.design_id: lc.tool_score for lc in les.candidates},
                        }
                        for les in self.lessons
                    ],
                    indent=2,
                ),
            )
            data = extract_json(self.client.chat(prompt))
            if not isinstance(data, dict):
                raise LlmError("selection response is not an object")
            choice, score = data.get("choice"), data.get("score")
            if choice not in ids or not isinstance(score, (int, float)) or isinstance(score, bool):
                raise LlmError("selection response malformed")
            return choice, float(score)
        except Exception as e:  # noqa: BLE001
            log.warning("LLM fine judge failed (%s); falling back to heuristic judge", e)
            return super().select(cands)
