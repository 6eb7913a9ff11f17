"""Analytic power/area surrogate, objectives, and the tool-side evaluator.

The surrogate is a spreadsheet-style linear model over the fabric structure:

    area  = wiring * (tiles * (tile_base + sum over fu_kinds area[kind] * lane_area_mult)
                      + config_mem_depth * ctx_area * tiles
                      + data_mem_kb * mem_area_per_kb)
    power = wiring * (tiles * (tile_base + sum over fu_kinds power[kind] * lane_power_mult)
                      + config_mem_depth * ctx_power * tiles)
            + activity * (scheduled nodes / II) * lane_power_mult

where wiring is the topology multiplier (MESH < KINGMESH < CROSSBAR, strictly)
and lane multipliers grow linearly in the vectorize factor. Data memory
contributes area only. Every coefficient lives in a JSON config file; nothing
numeric is hard-coded here. The shipped defaults put 3x3 to 4x4 fabrics with
4 to 8 FU kinds in the fraction-of-a-milliwatt to few-milliwatt, tens-of-kum2
band typical for arrays of this class.

Scores are minimized. Infeasible designs (speedup below the objective's
min_speedup) score BIG + shortfall so any feasible design beats them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Sequence

from .arch import DesignPoint, FuKind, Topology
from .kernel import KernelGraph
from .mapper import MappedDesign, MappingResult, speedup as compute_speedup

#: Penalty floor for infeasible designs; any feasible score is far below it.
BIG = 1.0e6


class ObjectiveMode(Enum):
    MIN_POWER = "MIN_POWER"
    MAX_POWER_EFFICIENCY = "MAX_POWER_EFFICIENCY"

    @classmethod
    def parse(cls, token: str) -> "ObjectiveMode":
        normalized = token.strip().upper().replace("-", "_")
        try:
            return cls[normalized]
        except KeyError:
            raise EvalError("UNKNOWN_OBJECTIVE", f"unknown objective {token!r}") from None


@dataclass(frozen=True)
class Objective:
    mode: ObjectiveMode
    min_speedup: float = 1.5

    def __post_init__(self) -> None:
        if not math.isfinite(self.min_speedup):
            raise EvalError("BAD_MIN_SPEEDUP", f"min_speedup={self.min_speedup} must be finite")
        if self.min_speedup <= 0:
            raise EvalError("BAD_MIN_SPEEDUP", f"min_speedup={self.min_speedup} must be positive")


class EvalError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class CostConfigError(EvalError):
    """Bad cost coefficient file (missing kind, non-positive value, ...)."""


@dataclass(frozen=True)
class CostCoeffs:
    fu_power_mw: dict[FuKind, float]
    fu_area_kum2: dict[FuKind, float]
    tile_base_power_mw: float
    tile_base_area_kum2: float
    ctx_power_mw: float
    ctx_area_kum2: float
    data_mem_area_kum2_per_kb: float
    wiring_mult: dict[Topology, float]
    lane_power_slope: float
    lane_area_slope: float
    activity_power_mw_per_op: float


@dataclass(frozen=True)
class EvalReport:
    """Full evaluation of one mapped design under one objective."""

    design_id: str
    speedup: float
    power_mw: float
    area_kum2: float
    power_efficiency: float  # speedup / power_mw, exactly
    score: float
    feasible: bool


def load_cost_coeffs(path: str | Path | None = None) -> CostCoeffs:
    """Load coefficients from `path`, or the packaged defaults when None."""
    if path is None:
        text = resources.files("cgraforge.data").joinpath("cost_coeffs.json").read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise CostConfigError("SYNTAX", f"invalid cost coefficient JSON: {e.msg}") from None
    required = {
        "fu_power_mw",
        "fu_area_kum2",
        "tile_base_power_mw",
        "tile_base_area_kum2",
        "ctx_power_mw",
        "ctx_area_kum2",
        "data_mem_area_kum2_per_kb",
        "wiring_mult",
        "lane_power_slope",
        "lane_area_slope",
        "activity_power_mw_per_op",
    }
    unknown = sorted(set(payload) - required)
    if unknown:
        raise CostConfigError("UNKNOWN_FIELD", f"unknown coefficient field(s): {', '.join(unknown)}")
    missing = sorted(required - set(payload))
    if missing:
        raise CostConfigError("MISSING_FIELD", f"missing coefficient field(s): {', '.join(missing)}")

    def per_kind(key: str) -> dict[FuKind, float]:
        raw = payload[key]
        out = {}
        for kind in FuKind:
            if kind.name not in raw:
                raise CostConfigError("MISSING_FIELD", f"{key} missing kind {kind.name}")
            v = float(raw[kind.name])
            if v <= 0:
                raise CostConfigError("BAD_VALUE", f"{key}[{kind.name}] must be > 0")
            out[kind] = v
        extra = sorted(set(raw) - {k.name for k in FuKind})
        if extra:
            raise CostConfigError("UNKNOWN_FIELD", f"{key} has unknown kind(s): {', '.join(extra)}")
        return out

    def positive(key: str) -> float:
        v = float(payload[key])
        if v <= 0:
            raise CostConfigError("BAD_VALUE", f"{key} must be > 0")
        return v

    wiring_raw = payload["wiring_mult"]
    wiring = {}
    for topo in Topology:
        if topo.name not in wiring_raw:
            raise CostConfigError("MISSING_FIELD", f"wiring_mult missing {topo.name}")
        wiring[topo] = float(wiring_raw[topo.name])
    if not (0 < wiring[Topology.MESH] < wiring[Topology.KINGMESH] < wiring[Topology.CROSSBAR]):
        raise CostConfigError("BAD_VALUE", "wiring_mult must satisfy MESH < KINGMESH < CROSSBAR, all > 0")
    return CostCoeffs(
        fu_power_mw=per_kind("fu_power_mw"),
        fu_area_kum2=per_kind("fu_area_kum2"),
        tile_base_power_mw=positive("tile_base_power_mw"),
        tile_base_area_kum2=positive("tile_base_area_kum2"),
        ctx_power_mw=positive("ctx_power_mw"),
        ctx_area_kum2=positive("ctx_area_kum2"),
        data_mem_area_kum2_per_kb=positive("data_mem_area_kum2_per_kb"),
        wiring_mult=wiring,
        lane_power_slope=positive("lane_power_slope"),
        lane_area_slope=positive("lane_area_slope"),
        activity_power_mw_per_op=positive("activity_power_mw_per_op"),
    )


def estimate_ppa(d: DesignPoint, m: MappingResult, c: CostCoeffs) -> tuple[float, float]:
    """(power_mw, area_kum2) for a mapped design; see module docstring."""
    nodes_scheduled, ii = len(m.schedule), m.ii
    f = d.fabric
    lanes = d.sw.vectorize_factor
    lane_p = 1.0 + c.lane_power_slope * (lanes - 1)
    lane_a = 1.0 + c.lane_area_slope * (lanes - 1)
    wiring = c.wiring_mult[f.topology]
    kinds = sorted(f.fu_kinds, key=lambda k: k.name)
    tile_power = c.tile_base_power_mw + sum(c.fu_power_mw[k] for k in kinds) * lane_p
    tile_area = c.tile_base_area_kum2 + sum(c.fu_area_kum2[k] for k in kinds) * lane_a
    area = wiring * (
        f.tiles * tile_area
        + f.config_mem_depth * c.ctx_area_kum2 * f.tiles
        + f.data_mem_kb * c.data_mem_area_kum2_per_kb
    )
    power = wiring * (f.tiles * tile_power + f.config_mem_depth * c.ctx_power_mw * f.tiles)
    power += c.activity_power_mw_per_op * (nodes_scheduled / ii) * lane_p
    return power, area


def score_point(obj: Objective, speedup_value: float, power_mw: float) -> float:
    """Score under the objective; lower is better."""
    feasible = speedup_value >= obj.min_speedup
    if obj.mode is ObjectiveMode.MIN_POWER:
        if feasible:
            return power_mw
        return BIG + (obj.min_speedup - speedup_value)
    if feasible:
        return -(speedup_value / power_mw)
    return BIG + (obj.min_speedup - speedup_value)


def tool_evaluate(
    cands: Sequence[MappedDesign],
    kernel: KernelGraph,
    obj: Objective,
    coeffs: CostCoeffs,
) -> list[EvalReport]:
    """Authoritative evaluation of mapped candidates, in input order.

    Raises EvalError(EVAL_ON_UNMAPPED) if any candidate lacks a mapping; the
    staged pipeline must never let unmapped designs reach evaluation.
    """
    reports = []
    for cand in cands:
        if cand.mapping is None:
            raise EvalError("EVAL_ON_UNMAPPED", f"design {cand.design.id} has no mapping")
        sp = compute_speedup(kernel, cand.mapping, cand.trip_after)
        power, area = estimate_ppa(cand.design, cand.mapping, coeffs)
        reports.append(
            EvalReport(
                design_id=cand.design.id,
                speedup=sp,
                power_mw=power,
                area_kum2=area,
                power_efficiency=sp / power,
                score=score_point(obj, sp, power),
                feasible=sp >= obj.min_speedup,
            )
        )
    return reports


def tool_select(reports: Sequence[EvalReport]) -> tuple[str, float]:
    """Pick the lowest score; break ties on lexicographically smaller id."""
    if not reports:
        raise EvalError("EMPTY_CANDIDATE_SET", "tool_select needs at least one report")
    best = min(reports, key=lambda r: (r.score, r.design_id))
    return best.design_id, best.score
