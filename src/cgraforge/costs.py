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

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

from .arch import DesignPoint, FuKind, Topology
from .decode import Fields, InputError, field_names, loads, member, package_text, read_text
from .mapper import MappedDesign, MappingResult

#: Penalty floor for infeasible designs; any feasible score is far below it.
BIG = 1.0e6


class ObjectiveMode(Enum):
    MIN_POWER = "MIN_POWER"
    MAX_POWER_EFFICIENCY = "MAX_POWER_EFFICIENCY"

    @classmethod
    def parse(cls, token: str) -> "ObjectiveMode":
        return member(cls, token, EvalError, "objective")


@dataclass(frozen=True)
class Objective:
    mode: ObjectiveMode
    min_speedup: float = 1.5

    def __post_init__(self) -> None:
        if not math.isfinite(self.min_speedup):
            raise EvalError("BAD_MIN_SPEEDUP", f"min_speedup={self.min_speedup} must be finite")
        if self.min_speedup <= 0:
            raise EvalError("BAD_MIN_SPEEDUP", f"min_speedup={self.min_speedup} must be positive")


class EvalError(InputError):
    """Bad objective or cost model input, or evaluation misuse."""


class CostConfigError(EvalError):
    """Bad cost coefficient file (missing kind, non-positive value, ...)."""


@dataclass(frozen=True)
class CostCoeffs:
    """The cost model's constants; the tables are read-only mappings, so a
    loaded object can be shared."""

    fu_power_mw: Mapping[FuKind, float]
    fu_area_kum2: Mapping[FuKind, float]
    tile_base_power_mw: float
    tile_base_area_kum2: float
    ctx_power_mw: float
    ctx_area_kum2: float
    data_mem_area_kum2_per_kb: float
    wiring_mult: Mapping[Topology, float]
    lane_power_slope: float
    lane_area_slope: float
    activity_power_mw_per_op: float

    @cached_property
    def kind_sums(self) -> dict[frozenset[FuKind], tuple[float, float]]:
        """Kind set -> (sum of fu_power_mw, sum of fu_area_kum2) over it, in
        name order, filled by estimate_ppa. Its keys are subsets of the
        closed FuKind set, so it holds at most 4 096 entries. Not a field,
        so equality and repr ignore it."""
        return {}


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
    """Load coefficients from `path`, read on every call, or the packaged
    defaults when None, read once per process. Equal texts give one shared
    object while they are among the last COST_TEXTS_KEPT loaded, as in
    load_kernel."""
    if path is None:
        text = package_text("cgraforge.data", "cost_coeffs.json")
    else:
        text = read_text(path, CostConfigError)
    return _parsed_coeffs(text)


COST_TEXTS_KEPT = 4


@lru_cache(maxsize=COST_TEXTS_KEPT)  # a text that fails to parse raises and is not kept
def _parsed_coeffs(text: str) -> CostCoeffs:
    f = Fields(loads(text, CostConfigError), CostConfigError, field_names(CostCoeffs))

    def table(key: str, cls: type[Enum], positive: bool) -> Mapping:
        t = f.object(key, cls.__members__)
        return MappingProxyType({m: float(t.number(m.name, positive=positive)) for m in cls})

    def scalar(key: str) -> float:
        return float(f.number(key, positive=True))

    wiring = table("wiring_mult", Topology, positive=False)
    if not (0 < wiring[Topology.MESH] < wiring[Topology.KINGMESH] < wiring[Topology.CROSSBAR]):
        raise CostConfigError("BAD_VALUE", "wiring_mult must satisfy MESH < KINGMESH < CROSSBAR, all > 0")
    return CostCoeffs(
        fu_power_mw=table("fu_power_mw", FuKind, positive=True),
        fu_area_kum2=table("fu_area_kum2", FuKind, positive=True),
        tile_base_power_mw=scalar("tile_base_power_mw"),
        tile_base_area_kum2=scalar("tile_base_area_kum2"),
        ctx_power_mw=scalar("ctx_power_mw"),
        ctx_area_kum2=scalar("ctx_area_kum2"),
        data_mem_area_kum2_per_kb=scalar("data_mem_area_kum2_per_kb"),
        wiring_mult=wiring,
        lane_power_slope=scalar("lane_power_slope"),
        lane_area_slope=scalar("lane_area_slope"),
        activity_power_mw_per_op=scalar("activity_power_mw_per_op"),
    )


def estimate_ppa(d: DesignPoint, m: MappingResult, c: CostCoeffs) -> tuple[float, float]:
    """(power_mw, area_kum2) for a mapped design; see module docstring."""
    nodes_scheduled, ii = len(m.schedule), m.ii
    f = d.fabric
    lanes = d.sw.vectorize_factor
    lane_p = 1.0 + c.lane_power_slope * (lanes - 1)
    lane_a = 1.0 + c.lane_area_slope * (lanes - 1)
    wiring = c.wiring_mult[f.topology]
    sums = c.kind_sums.get(f.fu_kinds)
    if sums is None:
        kinds = sorted(f.fu_kinds, key=lambda k: k.name)
        sums = c.kind_sums[f.fu_kinds] = (sum(c.fu_power_mw[k] for k in kinds), sum(c.fu_area_kum2[k] for k in kinds))
    tile_power = c.tile_base_power_mw + sums[0] * lane_p
    tile_area = c.tile_base_area_kum2 + sums[1] * lane_a
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


def tool_evaluate(cands: Sequence[MappedDesign], obj: Objective, coeffs: CostCoeffs) -> list[EvalReport]:
    """Authoritative evaluation of mapped candidates, in input order. The
    speedup is each candidate's own (MappedDesign.speedup, which the mapper's
    speedup() gave), and power and area come from the surrogate.

    Raises EvalError(EVAL_ON_UNMAPPED) if any candidate lacks a mapping; the
    staged pipeline must never let unmapped designs reach evaluation.
    """
    reports = []
    for cand in cands:
        if cand.mapping is None:
            raise EvalError("EVAL_ON_UNMAPPED", f"design {cand.design.id} has no mapping")
        sp = cand.speedup
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
