"""Deterministic agent.

Fully reproducible: every decision is a pure function of the request plus
the run's seed. Proposal randomness is re-derived per iteration from
(seed, iteration), so replaying history never depends on call order or on
how many random draws earlier iterations consumed.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

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
    FabricSpec,
    FuKind,
    Provenance,
    StructuralViolation,
    SwParams,
    Topology,
    design_key,
    fabric_and_sw,
)
from ..costs import BIG, EvalReport, Objective, score_point
from ..kernel import KernelSummary, TransformError
from ..mapper import MapError, MappedDesign
from . import (
    LESSON_CAP,
    PROXY_WIRING,
    DesignOutcome,
    DesignSpaceBounds,
    FixableError,
    Lesson,
    LessonCandidate,
    ProposalRequest,
    proxy_score,
)

#: Multiplier that maps the structural proxy tiles * kinds * wiring onto the
#: rough magnitude of real power numbers, so zero-lesson judge scores start
#: in the tool's units instead of needing the first lessons just to rescale.
JUDGE_POWER_SCALE = 0.03

_SGD_ETA = 0.05
_SGD_LAMBDA = 1e-3

_TOPO_ORDER = (Topology.MESH, Topology.KINGMESH, Topology.CROSSBAR)
_GRID_LADDER = ((2, 2), (3, 3), (4, 4), (2, 4), (3, 2), (4, 3), (5, 4), (6, 6))
_DEPTH_LADDER = (4, 8, 12, 16, 24, 32)
_MEM_LADDER = (4, 8, 16, 32)
_MEM_STEPS = (0, 4, 8, 16, 32, 64)
_RANDOM_DIM_CAP = 6
_RANDOM_NODE_CAP = 32

_MUTATION_FIELDS = (
    "rows",
    "cols",
    "topology",
    "config_mem_depth",
    "fu_kinds",
    "data_mem_kb",
    "unroll_factor",
    "vectorize_factor",
)


def _clampi(v: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, v))


def _clamp_fields(
    b: DesignSpaceBounds, rows: int, cols: int, depth: int, mem: int, unroll: int, vect: int
) -> tuple[int, int, int, int, int, int]:
    """The proposal bounds' one clamp rule: (rows, cols, config_mem_depth,
    data_mem_kb, unroll, vectorize) forced into their ranges. Each clamp is
    _clampi's max(lo, min(hi, v)) written as two comparisons, so lo wins
    when lo > hi, as there."""
    lo, hi = b.rows
    rows = hi if rows >= hi else rows
    rows = rows if rows > lo else lo
    lo, hi = b.cols
    cols = hi if cols >= hi else cols
    cols = cols if cols > lo else lo
    lo, hi = b.config_mem_depth
    depth = hi if depth >= hi else depth
    depth = depth if depth > lo else lo
    lo, hi = b.unroll_factor
    unroll = hi if unroll >= hi else unroll
    unroll = unroll if unroll > lo else lo
    lo, hi = b.vectorize_factor
    vect = hi if vect >= hi else vect
    vect = vect if vect > lo else lo
    return rows, cols, depth, mem if mem > 0 else 0, unroll, vect


def clamp_design(d: DesignPoint, b: DesignSpaceBounds) -> DesignPoint:
    """Force every scalar field into its proposal bounds (cross-field rules
    are left to validate_design)."""
    f, sw = d.fabric, d.sw
    fields = (f.rows, f.cols, f.config_mem_depth, f.data_mem_kb, sw.unroll_factor, sw.vectorize_factor)
    clamped = _clamp_fields(b, *fields)
    if clamped == fields:
        return d
    rows, cols, depth, mem, unroll, vect = clamped
    nf = dataclasses.replace(f, rows=rows, cols=cols, config_mem_depth=depth, data_mem_kb=mem)
    return dataclasses.replace(d, fabric=nf, sw=SwParams(unroll_factor=unroll, vectorize_factor=vect))


#: Every FU kind, in declaration order.
_FU_KINDS = tuple(FuKind)


def _needs_mem(s: KernelSummary) -> bool:
    return "LOAD" in s.op_census or "STORE" in s.op_census


# The kernel-invariant sets below come from bounded memos keyed on the
# summary fields they read, so that a draft reads each in one lookup.
# Callers index the tuples and only combine, sort or test membership in
# the sets, so no result depends on a set's iteration order (which, for
# FuKind, follows the string hash seed).


@lru_cache(maxsize=64)
def _kinds_of(ops: tuple[str, ...], has_mem: bool) -> tuple[frozenset[FuKind], tuple[str, ...]]:
    """The FU kinds a kernel needs (its ops, plus LOAD and STORE with data
    memory), and the names of the others, sorted."""
    kinds = {FuKind[name] for name in ops}
    if has_mem:
        kinds.update({FuKind.LOAD, FuKind.STORE})
    return frozenset(kinds), tuple(sorted(k.name for k in _FU_KINDS if k not in kinds))


def _legal_unrolls(s: KernelSummary, b: DesignSpaceBounds) -> tuple[int, ...]:
    return _legal_unrolls_of(s.trip_count, *b.unroll_factor)


@lru_cache(maxsize=64)
def _legal_unrolls_of(trip_count: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(u for u in range(lo, hi + 1) if trip_count % u == 0)


def _legal_vectorizes(s: KernelSummary, unroll: int, b: DesignSpaceBounds) -> tuple[int, ...]:
    """Vectorize factors that divide the post-unroll trip count and do not
    obviously break carried dependences.

    Unrolling rewrites carried distances, so with unroll > 1 and any carried
    edge this stays conservative (factor 1 only); the transform itself is
    the authority and repair downgrades anything it rejects.
    """
    return _legal_vectorizes_of(s.trip_count, s.carried_edge_count, s.carried_distance_gcd, unroll, *b.vectorize_factor)


@lru_cache(maxsize=256)
def _legal_vectorizes_of(trip_count: int, carried: int, gcd: int, unroll: int, lo: int, hi: int) -> tuple[int, ...]:
    trip = trip_count // unroll
    out = []
    for v in range(lo, hi + 1):
        if trip % v != 0:
            continue
        if carried:
            if unroll > 1 and v > 1:
                continue
            if v > 1 and gcd % v != 0:
                continue
        out.append(v)
    return tuple(out)


def _mk_draft(
    b: DesignSpaceBounds,
    note: str,
    *,
    rows: int,
    cols: int,
    topology: Topology,
    depth: int,
    mem: int,
    kinds: frozenset[FuKind],
    unroll: int,
    vect: int,
) -> DesignPoint:
    """A proposed draft, its scalar fields clamped by the rule clamp_design
    applies, before the design is built: equal to clamp_design of the
    unclamped draft, built once, of the fabric and software parameters
    that arch.fabric_and_sw shares between equal drafts."""
    rows, cols, depth, mem, unroll, vect = _clamp_fields(b, rows, cols, depth, mem, unroll, vect)
    fabric, sw = fabric_and_sw(rows, cols, kinds, depth, mem, topology, unroll, vect)
    return DesignPoint(fabric=fabric, sw=sw, id="draft", provenance=Provenance.PROPOSED, note=note)


def _padded_kinds(s: KernelSummary, data_mem_kb: int, rng: random.Random) -> frozenset[FuKind]:
    """The required kinds plus up to two optional ones drawn at random."""
    kinds, optional = _kinds_of(tuple(s.op_census), data_mem_kb > 0)
    extra = rng.randint(0, min(2, len(optional)))
    if extra:
        kinds = kinds | {FuKind[name] for name in rng.sample(optional, extra)}
    return kinds


def _random_draft(req: ProposalRequest, rng: random.Random) -> DesignPoint:
    s, b = req.kernel, req.bounds
    dim_hi = min(_RANDOM_DIM_CAP, b.rows[1])
    rows = rng.randint(b.rows[0], dim_hi)
    cols = rng.randint(b.cols[0], min(_RANDOM_DIM_CAP, b.cols[1]))
    mem = rng.choice(_MEM_LADDER) if _needs_mem(s) else 0
    unrolls = _legal_unrolls(s, b)
    # Random exploration stays at moderate graph sizes; the mutation path
    # still reaches high unroll one legal step at a time from a good anchor.
    capped = [u for u in unrolls if s.node_count * u <= _RANDOM_NODE_CAP]
    unroll = rng.choice(capped or unrolls[:1])
    vect = rng.choice(_legal_vectorizes(s, unroll, b))
    return _mk_draft(
        b,
        "proposal:random",
        rows=rows,
        cols=cols,
        topology=rng.choice(_TOPO_ORDER),
        depth=rng.choice(_DEPTH_LADDER),
        mem=mem,
        kinds=_padded_kinds(s, mem, rng),
        unroll=unroll,
        vect=vect,
    )


def _stratified_drafts(req: ProposalRequest, rng: random.Random) -> list[DesignPoint]:
    """Opening batch: ladder over grid sizes, topologies, legal transform
    factors, and config depths, so the first tool round sees spread rather
    than a cluster."""
    s, b = req.kernel, req.bounds
    unrolls = _legal_unrolls(s, b)
    out = []
    for i in range(req.count):
        rows, cols = _GRID_LADDER[i % len(_GRID_LADDER)]
        unroll = unrolls[i % len(unrolls)]
        vects = _legal_vectorizes(s, unroll, b)
        mem = _MEM_LADDER[i % len(_MEM_LADDER)] if _needs_mem(s) else 0
        out.append(
            _mk_draft(
                b,
                "proposal:stratified",
                rows=rows,
                cols=cols,
                topology=_TOPO_ORDER[i % len(_TOPO_ORDER)],
                depth=_DEPTH_LADDER[i % len(_DEPTH_LADDER)],
                mem=mem,
                kinds=_padded_kinds(s, mem, rng),
                unroll=unroll,
                vect=vects[i % len(vects)],
            )
        )
    return out


def _best_anchor(window: Sequence[DesignOutcome]) -> DesignPoint | None:
    """The design mutations should orbit: lowest tool score seen, or the
    most recent mapped design when nothing has been scored yet."""
    scored = [o for o in window if o.score is not None and o.score < BIG]
    if scored:
        return min(scored, key=lambda o: (o.score, o.design.id)).design
    mapped = [o for o in window if o.feasible]
    if mapped:
        return max(mapped, key=lambda o: (o.iteration, o.design.id)).design
    return None


def _step_ladder(cur: int, ladder: Sequence[int], rng: random.Random) -> int:
    """Move one slot up or down a value ladder, snapping to the nearest rung
    when the current value sits between rungs."""
    nearest = min(range(len(ladder)), key=lambda i: (abs(ladder[i] - cur), i))
    step = rng.choice((-1, 1))
    j = _clampi(nearest + step, 0, len(ladder) - 1)
    if ladder[j] == cur:
        j = _clampi(nearest - step, 0, len(ladder) - 1)
    return ladder[j]


def _adjacent(cur: int, legal: list[int], rng: random.Random) -> int:
    if cur not in legal:
        return legal[0] if legal else cur
    return _step_ladder(cur, legal, rng)


def _mutate(anchor: DesignPoint, fieldname: str, req: ProposalRequest, rng: random.Random) -> DesignPoint:
    s, b = req.kernel, req.bounds
    f, sw = anchor.fabric, anchor.sw
    rows, cols, depth, mem = f.rows, f.cols, f.config_mem_depth, f.data_mem_kb
    topo, kinds = f.topology, f.fu_kinds
    unroll, vect = sw.unroll_factor, sw.vectorize_factor

    if fieldname == "rows":
        rows = _clampi(rows + rng.choice((-1, 1)), *b.rows)
    elif fieldname == "cols":
        cols = _clampi(cols + rng.choice((-1, 1)), *b.cols)
    elif fieldname == "topology":
        i = _TOPO_ORDER.index(topo)
        topo = _TOPO_ORDER[_clampi(i + rng.choice((-1, 1)), 0, len(_TOPO_ORDER) - 1)]
    elif fieldname == "config_mem_depth":
        depth = _clampi(depth + rng.choice((-8, -4, 4, 8)), *b.config_mem_depth)
    elif fieldname == "data_mem_kb":
        floor = 4 if _needs_mem(s) else 0
        mem = max(floor, _step_ladder(mem, _MEM_STEPS, rng))
    elif fieldname == "fu_kinds":
        required, _ = _kinds_of(tuple(s.op_census), mem > 0)
        removable = sorted(kinds - required)  # str enums: sorted by name
        addable = sorted(k for k in _FU_KINDS if k not in kinds)
        if removable and (not addable or rng.random() < 0.5):
            kinds = kinds - {rng.choice(removable)}
        elif addable:
            kinds = kinds | {rng.choice(addable)}
    elif fieldname == "unroll_factor":
        unroll = _adjacent(unroll, _legal_unrolls(s, b), rng)
        vects = _legal_vectorizes(s, unroll, b)
        if vect not in vects:
            vect = vects[0] if vects else 1
    elif fieldname == "vectorize_factor":
        vect = _adjacent(vect, _legal_vectorizes(s, unroll, b), rng)

    return _mk_draft(
        b,
        f"proposal:mutate:{fieldname}",
        rows=rows,
        cols=cols,
        topology=topo,
        depth=depth,
        mem=mem,
        kinds=kinds,
        unroll=unroll,
        vect=vect,
    )


def propose(req: ProposalRequest, seed: int) -> list[DesignPoint]:
    """Draft req.count candidates, deduplicated by design_key.

    Iteration 1 uses the stratified ladder. Later iterations spend count - 1
    drafts on single-field mutations of the best design seen so far and one
    on a fresh random draw; with no mapped design to anchor on yet, the
    whole batch is random redraws instead.
    """
    window = req.history_window
    iteration = 1 + max((o.iteration for o in window), default=0)
    rng = random.Random(seed * 1_000_003 + iteration)

    anchor = _best_anchor(window)
    drafts: list[DesignPoint] = []
    if iteration == 1:
        drafts = _stratified_drafts(req, rng)
    elif anchor is None:
        drafts = [_random_draft(req, rng) for _ in range(req.count)]
    else:
        offset = rng.randrange(len(_MUTATION_FIELDS))
        for j in range(max(0, req.count - 1)):
            fieldname = _MUTATION_FIELDS[(offset + j) % len(_MUTATION_FIELDS)]
            drafts.append(_mutate(anchor, fieldname, req, rng))
        drafts.append(_random_draft(req, rng))

    out: list[DesignPoint] = []
    seen: set[tuple] = set()
    attempts = 0
    queue = deque(drafts)
    while queue and len(out) < req.count:
        d = queue.popleft()
        key = design_key(d)
        if key not in seen:
            seen.add(key)
            out.append(d)
        elif attempts < 8 * req.count:
            attempts += 1
            queue.append(_random_draft(req, rng))
    return out


def _grow_smaller_dim(f: FabricSpec, required_tiles: int | None = None) -> FabricSpec:
    """Widen the grid along its smaller dimension; with a tile target, keep
    widening that dimension until the target fits or the range runs out."""
    rows, cols = f.rows, f.cols
    target = required_tiles if required_tiles is not None else rows * cols + 1
    while rows * cols < target:
        if rows <= cols and rows < ROWS_MAX:
            rows += 1
        elif cols < COLS_MAX:
            cols += 1
        elif rows < ROWS_MAX:
            rows += 1
        else:
            break
    return dataclasses.replace(f, rows=rows, cols=cols)


def _largest_divisor_at_most(n: int, cap: int) -> int:
    for v in range(min(cap, n), 0, -1):
        if n % v == 0:
            return v
    return 1


def _repair_structural(d: DesignPoint, violations: list[StructuralViolation]) -> tuple[DesignPoint, list[str]]:
    f, sw = d.fabric, d.sw
    codes = []
    for v in violations:
        codes.append(v.code)
        if v.code == "ROWS_RANGE":
            f = dataclasses.replace(f, rows=_clampi(f.rows, ROWS_MIN, ROWS_MAX))
        elif v.code == "COLS_RANGE":
            f = dataclasses.replace(f, cols=_clampi(f.cols, COLS_MIN, COLS_MAX))
        elif v.code == "FU_KINDS_EMPTY":
            f = dataclasses.replace(f, fu_kinds=frozenset({FuKind.ADD}))
        elif v.code == "CONFIG_MEM_RANGE":
            f = dataclasses.replace(f, config_mem_depth=max(1, f.config_mem_depth))
        elif v.code == "DATA_MEM_RANGE":
            f = dataclasses.replace(f, data_mem_kb=max(0, f.data_mem_kb))
        elif v.code == "MISSING_LOADSTORE":
            f = dataclasses.replace(f, fu_kinds=f.fu_kinds | {FuKind.LOAD, FuKind.STORE})
        elif v.code == "UNROLL_RANGE":
            sw = dataclasses.replace(sw, unroll_factor=_clampi(sw.unroll_factor, UNROLL_MIN, UNROLL_MAX))
        elif v.code == "VECTORIZE_RANGE":
            sw = dataclasses.replace(sw, vectorize_factor=_clampi(sw.vectorize_factor, VECTORIZE_MIN, VECTORIZE_MAX))
    return dataclasses.replace(d, fabric=f, sw=sw), codes


def _repair_transform(d: DesignPoint, err: TransformError) -> DesignPoint:
    sw = d.sw
    if err.code == "CARRIED_DEP_BLOCKS_VECTORIZATION":
        sw = dataclasses.replace(sw, vectorize_factor=1)
    elif err.code == "NON_DIVISIBLE_FACTOR":
        fixed = _largest_divisor_at_most(err.trip_count, max(1, err.factor))
        if err.factor_field == "vectorize_factor":
            sw = dataclasses.replace(sw, vectorize_factor=fixed)
        else:
            sw = dataclasses.replace(sw, unroll_factor=fixed)
    return dataclasses.replace(d, sw=sw)


def _repair_mapping(d: DesignPoint, err: MapError) -> DesignPoint:
    f, sw = d.fabric, d.sw
    if err.code == "MISSING_FU_KIND":
        missing = {FuKind[name] for name in err.hint.get("missing_kinds", ())}
        f = dataclasses.replace(f, fu_kinds=f.fu_kinds | missing)
    elif err.code == "INSUFFICIENT_TILES":
        f = _grow_smaller_dim(f, err.hint.get("required_tiles"))
    elif err.code == "CONFIG_MEM_OVERFLOW":
        required = err.hint.get("required_depth", 0)
        if f.config_mem_depth < required:
            f = dataclasses.replace(f, config_mem_depth=required)
        elif sw.unroll_factor > 1:
            sw = dataclasses.replace(sw, unroll_factor=max(1, sw.unroll_factor // 2))
    elif err.code == "ROUTING_FAILURE":
        i = _TOPO_ORDER.index(f.topology)
        if i + 1 < len(_TOPO_ORDER):
            f = dataclasses.replace(f, topology=_TOPO_ORDER[i + 1])
        else:
            f = _grow_smaller_dim(f)
    elif err.code == "II_BOUND_EXCEEDED":
        if sw.unroll_factor > 1:
            sw = dataclasses.replace(sw, unroll_factor=max(1, sw.unroll_factor // 2))
        else:
            f = _grow_smaller_dim(f)
    return dataclasses.replace(d, fabric=f, sw=sw)


def repair_once(d: DesignPoint, err: FixableError) -> DesignPoint:
    """Apply the single repair rule matching err; the design keeps its id,
    gains REPAIRED provenance, and the applied rule is chained on the note."""
    if isinstance(err, list):
        fixed, codes = _repair_structural(d, err)
        tag = "repair:" + "+".join(codes)
    elif isinstance(err, TransformError):
        fixed = _repair_transform(d, err)
        tag = f"repair:{err.code}"
    elif isinstance(err, MapError):
        fixed = _repair_mapping(d, err)
        tag = f"repair:{err.code}"
    else:
        raise TypeError(f"unrepairable error type: {type(err).__name__}")
    note = f"{d.note};{tag}" if d.note else tag
    return dataclasses.replace(fixed, provenance=Provenance.REPAIRED, note=note)


def coarse_rank(cands: Sequence[MappedDesign]) -> list[MappedDesign]:
    """All candidates ordered best first by the structural proxy."""
    return sorted(cands, key=lambda c: (-proxy_score(c), c.design.id))


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(x * y for x, y in zip(a, b))


@dataclass
class HeuristicAgent:
    """The deterministic agent: proposal and repair by the rules above,
    coarse ranking by the proxy, and as fine judge a linear score estimator
    calibrated online against the tool.

    The base score is a coefficient-free structural proxy in the tool's
    units; a learned correction theta . features is added on top. With zero
    lessons theta is zero, so the judge scores by the proxy alone.
    Infeasible candidates get the tool's own penalty formula verbatim (and
    are excluded from fitting, where the penalty magnitude would swamp the
    gradient).
    """

    objective: Objective
    seed: int = 0
    theta: list[float] = field(default_factory=lambda: [0.0] * 12)
    lessons: deque = field(default_factory=lambda: deque(maxlen=LESSON_CAP))

    def propose(self, req: ProposalRequest) -> list[DesignPoint]:
        return propose(req, self.seed)

    def repair_once(self, d: DesignPoint, err: FixableError) -> DesignPoint:
        return repair_once(d, err)

    def coarse_rank(self, cands: Sequence[MappedDesign]) -> list[MappedDesign]:
        return coarse_rank(cands)

    def _features(self, cand: MappedDesign) -> tuple[float, ...]:
        f = cand.design.fabric
        sw = cand.design.sw
        nodes = len(cand.mapping.schedule)
        return (
            1.0,
            f.tiles / 16.0,
            len(f.fu_kinds) / 12.0,
            f.config_mem_depth / 32.0,
            PROXY_WIRING[f.topology] / 1.5,
            sw.unroll_factor / 8.0,
            sw.vectorize_factor / 4.0,
            nodes / 64.0,
            nodes / cand.mapping.ii / 16.0,
            min(cand.speedup, 32.0) / 8.0,
            f.tiles * len(f.fu_kinds) / 192.0,
            f.tiles * f.config_mem_depth / 512.0,
        )

    def _base(self, cand: MappedDesign) -> float:
        f = cand.design.fabric
        proxy_power = JUDGE_POWER_SCALE * f.tiles * len(f.fu_kinds) * PROXY_WIRING[f.topology]
        return score_point(self.objective, cand.speedup, proxy_power)

    def _score(self, cand: MappedDesign) -> float:
        base = self._base(cand)
        if base >= BIG:
            return base
        return base + _dot(self.theta, self._features(cand))

    def select(self, cands: Sequence[MappedDesign]) -> tuple[str, float]:
        if not cands:
            raise ValueError("empty candidate set")
        scored = sorted((self._score(c), c.design.id) for c in cands)
        score, choice = scored[0]
        return choice, score

    def lesson(
        self,
        cands: Sequence[MappedDesign],
        reports: Sequence[EvalReport],
        tool_choice: str,
        judge_choice: str,
    ) -> Lesson:
        """The lesson of one tool-validated round. Building it leaves the
        judge untouched; replay is what absorbs it."""
        tool_scores = {r.design_id: r.score for r in reports}
        return Lesson(
            candidates=tuple(
                LessonCandidate(
                    design_id=c.design.id,
                    base_score=self._base(c),
                    features=self._features(c),
                    tool_score=tool_scores[c.design.id],
                )
                for c in cands
            ),
            tool_choice=tool_choice,
            judge_choice=judge_choice,
            agreed=tool_choice == judge_choice,
        )

    def restore(self, theta: list[float], lessons: Sequence[Lesson]) -> None:
        """Set theta and the lesson store, as a run's checkpoint saved them."""
        self.theta, self.lessons = theta, deque(lessons, maxlen=LESSON_CAP)

    def replay(self, lesson: Lesson) -> None:
        """Absorb a lesson into the store and take one fitting step per
        feasible candidate. Lessons are self-contained, so replaying a run's
        stored lessons reproduces its exact theta trajectory."""
        self.lessons.append(lesson)
        for lc in lesson.candidates:
            if abs(lc.tool_score) >= BIG:
                continue
            grad = lc.base_score + _dot(self.theta, lc.features) - lc.tool_score
            self.theta = [
                t - _SGD_ETA * (grad * x + _SGD_LAMBDA * t)
                for t, x in zip(self.theta, lc.features)
            ]
