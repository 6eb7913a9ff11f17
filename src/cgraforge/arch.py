"""Architecture half of a design point: CGRA fabric plus software knobs.

A design point couples a fabric description (grid of uniform tiles, each
holding the same set of functional units, connected by one of three
interconnect topologies) with the software mapping parameters (loop unroll
and vectorize factors). Everything here is plain data with separate
validation, so that invalid drafts can flow through the repair stage without
constructors getting in the way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache

from .decode import Fields, InputError, loads, member

ROWS_MIN, ROWS_MAX = 1, 16
COLS_MIN, COLS_MAX = 1, 16
UNROLL_MIN, UNROLL_MAX = 1, 8
VECTORIZE_MIN, VECTORIZE_MAX = 1, 4

#: Keys allowed in an architecture JSON file. data_mem_kb is optional.
ARCH_FILE_KEYS = (
    "rows",
    "cols",
    "fu_kinds",
    "config_mem_depth",
    "data_mem_kb",
    "topology",
    "unroll_factor",
    "vectorize_factor",
)


class FuKind(str, Enum):
    """Functional-unit kind. The set is closed; no user extension.

    FuKind, Topology and Provenance are str enums whose values are their
    names, so a member hashes, compares, sorts and JSON-encodes as its
    name string, through str's own C slots."""

    ADD = "ADD"
    SUB = "SUB"
    MUL = "MUL"
    MAC = "MAC"
    DIV = "DIV"
    SHIFT = "SHIFT"
    LOGIC = "LOGIC"
    CMP = "CMP"
    PHI = "PHI"
    LOAD = "LOAD"
    STORE = "STORE"
    RET = "RET"

    @classmethod
    def parse(cls, token: str) -> "FuKind":
        return member(cls, token, ParseError, "FU kind")


class Topology(str, Enum):
    """Interconnect shape. MESH is 4-neighbor, KINGMESH adds diagonals,
    CROSSBAR is all-to-all."""

    MESH = "MESH"
    KINGMESH = "KINGMESH"
    CROSSBAR = "CROSSBAR"

    @classmethod
    def parse(cls, token: str) -> "Topology":
        return member(cls, token, ParseError, "topology")


class Provenance(str, Enum):
    PROPOSED = "PROPOSED"
    REPAIRED = "REPAIRED"


class ArchError(InputError):
    """Base error for this module; carries a machine-readable code."""


class ParseError(ArchError):
    """Raised on malformed architecture files (syntax, fields, enums)."""

    def __init__(self, code: str, message: str, line: int | None = None, col: int | None = None):
        super().__init__(code, message)
        self.line = line
        self.col = col


@dataclass(frozen=True)
class FabricSpec:
    """Hardware description of the array.

    Tiles are uniform: every tile offers every kind in fu_kinds. Fields may
    be out of range on freshly parsed or proposed drafts; validate_design is
    the single source of truth for structural validity.
    """

    rows: int
    cols: int
    fu_kinds: frozenset[FuKind]
    config_mem_depth: int
    data_mem_kb: int
    topology: Topology

    @property
    def tiles(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class SwParams:
    """Software knobs applied to the kernel before mapping."""

    unroll_factor: int = 1
    vectorize_factor: int = 1


@dataclass(frozen=True)
class DesignPoint:
    """One candidate in the co-design search: fabric plus software params."""

    fabric: FabricSpec
    sw: SwParams
    id: str
    provenance: Provenance = Provenance.PROPOSED
    note: str = ""


@dataclass(frozen=True)
class StructuralViolation:
    """One broken structural invariant, keyed to the offending field."""

    code: str
    field: str
    message: str


def validate_design(d: DesignPoint) -> list[StructuralViolation]:
    """Check every structural invariant of a design point.

    Returns an empty list when the design is structurally valid. Violations
    are ordered deterministically by (field name, code) so repair and
    reporting are stable.
    """
    out: list[StructuralViolation] = []
    f, sw = d.fabric, d.sw
    if not (ROWS_MIN <= f.rows <= ROWS_MAX):
        out.append(StructuralViolation("ROWS_RANGE", "rows", f"rows={f.rows} outside [{ROWS_MIN}, {ROWS_MAX}]"))
    if not (COLS_MIN <= f.cols <= COLS_MAX):
        out.append(StructuralViolation("COLS_RANGE", "cols", f"cols={f.cols} outside [{COLS_MIN}, {COLS_MAX}]"))
    if not f.fu_kinds:
        out.append(StructuralViolation("FU_KINDS_EMPTY", "fu_kinds", "fu_kinds must be non-empty"))
    if f.config_mem_depth < 1:
        out.append(
            StructuralViolation(
                "CONFIG_MEM_RANGE", "config_mem_depth", f"config_mem_depth={f.config_mem_depth} must be >= 1"
            )
        )
    if f.data_mem_kb < 0:
        out.append(
            StructuralViolation("DATA_MEM_RANGE", "data_mem_kb", f"data_mem_kb={f.data_mem_kb} must be >= 0")
        )
    if f.data_mem_kb > 0 and not {FuKind.LOAD, FuKind.STORE} <= f.fu_kinds:
        out.append(
            StructuralViolation(
                "MISSING_LOADSTORE",
                "fu_kinds",
                "data_mem_kb > 0 requires both LOAD and STORE in fu_kinds",
            )
        )
    if not (UNROLL_MIN <= sw.unroll_factor <= UNROLL_MAX):
        out.append(
            StructuralViolation(
                "UNROLL_RANGE", "unroll_factor", f"unroll_factor={sw.unroll_factor} outside [{UNROLL_MIN}, {UNROLL_MAX}]"
            )
        )
    if not (VECTORIZE_MIN <= sw.vectorize_factor <= VECTORIZE_MAX):
        out.append(
            StructuralViolation(
                "VECTORIZE_RANGE",
                "vectorize_factor",
                f"vectorize_factor={sw.vectorize_factor} outside [{VECTORIZE_MIN}, {VECTORIZE_MAX}]",
            )
        )
    out.sort(key=lambda v: (v.field, v.code))
    return out


# The (row, col) steps to a tile's neighbors on the grid topologies, in
# ascending order, so that stepping from a tile in this order visits its
# neighbors in sorted coordinate order.
GRID_STEPS = {
    Topology.MESH: ((-1, 0), (0, -1), (0, 1), (1, 0)),
    Topology.KINGMESH: tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)),
}


def neighbors(f: FabricSpec, tile: tuple[int, int]) -> set[tuple[int, int]]:
    """Tiles directly reachable from `tile` under the fabric topology.

    Raises ArchError(OUT_OF_GRID) when the coordinate is outside the grid.
    The relation is symmetric for all three topologies.
    """
    r, c = tile
    if not (0 <= r < f.rows and 0 <= c < f.cols):
        raise ArchError("OUT_OF_GRID", f"tile {tile} outside {f.rows}x{f.cols} grid")
    if f.topology is Topology.CROSSBAR:
        return {(rr, cc) for rr in range(f.rows) for cc in range(f.cols) if (rr, cc) != tile}
    out = set()
    for dr, dc in GRID_STEPS[f.topology]:
        rr, cc = r + dr, c + dc
        if 0 <= rr < f.rows and 0 <= cc < f.cols:
            out.add((rr, cc))
    return out


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def parse_design(text: str) -> DesignPoint:
    """Parse an architecture JSON document into a DesignPoint.

    Parsing is strict about shape (unknown fields, enum tokens, types) but
    deliberately does not range-check numeric values; that is
    validate_design's job, so out-of-range drafts can still be loaded and
    repaired. The id is a stable hash of the canonical serialization.
    """
    f = Fields(loads(text, ParseError), ParseError, ARCH_FILE_KEYS)
    fabric = FabricSpec(
        rows=f.integer("rows"),
        cols=f.integer("cols"),
        fu_kinds=frozenset(f.enums("fu_kinds", FuKind)),
        config_mem_depth=f.integer("config_mem_depth"),
        data_mem_kb=f.integer("data_mem_kb", 0),
        topology=f.enum("topology", Topology),
    )
    sw = SwParams(unroll_factor=f.integer("unroll_factor"), vectorize_factor=f.integer("vectorize_factor"))
    design = DesignPoint(fabric=fabric, sw=sw, id="", note="parsed")
    return replace(design, id=f"d{design_fingerprint(design)}")


def design_dict(d: DesignPoint) -> dict:
    """The file-visible fields of a design as a JSON-ready dict, keys in
    sorted order: the layout of architecture files, history events and LLM
    prompts. design_from_dict inverts it."""
    f, sw = d.fabric, d.sw
    return {
        "cols": f.cols,
        "config_mem_depth": f.config_mem_depth,
        "data_mem_kb": f.data_mem_kb,
        "fu_kinds": list(_kind_names(f.fu_kinds)),
        "rows": f.rows,
        "topology": TOPOLOGY_NAMES[f.topology],
        "unroll_factor": sw.unroll_factor,
        "vectorize_factor": sw.vectorize_factor,
    }


@lru_cache(maxsize=256)
def _kind_names(kinds: frozenset[FuKind]) -> tuple[str, ...]:
    """The names of a kind set, sorted: computed once per set."""
    return tuple(sorted(k.name for k in kinds))


_FU_KIND_BY_NAME = dict(FuKind.__members__)
#: The name of each Topology and Provenance member, read from a table, not
#: through the enum descriptor that .name calls.
TOPOLOGY_NAMES, PROVENANCE_NAMES = ({m: m.name for m in e} for e in (Topology, Provenance))


def design_from_dict(
    fields: dict, design_id: str, provenance: Provenance = Provenance.PROPOSED, note: str = ""
) -> DesignPoint:
    """Rebuild a design from design_dict output (no checks: the dict is
    trusted, e.g. read back from a run's own history). The fabric and
    software parameters come from fabric_and_sw's memo."""
    f = fields
    fabric, sw = fabric_and_sw(
        f["rows"], f["cols"], frozenset(map(_FU_KIND_BY_NAME.__getitem__, f["fu_kinds"])), f["config_mem_depth"],
        f["data_mem_kb"], Topology[f["topology"]], f["unroll_factor"], f["vectorize_factor"],
    )
    return DesignPoint(fabric=fabric, sw=sw, id=design_id, provenance=provenance, note=note)


@lru_cache(maxsize=256, typed=True)  # typed: 2 and 2.0 give different JSON
def fabric_and_sw(
    rows: int, cols: int, fu_kinds: frozenset[FuKind], config_mem_depth: int, data_mem_kb: int,
    topology: Topology, unroll: int, vectorize: int,
) -> tuple[FabricSpec, SwParams]:
    """The FabricSpec and SwParams of these field values, from a bounded
    memo: both classes are frozen, so designs built from equal fields, the
    proposer's drafts and the designs read back from a history, share
    them. fu_kinds must hold FuKind members and topology be a Topology."""
    return FabricSpec(rows, cols, fu_kinds, config_mem_depth, data_mem_kb, topology), SwParams(unroll, vectorize)


def serialize_design(d: DesignPoint) -> str:
    """Canonical architecture JSON: keys sorted, fu_kinds sorted, trailing
    newline. parse_design(serialize_design(d)) reproduces fabric and sw."""
    return json.dumps(design_dict(d), sort_keys=True, indent=2) + "\n"


def design_key(d: DesignPoint) -> tuple:
    """A hashable key of the file-visible fields: two designs with int
    fields share a key exactly when serialize_design gives both the same
    text. For deduplicating drafts without serializing them."""
    f, sw = d.fabric, d.sw
    return (
        f.rows,
        f.cols,
        f.fu_kinds,
        f.config_mem_depth,
        f.data_mem_kb,
        f.topology,
        sw.unroll_factor,
        sw.vectorize_factor,
    )


def design_fingerprint(d: DesignPoint) -> str:
    """Stable content hash of the file-visible fields (id-independent)."""
    return hashlib.sha256(serialize_design(d).encode("utf-8")).hexdigest()[:12]
