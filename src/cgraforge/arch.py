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


class FuKind(Enum):
    """Functional-unit kind. The set is closed; no user extension."""

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
        try:
            return cls[token.strip().upper()]
        except KeyError:
            raise ParseError("UNKNOWN_ENUM", f"unknown FU kind {token!r}") from None


class Topology(Enum):
    """Interconnect shape. MESH is 4-neighbor, KINGMESH adds diagonals,
    CROSSBAR is all-to-all."""

    MESH = "MESH"
    KINGMESH = "KINGMESH"
    CROSSBAR = "CROSSBAR"

    @classmethod
    def parse(cls, token: str) -> "Topology":
        try:
            return cls[token.strip().upper()]
        except KeyError:
            raise ParseError("UNKNOWN_ENUM", f"unknown topology {token!r}") from None


class Provenance(Enum):
    PROPOSED = "PROPOSED"
    REPAIRED = "REPAIRED"


class ArchError(Exception):
    """Base error for this module; carries a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


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

_INT_FIELDS = ("rows", "cols", "config_mem_depth", "data_mem_kb", "unroll_factor", "vectorize_factor")


def _require_int(payload: dict, key: str) -> int:
    v = payload[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError("BAD_TYPE", f"field {key!r} must be an integer, got {type(v).__name__}")
    return v


def parse_design(text: str) -> DesignPoint:
    """Parse an architecture JSON document into a DesignPoint.

    Parsing is strict about shape (unknown fields, enum tokens, types) but
    deliberately does not range-check numeric values; that is
    validate_design's job, so out-of-range drafts can still be loaded and
    repaired. The id is a stable hash of the canonical serialization.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("SYNTAX", f"invalid JSON: {e.msg}", line=e.lineno, col=e.colno) from None
    if not isinstance(payload, dict):
        raise ParseError("SYNTAX", "architecture file must contain a JSON object")
    unknown = sorted(set(payload) - set(ARCH_FILE_KEYS))
    if unknown:
        raise ParseError("UNKNOWN_FIELD", f"unknown field(s): {', '.join(unknown)}")
    missing = sorted(k for k in ARCH_FILE_KEYS if k not in payload and k != "data_mem_kb")
    if missing:
        raise ParseError("MISSING_FIELD", f"missing field(s): {', '.join(missing)}")
    payload.setdefault("data_mem_kb", 0)
    ints = {k: _require_int(payload, k) for k in _INT_FIELDS}
    raw_kinds = payload["fu_kinds"]
    if not isinstance(raw_kinds, list) or not all(isinstance(s, str) for s in raw_kinds):
        raise ParseError("BAD_TYPE", "fu_kinds must be an array of strings")
    kinds = frozenset(FuKind.parse(s) for s in raw_kinds)
    if not isinstance(payload["topology"], str):
        raise ParseError("BAD_TYPE", "topology must be a string")
    fabric = FabricSpec(
        rows=ints["rows"],
        cols=ints["cols"],
        fu_kinds=kinds,
        config_mem_depth=ints["config_mem_depth"],
        data_mem_kb=ints["data_mem_kb"],
        topology=Topology.parse(payload["topology"]),
    )
    sw = SwParams(unroll_factor=ints["unroll_factor"], vectorize_factor=ints["vectorize_factor"])
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
        "fu_kinds": sorted(k.name for k in f.fu_kinds),
        "rows": f.rows,
        "topology": f.topology.name,
        "unroll_factor": sw.unroll_factor,
        "vectorize_factor": sw.vectorize_factor,
    }


def design_from_dict(
    fields: dict, design_id: str, provenance: Provenance = Provenance.PROPOSED, note: str = ""
) -> DesignPoint:
    """Rebuild a design from design_dict output (no checks: the dict is
    trusted, e.g. read back from a run's own history)."""
    return DesignPoint(
        fabric=FabricSpec(
            rows=fields["rows"],
            cols=fields["cols"],
            fu_kinds=frozenset(FuKind[k] for k in fields["fu_kinds"]),
            config_mem_depth=fields["config_mem_depth"],
            data_mem_kb=fields["data_mem_kb"],
            topology=Topology[fields["topology"]],
        ),
        sw=SwParams(unroll_factor=fields["unroll_factor"], vectorize_factor=fields["vectorize_factor"]),
        id=design_id,
        provenance=provenance,
        note=note,
    )


def serialize_design(d: DesignPoint) -> str:
    """Canonical architecture JSON: keys sorted, fu_kinds sorted, trailing
    newline. parse_design(serialize_design(d)) reproduces fabric and sw."""
    return json.dumps(design_dict(d), sort_keys=True, indent=2) + "\n"


def design_fingerprint(d: DesignPoint) -> str:
    """Stable content hash of the file-visible fields (id-independent)."""
    return hashlib.sha256(serialize_design(d).encode("utf-8")).hexdigest()[:12]
