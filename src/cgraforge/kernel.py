"""Loop kernels as dataflow graphs, plus the loop transforms applied to them.

A kernel models the innermost loop body of a compute kernel: one node per
operation, distance-annotated edges for dependences (distance 0 = same
iteration, distance d >= 1 = loop-carried across d iterations), and a trip
count. Multi-loop kernels are flattened to their innermost body with
trip_count set to the product of the loop bounds at a fixed, documented
problem size; see data/kernels/ for the shipped corpus.

Transform semantics:

* unroll(k, n) replicates the body n times. Copy c of original node i gets
  id i*n + c. A carried edge (u -> v, d) becomes, for each copy c, an edge
  from copy c of u to copy (c+d) % n of v with distance (c+d) // n (so it
  turns into a same-iteration edge whenever c+d < n).
* vectorize(k, n) keeps the graph shape, multiplies every node's lane width
  by n, divides trip_count by n, and divides carried distances by n. Lanes
  are independent, so a carried distance that is not a positive multiple of
  n would cross lanes and cannot be expressed; such kernels reject the
  transform.

Both transforms require the factor to divide trip_count exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path

from .arch import FuKind
from .decode import Fields, InputError, loads, package_text, read_text

LATENCY_MIN, LATENCY_MAX = 1, 8

#: Kernels shipped with the package. The *_mix entries are synthetic
#: composites representative of one application domain each (embedded DSP,
#: ML inference, HPC), not measurements of any particular workload.
BUILTIN_KERNELS = (
    "conv",
    "embedded_mix",
    "fft",
    "fir",
    "gemm",
    "hpc_mix",
    "latnrm",
    "ml_mix",
    "mvt",
    "relu",
    "spmv",
)


class KernelError(InputError):
    """Malformed kernel graph or file."""


class TransformError(KernelError):
    """A loop transform was requested with illegal parameters.

    Carries enough structure (which factor field, the factor value, the trip
    count seen by the transform) for automatic repair to act on."""

    def __init__(
        self,
        code: str,
        message: str,
        factor_field: str = "",
        factor: int = 0,
        trip_count: int = 0,
    ):
        super().__init__(code, message)
        self.factor_field = factor_field
        self.factor = factor
        self.trip_count = trip_count


class UnknownKernelError(KernelError):
    def __init__(self, name: str):
        super().__init__("UNKNOWN_KERNEL", f"unknown kernel {name!r}; known: {', '.join(BUILTIN_KERNELS)}")
        self.name = name


@dataclass(frozen=True)
class DfgNode:
    """One operation instance in the loop body.

    lane_width > 1 marks a SIMD-widened node produced by vectorize; it only
    affects the cost model, never scheduling.
    """

    id: int
    kind: FuKind
    latency: int
    lane_width: int = 1


@dataclass(frozen=True)
class DfgEdge:
    """Dependence from src to dst, distance iterations apart (0 = same)."""

    src: int
    dst: int
    distance: int = 0


@dataclass(frozen=True)
class KernelGraph:
    name: str
    nodes: tuple[DfgNode, ...]
    edges: tuple[DfgEdge, ...]
    trip_count: int

    def op_census(self) -> dict[str, int]:
        """Count of nodes per FU kind name, keys sorted."""
        census: dict[str, int] = {}
        for n in self.nodes:
            census[n.kind.name] = census.get(n.kind.name, 0) + 1
        return dict(sorted(census.items()))

    def carried_edges(self) -> tuple[DfgEdge, ...]:
        return tuple(e for e in self.edges if e.distance > 0)

    def total_latency(self) -> int:
        return sum(n.latency for n in self.nodes)

    @cached_property
    def derived(self) -> dict:
        """What other modules derive from this kernel object and keep for
        as long as it lives: orchestrate's transforms, keyed by (unroll,
        vectorize), and the mapper's search tables, keyed "tables". Not a
        field, so equality, hashing, repr and replace ignore it, and a
        copy starts with its own."""
        return {}


def validate_graph(k: KernelGraph) -> None:
    """Raise KernelError on any broken graph invariant."""
    ids = [n.id for n in k.nodes]
    if len(set(ids)) != len(ids):
        raise KernelError("DUPLICATE_NODE_ID", f"kernel {k.name}: duplicate node ids")
    if not k.nodes:
        raise KernelError("EMPTY_GRAPH", f"kernel {k.name}: no nodes")
    if k.trip_count < 1:
        raise KernelError("TRIP_RANGE", f"kernel {k.name}: trip_count must be >= 1")
    by_id = {n.id: n for n in k.nodes}
    for n in k.nodes:
        if not (LATENCY_MIN <= n.latency <= LATENCY_MAX):
            raise KernelError(
                "LATENCY_RANGE",
                f"kernel {k.name}: node {n.id} latency {n.latency} outside [{LATENCY_MIN}, {LATENCY_MAX}]",
            )
        if n.lane_width < 1:
            raise KernelError("LANE_RANGE", f"kernel {k.name}: node {n.id} lane_width must be >= 1")
    for e in k.edges:
        if e.src not in by_id or e.dst not in by_id:
            raise KernelError("DANGLING_EDGE", f"kernel {k.name}: edge {e.src}->{e.dst} references missing node")
        if e.distance < 0:
            raise KernelError("DISTANCE_RANGE", f"kernel {k.name}: edge {e.src}->{e.dst} distance must be >= 0")
        if e.src == e.dst and e.distance == 0:
            raise KernelError("SELF_EDGE", f"kernel {k.name}: same-iteration self edge on node {e.src}")
        # Cross-node carried edges feed loop-carried values, which only PHI
        # nodes anchor; a node accumulating into itself is exempt.
        if e.distance > 0 and e.src != e.dst and by_id[e.dst].kind is not FuKind.PHI:
            raise KernelError(
                "CARRIED_TARGET_NOT_PHI",
                f"kernel {k.name}: carried edge {e.src}->{e.dst} must target a PHI node",
            )
    _assert_zero_distance_acyclic(k)


def _assert_zero_distance_acyclic(k: KernelGraph) -> None:
    """Depth-first search for a cycle of same-iteration edges, with an
    explicit stack so that long chains cannot exhaust the recursion limit."""
    adj: dict[int, list[int]] = {n.id: [] for n in k.nodes}
    for e in k.edges:
        if e.distance == 0:
            adj[e.src].append(e.dst)
    state: dict[int, int] = {}  # 0 on the current path, 1 done
    for n in k.nodes:
        if n.id in state:
            continue
        state[n.id] = 0
        path = [n.id]
        succs = [iter(adj[n.id])]
        while succs:
            for v in succs[-1]:
                if state.get(v) == 0:
                    raise KernelError(
                        "ZERO_DISTANCE_CYCLE",
                        f"kernel {k.name}: same-iteration cycle through nodes {path + [v]}",
                    )
                if v not in state:
                    state[v] = 0
                    path.append(v)
                    succs.append(iter(adj[v]))
                    break
            else:
                state[path.pop()] = 1
                succs.pop()


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def _check_factor(k: KernelGraph, transform: str, factor: int) -> None:
    """Raise NON_DIVISIBLE_FACTOR unless `factor` is at least 1 and divides
    k's trip count; `transform` is "unroll" or "vectorize"."""
    if factor < 1:
        problem = "must be >= 1"
    elif k.trip_count % factor != 0:
        problem = f"does not divide trip_count {k.trip_count}"
    else:
        return
    raise TransformError(
        "NON_DIVISIBLE_FACTOR",
        f"{transform} factor {factor} {problem}",
        factor_field=f"{transform}_factor",
        factor=factor,
        trip_count=k.trip_count,
    )


def unroll(k: KernelGraph, factor: int) -> KernelGraph:
    """Replicate the loop body `factor` times; see module docstring for the
    exact edge rewrite. unroll(k, 1) is the identity."""
    _check_factor(k, "unroll", factor)
    if factor == 1:
        return k
    nodes = tuple(
        DfgNode(id=n.id * factor + c, kind=n.kind, latency=n.latency, lane_width=n.lane_width)
        for n in k.nodes
        for c in range(factor)
    )
    edges: list[DfgEdge] = []
    for e in k.edges:
        for c in range(factor):
            if e.distance == 0:
                edges.append(DfgEdge(e.src * factor + c, e.dst * factor + c, 0))
            else:
                dst_copy = (c + e.distance) % factor
                new_distance = (c + e.distance) // factor
                edges.append(DfgEdge(e.src * factor + c, e.dst * factor + dst_copy, new_distance))
    return KernelGraph(
        name=f"{k.name}.u{factor}",
        nodes=nodes,
        edges=tuple(edges),
        trip_count=k.trip_count // factor,
    )


def vectorize(k: KernelGraph, factor: int) -> KernelGraph:
    """Widen every node to `factor` SIMD lanes; see module docstring.

    Illegal when any carried distance is not a positive multiple of the
    factor (the dependence would cross lanes)."""
    _check_factor(k, "vectorize", factor)
    if factor == 1:
        return k
    for e in k.edges:
        if e.distance > 0 and (e.distance < factor or e.distance % factor != 0):
            raise TransformError(
                "CARRIED_DEP_BLOCKS_VECTORIZATION",
                f"carried edge {e.src}->{e.dst} distance {e.distance} blocks vectorize by {factor}",
                factor_field="vectorize_factor",
                factor=factor,
                trip_count=k.trip_count,
            )
    nodes = tuple(replace(n, lane_width=n.lane_width * factor) for n in k.nodes)
    edges = tuple(
        DfgEdge(e.src, e.dst, e.distance // factor) if e.distance > 0 else e for e in k.edges
    )
    return KernelGraph(
        name=f"{k.name}.v{factor}",
        nodes=nodes,
        edges=edges,
        trip_count=k.trip_count // factor,
    )


def apply_sw_params(k: KernelGraph, unroll_factor: int, vectorize_factor: int) -> KernelGraph:
    """Canonical transform order: unroll first, then vectorize."""
    return vectorize(unroll(k, unroll_factor), vectorize_factor)


# ---------------------------------------------------------------------------
# Files and built-in corpus
# ---------------------------------------------------------------------------


def parse_kernel(text: str) -> KernelGraph:
    """Parse a kernel JSON document and validate the resulting graph."""
    f = Fields(loads(text, KernelError), KernelError, ("name", "trip_count", "nodes", "edges"))
    k = KernelGraph(
        name=f.string("name"),
        nodes=tuple(
            DfgNode(id=n.integer("id"), kind=n.enum("kind", FuKind), latency=n.integer("latency"))
            for n in f.objects("nodes", ("id", "kind", "latency"))
        ),
        edges=tuple(
            DfgEdge(src=e.integer("src"), dst=e.integer("dst"), distance=e.integer("distance"))
            for e in f.objects("edges", ("src", "dst", "distance"))
        ),
        trip_count=f.integer("trip_count"),
    )
    validate_graph(k)
    return k


def load_kernel(name_or_path: str) -> KernelGraph:
    """Load a built-in kernel by name, or any kernel JSON file by path.
    A built-in text is read once per process, a path on every call; equal
    texts give one shared kernel object while they are among the last
    KERNEL_TEXTS_KEPT loaded, so what is kept per kernel object is shared,
    and an edited file is parsed again."""
    if name_or_path in BUILTIN_KERNELS:
        return _parsed_kernel(package_text("cgraforge.data.kernels", f"{name_or_path}.json"))
    p = Path(name_or_path)
    if p.suffix == ".json" and p.exists():
        return _parsed_kernel(read_text(p, KernelError))
    raise UnknownKernelError(name_or_path)


#: The 11 built-in kernels and a few files.
KERNEL_TEXTS_KEPT = 16

_parsed_kernel = lru_cache(maxsize=KERNEL_TEXTS_KEPT)(parse_kernel)  # a text that fails raises, and is not kept


@dataclass(frozen=True)
class KernelSummary:
    """Compact kernel description handed to proposal agents."""

    name: str
    node_count: int
    op_census: dict[str, int]
    carried_edge_count: int
    carried_distance_gcd: int  # 0 when there are no carried edges
    trip_count: int
    total_latency: int


def summarize(k: KernelGraph) -> KernelSummary:
    import math

    g = 0
    for e in k.carried_edges():
        g = math.gcd(g, e.distance)
    return KernelSummary(
        name=k.name,
        node_count=len(k.nodes),
        op_census=k.op_census(),
        carried_edge_count=len(k.carried_edges()),
        carried_distance_gcd=g,
        trip_count=k.trip_count,
        total_latency=k.total_latency(),
    )
