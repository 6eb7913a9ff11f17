"""Shared generators and assertions for the test suite."""

from __future__ import annotations

import itertools
import json
import random
from collections import OrderedDict
from functools import lru_cache

from cgraforge import kernel, mapper
from cgraforge.arch import DesignPoint, FabricSpec, FuKind, SwParams, Topology, parse_design
from cgraforge.kernel import DfgEdge, DfgNode, KernelGraph, validate_graph
from cgraforge.mapper import MapBudget, MapError, MappingResult, check_mapping, map_kernel

ALL_KINDS = frozenset(FuKind)
#: Every subset of the closed FU-kind set, 4 096 of them.
KIND_SUBSETS = [frozenset(c) for r in range(len(FuKind) + 1) for c in itertools.combinations(FuKind, r)]
FULL_FABRIC = FabricSpec(
    rows=4, cols=4, topology=Topology.MESH, fu_kinds=ALL_KINDS, config_mem_depth=32, data_mem_kb=32
)


def fresh_memos(monkeypatch, fabric_cells: int | None = None) -> None:
    """Start the process-wide memos empty for one test, as in a new
    process: the loaded kernel objects, so that the transforms and the
    mapper's tables kept on them start empty too, and the mapper's
    searches and fabric tables, these bounded by fabric_cells hop-table
    and tile-order cells (by default the mapper's own bound)."""
    cells = mapper._FABRIC_TABLES.capacity if fabric_cells is None else fabric_cells
    monkeypatch.setattr(kernel, "_parsed_kernel", lru_cache(maxsize=kernel.KERNEL_TEXTS_KEPT)(kernel.parse_kernel))
    monkeypatch.setattr(mapper, "_SEARCHES", OrderedDict())
    monkeypatch.setattr(mapper, "_FABRIC_TABLES", mapper._FabricMemo(cells))


def map_checked(k: KernelGraph, f: FabricSpec, budget: MapBudget | None = None) -> MappingResult | MapError:
    """map_kernel, with every successful result run through the independent
    checker before it is handed to the caller."""
    out = map_kernel(k, f, budget) if budget is not None else map_kernel(k, f)
    if isinstance(out, MappingResult):
        problems = check_mapping(k, f, out)
        assert problems == [], f"checker rejected a mapping: {problems}"
    return out


def random_design_payload(rng: random.Random) -> dict:
    """A structurally valid design as a plain JSON-ready dict."""
    kinds = set(rng.sample(sorted(FuKind, key=lambda x: x.name), rng.randint(1, len(FuKind))))
    data_mem_kb = rng.choice([0, 0, 4, 8, 16, 32])
    if data_mem_kb > 0:
        kinds.update({FuKind.LOAD, FuKind.STORE})
    return {
        "rows": rng.randint(1, 16),
        "cols": rng.randint(1, 16),
        "topology": rng.choice([t.name for t in Topology]),
        "fu_kinds": sorted(k.name for k in kinds),
        "config_mem_depth": rng.randint(1, 32),
        "data_mem_kb": data_mem_kb,
        "unroll_factor": rng.randint(1, 8),
        "vectorize_factor": rng.randint(1, 4),
    }


def random_design(rng: random.Random) -> DesignPoint:
    return parse_design(json.dumps(random_design_payload(rng)))


def make_design(
    rows: int = 2,
    cols: int = 2,
    topology: Topology = Topology.MESH,
    fu_kinds: frozenset[FuKind] = ALL_KINDS,
    config_mem_depth: int = 16,
    data_mem_kb: int = 16,
    unroll_factor: int = 1,
    vectorize_factor: int = 1,
    design_id: str = "unit",
) -> DesignPoint:
    fabric = FabricSpec(
        rows=rows,
        cols=cols,
        topology=topology,
        fu_kinds=fu_kinds,
        config_mem_depth=config_mem_depth,
        data_mem_kb=data_mem_kb,
    )
    sw = SwParams(unroll_factor=unroll_factor, vectorize_factor=vectorize_factor)
    return DesignPoint(id=design_id, fabric=fabric, sw=sw)


_DFG_KINDS = [FuKind.ADD, FuKind.MUL, FuKind.SUB, FuKind.LOAD, FuKind.CMP, FuKind.SHIFT]


def random_dfg(rng: random.Random, max_nodes: int = 6, trip_count: int = 32) -> KernelGraph:
    """A small valid kernel graph: forward-only loop-body edges, carried
    edges that either self-accumulate or feed a PHI node."""
    n = rng.randint(2, max_nodes)
    phi_count = rng.randint(0, min(2, n - 1))
    kinds = [FuKind.PHI] * phi_count + [rng.choice(_DFG_KINDS) for _ in range(n - phi_count)]
    rng.shuffle(kinds)
    nodes = [DfgNode(id=i, kind=kinds[i], latency=rng.randint(1, 3)) for i in range(n)]

    edges = []
    seen = set()
    for dst in range(1, n):
        for src in range(dst):
            if rng.random() < 0.35:
                edges.append(DfgEdge(src=src, dst=dst, distance=0))
                seen.add((src, dst))
    phis = [i for i in range(n) if kinds[i] is FuKind.PHI]
    for _ in range(rng.randint(0, 2)):
        if phis and rng.random() < 0.7:
            dst = rng.choice(phis)
            src = rng.randrange(n)
            if src == dst or (src, dst) in seen:
                continue
        else:
            src = dst = rng.randrange(n)
            if (src, dst) in seen:
                continue
        edges.append(DfgEdge(src=src, dst=dst, distance=rng.randint(1, 2)))
        seen.add((src, dst))

    k = KernelGraph(name=f"rng{rng.getrandbits(24):06x}", nodes=nodes, edges=edges, trip_count=trip_count)
    validate_graph(k)
    return k


def chain_kernel(length: int = 3, latency: int = 1, trip_count: int = 64) -> KernelGraph:
    nodes = [DfgNode(id=i, kind=FuKind.ADD, latency=latency) for i in range(length)]
    edges = [DfgEdge(src=i, dst=i + 1, distance=0) for i in range(length - 1)]
    return KernelGraph(name="chain", nodes=nodes, edges=edges, trip_count=trip_count)


def accumulator_kernel(latency: int = 1, distance: int = 1, trip_count: int = 64) -> KernelGraph:
    """PHI + ADD recurrence: rec_mii = ceil((lat_phi + lat_add) / distance)."""
    nodes = [DfgNode(id=0, kind=FuKind.PHI, latency=latency), DfgNode(id=1, kind=FuKind.ADD, latency=latency)]
    edges = [DfgEdge(src=0, dst=1, distance=0), DfgEdge(src=1, dst=0, distance=distance)]
    return KernelGraph(name="acc", nodes=nodes, edges=edges, trip_count=trip_count)
