"""Modulo scheduler: distances, bounds, search, diagnostics, the checker."""

import dataclasses
import hashlib
import json
import random

import pytest

from cgraforge.arch import FabricSpec, FuKind, Topology, neighbors
from cgraforge.kernel import DfgEdge, DfgNode, KernelGraph
from cgraforge.mapper import (
    MapBudget,
    MapError,
    MappingResult,
    _Attempt,
    _BudgetExhausted,
    _hop_rows,
    _Tables,
    _rec_by_search,
    check_mapping,
    hop_distance,
    map_kernel,
    min_ii_bounds,
    route_path,
    speedup,
)
from helpers import ALL_KINDS, FULL_FABRIC, accumulator_kernel, chain_kernel, map_checked, random_dfg
from oracles import bfs_routes, brute_force_min_ii, rec_mii_by_enumeration, reference_attempt

ORACLE_BUDGET = MapBudget(max_ii=4, placement_attempts=500_000)


def fabric(rows=2, cols=2, topology=Topology.MESH, depth=16, mem=16, kinds=ALL_KINDS):
    return FabricSpec(rows=rows, cols=cols, topology=topology, fu_kinds=kinds, config_mem_depth=depth, data_mem_kb=mem)


class TestHopDistance:
    def test_mesh_is_manhattan(self):
        f = fabric(rows=4, cols=4)
        assert hop_distance(f, (0, 0), (3, 2)) == 5
        assert hop_distance(f, (1, 1), (1, 1)) == 0

    def test_kingmesh_is_chebyshev(self):
        f = fabric(rows=4, cols=4, topology=Topology.KINGMESH)
        assert hop_distance(f, (0, 0), (3, 2)) == 3
        assert hop_distance(f, (0, 0), (1, 1)) == 1

    def test_crossbar_is_single_hop(self):
        f = fabric(rows=4, cols=4, topology=Topology.CROSSBAR)
        assert hop_distance(f, (0, 0), (3, 3)) == 1
        assert hop_distance(f, (2, 2), (2, 2)) == 0

    def test_matches_bfs_over_neighbors(self):
        rng = random.Random(3)
        for topo in Topology:
            f = fabric(rows=4, cols=3, topology=topo)
            tiles = [(r, c) for r in range(4) for c in range(3)]
            for _ in range(40):
                a, b = rng.choice(tiles), rng.choice(tiles)
                dist = {a: 0}
                frontier = [a]
                while frontier and b not in dist:
                    nxt = []
                    for t in frontier:
                        for n in neighbors(f, t):
                            if n not in dist:
                                dist[n] = dist[t] + 1
                                nxt.append(n)
                    frontier = nxt
                assert hop_distance(f, a, b) == dist[b]


def every_grid_up_to_8x8():
    for topo in Topology:
        for rows in range(1, 9):
            for cols in range(1, 9):
                f = fabric(rows=rows, cols=cols, topology=topo)
                yield f, [(r, c) for r in range(rows) for c in range(cols)]


class TestHopTable:
    def test_equals_hop_distance_on_every_pair(self):
        for f, tiles in every_grid_up_to_8x8():
            assert _hop_rows(f) == [[hop_distance(f, a, b) for b in tiles] for a in tiles], f


class TestRoutePath:
    def test_endpoints_steps_and_length(self):
        rng = random.Random(4)
        for topo in Topology:
            f = fabric(rows=4, cols=4, topology=topo)
            tiles = [(r, c) for r in range(4) for c in range(4)]
            for _ in range(40):
                a, b = rng.choice(tiles), rng.choice(tiles)
                path = route_path(f, a, b)
                assert path[0] == a and path[-1] == b
                assert len(path) == hop_distance(f, a, b) + 1
                for u, v in zip(path, path[1:]):
                    assert v in neighbors(f, u)

    def test_equals_breadth_first_definition_on_every_pair(self):
        for f, tiles in every_grid_up_to_8x8():
            for a in tiles:
                paths = bfs_routes(f, a)
                assert [route_path(f, a, b) for b in tiles] == [paths[b] for b in tiles], (f, a)

    def test_deterministic(self):
        f = fabric(rows=4, cols=4)
        assert route_path(f, (0, 0), (3, 3)) == route_path(f, (0, 0), (3, 3))


class TestMinIiBounds:
    def test_resource_bound_counts_slots(self):
        k = chain_kernel(length=5)
        res, rec = min_ii_bounds(k, fabric(rows=2, cols=2))
        assert res == 2  # 5 nodes over 4 tiles
        assert rec == 1

    def test_recurrence_bound_is_cycle_ratio(self):
        k = accumulator_kernel(latency=3, distance=2)
        res, rec = min_ii_bounds(k, FULL_FABRIC)
        assert rec == 3  # ceil((3 + 3) / 2)

    def test_missing_kind_raises(self):
        k = accumulator_kernel()
        with pytest.raises(ValueError):
            min_ii_bounds(k, fabric(kinds=frozenset({FuKind.ADD}), mem=0))

    def test_enumeration_and_search_agree(self):
        rng = random.Random(21)
        for _ in range(150):
            k = random_dfg(rng)
            assert _rec_by_search(k) == rec_mii_by_enumeration(k)

    def test_search_matches_enumeration_on_every_builtin_variant(self):
        from cgraforge.kernel import BUILTIN_KERNELS, TransformError, apply_sw_params, load_kernel

        for name in BUILTIN_KERNELS:
            for u in range(1, 9):
                for v in range(1, 5):
                    try:
                        k = apply_sw_params(load_kernel(name), u, v)
                    except TransformError:
                        continue
                    assert min_ii_bounds(k, FULL_FABRIC)[1] == rec_mii_by_enumeration(k), (name, u, v)


class TestMapKernelSuccess:
    def test_chain_reaches_ii_one(self):
        m = map_checked(chain_kernel(length=3), FULL_FABRIC)
        assert m.ii == 1

    def test_accumulator_hits_recurrence_bound(self):
        m = map_checked(accumulator_kernel(), FULL_FABRIC)
        assert m.ii == 2

    def test_schedule_len_is_last_finish(self):
        k = chain_kernel(length=3, latency=2)
        m = map_checked(k, FULL_FABRIC)
        assert m.schedule_len == max(start + 2 for _, start in m.schedule.values())

    def test_every_builtin_maps_on_full_fabric(self):
        from cgraforge.kernel import BUILTIN_KERNELS, load_kernel

        for name in BUILTIN_KERNELS:
            m = map_checked(load_kernel(name), FULL_FABRIC)
            assert isinstance(m, MappingResult), name

    def test_deterministic_without_seed(self):
        from cgraforge.kernel import load_kernel

        k = load_kernel("fir")
        a = map_kernel(k, FULL_FABRIC)
        b = map_kernel(k, FULL_FABRIC)
        assert a == b

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(17)
        for _ in range(25):
            k = random_dfg(rng)
            for topo in Topology:
                f = fabric(topology=topo, depth=8)
                got = map_checked(k, f, ORACLE_BUDGET)
                want = brute_force_min_ii(k, f, ORACLE_BUDGET.max_ii)
                if want is None:
                    assert isinstance(got, MapError)
                else:
                    assert isinstance(got, MappingResult) and got.ii == want


# (kernel, unroll, vectorize, rows, cols, topology, II, placement attempts)
# -> (placement digest, attempts_left, slot_failures, dep_failures), taken
# from a scan that tests one (tile, residue) slot at a time, so the bitmask
# scan must try the same slots in the same order and count the same
# rejections. The digest is the first 16 hex digits of
# sha256(json.dumps(sorted(placement.items()))); None means the attempt
# found no placement. Attempts left at -1 mean the budget ran out; "knot"
# (below) is searched to exhaustion inside its budget.
SEARCH_GOLDEN = [
    ("fir", 1, 1, 2, 2, "MESH", 2, 2000, "286dee1e4e19e730", 1951, 174, 144),
    ("latnrm", 1, 1, 2, 3, "CROSSBAR", 9, 2000, "e71b6ff789e88d46", 1784, 947, 10105),
    ("ml_mix", 2, 1, 3, 4, "MESH", 6, 2000, "abab856c9d3f439f", 1986, 52, 138),
    ("conv", 2, 1, 2, 2, "KINGMESH", 6, 2000, "013186beff1271c3", 1992, 25, 42),
    ("ml_mix", 8, 1, 5, 4, "MESH", 28, 300, "e8fdba819d5b174c", 251, 773, 522),
    ("fir", 2, 1, 3, 3, "KINGMESH", 4, 2000, None, -1, 13911, 55912),
    ("embedded_mix", 2, 1, 4, 4, "MESH", 5, 2000, None, -1, 13953, 143664),
    ("knot", 1, 1, 2, 2, "MESH", 3, 100000, None, 99716, 1073, 2052),
    # 8x8 grids where nearly every frame is dead (no tile has a residue
    # inside all placed window partners' intervals)
    ("embedded_mix", 6, 1, 8, 8, "MESH", 15, 400, None, -1, 11420, 345059),
    ("embedded_mix", 8, 1, 8, 8, "KINGMESH", 19, 400, None, -1, 14892, 424558),
    ("ml_mix", 8, 1, 8, 8, "CROSSBAR", 25, 2000, None, -1, 49696, 3110628),
]


def knot_kernel() -> KernelGraph:
    """Six nodes, two carried edges into one PHI: no placement at II 3 on a
    2x2 mesh, and the search proves it well inside its budget."""
    kinds = [("CMP", 3), ("PHI", 1), ("LOAD", 3), ("ADD", 1), ("MUL", 2), ("SUB", 3)]
    edges = [(1, 2, 0), (0, 3, 0), (1, 3, 0), (1, 4, 0), (1, 5, 0), (3, 5, 0), (4, 5, 0), (0, 1, 2), (5, 1, 2)]
    return KernelGraph(
        name="knot",
        nodes=[DfgNode(id=i, kind=FuKind[kind], latency=lat) for i, (kind, lat) in enumerate(kinds)],
        edges=[DfgEdge(src=s, dst=d, distance=dist) for s, d, dist in edges],
        trip_count=32,
    )


class TestSearchGolden:
    @pytest.mark.parametrize("case", SEARCH_GOLDEN, ids=lambda c: f"{c[0]}-u{c[1]}v{c[2]}-{c[3]}x{c[4]}{c[5]}-ii{c[6]}")
    def test_placement_and_counters_are_pinned(self, case):
        from cgraforge.kernel import apply_sw_params, load_kernel

        name, u, v, rows, cols, topo, ii, attempts, digest, left, slots, deps = case
        k = knot_kernel() if name == "knot" else apply_sw_params(load_kernel(name), u, v)
        a = _Attempt(_Tables(k, fabric(rows=rows, cols=cols, topology=Topology[topo])), ii, attempts)
        try:
            placement = a.run()
        except _BudgetExhausted:
            placement = None
            assert left == -1
        got = None if placement is None else hashlib.sha256(json.dumps(sorted(placement.items())).encode()).hexdigest()[:16]
        assert (got, a.attempts_left, a.slot_failures, a.dep_failures) == (digest, left, slots, deps)

    def test_small_placement_in_full(self):
        from cgraforge.kernel import load_kernel

        a = _Attempt(_Tables(load_kernel("fir"), fabric()), 2, 2000)
        assert a.run() == {0: ((0, 0), 0), 1: ((0, 1), 0), 2: ((0, 1), 1), 3: ((1, 1), 0), 4: ((0, 0), 1)}


def wide_window_kernel() -> KernelGraph:
    """A PHI/ADD recurrence whose window stays open for several hops at
    large II, feeding a MUL whose carried self-loop (latency 9) fails every
    II below 9, so the search scans every tile the window allows."""
    kinds = [("PHI", 1), ("ADD", 1), ("MUL", 9)]
    edges = [(0, 1, 0), (1, 0, 1), (1, 2, 0), (2, 2, 1)]
    return KernelGraph(
        name="wide",
        nodes=[DfgNode(id=i, kind=FuKind[kind], latency=lat) for i, (kind, lat) in enumerate(kinds)],
        edges=[DfgEdge(src=s, dst=d, distance=dist) for s, d, dist in edges],
        trip_count=8,
    )


def reference_cases():
    """(kernel, fabric, II, attempts) for the reference comparison."""
    rng = random.Random(29)
    for _ in range(150):
        k = random_dfg(rng, max_nodes=8)
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        attempts = rng.choice([3, 10, 40, 400])
        for topo in Topology:
            f = fabric(rows=rows, cols=cols, topology=topo)
            # from the recurrence bound, where the windows are defined, to
            # past map_kernel's first II: below it the slots run out
            res, rec = min_ii_bounds(k, f)
            for ii in range(rec, max(res, rec, -(-len(k.nodes) // f.tiles)) + 2):
                yield k, f, ii, attempts
    k = wide_window_kernel()
    for rows, cols in [(1, 4), (2, 3), (3, 3)]:
        for topo in Topology:
            for ii in range(2, 9):
                yield k, fabric(rows=rows, cols=cols, topology=topo), ii, 10_000


class TestReferenceSearch:
    def test_attempt_matches_slot_by_slot_reference(self):
        outcomes = {"placed": 0, "exhausted": 0, "out_of_attempts": 0}
        for k, f, ii, attempts in reference_cases():
            want = reference_attempt(k, f, ii, attempts)
            a = _Attempt(_Tables(k, f), ii, attempts)
            try:
                placement = a.run()
            except _BudgetExhausted:
                placement = None
            got = (placement, a.attempts_left, a.slot_failures, a.dep_failures)
            assert got == want, (k, f, ii, attempts)
            if placement is not None:
                outcomes["placed"] += 1
            else:
                outcomes["out_of_attempts" if a.attempts_left < 0 else "exhausted"] += 1
        assert min(outcomes.values()) > 0, outcomes


class TestLargeKernels:
    def test_long_chain_maps_without_recursion(self):
        k = chain_kernel(length=1100)
        f = fabric(rows=8, cols=8, topology=Topology.CROSSBAR, depth=32)
        m = map_kernel(k, f, MapBudget(max_ii=32, placement_attempts=5000))
        assert isinstance(m, MappingResult)
        assert m.ii == 18  # ceil(1100 nodes / 64 tiles)
        assert check_mapping(k, f, m) == []


class TestMapKernelErrors:
    def test_missing_fu_kind(self):
        k = accumulator_kernel()
        err = map_kernel(k, fabric(kinds=frozenset({FuKind.ADD, FuKind.LOAD, FuKind.STORE})))
        assert isinstance(err, MapError)
        assert err.code == "MISSING_FU_KIND"
        assert err.hint["missing_kinds"] == ["PHI"]

    def test_insufficient_tiles(self):
        k = chain_kernel(length=5)
        err = map_kernel(k, fabric(rows=1, cols=1), MapBudget(max_ii=2))
        assert isinstance(err, MapError)
        assert err.code == "INSUFFICIENT_TILES"
        assert err.hint["required_tiles"] == 3  # ceil(5 nodes / max_ii 2)

    def test_recurrence_beyond_ii_bound(self):
        k = accumulator_kernel(latency=8)  # cycle latency 16 over distance 1
        err = map_kernel(k, FULL_FABRIC, MapBudget(max_ii=4))
        assert isinstance(err, MapError)
        assert err.code == "II_BOUND_EXCEEDED"
        assert err.hint["min_ii"] == 16 and err.hint["max_ii"] == 4

    def test_config_mem_overflow_reports_needed_depth(self):
        k = accumulator_kernel()
        good = map_checked(k, fabric(depth=32))
        err = map_kernel(k, fabric(depth=1))
        assert isinstance(err, MapError)
        assert err.code == "CONFIG_MEM_OVERFLOW"
        assert err.hint["required_depth"] == good.ii == 2

    def test_routing_failure_when_hops_break_the_cycle(self):
        # three-node carried cycle, recurrence bound 2, on a 1x2 MESH: any
        # placement splits the cycle across tiles, adding two hops the II
        # cannot absorb, and the exhausted search blames the topology
        k = KernelGraph(
            name="tricycle",
            nodes=[
                DfgNode(id=0, kind=FuKind.PHI, latency=1),
                DfgNode(id=1, kind=FuKind.ADD, latency=1),
                DfgNode(id=2, kind=FuKind.ADD, latency=1),
            ],
            edges=[
                DfgEdge(src=0, dst=1, distance=0),
                DfgEdge(src=1, dst=2, distance=0),
                DfgEdge(src=2, dst=0, distance=2),
            ],
            trip_count=32,
        )
        err = map_kernel(k, fabric(rows=1, cols=2), MapBudget(max_ii=2))
        assert isinstance(err, MapError)
        assert err.code == "ROUTING_FAILURE"
        assert err.hint["topology"] == "MESH"
        # the same cycle fits once a richer topology shortens the detour
        m = map_checked(k, fabric(rows=1, cols=2, topology=Topology.CROSSBAR), MapBudget(max_ii=3))
        assert m.ii == 3

    def test_budget_exhaustion_reports_ii_bound(self):
        from cgraforge.kernel import load_kernel

        err = map_kernel(load_kernel("fir"), FULL_FABRIC, MapBudget(max_ii=2, placement_attempts=1))
        assert isinstance(err, MapError)
        assert err.code == "II_BOUND_EXCEEDED"
        assert err.hint["min_ii"] >= 1


class TestCheckMapping:
    def make(self):
        k = accumulator_kernel()
        f = fabric()
        m = map_checked(k, f)
        return k, f, m

    def test_clean_mapping_passes(self):
        k, f, m = self.make()
        assert check_mapping(k, f, m) == []

    def test_detects_off_grid_tile(self):
        k, f, m = self.make()
        schedule = dict(m.schedule)
        tile, start = schedule[0]
        schedule[0] = ((9, 9), start)
        bad = dataclasses.replace(m, schedule=schedule)
        assert check_mapping(k, f, bad) != []

    def test_detects_slot_collision(self):
        k, f, m = self.make()
        schedule = dict(m.schedule)
        tile0, start0 = schedule[0]
        _, start1 = schedule[1]
        schedule[1] = (tile0, start0 + m.ii)  # same tile, same residue
        bad = dataclasses.replace(m, schedule=schedule)
        assert any("slot" in p.lower() or "conflict" in p.lower() for p in check_mapping(k, f, bad))

    def test_detects_dependence_violation(self):
        k, f, m = self.make()
        schedule = dict(m.schedule)
        tile, _ = schedule[1]
        schedule[1] = (tile, 0)
        schedule[0] = (schedule[0][0], 1)
        bad = dataclasses.replace(m, schedule=schedule)
        assert check_mapping(k, f, bad) != []

    def test_detects_broken_route(self):
        k, f, m = self.make()
        routes = list(m.routes)
        routes[0] = ((0, 0), (1, 1))  # not a mesh-adjacent step
        bad = dataclasses.replace(m, routes=tuple(routes))
        assert check_mapping(k, f, bad) != []

    def test_detects_route_endpoint_mismatch(self):
        k, f, m = self.make()
        routes = list(m.routes)
        src_tile = m.schedule[k.edges[0].src][0]
        wrong = (1, 0) if src_tile != (1, 0) else (0, 1)
        routes[0] = (wrong,) + routes[0][1:]
        bad = dataclasses.replace(m, routes=tuple(routes))
        assert check_mapping(k, f, bad) != []


class TestSpeedup:
    def test_formula_on_known_schedule(self):
        k = chain_kernel(length=2, latency=4, trip_count=10)
        m = map_checked(k, FULL_FABRIC)
        # baseline: trip * total latency; pipelined: fill + ii per iteration
        expected = (10 * 8) / (m.schedule_len + m.ii * (10 - 1))
        assert speedup(k, m, 10) == pytest.approx(expected, rel=1e-12)

    def test_transform_shrinks_trip_in_denominator(self):
        k = chain_kernel(length=2, latency=4, trip_count=10)
        m = map_checked(k, FULL_FABRIC)
        faster = speedup(k, m, 5)
        slower = speedup(k, m, 10)
        assert faster > slower
