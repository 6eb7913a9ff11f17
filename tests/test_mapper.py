"""Modulo scheduler: distances, bounds, search, diagnostics, the checker."""

import dataclasses
import gc
import hashlib
import json
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgraforge import mapper
from cgraforge.arch import FabricSpec, FuKind, Topology, neighbors
from cgraforge.decode import InputError
from cgraforge.kernel import DfgEdge, DfgNode, KernelGraph, apply_sw_params, load_kernel
from cgraforge.mapper import (
    MapBudget,
    MapError,
    MappingResult,
    _Attempt,
    _BudgetExhausted,
    _build_result,
    _FabricTables,
    _hop_rows,
    _KernelTables,
    check_mapping,
    hop_distance,
    map_kernel,
    min_ii_bounds,
    route_path,
    route_paths,
    speedup,
)
from helpers import ALL_KINDS, FULL_FABRIC, accumulator_kernel, chain_kernel, fresh_memos, map_checked, random_dfg
from oracles import (
    bfs_routes,
    build_result_by_two_dicts,
    brute_force_min_ii,
    oracle_hops,
    rec_mii_by_enumeration,
    reference_attempt,
    windows_by_dict_floyd_warshall,
)

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
            assert [list(row) for row in _hop_rows(f)] == [[hop_distance(f, a, b) for b in tiles] for a in tiles], f


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
            assert _KernelTables(k).rec_mii == rec_mii_by_enumeration(k)

    def test_search_matches_enumeration_on_every_builtin_variant(self):
        for k in builtin_variants():
            assert min_ii_bounds(k, FULL_FABRIC)[1] == rec_mii_by_enumeration(k), k.name


class TestWindows:
    def test_equal_the_dict_floyd_warshall(self):
        """The static windows from RecMII to RecMII + 2, where the searches
        read them, equal those of the dict-based Floyd-Warshall kept in
        oracles, on random kernels and every built-in variant."""
        rng = random.Random(23)
        kernels = [random_dfg(rng) for _ in range(150)] + builtin_variants()
        windowed = 0
        for k in kernels:
            kt = _KernelTables(k)
            for ii in range(kt.rec_mii, kt.rec_mii + 3):
                got = kt.windows(ii)
                assert got == windows_by_dict_floyd_warshall(kt, ii), (k.name, ii)
                windowed += any(got)
        assert windowed > 100, windowed


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
        b = map_kernel(dataclasses.replace(k), FULL_FABRIC)  # a copy is searched afresh
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
# -> (placement digest, attempts_left, dep_rejected). The digest and
# attempts left are taken from a scan that tests one (tile, residue) slot at
# a time, so the bitmask scan must try the same slots in the same order and
# draw the same attempts. The digest is the first 16 hex digits of
# sha256(json.dumps(sorted(placement.items()))); None means the attempt
# found no placement. Attempts left at -1 mean the budget ran out; "knot"
# and "pair" (below), conv and fir on 1x2 are searched to exhaustion inside
# their budgets, and there the flag is the scan's dependence failures > 0.
# fir on 1x2 runs out of slots (5 nodes, 4 slots) with no dependence
# rejecting one; on "pair" only dead frames reject, and on "fed_pair" only
# a doomed frame's children.
SEARCH_GOLDEN = [
    ("fir", 1, 1, 2, 2, "MESH", 2, 2000, "286dee1e4e19e730", 1951, True),
    ("latnrm", 1, 1, 2, 3, "CROSSBAR", 9, 2000, "e71b6ff789e88d46", 1784, True),
    ("ml_mix", 2, 1, 3, 4, "MESH", 6, 2000, "abab856c9d3f439f", 1986, True),
    ("conv", 2, 1, 2, 2, "KINGMESH", 6, 2000, "013186beff1271c3", 1992, True),
    ("ml_mix", 8, 1, 5, 4, "MESH", 28, 300, "e8fdba819d5b174c", 251, True),
    ("fir", 2, 1, 3, 3, "KINGMESH", 4, 2000, None, -1, True),
    ("embedded_mix", 2, 1, 4, 4, "MESH", 5, 2000, None, -1, True),
    ("knot", 1, 1, 2, 2, "MESH", 3, 100000, None, 99716, True),
    # 8x8 grids where nearly every frame is dead (no tile has a residue
    # inside all placed window partners' intervals)
    ("embedded_mix", 6, 1, 8, 8, "MESH", 15, 400, None, -1, True),
    ("embedded_mix", 8, 1, 8, 8, "KINGMESH", 19, 400, None, -1, True),
    ("ml_mix", 8, 1, 8, 8, "CROSSBAR", 25, 2000, None, -1, True),
    ("spmv", 1, 1, 2, 2, "MESH", 2, 2000, "7345925ba5a8066a", 1995, False),
    ("conv", 1, 1, 2, 2, "MESH", 2, 2000, None, 1950, True),
    ("fir", 1, 1, 1, 2, "MESH", 2, 2000, None, 1984, False),
    ("pair", 1, 1, 2, 2, "MESH", 2, 100, None, 99, True),
    ("fed_pair", 1, 1, 2, 2, "MESH", 2, 100, None, 92, True),
    # the winning attempts of the deepest searches CI runs (map's budget)
    ("latnrm", 2, 1, 2, 2, "MESH", 20, 50000, "5869e71128e8273b", 37866, True),
    ("latnrm", 2, 1, 3, 3, "MESH", 20, 50000, "5869e71128e8273b", 4194, True),
    ("latnrm", 2, 1, 4, 4, "KINGMESH", 21, 50000, "4c7978bdeaab81e0", 48682, True),
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


def pair_kernel(fed: bool = False) -> KernelGraph:
    """Two nodes in a cycle whose window at II 2 is [2, 2]: the MUL must
    take the PHI's own slot, so every frame for it is dead. When fed, an
    ADD outside the cycle, scheduled between them, feeds the MUL: its frame
    is then doomed, and the MUL's dead frames are never built."""
    nodes = [DfgNode(id=0, kind=FuKind.PHI, latency=2), DfgNode(id=1, kind=FuKind.MUL, latency=2)]
    edges = [DfgEdge(src=0, dst=1, distance=0), DfgEdge(src=1, dst=0, distance=2)]
    if fed:
        nodes.append(DfgNode(id=2, kind=FuKind.ADD, latency=1))
        edges.append(DfgEdge(src=2, dst=1, distance=0))
    return KernelGraph(name="fed_pair" if fed else "pair", nodes=nodes, edges=edges, trip_count=16)


LOCAL_KERNELS = {"knot": knot_kernel, "pair": pair_kernel, "fed_pair": lambda: pair_kernel(fed=True)}


class TestSearchGolden:
    @pytest.mark.parametrize("case", SEARCH_GOLDEN, ids=lambda c: f"{c[0]}-u{c[1]}v{c[2]}-{c[3]}x{c[4]}{c[5]}-ii{c[6]}")
    def test_placement_and_counters_are_pinned(self, case):
        from cgraforge.kernel import apply_sw_params, load_kernel

        name, u, v, rows, cols, topo, ii, attempts, digest, left, flag = case
        k = LOCAL_KERNELS[name]() if name in LOCAL_KERNELS else apply_sw_params(load_kernel(name), u, v)
        f = fabric(rows=rows, cols=cols, topology=Topology[topo])
        a = _Attempt(_KernelTables(k), _FabricTables(f), ii, attempts)
        try:
            placement = a.run()
        except _BudgetExhausted:
            placement = None
            assert left == -1
        got = None if placement is None else hashlib.sha256(json.dumps(sorted(placement.items())).encode()).hexdigest()[:16]
        assert (got, a.attempts_left, a.dep_rejected) == (digest, left, flag)

    def test_small_placement_in_full(self):
        from cgraforge.kernel import load_kernel

        a = _Attempt(_KernelTables(load_kernel("fir")), _FabricTables(fabric()), 2, 2000)
        assert a.run() == {0: ((0, 0), 0), 1: ((0, 1), 0), 2: ((0, 1), 1), 3: ((1, 1), 0), 4: ((0, 0), 1)}


class TestBudgetMonotonicity:
    """The search order is fixed and a budget only cuts the search short, so
    a larger placement_attempts searches a superset: for one shape, the II
    map_kernel finds never gets worse as the budget grows (an error is worse
    than any II), and every mapping passes check_mapping."""

    @staticmethod
    def assert_never_worse(k: KernelGraph, f: FabricSpec, budgets, max_ii: int = 32) -> list:
        iis = []
        for attempts in budgets:
            got = map_checked(k, f, MapBudget(max_ii=max_ii, placement_attempts=attempts))
            iis.append(got.ii if isinstance(got, MappingResult) else None)
        for smaller, larger in zip(iis, iis[1:]):
            assert smaller is None or (larger is not None and larger <= smaller), (budgets, iis)
        return iis

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from(list(Topology)),
        st.integers(1, 3),
        st.integers(1, 3),
        st.lists(st.integers(1, 60), min_size=2, max_size=8, unique=True),
    )
    def test_random_kernels(self, seed, topo, rows, cols, budgets):
        k = random_dfg(random.Random(seed), max_nodes=8)
        self.assert_never_worse(k, fabric(rows=rows, cols=cols, topology=topo), sorted(budgets), max_ii=12)

    def test_a_hard_shape_improves_with_budget(self):
        """latnrm at unroll 2 on a 2x2 mesh, at run's budget and map's: the
        larger one reaches a smaller II."""
        k = apply_sw_params(load_kernel("latnrm"), 2, 1)
        assert self.assert_never_worse(k, fabric(depth=32), [2000, 50_000]) == [21, 20]


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


def attempt(k: KernelGraph, f: FabricSpec, ii: int, attempts: int) -> tuple[_Attempt, dict | None]:
    """One _Attempt run on k and f at II, with its placement or None."""
    a = _Attempt(_KernelTables(k), _FabricTables(f), ii, attempts)
    try:
        return a, a.run()
    except _BudgetExhausted:
        return a, None


def assert_matches_reference(a: _Attempt, placement: dict | None, want: tuple, label) -> bool | None:
    """The placement and attempts left equal reference_attempt's. On an
    attempt searched to exhaustion, dep_rejected equals the reference's
    dependence failures > 0, and is returned; None otherwise."""
    assert (placement, a.attempts_left) == want[:2], label
    if placement is not None or a.attempts_left < 0:
        return None
    assert a.dep_rejected == (want[3] > 0), label
    return a.dep_rejected


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
    # searched to exhaustion at II 2, where only dead or doomed frames reject
    for k in (pair_kernel(), pair_kernel(fed=True)):
        for topo in Topology:
            for ii in (2, 3):
                yield k, fabric(topology=topo), ii, 100


class TestBuildResult:
    def test_equals_the_two_dict_construction(self):
        """_build_result's one pass in node-id order builds the mapping, key
        order included, that the old starts dict and schedule dict built,
        for every SEARCH_GOLDEN placement and every reference-case one."""
        cases = list(reference_cases())
        for name, u, v, rows, cols, topo, ii, attempts, *_ in SEARCH_GOLDEN:
            k = LOCAL_KERNELS[name]() if name in LOCAL_KERNELS else apply_sw_params(load_kernel(name), u, v)
            cases.append((k, fabric(rows=rows, cols=cols, topology=Topology[topo]), ii, attempts))
        placed = 0
        for k, f, ii, attempts in cases:
            a, placement = attempt(k, f, ii, attempts)
            if placement is None:
                continue
            got = _build_result(a.kt, ii, placement, a.q)
            want = build_result_by_two_dicts(a.kt, ii, placement, a.q)
            assert got == want and list(got.schedule.items()) == list(want.schedule.items()), (k.name, f, ii)
            placed += 1
        assert placed > 700


class TestReferenceSearch:
    def test_attempt_matches_slot_by_slot_reference(self):
        outcomes = {"placed": 0, "exhausted, rejected": 0, "exhausted, not rejected": 0, "out_of_attempts": 0}
        for k, f, ii, attempts in reference_cases():
            a, placement = attempt(k, f, ii, attempts)
            flag = assert_matches_reference(a, placement, reference_attempt(k, f, ii, attempts), (k, f, ii, attempts))
            if placement is not None:
                outcomes["placed"] += 1
            elif flag is None:
                outcomes["out_of_attempts"] += 1
            else:
                outcomes["exhausted, rejected" if flag else "exhausted, not rejected"] += 1
        assert min(outcomes.values()) > 0, outcomes

    # (rows, cols, topology, II) where the knot kernel's search settles
    # many dead frames: 20 of 45 frames on the 1x2 mesh, where it is
    # searched to exhaustion, and 6 of 13 and 16 of 23 where it places.
    BUDGET_EDGE = [(1, 2, "MESH", 3), (2, 2, "KINGMESH", 4), (3, 3, "CROSSBAR", 4)]

    def test_every_budget_up_to_the_search_matches_reference(self, monkeypatch):
        """Every placement_attempts value from 1 up to the placements the
        search needs, so that the budget runs out next to each dead frame in
        turn: the one-step charge and the in-place undo must leave the
        placement and attempts where the slot-by-slot scan leaves them."""
        dead = []  # per frame built, whether it was dead
        real_frame = _Attempt._frame

        def frame(self, idx, occ):
            fr = real_frame(self, idx, occ)
            dead.append(fr is None)
            return fr

        monkeypatch.setattr(_Attempt, "_frame", frame)
        k = knot_kernel()
        out_next_to_dead = 0
        for rows, cols, topo, ii in self.BUDGET_EDGE:
            f = fabric(rows=rows, cols=cols, topology=Topology[topo])
            for attempts in range(1, 100):
                a, placement = attempt(k, f, ii, attempts)
                assert_matches_reference(a, placement, reference_attempt(k, f, ii, attempts), (f, ii, attempts))
                if a.attempts_left >= 0:  # the search ended inside its budget
                    break
                out_next_to_dead += dead[-1]
            else:
                pytest.fail(f"search on {f} at II {ii} needs over 99 placements")
        # every one of the 42 dead frames but the last on the 1x2 mesh, after
        # which that search ends without another placement
        assert out_next_to_dead == 41

    def test_budgets_on_a_hard_shape_match_reference(self, monkeypatch):
        """latnrm at unroll 2 on a 3x3 mesh at II 19 runs out of every
        budget up to 150. Nearly all its live frames have two or more
        placed DFG neighbors, and they ask for a few tile orders over and
        over: the attempt's memo must hand back the order a fresh sort
        gives, at every sixth budget."""
        live = []  # per live frame past the root, its placed DFG neighbors
        real_frame = _Attempt._frame

        def frame(self, idx, occ):
            fr = real_frame(self, idx, occ)
            if fr is not None and idx:
                live.append(len(self.kt.near[idx]))  # nodes 0..idx-1 are the placed ones
            return fr

        monkeypatch.setattr(_Attempt, "_frame", frame)
        k = apply_sw_params(load_kernel("latnrm"), 2, 1)
        f = fabric(rows=3, cols=3)
        for attempts in range(1, 151, 6):
            live.clear()
            want = reference_attempt(k, f, 19, attempts)
            a = _Attempt(_KernelTables(k), _FabricTables(f), 19, attempts)
            with pytest.raises(_BudgetExhausted):
                a.run()
            assert_matches_reference(a, None, want, attempts)
        # the last attempt: 77 live frames, 71 of them with two or more
        # placed neighbors, served by 4 sorts
        assert (len(live), sum(n >= 2 for n in live), len(a.orders)) == (77, 71, 4)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(
    st.sampled_from(list(Topology)),
    st.integers(1, 6),
    st.integers(1, 6),
    st.lists(st.lists(st.integers(0, 35), max_size=4), min_size=1, max_size=6),
)
def test_tile_order_memo_equals_a_fresh_sort(topo, rows, cols, keys):
    """Every key asked twice, in turn: the memo's order, first sorted then
    looked up, is every tile by summed hops to the key's tiles, row-major
    among equals."""
    f = fabric(rows=rows, cols=cols, topology=topo)
    tiles = [(r, c) for r in range(rows) for c in range(cols)]
    a = _Attempt(_KernelTables(chain_kernel()), _FabricTables(f), 2, 10)
    for near in [tuple(t % len(tiles) for t in key) for key in keys] * 2:
        fresh = sorted(range(len(tiles)), key=lambda t: (sum(oracle_hops(f, tiles[t], tiles[n]) for n in near), t))
        assert a._tile_order(near) == fresh, near


def tangle_kernel() -> KernelGraph:
    """Five nodes in one cycle component. Node 3 feeds nodes 0 and 2 back,
    so it is not forward_only: at II 5 on a 1x3 mesh the next node's table
    is empty before node 3 places, yet some of its placements fail the
    longest-path check, so its frame must be searched, not settled."""
    lats = [2, 2, 1, 2, 3]
    edges = [(0, 2, 0), (0, 4, 0), (1, 3, 0), (2, 0, 1), (2, 1, 1), (3, 0, 2), (3, 2, 1), (4, 0, 1)]
    return KernelGraph(
        name="tangle",
        nodes=[DfgNode(id=i, kind=FuKind.ADD, latency=lat) for i, lat in enumerate(lats)],
        edges=[DfgEdge(src=s, dst=d, distance=dist) for s, d, dist in edges],
        trip_count=32,
    )


class TestDoomedFrames:
    """A frame is doomed when its node is forward_only, so that none of its
    placements can fail, and the next node's table is empty before it
    places: every child it would push is dead. With the budget for all its
    candidates left it is settled in one step; with less it is searched as
    usual, so the budget runs out on the slot it always did."""

    # (kernel, fabric, II, budgets): every budget in the range, compared with
    # the slot-by-slot reference. fir at unroll 2 settles a doomed frame of
    # 30 candidates after every 31 placements (the golden case above runs
    # out of its 2 000 after 64 of them); 1-130 covers the first four. The
    # random kernel is searched to exhaustion in 44 placements and settles
    # 6 doomed frames on the way. The tangle places in 12.
    CASES = [
        (lambda: apply_sw_params(load_kernel("fir"), 2, 1), fabric(3, 3, Topology.KINGMESH), 4, range(1, 131)),
        (lambda: random_dfg(random.Random(155), max_nodes=8), fabric(rows=2, cols=2), 2, range(1, 46)),
        (tangle_kernel, fabric(rows=1, cols=3), 5, range(1, 14)),
    ]

    def test_every_budget_next_to_a_settle_matches_reference(self, monkeypatch):
        fired = {"settled": 0, "searched": 0}  # doomed frames, by how they ended
        real_frame = _Attempt._frame

        def frame(self, idx, occ):
            left = self.attempts_left
            fr = real_frame(self, idx, occ)
            if fr is None:
                fired["settled"] += self.attempts_left < left
            elif (
                idx + 1 < len(self.kt.order)
                and self.kt.forward_only[idx]
                and not (self.wide ^ occ) & self.acc[idx + 1]
            ):
                _, allow = fr
                assert self.attempts_left < allow.bit_count()
                fired["searched"] += 1
            return fr

        monkeypatch.setattr(_Attempt, "_frame", frame)
        for make, f, ii, budgets in self.CASES:
            k = make()
            ended_inside = False
            for attempts in budgets:
                a, placement = attempt(k, f, ii, attempts)
                assert_matches_reference(a, placement, reference_attempt(k, f, ii, attempts), (k.name, attempts))
                ended_inside = a.attempts_left >= 0
            assert ended_inside == (k.name != "fir.u2")
        assert fired == {"settled": 332, "searched": 151}, fired

    def test_forward_only_nodes_send_no_edge_back(self):
        k = knot_kernel()  # order 0, 1, 2, 4, 3, 5; node 5 feeds PHI 1 back
        kt = _KernelTables(k)
        assert kt.order == [0, 1, 2, 4, 3, 5]
        assert {kt.order[i] for i, only in enumerate(kt.forward_only) if only} == {0, 1, 2, 3, 4}
        # a self-loop does not count against its node
        assert _KernelTables(accumulator_kernel()).forward_only == (True, False)


def window_slots(a: _Attempt, tile_u: int, r_u: int, lo: int, span: int) -> int:
    """The slots a window partner at (tile_u, r_u) allows, one bit per
    (tile, residue), bit tile * II + r: the smallest start difference at or
    past lo + h that is r - r_u mod II must be at most lo + span - 1 - h,
    h the hops between the tiles."""
    ii = a.ii
    bits = 0
    for t in range(a.ft.tiles):
        h = a.hop_rows[tile_u][t]
        for r in range(ii):
            if lo + h + (r - r_u - lo - h) % ii <= lo + span - 1 - h:
                bits |= 1 << (t * ii + r)
    return bits


class TestWindowProducts:
    """The search keeps acc[v], the AND of the wide masks of v's placed
    window partners, up to date as they are placed and undone. At every
    frame the search builds, and where the search ends, each unplaced
    node's acc must equal a fresh AND over its placed partners, each mask
    worked out slot by slot."""

    @staticmethod
    def checked_search(k: KernelGraph, f: FabricSpec, ii: int, attempts: int) -> int:
        """Search with every frame checked; returns the partner masks the
        checks compared."""
        a = _Attempt(_KernelTables(k), _FabricTables(f), ii, attempts)
        windows: dict[int, list[tuple[int, int, int]]] = {}  # v -> (partner, lo, span)
        for u, later in enumerate(a.kt.windows(ii)):
            for v, lo, span in later:
                windows.setdefault(v, []).append((u, lo, span))
        masks: dict[tuple[int, int, int, int], int] = {}
        compared = 0

        def check(placed, label):
            """Nodes 0..placed-1 are placed, the rest are not."""
            nonlocal compared
            for v in range(placed, len(a.kt.order)):
                want = a.wide
                for u, lo, span in windows.get(v, ()):
                    if u < placed:
                        key = (a.tile_of[u], a.res_of[u], lo, span)
                        if key not in masks:
                            masks[key] = window_slots(a, *key)
                        want &= masks[key]
                        compared += 1
                assert a.acc[v] == want, (label, v)

        real_frame = _Attempt._frame

        def frame(self, idx, occ):
            assert self is a
            check(idx, idx)
            return real_frame(self, idx, occ)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Attempt, "_frame", frame)
            try:
                a.run()
            except _BudgetExhausted:
                pass
        check(a.occ.bit_count(), "end")  # one slot per placed node
        return compared

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from(list(Topology)),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2),
    )
    def test_products_equal_a_fresh_and_on_random_kernels(self, seed, topo, rows, cols, extra_ii):
        k = random_dfg(random.Random(seed), max_nodes=8)
        f = fabric(rows=rows, cols=cols, topology=topo)
        res, rec = min_ii_bounds(k, f)
        ii = max(res, rec, -(-len(k.nodes) // f.tiles)) + extra_ii
        self.checked_search(k, f, ii, 1000)

    # (kernel, fabric, II, budget, partner masks compared). latnrm at unroll
    # 2 runs out of each budget with nearly every node narrowed by several
    # partners; on the 2x2 mesh its search moves partners whose windows
    # are wide. The tangle's node 3 has later partners, and some of its
    # placements fail the longest-path check.
    CASES = [
        (lambda: apply_sw_params(load_kernel("latnrm"), 2, 1), fabric(rows=3, cols=3), 19, 6000, 100_000),
        (lambda: apply_sw_params(load_kernel("latnrm"), 2, 1), fabric(rows=2, cols=2), 19, 6000, 100_000),
        (tangle_kernel, fabric(rows=1, cols=3), 5, 2000, 20),
    ]

    @pytest.mark.parametrize("case", CASES, ids=["latnrm-u2-3x3MESH", "latnrm-u2-2x2MESH", "tangle-1x3MESH"])
    def test_products_equal_a_fresh_and_on_hard_shapes(self, case):
        make, f, ii, attempts, at_least = case
        assert self.checked_search(make(), f, ii, attempts) >= at_least


def builtin_variants() -> list[KernelGraph]:
    """Every legal (unroll, vectorize) variant of every built-in kernel."""
    from cgraforge.kernel import BUILTIN_KERNELS, TransformError, apply_sw_params, load_kernel

    out = []
    for name in BUILTIN_KERNELS:
        base = load_kernel(name)
        for u in range(1, 9):
            for v in range(1, 5):
                try:
                    out.append(apply_sw_params(base, u, v))
                except TransformError:
                    continue
    return out


class TestPreparedTables:
    """map_kernel reads kernel tables kept per kernel object and fabric
    tables kept per (rows, cols, topology); sharing them must not change a
    result, kernel tables must go with their kernel, and the fabric memo
    may not outgrow its bound."""

    BUDGET = MapBudget(max_ii=10, placement_attempts=60)
    FABRICS = (
        fabric(rows=2, cols=3, topology=Topology.MESH),
        fabric(rows=1, cols=2, topology=Topology.KINGMESH),
        fabric(rows=2, cols=3, topology=Topology.CROSSBAR, kinds=ALL_KINDS - {FuKind.DIV}),
    )

    def test_shared_tables_map_as_fresh_ones(self, monkeypatch):
        # Reference: a fresh copy of each kernel, and a fabric memo that
        # keeps nothing. The variants are made after the memos are fresh,
        # so the untransformed ones are loaded kernels that hold no tables.
        fresh_memos(monkeypatch, 0)
        kernels = builtin_variants()
        assert len(kernels) == 113
        want = {
            (i, j): map_kernel(dataclasses.replace(k), f, self.BUDGET)
            for i, k in enumerate(kernels)
            for j, f in enumerate(self.FABRICS)
        }
        fresh_memos(monkeypatch)
        builds = []

        class Counted(mapper._KernelTables):
            def __init__(self, k):
                builds.append(id(k))
                super().__init__(k)

        monkeypatch.setattr(mapper, "_KernelTables", Counted)
        # Groups of kernels, each kernel on every fabric in turn and each
        # fabric on every kernel of the group, starting at a rotating fabric.
        codes = set()
        for start in range(0, len(kernels), 10):
            group = list(enumerate(kernels))[start : start + 10]
            for step in range(len(self.FABRICS)):
                for i, k in group:
                    j = (i + step) % len(self.FABRICS)
                    got = map_kernel(k, self.FABRICS[j], self.BUDGET)
                    assert got == want[i, j], (k.name, j)
                    codes.add(getattr(got, "code", "OK"))
        assert sorted(builds) == sorted(map(id, kernels))  # one build per kernel object
        assert {"OK", "MISSING_FU_KIND", "INSUFFICIENT_TILES", "II_BOUND_EXCEEDED"} <= codes, codes

    def test_route_paths_equal_route_path(self, monkeypatch):
        """Kernels mapped on grids that share tables, fabrics of one shape
        with different FU kinds among them: a search result carries no
        routes, and route_paths gives each edge's route_path between its
        ends' tiles, or the routes a result was given."""
        fresh_memos(monkeypatch)
        fabrics = self.FABRICS + (
            fabric(rows=2, cols=3, topology=Topology.MESH, kinds=ALL_KINDS - {FuKind.DIV}),
            fabric(rows=3, cols=3, topology=Topology.KINGMESH),
        )
        mapped = 0
        for k in builtin_variants()[::4]:
            for f in fabrics:
                got = map_kernel(k, f, self.BUDGET)
                if isinstance(got, MappingResult):
                    assert got.routes is None
                    want = tuple(route_path(f, got.schedule[e.src][0], got.schedule[e.dst][0]) for e in k.edges)
                    assert route_paths(k, f, got) == want
                    given = dataclasses.replace(got, routes=want[::-1])
                    assert route_paths(k, f, given) == want[::-1]
                    mapped += 1
        assert mapped > 20, mapped

    def test_kernel_tables_go_with_their_kernel(self, monkeypatch):
        """The tables are kept on their kernel object, one build per object
        (equal kernels each get their own), and go with it: at once if no
        search was kept, else when the kept searches whose keys hold them
        leave the memo."""
        fresh_memos(monkeypatch)
        for _ in range(40):
            k = chain_kernel(length=3)
            assert min_ii_bounds(k, FULL_FABRIC) == (1, 1)
            tables = weakref.ref(k.derived["tables"])
            del k
            gc.collect()
            assert tables() is None
        kernels = [chain_kernel(length=3) for _ in range(40)]
        for k in kernels:
            assert isinstance(map_kernel(k, FULL_FABRIC), MappingResult)
            assert isinstance(map_kernel(k, FULL_FABRIC), MappingResult)
        tables = [weakref.ref(k.derived["tables"]) for k in kernels]
        assert len({id(t()) for t in tables}) == len(kernels)
        freed = [weakref.ref(k) for k in kernels]
        del k, kernels
        gc.collect()
        assert all(k() is None for k in freed)
        assert all(t() is not None for t in tables)  # held by the kept searches' keys
        mapper._SEARCHES.clear()
        gc.collect()
        assert all(t() is None for t in tables)

    def test_tile_orders_are_kept_per_grid(self, monkeypatch):
        """Two searches on one grid, of different kernels at different IIs,
        share the grid's tile orders: every order a level gets equals a
        fresh sort, each key is sorted once, and the second search reads
        orders that the first sorted."""
        levels = []  # (placed DFG neighbors' tiles, tile order) per live level past the root
        sorts = []  # the key of each sort
        real_frame, real_order = _Attempt._frame, _Attempt._tile_order

        def frame(self, idx, occ):
            fr = real_frame(self, idx, occ)
            if fr is not None and idx:
                levels.append((tuple(self.tile_of[m] for m in self.kt.near[idx]), fr[0]))
            return fr

        def tile_order(self, near):
            sorts.append(near)
            return real_order(self, near)

        monkeypatch.setattr(_Attempt, "_frame", frame)
        monkeypatch.setattr(_Attempt, "_tile_order", tile_order)
        f = fabric(rows=3, cols=3)
        tiles = [(r, c) for r in range(3) for c in range(3)]
        ft = _FabricTables(f)
        asked_by = []  # the keys each search's levels asked for
        for k, ii in ((apply_sw_params(load_kernel("hpc_mix"), 2, 1), 6), (load_kernel("ml_mix"), 3)):
            levels.clear()
            a = _Attempt(_KernelTables(k), ft, ii, 2000)
            assert a.run() is not None and a.orders is ft.orders
            for near, order in levels:
                assert order == sorted(range(9), key=lambda t: (sum(oracle_hops(f, tiles[t], tiles[n]) for n in near), t))
            asked_by.append({near for near, _ in levels})
        assert len(sorts) == len(set(sorts)) == len(ft.orders)
        assert set(ft.orders) == asked_by[0] | asked_by[1]
        assert asked_by[1] - asked_by[0] and asked_by[1] & asked_by[0]  # new keys, and keys the first sorted

    def test_memo_bound_holds_with_orders(self, monkeypatch, tmp_path):
        """Runs of the loop_bound benchmark's kernels under a bound that
        makes the memo drop grids: after every get it holds at most its
        bound in hop-table and order cells, and its counts are those of
        the grids it keeps; dropping grids, and their orders with them,
        changes no history."""
        from cgraforge.orchestrate import RunConfig, run

        def histories(name):
            return [
                run(RunConfig(kernel=k, iterations=12, seed=3), tmp_path / name / k).history_path.read_bytes()
                for k in ("spmv", "relu", "fft", "hpc_mix")
            ]

        fresh_memos(monkeypatch)
        want = histories("want")
        fresh_memos(monkeypatch, fabric_cells=2_000)
        memo = mapper._FABRIC_TABLES
        real_get = memo.get
        gets, dropped = [], []

        def get(f):
            kept = set(memo.entries)
            ft = real_get(f)
            gets.append(ft)
            dropped.extend(kept - set(memo.entries))
            assert memo.cells == sum(g.tiles**2 for g in memo.entries.values())
            assert memo.order_cells == sum(g.tiles * len(g.orders) for g in memo.entries.values())
            assert memo.cells + memo.order_cells <= memo.capacity
            return ft

        monkeypatch.setattr(memo, "get", get)
        assert histories("bounded") == want
        orders = sum(len(ft.orders) for ft in {id(ft): ft for ft in gets}.values())
        assert len(gets) > 100 and len(dropped) > 10 and orders > 100, (len(gets), len(dropped), orders)

    def test_a_search_after_its_grid_was_dropped_maps_as_before(self, monkeypatch):
        """A grid's tables, orders and all, dropped from the memo when
        another grid's orders are charged: a new search on it builds them
        afresh and returns a result equal to the first one's."""
        fresh_memos(monkeypatch, fabric_cells=160)
        memo = mapper._FABRIC_TABLES
        k = apply_sw_params(load_kernel("hpc_mix"), 2, 1)
        budget = MapBudget(max_ii=10, placement_attempts=2000)
        mesh, king = fabric(rows=3, cols=3), fabric(rows=2, cols=2, topology=Topology.KINGMESH)
        first = map_kernel(k, mesh, budget)
        ft = memo.entries[3, 3, Topology.MESH]
        assert isinstance(map_kernel(k, king, budget), MappingResult)
        # 81 + 16 hop cells and the 3x3 grid's 5 orders of 9 fit in 160;
        # the 2x2 grid's 5 orders of 4, charged at the next get, do not
        assert (memo.cells, memo.order_cells, len(memo.entries[2, 2, Topology.KINGMESH].orders)) == (97, 45, 5)
        memo.get(fabric(rows=1, cols=1))
        assert list(memo.entries) == [(2, 2, Topology.KINGMESH), (1, 1, Topology.MESH)]
        mapper._SEARCHES.clear()
        again = map_kernel(k, mesh, budget)
        assert again == first and again is not first
        assert memo.entries[3, 3, Topology.MESH] is not ft
        assert memo.entries[3, 3, Topology.MESH].orders == ft.orders

    def test_fabric_memo_keeps_at_most_its_bound(self, monkeypatch):
        fresh_memos(monkeypatch)
        memo = mapper._FABRIC_TABLES
        k = chain_kernel(length=2)
        shapes = [(r, c, topo) for topo in Topology for r in range(1, 9) for c in range(1, 9)]
        assert sum((r * c) ** 2 for r, c, _ in shapes) > memo.capacity
        for r, c, topo in shapes:
            assert isinstance(map_kernel(k, fabric(rows=r, cols=c, topology=topo)), MappingResult)
            assert memo.cells == sum(ft.tiles**2 for ft in memo.entries.values()) <= memo.capacity
        assert 0 < len(memo.entries) < len(shapes)
        # a grid whose hop table alone exceeds the bound is mapped but not kept
        before = list(memo.entries)
        assert isinstance(map_kernel(k, fabric(rows=17, cols=17)), MappingResult)
        assert list(memo.entries) == before


class TestSearchMemo:
    """map_kernel keeps each search by (kernel tables, rows, cols, topology,
    budget) and checks the FU kinds and the config memory depth on every
    call: a kept answer must equal a fresh search on every fabric of its
    shape, and belong to the kernel object it was made for."""

    BUDGET = MapBudget(max_ii=12, placement_attempts=300)

    @staticmethod
    def counted(monkeypatch) -> list:
        """Record each search the mapper runs, by its memo key."""
        searches = []
        real = mapper._search

        def search(kt, f, budget):
            searches.append((kt, f.rows, f.cols, f.topology, budget))
            return real(kt, f, budget)

        monkeypatch.setattr(mapper, "_search", search)
        return searches

    def test_kept_results_equal_fresh_searches_on_every_fabric_of_a_shape(self, monkeypatch):
        fresh_memos(monkeypatch)
        searches = self.counted(monkeypatch)
        codes = set()
        for k in builtin_variants()[::4]:
            kinds = frozenset(n.kind for n in k.nodes)
            kt = mapper._kernel_tables(k)
            for rows, cols, topo in [(1, 1, Topology.MESH), (2, 3, Topology.KINGMESH), (1, 3, Topology.CROSSBAR)]:
                fits = []
                for depth in (1, 4, 32):
                    for fu in (ALL_KINDS, kinds, kinds - {k.nodes[-1].kind}):
                        f = fabric(rows=rows, cols=cols, topology=topo, depth=depth, kinds=fu)
                        got = map_kernel(k, f, self.BUDGET)
                        assert got == map_kernel(dataclasses.replace(k), f, self.BUDGET), (k.name, f)
                        codes.add(getattr(got, "code", "OK"))
                        if isinstance(got, MappingResult):
                            fits.append(got)
                assert all(m is fits[0] for m in fits)  # one result, shared
            own = [key for key in searches if key[0] is kt]
            assert len(own) == len(set(own)) == 3, k.name  # one search per shape
        assert {"OK", "MISSING_FU_KIND", "CONFIG_MEM_OVERFLOW", "INSUFFICIENT_TILES", "II_BOUND_EXCEEDED"} <= codes, codes

    def test_fu_kinds_and_depth_are_checked_on_every_call(self, monkeypatch):
        fresh_memos(monkeypatch)
        searches = self.counted(monkeypatch)
        k = apply_sw_params(load_kernel("fir"), 2, 1)
        m = map_checked(k, fabric(depth=32))
        assert isinstance(m, MappingResult) and m.ii > 1
        lacking = ALL_KINDS - {k.nodes[0].kind}
        for depth in (32, 1):  # a missing kind wins over the kept mapping and over the depth
            err = map_kernel(k, fabric(depth=depth, kinds=lacking))
            assert isinstance(err, MapError) and err.code == "MISSING_FU_KIND"
        err = map_kernel(k, fabric(depth=m.ii - 1))
        assert isinstance(err, MapError) and err.code == "CONFIG_MEM_OVERFLOW"
        assert err.hint == {"required_depth": m.ii}
        assert map_kernel(k, fabric(depth=m.ii)) is m
        assert len(searches) == 1

    def test_a_kernel_at_a_freed_kernels_id_gets_its_own_search(self, monkeypatch):
        """A kernel freed after its search, and a new kernel that the
        allocator puts at the same id: the new one is searched, and its
        answer is its own, not the kept one."""
        fresh_memos(monkeypatch)
        template = chain_kernel(length=3)
        want = map_kernel(dataclasses.replace(template), FULL_FABRIC)
        assert want.ii == 1
        fields = {f.name: getattr(template, f.name) for f in dataclasses.fields(template)}
        reused = 0
        for _ in range(200):
            old = accumulator_kernel()
            assert map_kernel(old, FULL_FABRIC).ii == 2
            old_id = id(old)
            del old  # its search stays kept
            new = KernelGraph(**fields)
            if id(new) == old_id:
                reused += 1
                assert map_kernel(new, FULL_FABRIC) == want
        assert reused > 0

    def test_the_memo_keeps_the_searches_used_last(self, monkeypatch):
        fresh_memos(monkeypatch)
        monkeypatch.setattr(mapper, "SEARCHES_KEPT", 3)
        searches = self.counted(monkeypatch)
        k = chain_kernel(length=4)
        for rows in (1, 2, 3, 1, 4, 2, 1):
            assert isinstance(map_kernel(k, fabric(rows=rows)), MappingResult)
            assert len(mapper._SEARCHES) <= 3
        # 1, 2, 3 kept; 1 found and moved last; 4 drops 2, the least
        # recently used; 2 is searched again and drops 3; 1 found again
        assert [key[1] for key in searches] == [1, 2, 3, 4, 2]
        assert [key[1] for key in mapper._SEARCHES] == [4, 2, 1]


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

    @pytest.mark.parametrize("fed", [False, True])
    @pytest.mark.parametrize("topo", list(Topology), ids=str)  # pytest would name a str enum member by its value
    def test_routing_failure_when_only_dead_frames_reject(self, topo, fed):
        # the pair's window puts the MUL on the PHI's slot at II 2, so each
        # frame for it is dead, or the fed pair's ADD frame is doomed; an II
        # range that ends there blames the routing, and II 3 opens the window
        err = map_kernel(pair_kernel(fed), fabric(topology=topo), MapBudget(max_ii=2))
        assert isinstance(err, MapError) and err.code == "ROUTING_FAILURE"
        assert map_checked(pair_kernel(fed), fabric(topology=topo), MapBudget(max_ii=3)).ii == 3

    @pytest.mark.parametrize("kwargs", [{"max_ii": 0}, {"max_ii": -3}, {"placement_attempts": 0}])
    def test_budget_below_one_is_bad_input(self, kwargs):
        with pytest.raises(InputError) as raised:
            MapBudget(**kwargs)
        assert raised.value.code == "BAD_VALUE"
        assert f"budget.{next(iter(kwargs))}=" in str(raised.value)

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
        routes = list(route_paths(k, f, m))
        routes[0] = ((0, 0), (1, 1))  # not a mesh-adjacent step
        bad = dataclasses.replace(m, routes=tuple(routes))
        assert check_mapping(k, f, bad) != []

    def test_detects_route_endpoint_mismatch(self):
        k, f, m = self.make()
        routes = list(route_paths(k, f, m))
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
