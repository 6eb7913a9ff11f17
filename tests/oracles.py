"""Independent reference implementations used to cross-check the library.

Everything here is deliberately built differently from the code under test:
the min-II search enumerates (tile, residue) assignments in plain node-id
order with no ordering heuristics and no symmetry breaking, re-solving the
dependence system from scratch after every partial assignment, and the
dependence oracle expands kernels edge by edge into explicit iteration-space
pairs. Slow but simple beats fast but clever for a referee.
"""

from __future__ import annotations

from cgraforge.arch import FabricSpec, Topology
from cgraforge.kernel import KernelGraph


def oracle_hops(f: FabricSpec, a: tuple[int, int], b: tuple[int, int]) -> int:
    if a == b:
        return 0
    if f.topology is Topology.CROSSBAR:
        return 1
    dr = abs(a[0] - b[0])
    dc = abs(a[1] - b[1])
    return max(dr, dc) if f.topology is Topology.KINGMESH else dr + dc


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


def _no_positive_cycle(
    placed: dict[int, tuple[tuple[int, int], int]],
    edges: list[tuple[int, int, int]],
    lat: dict[int, int],
    f: FabricSpec,
    ii: int,
) -> bool:
    """Bellman-Ford (longest path, all-zero virtual source) over the residue
    difference constraints restricted to the placed nodes."""
    arcs = []
    for u, v, d in edges:
        if u in placed and v in placed:
            (tu, ru), (tv, rv) = placed[u], placed[v]
            w = _ceil_div(lat[u] + oracle_hops(f, tu, tv) + ru - rv, ii) - d
            arcs.append((u, v, w))
    dist = {n: 0 for n in placed}
    for _ in range(len(placed) + 1):
        changed = False
        for u, v, w in arcs:
            if dist[u] + w > dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return True
    return False


def _verified_starts(
    k: KernelGraph,
    f: FabricSpec,
    ii: int,
    placed: dict[int, tuple[tuple[int, int], int]],
) -> dict[int, int] | None:
    """Materialize start cycles for a complete assignment and re-check the
    raw scheduling constraints; None if anything is off."""
    lat = {n.id: n.latency for n in k.nodes}
    q = {n: 0 for n in placed}
    arcs = []
    for e in k.edges:
        (tu, ru), (tv, rv) = placed[e.src], placed[e.dst]
        w = _ceil_div(lat[e.src] + oracle_hops(f, tu, tv) + ru - rv, ii) - e.distance
        arcs.append((e.src, e.dst, w))
    for _ in range(len(placed) + 1):
        changed = False
        for u, v, w in arcs:
            if q[u] + w > q[v]:
                q[v] = q[u] + w
                changed = True
        if not changed:
            break
    else:
        return None
    starts = {n: r + ii * q[n] for n, (_, r) in placed.items()}
    slots = set()
    for n, ((tile), r) in placed.items():
        if starts[n] < 0 or starts[n] % ii != r:
            return None
        slot = (tile, starts[n] % ii)
        if slot in slots:
            return None
        slots.add(slot)
    for e in k.edges:
        hop = oracle_hops(f, placed[e.src][0], placed[e.dst][0])
        if starts[e.dst] < starts[e.src] + lat[e.src] + hop - e.distance * ii:
            return None
    return starts


def _zero_hop_feasible(k: KernelGraph, ii: int) -> bool:
    """Bellman-Ford over the whole graph pretending every hop is zero. A
    positive cycle here already dooms the II, because real hops only make
    the constraint weights larger."""
    lat = _lat(k)
    arcs = [(e.src, e.dst, lat[e.src] - e.distance * ii) for e in k.edges]
    dist = {n.id: 0 for n in k.nodes}
    for _ in range(len(k.nodes) + 1):
        changed = False
        for u, v, w in arcs:
            if dist[u] + w > dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return True
    return False


def _lat(k: KernelGraph) -> dict[int, int]:
    return {n.id: n.latency for n in k.nodes}


def _cycle_first_order(k: KernelGraph) -> list[int]:
    """Node ids with members of dependence cycles first (mutual
    reachability by plain BFS), so an unsatisfiable cycle is refuted at the
    shallowest possible search depth. Order never affects which assignments
    exist, only how fast dead branches die."""
    succ: dict[int, set[int]] = {n.id: set() for n in k.nodes}
    for e in k.edges:
        succ[e.src].add(e.dst)

    def reaches(a: int, b: int) -> bool:
        seen = {a}
        frontier = [a]
        while frontier:
            nxt = []
            for u in frontier:
                for v in succ[u]:
                    if v == b:
                        return True
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return False

    ids = sorted(succ)
    cyclic = [n for n in ids if reaches(n, n)]
    return cyclic + [n for n in ids if n not in cyclic]


def brute_force_min_ii(k: KernelGraph, f: FabricSpec, max_ii: int) -> int | None:
    """Smallest feasible II by exhaustive search, or None above max_ii."""
    lat = _lat(k)
    ids = _cycle_first_order(k)
    tiles = [(r, c) for r in range(f.rows) for c in range(f.cols)]
    edges = [(e.src, e.dst, e.distance) for e in k.edges]

    for ii in range(1, max_ii + 1):
        if not _zero_hop_feasible(k, ii):
            continue
        placed: dict[int, tuple[tuple[int, int], int]] = {}
        used: set[tuple[tuple[int, int], int]] = set()

        def dfs(i: int) -> bool:
            if i == len(ids):
                return True
            nid = ids[i]
            for tile in tiles:
                for r in range(ii):
                    if (tile, r) in used:
                        continue
                    placed[nid] = (tile, r)
                    used.add((tile, r))
                    if _no_positive_cycle(placed, edges, lat, f, ii) and dfs(i + 1):
                        return True
                    del placed[nid]
                    used.discard((tile, r))
            return False

        if dfs(0):
            assert _verified_starts(k, f, ii, placed) is not None, "oracle found an invalid assignment"
            return ii
    return None


def rec_mii_by_enumeration(k: KernelGraph) -> int:
    """Recurrence-bound min II: max over elementary dependence cycles of
    ceil(sum latency / sum distance), 1 without a carried cycle. Every
    elementary cycle is listed once, from its smallest node id."""
    lat = _lat(k)
    adj: dict[int, list[tuple[int, int]]] = {n.id: [] for n in k.nodes}
    for e in k.edges:
        adj[e.src].append((e.dst, e.distance))
    best = 1

    def walk(anchor: int, u: int, lat_sum: int, dist_sum: int, on_path: set[int]) -> None:
        nonlocal best
        for v, d in adj[u]:
            if v == anchor:
                if dist_sum + d > 0:
                    best = max(best, _ceil_div(lat_sum + lat[u], dist_sum + d))
            elif v > anchor and v not in on_path:
                on_path.add(v)
                walk(anchor, v, lat_sum + lat[u], dist_sum + d, on_path)
                on_path.discard(v)

    for a in sorted(adj):
        walk(a, a, 0, 0, {a})
    return best


# ---------------------------------------------------------------------------
# Iteration-space dependence pairs
# ---------------------------------------------------------------------------


def dependence_pairs(k: KernelGraph) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """All ((iteration, node), (iteration, node)) dependence pairs a kernel
    describes over its full iteration space."""
    pairs = set()
    for e in k.edges:
        for i in range(k.trip_count - e.distance):
            pairs.add(((i, e.src), (i + e.distance, e.dst)))
    return pairs


def transformed_pairs_in_original_space(
    kt: KernelGraph, unroll_factor: int, vectorize_factor: int
) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """Dependence pairs of a transformed kernel, mapped back into the
    original kernel's iteration space.

    The transform pipeline is unroll by a, then vectorize by b. Transformed
    node n' is copy n' % a of original node n' // a; transformed iteration I
    at SIMD lane l covers original iteration (I * b + l) * a + copy.
    """
    a, b = unroll_factor, vectorize_factor

    def back(i: int, lane: int, node: int) -> tuple[int, int]:
        return ((i * b + lane) * a + node % a, node // a)

    pairs = set()
    for e in kt.edges:
        for i in range(kt.trip_count - e.distance):
            for lane in range(b):
                pairs.add((back(i, lane, e.src), back(i + e.distance, lane, e.dst)))
    return pairs
