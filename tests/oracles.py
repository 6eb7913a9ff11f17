"""Independent reference implementations used to cross-check the library.

Everything here is deliberately built differently from the code under test:
the min-II search enumerates (tile, residue) assignments in plain node-id
order with no ordering heuristics and no symmetry breaking, re-solving the
dependence system from scratch after every partial assignment, and the
dependence oracle expands kernels edge by edge into explicit iteration-space
pairs. Slow but simple beats fast but clever for a referee. The one
exception is reference_attempt, which must try slots in the mapper's own
order to check its counters: it keeps that order but scans one slot at a
time, tests windows by enumeration and re-solves feasibility from scratch.
"""

from __future__ import annotations

from cgraforge.arch import FabricSpec, Topology, neighbors
from cgraforge.kernel import KernelGraph


def oracle_hops(f: FabricSpec, a: tuple[int, int], b: tuple[int, int]) -> int:
    if a == b:
        return 0
    if f.topology is Topology.CROSSBAR:
        return 1
    dr = abs(a[0] - b[0])
    dc = abs(a[1] - b[1])
    return max(dr, dc) if f.topology is Topology.KINGMESH else dr + dc


def bfs_routes(f: FabricSpec, a: tuple[int, int]) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    """route_path's definition, from a to every tile at once: breadth-first
    search from a expanding arch.neighbors in sorted coordinate order, each
    tile's path running back through the tile that discovered it."""
    paths = {a: (a,)}
    queue = [a]
    for cur in queue:
        if len(paths) == f.tiles:
            break
        for nxt in sorted(neighbors(f, cur)):
            if nxt not in paths:
                paths[nxt] = paths[cur] + (nxt,)
                queue.append(nxt)
    return paths


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


class _OutOfAttempts(Exception):
    pass


def reference_attempt(
    k: KernelGraph, f: FabricSpec, ii: int, attempts: int
) -> tuple[dict[int, tuple[tuple[int, int], int]] | None, int, int, int]:
    """One II attempt of the mapper's search, scanned one (tile, residue)
    slot at a time: (placement or None, attempts left, slot failures,
    dependence failures), attempts left -1 when the budget ran out.

    The search order is the mapper's: nodes by (ASAP level over distance-0
    edges, id); the first node on residue 0 and one tile per symmetry orbit;
    every later node on tiles nearest-first to its placed dataflow
    neighbors (ties in row-major order) and residues ascending. A slot is a
    slot failure when taken, a dependence failure when it leaves the
    static window of a placed partner in a dependence cycle, and otherwise
    a full placement that draws one attempt and is kept only when the
    placed subgraph has no positive cycle (else one more dependence
    failure). Windows come from Bellman-Ford longest paths, which needs ii
    at or above the recurrence bound; feasibility is re-solved from scratch.
    """
    lat = _lat(k)
    ids = sorted(lat)
    edges = [(e.src, e.dst, e.distance) for e in k.edges]
    tiles = [(r, c) for r in range(f.rows) for c in range(f.cols)]

    level = dict.fromkeys(ids, 0)
    for _ in ids:
        for u, v, d in edges:
            if d == 0:
                level[v] = max(level[v], level[u] + lat[u])
    order = sorted(ids, key=lambda n: (level[n], n))

    def longest_from(src: int) -> dict[int, int]:
        dist = {src: 0}
        for _ in ids:
            for u, v, d in edges:
                if u in dist:
                    cand = dist[u] + lat[u] - d * ii
                    if v not in dist or cand > dist[v]:
                        dist[v] = cand
        return dist

    longest = {n: longest_from(n) for n in ids}
    windows = {
        v: [(u, longest[u][v], -longest[v][u]) for u in ids if u != v and v in longest[u] and u in longest[v]]
        for v in ids
    }

    if f.topology is Topology.CROSSBAR:
        first_tiles = [(0, 0)]
    else:
        first_tiles = [
            (r, c) for r, c in tiles if 2 * r < f.rows and 2 * c < f.cols and (f.rows != f.cols or r <= c)
        ]
    adjacent = {n: [] for n in ids}
    for u, v, _ in edges:
        if u != v:
            adjacent[u].append(v)
            adjacent[v].append(u)

    placed: dict[int, tuple[tuple[int, int], int]] = {}
    counts = {"left": attempts, "slots": 0, "deps": 0}

    def in_windows(nid: int, tile: tuple[int, int], r: int) -> bool:
        for u, lo, hi in windows[nid]:
            if u in placed:
                tile_u, r_u = placed[u]
                h = oracle_hops(f, tile_u, tile)
                if not any((r - r_u - delta) % ii == 0 for delta in range(lo + h, hi - h + 1)):
                    return False
        return True

    def dfs(i: int) -> bool:
        if i == len(order):
            return True
        nid = order[i]
        if i == 0:
            candidates = [(tile, 0) for tile in first_tiles]
        else:
            near = sorted(tiles, key=lambda t: sum(oracle_hops(f, t, placed[m][0]) for m in adjacent[nid] if m in placed))
            candidates = [(tile, r) for tile in near for r in range(ii)]
        for tile, r in candidates:
            if (tile, r) in placed.values():
                counts["slots"] += 1
            elif not in_windows(nid, tile, r):
                counts["deps"] += 1
            else:
                counts["left"] -= 1
                if counts["left"] < 0:
                    raise _OutOfAttempts()
                placed[nid] = (tile, r)
                if _no_positive_cycle(placed, edges, lat, f, ii):
                    if dfs(i + 1):
                        return True
                else:
                    counts["deps"] += 1
                del placed[nid]
        return False

    try:
        found = dfs(0)
    except _OutOfAttempts:
        found = False
    return (dict(placed) if found else None), counts["left"], counts["slots"], counts["deps"]


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
