"""Modulo scheduler, placer and router: validity oracle for design points.

Maps a kernel graph onto a fabric at the smallest initiation interval (II)
the search can prove feasible. A mapping assigns every node a tile and a
start cycle such that

* no two nodes share a (tile, start mod II) slot,
* every dependence u -> v with distance d satisfies
  start(v) >= start(u) + latency(u) + hops(route) - d * II,
* every route steps only between topology neighbors, and
* II fits the fabric's config memory depth.

Route hops cost one cycle per hop on MESH and KINGMESH and one cycle total
between distinct tiles on CROSSBAR (a crossbar route is a single hop).

Search strategy: II is searched ascending from the resource / recurrence
lower bounds. Each II attempt is a depth-first search over (tile, residue)
assignments whose first descent is exactly greedy list scheduling (nodes
ordered by (ASAP level, id), tiles ordered nearest-first to already placed
dataflow neighbors) and which backtracks under MapBudget.placement_attempts.
The search keeps an explicit stack, so kernel size is not limited by the
interpreter's recursion depth. Each level of the stack builds, once, a
table of the residues to try on every tile: one bitmask per tile, the
tile's free slots intersected with the modular intervals that the static
dependence windows of the already placed cycle partners allow (one mask
per partner and hop distance). Residues are tried in ascending order. A
level whose table is empty on every tile is dead: it is settled in O(1),
without sorting its tiles, and its rejected slots are counted in one step
(the occupied ones, one per placed node, then the rest). The kernel's
schedule order, adjacency and cycles and the fabric's hop table are
computed once per map_kernel call and shared by all its II attempts.
Start cycles are recovered from the residues by a longest-path solve over
the dependence difference constraints, so on small instances the search
is effectively exhaustive and the returned II is optimal. The whole
pipeline is deterministic: identical inputs give byte-identical results.

The search reads only the kernel, the budget and the fabric's rows, cols
and topology. The fabric's FU kinds and config memory depth enter through
one check each (fu_kinds_error before the search, config_depth_error
after it), so callers that map many fabrics of one shape can search once
and apply those checks per fabric.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .arch import GRID_STEPS, DesignPoint, FabricSpec, FuKind, Topology, neighbors
from .kernel import KernelGraph

Tile = tuple[int, int]


@dataclass(frozen=True)
class MapBudget:
    """Bounds on the mapping search.

    max_ii caps the II range; placement_attempts caps backtracking work per
    II attempt. Only full placements count against it: a (node, tile,
    residue) triple that passes the slot and window checks and goes on to
    the longest-path update. Triples those checks reject are free, so one
    attempt can cost far more than placement_attempts probes.
    """

    max_ii: int = 32
    placement_attempts: int = 50_000


@dataclass(frozen=True)
class MapError:
    """Why a design could not be mapped, with a machine-readable hint."""

    code: str  # MISSING_FU_KIND, INSUFFICIENT_TILES, CONFIG_MEM_OVERFLOW,
    #            ROUTING_FAILURE, II_BOUND_EXCEEDED
    detail: str
    hint: dict = field(default_factory=dict)


@dataclass
class MappingResult:
    """A verified-shape mapping. schedule maps node id -> (tile, start);
    routes[i] is the tile path for kernel edge i, endpoints included."""

    ii: int
    schedule: dict[int, tuple[Tile, int]]
    routes: tuple[tuple[Tile, ...], ...]
    schedule_len: int


@dataclass(frozen=True)
class MappedDesign:
    """A design point together with its mapping evidence."""

    design: DesignPoint
    mapping: MappingResult
    trip_after: int
    speedup: float


def hop_distance(f: FabricSpec, a: Tile, b: Tile) -> int:
    """Shortest hop count between tiles under the fabric topology."""
    if a == b:
        return 0
    if f.topology is Topology.CROSSBAR:
        return 1
    dr = abs(a[0] - b[0])
    dc = abs(a[1] - b[1])
    if f.topology is Topology.MESH:
        return dr + dc
    return max(dr, dc)  # KINGMESH


def route_path(f: FabricSpec, a: Tile, b: Tile) -> tuple[Tile, ...]:
    """Deterministic shortest path from a to b: breadth-first search
    expanding neighbors in sorted coordinate order, each tile reached
    through the tile that discovered it. On a CROSSBAR every other tile is
    a neighbor, so the path is the one hop (a, b)."""
    if a == b:
        return (a,)
    if f.topology is Topology.CROSSBAR:
        return (a, b)
    steps = GRID_STEPS[f.topology]
    parent: dict[Tile, Tile] = {a: a}
    queue: deque[Tile] = deque([a])
    while b not in parent:
        cur = r, c = queue.popleft()
        for dr, dc in steps:
            nxt = (r + dr, c + dc)
            if 0 <= nxt[0] < f.rows and 0 <= nxt[1] < f.cols and nxt not in parent:
                parent[nxt] = cur
                queue.append(nxt)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(path)


# ---------------------------------------------------------------------------
# II lower bounds
# ---------------------------------------------------------------------------


def min_ii_bounds(k: KernelGraph, f: FabricSpec) -> tuple[int, int]:
    """(resource-bound, recurrence-bound) minimum initiation intervals.

    The resource bound is max over FU kinds of ceil(nodes of that kind /
    tiles supporting it); with uniform tiles every kind in fu_kinds is
    supported by all tiles. Every node kind must be supported (map_kernel
    reports MISSING_FU_KIND for the unsupported case before calling this).
    The recurrence bound is max over dependence cycles of
    ceil(cycle latency / cycle distance), computed exactly as the smallest
    II under which no cycle has positive weight sum(latency) - II *
    sum(distance): a binary search over II with a Bellman-Ford check.
    """
    census: dict[FuKind, int] = {}
    for n in k.nodes:
        census[n.kind] = census.get(n.kind, 0) + 1
    res = 1
    for kind, count in census.items():
        if kind not in f.fu_kinds:
            raise ValueError(f"node kind {kind.name} not in fabric fu_kinds")
        res = max(res, math.ceil(count / f.tiles))
    return res, _rec_mii(k)


def _rec_mii(k: KernelGraph) -> int:
    if not any(e.distance > 0 for e in k.edges):
        return 1
    return _rec_by_search(k)


def _rec_by_search(k: KernelGraph) -> int:
    """Smallest II with no positive cycle under weights lat(u) - II * d."""
    lat = {n.id: n.latency for n in k.nodes}
    ids = sorted(lat)
    index = {nid: i for i, nid in enumerate(ids)}
    edges = [(index[e.src], index[e.dst], lat[e.src], e.distance) for e in k.edges]
    n = len(ids)

    def has_positive_cycle(ii: int) -> bool:
        dist = [0] * n
        for round_no in range(n):
            changed = False
            for u, v, w_lat, d in edges:
                w = w_lat - ii * d
                if dist[u] + w > dist[v]:
                    dist[v] = dist[u] + w
                    changed = True
            if not changed:
                return False
        return True

    lo, hi = 1, max(1, sum(lat.values()))
    while lo < hi:
        mid = (lo + hi) // 2
        if has_positive_cycle(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Mapping search
# ---------------------------------------------------------------------------


class _BudgetExhausted(Exception):
    pass


def _hop_rows(f: FabricSpec) -> list[list[int]]:
    """hop_distance between every pair of tiles, by row-major tile index:
    row a holds the hops from tile a to every tile. Built from each
    topology's distance formula, not one hop_distance call per pair."""
    tiles = [(r, c) for r in range(f.rows) for c in range(f.cols)]
    if f.topology is Topology.CROSSBAR:
        return [[int(a != b) for b in tiles] for a in tiles]
    if f.topology is Topology.MESH:
        return [[abs(ra - rb) + abs(ca - cb) for rb, cb in tiles] for ra, ca in tiles]
    return [[max(abs(ra - rb), abs(ca - cb)) for rb, cb in tiles] for ra, ca in tiles]  # KINGMESH


class _Tables:
    """What every II attempt of one map_kernel call reads and none writes:
    the kernel's schedule order, dependence adjacency and cyclic components,
    and the fabric's tiles, hop table and first-node tiles. Tiles are
    row-major indices into `tiles`."""

    def __init__(self, k: KernelGraph, f: FabricSpec):
        self.k = k
        self.f = f
        self.lat = {n.id: n.latency for n in k.nodes}
        self.order = _schedule_order(k)
        self.rank = {nid: i for i, nid in enumerate(self.order)}
        self.tiles = [(r, c) for r in range(f.rows) for c in range(f.cols)]
        self.hop_rows = _hop_rows(f)
        self.max_hop = max(map(max, self.hop_rows))
        # Symmetry breaking for the root of the search tree. Any feasible
        # assignment can be rotated (all residues shifted mod II) so the
        # first node sits at residue 0, and mapped through any
        # hop-preserving tile symmetry: every crossbar tile is equivalent,
        # and grid reflections (plus transpose on square grids) preserve
        # both Manhattan and Chebyshev distances. So the first node only
        # ever needs residue 0 and one tile per symmetry orbit.
        if f.topology is Topology.CROSSBAR:
            self.first_tiles = [0]
        else:
            self.first_tiles = [
                i
                for i, (r, c) in enumerate(self.tiles)
                if 2 * r <= f.rows - 1 and 2 * c <= f.cols - 1 and (f.rows != f.cols or r <= c)
            ]
        # Dependence adjacency among kernel nodes (u -> v, latency(u), d).
        self.out_edges: dict[int, list[tuple[int, int, int]]] = {n.id: [] for n in k.nodes}
        self.in_edges: dict[int, list[tuple[int, int, int]]] = {n.id: [] for n in k.nodes}
        self.dfg_neighbors: dict[int, list[int]] = {n.id: [] for n in k.nodes}
        for e in k.edges:
            self.out_edges[e.src].append((e.dst, self.lat[e.src], e.distance))
            self.in_edges[e.dst].append((e.src, self.lat[e.src], e.distance))
            if e.src != e.dst:
                self.dfg_neighbors[e.src].append(e.dst)
                self.dfg_neighbors[e.dst].append(e.src)
        succs = {nid: [dst for dst, _, _ in self.out_edges[nid]] for nid in self.out_edges}
        self.cycles = [comp for comp in _sccs(sorted(succs), succs) if len(comp) > 1]


class _Frame:
    """One level of the search: a node, its candidate tiles in try order,
    and per tile (by index) the residues it may take, `allow`: free on the
    tile and inside every placed window partner's interval. A frame whose
    allow is 0 on every tile is dead and gets no tiles. On the current tile
    the frame keeps the residues still to try and those already passed
    (tried or counted)."""

    __slots__ = ("nid", "tiles", "allow", "next_tile", "tile", "full", "taken", "left", "passed", "residue", "undo")

    def __init__(self, nid: int, tiles: list[int], allow: list[int], full: int):
        self.nid = nid
        self.tiles = tiles
        self.allow = allow
        self.next_tile = 0
        self.tile = -1
        self.full = full  # the residues this level tries on every tile
        self.taken = 0  # occupied residues of the current tile
        self.left = 0
        self.passed = full
        self.residue = -1  # the residue placed while a deeper level searches
        self.undo: list[tuple[int, int]] = []


class _Attempt:
    """One II attempt: DFS over (tile, residue) assignments with incremental
    longest-path feasibility over the dependence difference constraints."""

    def __init__(self, t: _Tables, ii: int, attempts_left: int):
        self.t = t
        self.ii = ii
        self.attempts_left = attempts_left
        self.hop_rows = t.hop_rows
        self.full = (1 << ii) - 1
        hop_bound = max(t.f.rows + t.f.cols, 2)
        per_edge = math.ceil((max(t.lat.values()) + hop_bound + ii - 1) / ii)
        self.dist_ub = max(1, per_edge * max(1, len(t.k.edges)))
        self.place: dict[int, tuple[int, int]] = {}  # id -> (tile, residue)
        self.q: dict[int, int] = {}  # id -> longest-path value
        self.occupied = [0] * len(t.tiles)  # tile -> bitmask of taken residues
        self.slot_failures = 0
        self.dep_failures = 0
        self.windows = self._pairwise_windows()
        self.masks: dict[tuple[int, int], list[int]] = {}  # (start, span) -> _window_masks

    def _pairwise_windows(self) -> dict[int, list[tuple[int, int, int]]]:
        """Static start-time windows between nodes that share a dependence
        cycle. For u, v in one strongly connected component, the zero-hop
        longest paths D[u][v] and D[v][u] bound any schedule:
        D[u][v] <= start(v) - start(u) <= -D[v][u]. Checking a candidate
        slot against these windows refutes a dead branch when the slot is
        chosen, not levels deeper when the cycle finally closes. A window
        is kept on the later node of the pair in schedule order, whose
        frame finds the other one placed, as (u, D[u][v], span) with span
        = -D[v][u] - D[u][v] + 1 the number of start differences it allows.
        """
        out_edges = self.t.out_edges
        rank = self.t.rank
        windows: dict[int, list[tuple[int, int, int]]] = {}
        neg_inf = float("-inf")
        for comp in self.t.cycles:
            dist = {u: dict.fromkeys(comp, neg_inf) for u in comp}
            for u in comp:
                dist[u][u] = 0
                for v, lat_u, d in out_edges[u]:
                    if v in dist[u]:
                        dist[u][v] = max(dist[u][v], lat_u - d * self.ii)
            for w in comp:
                dw = dist[w]
                for u in comp:
                    duw = dist[u][w]
                    if duw == neg_inf:
                        continue
                    du = dist[u]
                    for v in comp:
                        cand = duw + dw[v]
                        if cand > du[v]:
                            du[v] = cand
            for v in comp:
                cons = []
                for u in comp:
                    if rank[u] < rank[v] and dist[u][v] != neg_inf and dist[v][u] != neg_inf:
                        lo, hi = int(dist[u][v]), -int(dist[v][u])
                        cons.append((u, lo, hi - lo + 1))
                if cons:
                    windows[v] = cons
        return windows

    def _window_masks(self, start: int, span: int) -> list[int]:
        """The residues a window partner allows, by hop distance h: those in
        [start + h, start + span - 1 - h] mod II (start = r_u + lo)."""
        ii = self.ii
        masks = []
        for h in range(self.t.max_hop + 1):
            width = span - 2 * h
            if width >= ii:
                masks.append(self.full)
            elif width <= 0:
                masks.append(0)
            else:
                run = ((1 << width) - 1) << ((start + h) % ii)
                masks.append((run | (run >> ii)) & self.full)
        return masks

    def _frame(self, idx: int) -> _Frame:
        """The frame for the idx-th node of the schedule order. Its per-tile
        residue table is exact for the frame's whole life: the occupancy
        and the placed partners it reads stay as they are while it lives,
        because deeper levels undo their placements before control returns
        to it. A dead frame's scan is charged here in one step: over all
        tiles, the occupied slots (one per placed node) are slot failures
        and every other slot is a dependence failure."""
        t = self.t
        nid = t.order[idx]
        if idx == 0:
            return _Frame(nid, t.first_tiles, [1] * len(t.tiles), 1)  # residue 0 only
        full = self.full
        place = self.place
        occupied = self.occupied
        allow = None
        # A partner u at (tile_u, r_u) with window [lo, hi], h hops from a
        # candidate tile, needs start(nid) - start(u) in [lo + h, hi - h].
        for u, lo, span in self.windows.get(nid, ()):
            tile_u, r_u = place[u]
            key = ((r_u + lo) % self.ii, span)
            masks = self.masks.get(key)
            if masks is None:
                masks = self.masks[key] = self._window_masks(*key)
            row = self.hop_rows[tile_u]
            if allow is None:
                allow = [(full ^ taken) & masks[h] for taken, h in zip(occupied, row)]
            else:
                allow = [a & masks[h] for a, h in zip(allow, row)]
            if not any(allow):
                break
        if allow is None:
            allow = [full ^ taken for taken in occupied]
        if not any(allow):
            self.slot_failures += idx
            self.dep_failures += len(allow) * self.ii - idx
            return _Frame(nid, [], allow, full)
        tiles = list(range(len(allow)))
        rows = [self.hop_rows[place[m][0]] for m in t.dfg_neighbors[nid] if m in place]
        if rows:
            # nearest-first to the placed neighbors; a stable sort keeps
            # row-major order among equals
            sums = [sum(col) for col in zip(*rows)]
            tiles.sort(key=sums.__getitem__)
        return _Frame(nid, tiles, allow, full)

    def _next_residue(self, fr: _Frame) -> int:
        """The next residue to try for fr.nid, on fr.tile, moving on to the
        next tile when the current one has none left; -1 when no tile has.
        A tile's residues to try are fr.allow[tile], read from the frame's
        table. Tiles and residues come in ascending try order, and every
        slot passed over on the way is counted as a slot failure (occupied)
        or a dependence failure (outside a window) before the next try, so
        the counters read as a slot-by-slot scan would leave them."""
        left = fr.left
        passed = fr.passed  # always the residues below some bound
        taken = fr.taken
        slots = deps = 0
        if not left:
            full = fr.full
            rest = full & ~passed  # the current tile's residues after its last try
            tiles = fr.tiles
            allow = fr.allow
            occupied = self.occupied
            i = fr.next_tile
            while True:
                if rest:
                    n_taken = (rest & taken).bit_count()
                    slots += n_taken
                    deps += rest.bit_count() - n_taken
                if i == len(tiles):
                    fr.next_tile = i
                    fr.passed = full
                    self.slot_failures += slots
                    self.dep_failures += deps
                    return -1
                tile = tiles[i]
                i += 1
                taken = occupied[tile]
                left = allow[tile]
                if left:
                    break
                rest = full
            fr.tile = tile
            fr.next_tile = i
            fr.taken = taken
            passed = 0
        low = left & -left
        fr.left = left ^ low
        fr.passed = (low << 1) - 1
        gap = (low - 1) & ~passed
        if gap:
            n_taken = (gap & taken).bit_count()
            slots += n_taken
            deps += gap.bit_count() - n_taken
        self.slot_failures += slots
        self.dep_failures += deps
        return low.bit_length() - 1

    def run(self) -> dict[int, tuple[Tile, int]] | None:
        """Depth-first search over the schedule order with an explicit
        frame stack, one frame per placed node plus the one being tried.
        Only full placements draw on the budget; the slots the per-frame
        tables rule out are two orders of magnitude cheaper."""
        stack = [self._frame(0)]
        depth = len(self.t.order)
        while True:
            fr = stack[-1]
            residue = self._next_residue(fr)
            if residue < 0:
                stack.pop()
                if not stack:
                    return None
                parent = stack[-1]
                self._undo(parent.nid, parent.tile, parent.residue, parent.undo)
                continue
            self.attempts_left -= 1
            if self.attempts_left < 0:
                raise _BudgetExhausted()
            undo = self._try_add(fr.nid, fr.tile, residue)
            if undo is None:
                self.dep_failures += 1
                continue
            if len(stack) == depth:
                tiles = self.t.tiles
                return {nid: (tiles[tile], r) for nid, (tile, r) in self.place.items()}
            fr.residue = residue
            fr.undo = undo
            stack.append(self._frame(len(stack)))

    def _edge_weight(self, lat_u: int, d: int, tile_u: int, tile_v: int, r_u: int, r_v: int) -> int:
        num = lat_u + self.hop_rows[tile_u][tile_v] + r_u - r_v
        return -((-num) // self.ii) - d

    def _try_add(self, nid: int, tile: int, residue: int) -> list[tuple[int, int]] | None:
        """Tentatively place nid; return an undo log, or None if the
        dependence system becomes infeasible (positive cycle)."""
        self.place[nid] = (tile, residue)
        self.occupied[tile] |= 1 << residue
        base = 0
        for u, lat_u, d in self.t.in_edges[nid]:
            if u in self.place and u != nid:
                tu, ru = self.place[u]
                base = max(base, self.q[u] + self._edge_weight(lat_u, d, tu, tile, ru, residue))
        self.q[nid] = base
        undo: list[tuple[int, int]] = []
        queue: deque[int] = deque([nid])
        # A longest simple path over the placed subgraph updates each node
        # fewer than len(place) times; more frequent updates (or a distance
        # past dist_ub) prove a positive cycle.
        update_cap = len(self.place)
        updates: dict[int, int] = {}
        out_edges = self.t.out_edges
        while queue:
            u = queue.popleft()
            tu, ru = self.place[u]
            for v, lat_u, d in out_edges[u]:
                if v not in self.place:
                    continue
                tv, rv = self.place[v]
                w = self._edge_weight(lat_u, d, tu, tv, ru, rv)
                cand = self.q[u] + w
                if cand > self.q[v]:
                    seen = updates.get(v, 0) + 1
                    if cand > self.dist_ub or seen > update_cap:  # positive cycle
                        self._undo(nid, tile, residue, undo)
                        return None
                    updates[v] = seen
                    undo.append((v, self.q[v]))
                    self.q[v] = cand
                    queue.append(v)
        return undo

    def _undo(self, nid: int, tile: int, residue: int, undo: list[tuple[int, int]]) -> None:
        for v, old in reversed(undo):
            self.q[v] = old
        del self.place[nid]
        self.occupied[tile] ^= 1 << residue
        self.q.pop(nid, None)


def _sccs(ids: list[int], succs: dict[int, list[int]]) -> list[list[int]]:
    """Strongly connected components (iterative Tarjan), deterministic."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in ids:
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            descended = False
            while i < len(succs[v]):
                w = succs[v][i]
                i += 1
                if w not in index:
                    work.append((v, i))
                    work.append((w, 0))
                    descended = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(sorted(comp))
    return out


def _schedule_order(k: KernelGraph) -> list[int]:
    """Node ids ordered by (ASAP level over distance-0 edges, id)."""
    lat = {n.id: n.latency for n in k.nodes}
    preds: dict[int, list[int]] = {n.id: [] for n in k.nodes}
    succs: dict[int, list[int]] = {n.id: [] for n in k.nodes}
    indeg = {n.id: 0 for n in k.nodes}
    for e in k.edges:
        if e.distance == 0:
            preds[e.dst].append(e.src)
            succs[e.src].append(e.dst)
            indeg[e.dst] += 1
    asap = {n.id: 0 for n in k.nodes}
    ready = sorted(nid for nid, d in indeg.items() if d == 0)
    queue = deque(ready)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        for v in succs[u]:
            asap[v] = max(asap[v], asap[u] + lat[u])
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return sorted(asap, key=lambda nid: (asap[nid], nid))


def fu_kinds_error(k: KernelGraph, f: FabricSpec) -> MapError | None:
    """MISSING_FU_KIND when some node kind of k has no FU on f; the only
    check that reads f.fu_kinds."""
    missing = sorted({n.kind.name for n in k.nodes if n.kind not in f.fu_kinds})
    if not missing:
        return None
    return MapError(
        "MISSING_FU_KIND",
        f"fabric lacks FU kind(s): {', '.join(missing)}",
        hint={"missing_kinds": missing},
    )


def config_depth_error(ii: int, f: FabricSpec) -> MapError | None:
    """CONFIG_MEM_OVERFLOW when the smallest feasible II does not fit f's
    config memory; the only check that reads f.config_mem_depth."""
    if ii <= f.config_mem_depth:
        return None
    return MapError(
        "CONFIG_MEM_OVERFLOW",
        f"smallest feasible II {ii} exceeds config_mem_depth {f.config_mem_depth}",
        hint={"required_depth": ii},
    )


def map_kernel(k: KernelGraph, f: FabricSpec, budget: MapBudget | None = None) -> MappingResult | MapError:
    """Map kernel k onto fabric f, or explain why that is impossible.

    Deterministic; see module docstring for the search strategy and the
    meaning of each error code. Hints are machine-readable and drive the
    automatic repair rules. The checks run in a fixed order: FU kinds,
    II bounds, the search, then config memory depth. The search itself
    reads only k, the budget and f's rows, cols and topology.
    """
    budget = budget or MapBudget()
    err = fu_kinds_error(k, f)
    if err is not None:
        return err
    res, rec = min_ii_bounds(k, f)
    if res > budget.max_ii:
        census: dict[FuKind, int] = {}
        for n in k.nodes:
            census[n.kind] = census.get(n.kind, 0) + 1
        required = max(math.ceil(c / budget.max_ii) for c in census.values())
        return MapError(
            "INSUFFICIENT_TILES",
            f"resource-bound min II {res} exceeds max_ii {budget.max_ii}",
            hint={"required_tiles": required},
        )
    if rec > budget.max_ii:
        return MapError(
            "II_BOUND_EXCEEDED",
            f"recurrence-bound min II {rec} exceeds max_ii {budget.max_ii}",
            hint={"min_ii": rec, "max_ii": budget.max_ii},
        )
    # Extra sound lower bound: n nodes need n distinct (tile, residue) slots.
    lower = max(res, rec, math.ceil(len(k.nodes) / f.tiles))
    tables = _Tables(k, f)
    last_dep_failures = 0
    budget_hit = False
    for ii in range(lower, budget.max_ii + 1):
        attempt = _Attempt(tables, ii, budget.placement_attempts)
        try:
            placement = attempt.run()
        except _BudgetExhausted:
            budget_hit = True
            last_dep_failures = attempt.dep_failures
            continue
        last_dep_failures = attempt.dep_failures
        if placement is None:
            continue
        err = config_depth_error(ii, f)
        if err is not None:
            return err
        return _build_result(k, f, ii, placement, attempt.q)
    if last_dep_failures > 0 and not budget_hit:
        return MapError(
            "ROUTING_FAILURE",
            f"no feasible placement with routed dependences up to max_ii {budget.max_ii}",
            hint={"topology": f.topology.name},
        )
    return MapError(
        "II_BOUND_EXCEEDED",
        f"no feasible II found in [{lower}, {budget.max_ii}]",
        hint={"min_ii": lower, "max_ii": budget.max_ii},
    )


def _build_result(
    k: KernelGraph,
    f: FabricSpec,
    ii: int,
    placement: dict[int, tuple[Tile, int]],
    q: dict[int, int],
) -> MappingResult:
    schedule: dict[int, tuple[Tile, int]] = {}
    for nid in sorted(placement):
        tile, residue = placement[nid]
        schedule[nid] = (tile, residue + ii * q[nid])
    lat = {n.id: n.latency for n in k.nodes}
    schedule_len = max(start + lat[nid] for nid, (_, start) in schedule.items())
    routes = tuple(
        route_path(f, schedule[e.src][0], schedule[e.dst][0]) for e in k.edges
    )
    return MappingResult(ii=ii, schedule=schedule, routes=routes, schedule_len=schedule_len)


# ---------------------------------------------------------------------------
# Independent verification and derived metrics
# ---------------------------------------------------------------------------


def check_mapping(k: KernelGraph, f: FabricSpec, m: MappingResult) -> list[str]:
    """Re-verify every mapping invariant from scratch.

    Shares no state with the search: adjacency comes from arch.neighbors,
    hop counts come from the stored route paths. Returns human-readable
    problem strings, empty when the mapping is valid.
    """
    problems: list[str] = []
    ids = {n.id for n in k.nodes}
    if set(m.schedule) != ids:
        problems.append(f"schedule covers {sorted(m.schedule)} but kernel has {sorted(ids)}")
        return problems
    if m.ii < 1:
        problems.append(f"ii {m.ii} must be >= 1")
        return problems
    if m.ii > f.config_mem_depth:
        problems.append(f"ii {m.ii} exceeds config_mem_depth {f.config_mem_depth}")
    lat = {n.id: n.latency for n in k.nodes}
    slots: dict[tuple[Tile, int], int] = {}
    for nid in sorted(m.schedule):
        (tile, start) = m.schedule[nid]
        r, c = tile
        if not (0 <= r < f.rows and 0 <= c < f.cols):
            problems.append(f"node {nid} placed off-grid at {tile}")
            continue
        if start < 0:
            problems.append(f"node {nid} start {start} negative")
        slot = (tile, start % m.ii)
        if slot in slots:
            problems.append(f"nodes {slots[slot]} and {nid} share slot {slot}")
        else:
            slots[slot] = nid
    if len(m.routes) != len(k.edges):
        problems.append(f"{len(m.routes)} routes for {len(k.edges)} edges")
        return problems
    for i, e in enumerate(k.edges):
        path = m.routes[i]
        tile_u, start_u = m.schedule[e.src]
        tile_v, start_v = m.schedule[e.dst]
        if not path or path[0] != tile_u or path[-1] != tile_v:
            problems.append(f"edge {e.src}->{e.dst}: route endpoints {path} do not match placement")
            continue
        bad_step = False
        for a, b in zip(path, path[1:]):
            if b not in neighbors(f, a):
                problems.append(f"edge {e.src}->{e.dst}: route step {a}->{b} not a topology neighbor")
                bad_step = True
                break
        if bad_step:
            continue
        hops = len(path) - 1
        if start_v < start_u + lat[e.src] + hops - e.distance * m.ii:
            problems.append(
                f"edge {e.src}->{e.dst} (d={e.distance}): start {start_v} < "
                f"{start_u} + {lat[e.src]} + {hops} - {e.distance}*{m.ii}"
            )
    expected_len = max(start + lat[nid] for nid, (_, start) in m.schedule.items())
    if m.schedule_len != expected_len:
        problems.append(f"schedule_len {m.schedule_len} != max(start + latency) {expected_len}")
    return problems


def speedup(k_original: KernelGraph, m: MappingResult, trip_after: int) -> float:
    """Speedup over a single-issue in-order baseline.

    Baseline cycles: original trip count times the sum of original node
    latencies (one op in flight at a time). CGRA cycles: one prologue of
    schedule_len plus II per remaining (transformed) iteration.
    """
    baseline = k_original.trip_count * k_original.total_latency()
    cgra = m.schedule_len + m.ii * (trip_after - 1)
    return baseline / cgra
