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
dataflow neighbors, each order sorted once per grid and kept for every
level of every search whose neighbors sit on the same tiles) and which
backtracks under MapBudget.placement_attempts. The nodes are numbered in
that order, so the placed nodes are always a prefix of it and every
per-node table is a tuple or list indexed by the number. The search is
one loop over an explicit stack, with the current level's state in local
variables, so kernel size is not limited by the interpreter's recursion
depth and a placement makes no call but the one that builds the next
level.
Occupancy is one int of tiles * II bits, tile-major (bit tile * II + r
for slot (tile, r)). Each level of the stack builds, once, a table of
the residues to try, in the same layout: the free slots ANDed with the
product of one wide mask per already placed cycle partner, the modular
interval its static dependence window allows at each tile's hop
distance, memoized per attempt. The products are kept as the partners
are placed (forward checking): a placement ANDs its mask into the
product of each later partner and its undo restores them, so a table
costs one AND. Residues are tried in ascending
order. A level whose table is 0 is dead: it is never pushed, and the
placement that led to it is undone at once. A level is doomed when its
node's placements cannot fail and the next node's table is 0 before it
places; when the budget covers its candidates, it is settled the same
way, its placements charged at once. Each attempt keeps one flag, set
when a dependence rejects a free slot or a placement; an II range whose
every attempt is searched to exhaustion is a ROUTING_FAILURE when the
last one set it. What every search of one kernel reads is
built once per kernel object: latencies, the schedule order, adjacency,
cycles, the static windows per II, the node kinds and RecMII. What
every search on one grid reads, tiles and the hop table, is built once
per (rows, cols, topology), and the tile orders its searches sort are
kept with it. The kernel tables live as long as the kernel object or a
kept search of it, the fabric tables in a memo bounded by their size,
so a caller that maps one kernel on many fabrics, or many kernels on one
grid, prepares each half once. Start cycles are recovered from the
residues by a longest-path solve over the dependence difference
constraints, so on small instances the search is effectively exhaustive
and the returned II is optimal. A search result carries no routes: each
edge's route is route_path between its ends' tiles, derived by
route_paths only where a route is printed or checked. The whole
pipeline is deterministic: identical inputs give byte-identical results.

The search reads only the kernel, the budget and the fabric's rows, cols
and topology. The fabric's FU kinds and config memory depth enter through
one check each, made by map_kernel on every call: the FU kinds before the
search, the config memory depth after it. So map_kernel keeps each search
in a process-wide memo keyed by (kernel tables, rows, cols, topology,
budget), the SEARCHES_KEPT used last, and answers every fabric of one
shape from one search.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from .arch import GRID_STEPS, DesignPoint, FabricSpec, FuKind, Topology, neighbors
from .decode import InputError
from .kernel import KernelGraph

Tile = tuple[int, int]
# by node number, a window (v, lo, span) per later node v that has the node as a partner
Windows = tuple[tuple[tuple[int, int, int], ...], ...]


@dataclass(frozen=True)
class MapBudget:
    """Bounds on the mapping search.

    max_ii caps the II range; placement_attempts caps backtracking work per
    II attempt. Only full placements count against it: a (node, tile,
    residue) triple that passes the slot and window checks and goes on to
    the longest-path update. Triples those checks reject are free, so one
    attempt can cost far more than placement_attempts probes. A doomed
    level's placements, settled unmade, count as made. Both must be at
    least 1; a smaller value is bad input (InputError, code BAD_VALUE).
    """

    max_ii: int = 32
    placement_attempts: int = 50_000

    def __post_init__(self):
        for name in ("max_ii", "placement_attempts"):
            value = getattr(self, name)
            if value < 1:
                raise InputError("BAD_VALUE", f"budget.{name}={value} must be >= 1")


@dataclass(frozen=True)
class MapError:
    """Why a design could not be mapped, with a machine-readable hint."""

    code: str  # MISSING_FU_KIND, INSUFFICIENT_TILES, CONFIG_MEM_OVERFLOW,
    #            ROUTING_FAILURE, II_BOUND_EXCEEDED
    detail: str
    hint: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MappingResult:
    """A verified-shape mapping. schedule maps node id -> (tile, start).
    routes, when a caller gives them, holds the tile path for each kernel
    edge, endpoints included; the search leaves it None, and route_paths
    derives the paths from the placements where they are printed or
    checked. map_kernel hands one result to every caller that maps the
    same search, so callers must not change its schedule."""

    ii: int
    schedule: dict[int, tuple[Tile, int]]
    schedule_len: int
    routes: tuple[tuple[Tile, ...], ...] | None = None


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


def route_paths(k: KernelGraph, f: FabricSpec, m: MappingResult) -> tuple[tuple[Tile, ...], ...]:
    """The route of each of k's edges under mapping m of k on f: m.routes
    when the mapping carries them, else route_path between the tiles the
    edge's ends are placed on. Every tile in m's schedule must lie on f."""
    if m.routes is not None:
        return m.routes
    return tuple(route_path(f, m.schedule[e.src][0], m.schedule[e.dst][0]) for e in k.edges)


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
    sum(distance): per cyclic component, a binary search over II with a
    Bellman-Ford check on that component's edges. Both are read from the
    kernel's tables, so RecMII is searched once per kernel object.
    """
    kt = _kernel_tables(k)
    if not kt.kinds <= f.fu_kinds:
        kind = next(kind for kind in kt.census if kind not in f.fu_kinds)
        raise ValueError(f"node kind {kind.name} not in fabric fu_kinds")
    return _ii_bounds(kt, f.tiles)


def _ii_bounds(kt: _KernelTables, tiles: int) -> tuple[int, int]:
    """min_ii_bounds from a kernel's tables, on a grid of that many tiles
    whose FUs cover every node kind."""
    return max(1, math.ceil(kt.max_census / tiles)), kt.rec_mii


def _rec_mii(lat: tuple[int, ...], out_edges: tuple, comps: list[list[int]]) -> int:
    """Smallest II with no positive cycle under weights lat(u) - II * d;
    1 without cyclic components (comps: SCCs and self-loop nodes). Each
    cycle lies in one component, so each is searched on its own edges, up
    to its latency sum: a valid cycle carries a distance of at least 1."""
    rec = 1
    for comp in comps:
        local = {u: i for i, u in enumerate(comp)}
        edges = [(i, local[v], w_lat, d) for i, u in enumerate(comp) for v, w_lat, d in out_edges[u] if v in local]
        n = len(comp)

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

        lo, hi = rec, max(rec, sum(lat[u] for u in comp))
        while lo < hi:
            mid = (lo + hi) // 2
            if has_positive_cycle(mid):
                lo = mid + 1
            else:
                hi = mid
        rec = lo
    return rec


# ---------------------------------------------------------------------------
# Mapping search
# ---------------------------------------------------------------------------


class _BudgetExhausted(Exception):
    pass


def _hop_rows(f: FabricSpec) -> list[bytes]:
    """hop_distance between every pair of tiles, by row-major tile index:
    row a holds the hops from tile a to every tile, one byte each (a hop
    count past 255 would take a grid of over 16 000 tiles). Built from each
    topology's distance formula, not one hop_distance call per pair."""
    tiles = [(r, c) for r in range(f.rows) for c in range(f.cols)]
    if f.topology is Topology.CROSSBAR:
        return [bytes([a != b for b in tiles]) for a in tiles]
    if f.topology is Topology.MESH:
        return [bytes([abs(ra - rb) + abs(ca - cb) for rb, cb in tiles]) for ra, ca in tiles]
    return [bytes([max(abs(ra - rb), abs(ca - cb)) for rb, cb in tiles]) for ra, ca in tiles]  # KINGMESH


class _KernelTables:
    """What every search of one kernel reads and none writes: latencies,
    the schedule order, dependence adjacency, cyclic components, the node
    kinds with their counts, and RecMII. Read by map_kernel and
    min_ii_bounds through _kernel_tables. The nodes are numbered 0..n-1
    in schedule order (node i has id order[i]), and every per-node table is
    a tuple indexed by that number, so the search reads each with one index
    and, since it places the nodes in that order, the placed nodes are
    always 0..i-1. Holds no reference to the kernel object itself, so that
    the tables can go when the kernel does and no search of it is kept."""

    def __init__(self, k: KernelGraph):
        self.edges = k.edges
        self.census: dict[FuKind, int] = {}  # kind -> node count, in first-node order
        for n in k.nodes:
            self.census[n.kind] = self.census.get(n.kind, 0) + 1
        self.kinds = frozenset(self.census)
        self.max_census = max(self.census.values(), default=0)
        self.order = _schedule_order(k)
        pos = {nid: i for i, nid in enumerate(self.order)}
        self.by_id = tuple(sorted(pos.items()))  # (node id, number), in id order
        lat = {n.id: n.latency for n in k.nodes}
        self.lat = tuple(lat[nid] for nid in self.order)
        self.max_lat = max(self.lat, default=0)
        # By node, in edge order: every out-edge (v, latency, distance), the
        # in-edges (u, latency(u), distance) from earlier nodes, and the
        # earlier DFG neighbours, one entry per edge.
        n = len(self.order)
        out_edges: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        in_back: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        near: list[list[int]] = [[] for _ in range(n)]
        for e in k.edges:
            u, v = pos[e.src], pos[e.dst]
            out_edges[u].append((v, self.lat[u], e.distance))
            if u < v:
                in_back[v].append((u, self.lat[u], e.distance))
            if u != v:
                near[max(u, v)].append(min(u, v))
        self.out_edges = tuple(map(tuple, out_edges))
        self.in_back = tuple(map(tuple, in_back))
        self.near = tuple(map(tuple, near))
        succs = [[v for v, _, _ in outs] for outs in out_edges]
        self.cycles = [comp for comp in _sccs(range(n), succs) if len(comp) > 1]
        loops = [[u] for u in range(n) if u in succs[u]]
        self.rec_mii = _rec_mii(self.lat, self.out_edges, self.cycles + loops)
        # Nodes whose out-edges, self-loops aside, all go to later nodes:
        # placing one propagates to no placed node, and a self-loop holds at
        # any II from RecMII up, so its placements cannot fail.
        self.forward_only = tuple(all(v >= u for v, _, _ in outs) for u, outs in enumerate(out_edges))
        # Nodes with an out-edge to themselves or an earlier node: only their
        # placements can change a placed node's longest-path value.
        self.feeds_back = tuple(any(v <= u for v, _, _ in outs) for u, outs in enumerate(out_edges))
        self._windows: dict[int, Windows] = {}  # II -> windows(II)

    def windows(self, ii: int) -> Windows:
        """Static start-time windows between nodes that share a dependence
        cycle, built once per II. For u, v in one strongly connected
        component, the zero-hop longest paths D[u][v] and D[v][u] bound any
        schedule: D[u][v] <= start(v) - start(u) <= -D[v][u]. Checking a
        candidate slot against these windows refutes a dead branch when the
        slot is chosen, not levels deeper when the cycle finally closes. A
        window is listed under the earlier node u of the pair, as (v,
        D[u][v], span) with span = -D[v][u] - D[u][v] + 1 the number of
        start differences it allows: placing u narrows the later v's table
        at once. Callers only read the result."""
        if ii in self._windows:
            return self._windows[ii]
        fanout: dict[int, list[tuple[int, int, int]]] = {}
        for comp in self.cycles:
            # dist[i][j]: the longest zero-hop path from comp[i] to comp[j],
            # None while there is none
            local = {u: i for i, u in enumerate(comp)}
            dist: list[list[int | None]] = [[None] * len(comp) for _ in comp]
            for i, u in enumerate(comp):
                du = dist[i]
                du[i] = 0
                for v, lat_u, d in self.out_edges[u]:
                    j = local.get(v)
                    if j is not None and (du[j] is None or lat_u - d * ii > du[j]):
                        du[j] = lat_u - d * ii
            for w, dw in enumerate(dist):
                for du in dist:
                    duw = du[w]
                    if duw is None:
                        continue
                    for j, dwv in enumerate(dw):
                        if dwv is not None and (du[j] is None or duw + dwv > du[j]):
                            du[j] = duw + dwv
            for j, v in enumerate(comp):
                for i, u in enumerate(comp):
                    if u < v and dist[i][j] is not None and dist[j][i] is not None:
                        lo, hi = dist[i][j], -dist[j][i]
                        fanout.setdefault(u, []).append((v, lo, hi - lo + 1))
        windows = self._windows[ii] = tuple(tuple(fanout.get(u, ())) for u in range(len(self.order)))
        return windows


class _FabricTables:
    """What every search on one grid reads: the tile count, the hop table
    and the first node's tiles, built from f's rows, cols and topology
    alone, and the tile orders every search on the grid has sorted so far.
    Tiles are row-major indices, tile (r, c) is r * cols + c."""

    def __init__(self, f: FabricSpec):
        self.rows = f.rows
        self.cols = f.cols
        self.tiles = f.rows * f.cols
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
                r * f.cols + c
                for r in range(f.rows)
                for c in range(f.cols)
                if 2 * r <= f.rows - 1 and 2 * c <= f.cols - 1 and (f.rows != f.cols or r <= c)
            ]
        self.coords = [divmod(t, f.cols) for t in range(self.tiles)]
        self.orders: dict[tuple[int, ...], list[int]] = {}  # placed neighbors' tiles -> _Attempt._tile_order


class _FabricMemo:
    """Fabric tables by (rows, cols, topology), least recently used out
    first, bounded by the cells they hold in total: tiles squared per hop
    table (cells) and tiles per tile order (order_cells). The orders a
    search sorts are charged at the next get, so the memo may pass its
    bound within one search. A grid whose hop table alone passes it is
    built but not kept."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.cells = 0
        self.order_cells = 0
        self.entries: OrderedDict[tuple, _FabricTables] = OrderedDict()
        self.last: _FabricTables | None = None  # the tables got last, if kept
        self.last_orders = 0  # their orders charged so far

    def get(self, f: FabricSpec) -> _FabricTables:
        last = self.last
        if last is not None:  # charge the orders the last search sorted
            self.order_cells += last.tiles * (len(last.orders) - self.last_orders)
        key = (f.rows, f.cols, f.topology)
        ft = self.entries.get(key)
        if ft is None:
            ft = _FabricTables(f)
            if ft.tiles**2 <= self.capacity:
                self.entries[key] = ft
                self.cells += ft.tiles**2
        else:
            self.entries.move_to_end(key)
        self.last_orders = len(ft.orders)
        while self.cells + self.order_cells > self.capacity:
            gone = self.entries.popitem(last=False)[1]
            self.cells -= gone.tiles**2
            self.order_cells -= gone.tiles * len(gone.orders)
        self.last = self.entries.get(key)
        return ft


# Every grid up to 6x6 in all three topologies takes 24 843 hop-table
# cells, one 16x16 grid 65 536. A 100-iteration run of each of spmv, relu,
# fft and hpc_mix at three seeds keeps about 33 000 order cells.
_FABRIC_TABLES = _FabricMemo(1 << 16)


def _kernel_tables(k: KernelGraph) -> _KernelTables:
    # Kept on the kernel object, not by its value: hashing a kernel hashes
    # every node.
    derived = k.derived
    kt = derived.get("tables")
    if kt is None:
        kt = derived["tables"] = _KernelTables(k)
    return kt


class _Attempt:
    """One II attempt: DFS over (tile, residue) assignments with incremental
    longest-path feasibility over the dependence difference constraints.
    Nodes are the kernel tables' schedule positions, placed in that order,
    so node i is placed while the search is deeper than level i; tile_of,
    res_of and q hold its tile, residue and longest-path value. Occupancy
    is one int of tiles * II bits, tile-major: bit tile * II + r is set
    while slot (tile, r) is taken. acc[v], in the same layout, is the AND of
    the wide masks of v's placed window partners, all slots while none is
    placed. Each placement ANDs into the acc of its later partners (fanout)
    and pushes the values it replaced on the trail; its undo pops them
    back, so the trail always holds the placed nodes' entries in placement
    order."""

    def __init__(self, kt: _KernelTables, ft: _FabricTables, ii: int, attempts_left: int):
        self.kt = kt
        self.ft = ft
        self.ii = ii
        self.attempts_left = attempts_left
        self.hop_rows = ft.hop_rows
        self.full = (1 << ii) - 1
        self.slots = ft.tiles * ii
        self.wide = (1 << self.slots) - 1  # every slot of every tile
        hop_bound = max(ft.rows + ft.cols, 2)
        per_edge = math.ceil((kt.max_lat + hop_bound + ii - 1) / ii)
        self.dist_ub = max(1, per_edge * max(1, len(kt.edges)))
        n = len(kt.order)
        self.tile_of = [0] * n
        self.res_of = [0] * n
        self.q = [0] * n  # longest-path values, in units of II
        self.occ = 0  # taken slots, tile-major; kept by run, stored when it stops
        self.dep_rejected = False  # a dependence rejected a free slot or a placement
        # u -> (v, lo, span * slots) per later window partner v
        self.fanout = [[(v, lo, span * self.slots) for v, lo, span in later] for later in kt.windows(ii)]
        self.wide_masks: dict[int, int] = {}  # span * slots + tile_u * II + start -> _wide_mask
        self.acc = [self.wide] * n  # the AND of the wide masks of each node's placed window partners
        self.trail: list[int] = []  # the acc values placements replaced, latest last
        self.orders = ft.orders  # the grid's, shared by every search on it

    def _window_masks(self, start: int, span: int) -> list[int]:
        """The residues a window partner allows, by hop distance h: those in
        [start + h, start + span - 1 - h] mod II (start = r_u + lo)."""
        ii = self.ii
        masks = []
        for h in range(self.ft.max_hop + 1):
            width = span - 2 * h
            if width >= ii:
                masks.append(self.full)
            elif width <= 0:
                masks.append(0)
            else:
                run = ((1 << width) - 1) << ((start + h) % ii)
                masks.append((run | (run >> ii)) & self.full)
        return masks

    def _wide_mask(self, tile_u: int, start: int, span: int) -> int:
        """The slots a window partner on tile_u allows, as one wide bitset:
        tile t's field holds the _window_masks row at t's hop distance."""
        masks = self._window_masks(start, span)
        ii = self.ii
        wide = 0
        for h in reversed(self.hop_rows[tile_u]):
            wide = (wide << ii) | masks[h]
        return wide

    def _frame(self, idx: int, occ: int) -> tuple[list[int], int] | None:
        """Level idx of the search, with nodes 0..idx-1 placed on the slots
        in occ: its candidate tiles in try order and `allow`, one wide
        bitset in occ's layout of the residues node idx may take, the free
        slots ANDed with acc[idx]; None when the level is dead or doomed.
        Its table is exact for the level's whole life: the occupancy and
        the placed partners it reads stay as they are while it lives,
        because deeper levels undo their placements before control returns
        to it. A table that leaves out a free slot sets dep_rejected. A
        level is dead when its table is empty. A doomed level's placements
        are charged here in one step (one-level forward checking, Haralick
        & Elliott 1980); the test that finds it reads the next node's
        table, one more AND. A live level's tile order is keyed by the
        tiles of node idx's placed DFG neighbors, in `near` order, and
        looked up in the grid's memo: hard searches meet the same few keys
        over and over, and the searches on one grid share most keys, so
        the grid is sorted once per key. The root tries residue 0 on its
        first tiles only."""
        if not idx:
            return self.ft.first_tiles, sum(1 << t * self.ii for t in self.ft.first_tiles)
        kt = self.kt
        free = self.wide ^ occ
        allow = free & self.acc[idx]
        k = allow.bit_count()
        if idx + k < self.slots:  # idx slots are taken, the rest are out of the table
            self.dep_rejected = True
        if not k:
            return None
        if kt.forward_only[idx] and idx + 1 < len(kt.order):
            # Doomed: the next node's table, empty before idx's slot and
            # window join it, makes every child dead. The scan would place
            # each of the k candidates (none can fail), and each child's
            # empty table would leave out its free slots. With fewer than k
            # attempts left the budget runs out inside that scan, so the
            # level is searched as usual.
            if self.attempts_left >= k and not free & self.acc[idx + 1]:
                self.attempts_left -= k
                if idx + 1 < self.slots:
                    self.dep_rejected = True
                return None
        tile_of = self.tile_of
        near = tuple([tile_of[m] for m in kt.near[idx]])
        return self.orders.get(near) or self._tile_order(near), allow

    def _tile_order(self, near: tuple[int, ...]) -> list[int]:
        """Every tile, nearest-first to the tiles in near: by the sum of
        its hops to them, row-major among equals (a stable sort). It reads
        only the hop rows, so it is memoized on near in the grid's tables,
        and every level of every search on the grid that asks shares the
        one list, read-only."""
        tiles = self.orders.get(near)
        if tiles is None:
            tiles = self.orders[near] = list(range(self.ft.tiles))
            if near:
                sums = [sum(col) for col in zip(*[self.hop_rows[t] for t in near])]
                tiles.sort(key=sums.__getitem__)
        return tiles

    def run(self) -> dict[int, tuple[Tile, int]] | None:
        """Depth-first search over the schedule order: the placement by node
        id, or None when the attempt is searched to exhaustion. Level idx
        tries node idx at each residue its table allows, tile by tile in the
        level's order, lowest residue first; a tile with none to try costs
        one shift. The levels below the current one wait on an explicit
        stack, so kernel size is not limited by the interpreter's recursion
        depth. A placement sets the node's longest-path value from its
        placed predecessors, then propagates it along the out-edges among
        the placed nodes; an edge u -> v of latency lat_u and distance d
        weighs ceil((lat_u + hops + r_u - r_v) / II) - d. A node updated
        more often than there are placed nodes, or a value past dist_ub,
        proves a positive cycle, and the placement is taken back. Only once it holds
        does it AND its wide mask into acc[v] of each later window partner
        v. A placement whose next level is dead or doomed is taken back at
        once, and that level is never pushed. Only full placements draw on
        the budget, a doomed level's settled ones included; the slots the
        tables rule out are two orders of magnitude cheaper."""
        kt = self.kt
        n = len(kt.order)
        ii = self.ii
        full = self.full
        hop_rows = self.hop_rows
        in_back = kt.in_back
        out_edges = kt.out_edges
        feeds_back = kt.feeds_back
        fanout = self.fanout
        tile_of, res_of, q, acc = self.tile_of, self.res_of, self.q, self.acc
        push, pop = self.trail.append, self.trail.pop
        wide_masks = self.wide_masks
        dist_ub = self.dist_ub
        frame = self._frame
        attempts_left = self.attempts_left
        occ = 0
        stack: list[tuple[list[int], int, int, int, list[tuple[int, int]]]] = []  # suspended levels
        idx = 0
        tiles, allow = frame(0, 0)
        nt = left = 0  # the next tile to try, the residues left on the current one
        while True:
            if not left:
                while nt < len(tiles):
                    tile = tiles[nt]
                    nt += 1
                    left = (allow >> tile * ii) & full
                    if left:
                        break
            if left:
                low = left & -left
                left ^= low
                residue = low.bit_length() - 1
                attempts_left -= 1
                if attempts_left < 0:
                    self.occ, self.attempts_left = occ, attempts_left
                    raise _BudgetExhausted()
                row = hop_rows[tile]  # hops are symmetric
                base = 0
                for u, lat_u, d in in_back[idx]:
                    w = q[u] - ((residue - lat_u - row[tile_of[u]] - res_of[u]) // ii) - d
                    if w > base:
                        base = w
                tile_of[idx] = tile
                res_of[idx] = residue
                q[idx] = base
                occ |= 1 << (tile * ii + residue)
                undo: list[tuple[int, int]] = []  # (node, q value replaced)
                updates: dict[int, int] = {}
                cyclic = False
                queue = [idx] if feeds_back[idx] else ()  # otherwise no placed node's value can move
                for u in queue:
                    tu = tile_of[u]
                    ru = res_of[u]
                    row = hop_rows[tu]
                    for v, lat_u, d in out_edges[u]:
                        if v > idx:  # not placed
                            continue
                        # q[u] is read per edge: a self-loop on u may raise it here
                        cand = q[u] - ((res_of[v] - lat_u - row[tile_of[v]] - ru) // ii) - d
                        if cand > q[v]:
                            seen = updates.get(v, 0) + 1
                            if cand > dist_ub or seen > idx + 1:
                                cyclic = True
                                break
                            updates[v] = seen
                            undo.append((v, q[v]))
                            q[v] = cand
                            queue.append(v)
                    if cyclic:
                        break
                if cyclic:
                    for v, old in reversed(undo):
                        q[v] = old
                    occ ^= 1 << (tile * ii + residue)
                    self.dep_rejected = True
                    continue
                at = tile * ii
                for v, lo, span_at in fanout[idx]:
                    start = (residue + lo) % ii
                    key = span_at + at + start
                    mask = wide_masks.get(key)
                    if mask is None:
                        mask = wide_masks[key] = self._wide_mask(tile, start, span_at // self.slots)
                    old = acc[v]
                    push(old)
                    acc[v] = old & mask
                if idx + 1 == n:
                    self.occ, self.attempts_left = occ, attempts_left
                    coords = self.ft.coords  # one (row, col) pair per tile, shared by every result kept
                    return {nid: (coords[tile_of[i]], res_of[i]) for i, nid in enumerate(kt.order)}
                self.attempts_left = attempts_left
                nxt = frame(idx + 1, occ)
                attempts_left = self.attempts_left
                if nxt is not None:
                    stack.append((tiles, allow, nt, left, undo))
                    idx += 1
                    tiles, allow = nxt
                    nt = left = 0
                    continue
            else:  # the level is exhausted: back to the one below, whose placement goes
                if not idx:
                    self.occ, self.attempts_left = occ, attempts_left
                    return None
                idx -= 1
                tiles, allow, nt, left, undo = stack.pop()
                tile, residue = tile_of[idx], res_of[idx]
            # take back node idx's placement at (tile, residue)
            for v, _, _ in reversed(fanout[idx]):
                acc[v] = pop()
            for v, old in reversed(undo):
                q[v] = old
            occ ^= 1 << (tile * ii + residue)


def _sccs(ids: range, succs: list[list[int]]) -> list[list[int]]:
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
    succs: dict[int, list[int]] = {n.id: [] for n in k.nodes}
    indeg = {n.id: 0 for n in k.nodes}
    for e in k.edges:
        if e.distance == 0:
            succs[e.src].append(e.dst)
            indeg[e.dst] += 1
    asap = {n.id: 0 for n in k.nodes}
    ready = sorted(nid for nid, d in indeg.items() if d == 0)
    queue = deque(ready)
    while queue:
        u = queue.popleft()
        for v in succs[u]:
            asap[v] = max(asap[v], asap[u] + lat[u])
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return sorted(asap, key=lambda nid: (asap[nid], nid))


#: Searches map_kernel keeps, least recently used out first. A kept
#: mapping costs about 2 KB, and its key keeps the kernel's tables (6 KB for
#: a typical transformed kernel) alive until it leaves.
SEARCHES_KEPT = 256
_SEARCHES: OrderedDict[tuple, MappingResult | MapError] = OrderedDict()


def map_kernel(k: KernelGraph, f: FabricSpec, budget: MapBudget | None = None) -> MappingResult | MapError:
    """Map kernel k onto fabric f, or explain why that is impossible.

    Deterministic; see module docstring for the search strategy and the
    meaning of each error code. Hints are machine-readable and drive the
    automatic repair rules. The checks run in a fixed order: FU kinds,
    II bounds, the search, then config memory depth. The bounds and the
    search read only k, the budget and f's rows, cols and topology, and
    are kept in the search memo: every call with the same kernel object,
    grid and budget is answered from one search, and calls whose mapping
    fits their fabric share one MappingResult.
    """
    budget = budget or MapBudget()
    kt = _kernel_tables(k)
    if not kt.kinds <= f.fu_kinds:  # the only check that reads f.fu_kinds
        missing = sorted(kind.name for kind in kt.kinds - f.fu_kinds)
        return MapError(
            "MISSING_FU_KIND",
            f"fabric lacks FU kind(s): {', '.join(missing)}",
            hint={"missing_kinds": missing},
        )
    key = (kt, f.rows, f.cols, f.topology, budget)
    found = _SEARCHES.get(key)
    if found is None:
        found = _SEARCHES[key] = _search(kt, f, budget)
        if len(_SEARCHES) > SEARCHES_KEPT:
            _SEARCHES.popitem(last=False)
    else:
        _SEARCHES.move_to_end(key)
    if type(found) is MapError or found.ii <= f.config_mem_depth:  # the only read of config_mem_depth
        return found
    return MapError(
        "CONFIG_MEM_OVERFLOW",
        f"smallest feasible II {found.ii} exceeds config_mem_depth {f.config_mem_depth}",
        hint={"required_depth": found.ii},
    )


def _search(kt: _KernelTables, f: FabricSpec, budget: MapBudget) -> MappingResult | MapError:
    """The II bounds, then one attempt per II from the lower bound up: the
    mapping at the first II that places, whatever f's config memory."""
    res, rec = _ii_bounds(kt, f.tiles)
    if res > budget.max_ii:
        return MapError(
            "INSUFFICIENT_TILES",
            f"resource-bound min II {res} exceeds max_ii {budget.max_ii}",
            hint={"required_tiles": math.ceil(kt.max_census / budget.max_ii)},
        )
    if rec > budget.max_ii:
        return MapError(
            "II_BOUND_EXCEEDED",
            f"recurrence-bound min II {rec} exceeds max_ii {budget.max_ii}",
            hint={"min_ii": rec, "max_ii": budget.max_ii},
        )
    # Extra sound lower bound: n nodes need n distinct (tile, residue) slots.
    lower = max(res, rec, math.ceil(len(kt.order) / f.tiles))
    ft = _FABRIC_TABLES.get(f)
    dep_rejected = False  # by the last attempt; read only when none ran out of budget
    budget_hit = False
    for ii in range(lower, budget.max_ii + 1):
        attempt = _Attempt(kt, ft, ii, budget.placement_attempts)
        try:
            placement = attempt.run()
        except _BudgetExhausted:
            budget_hit = True
            continue
        dep_rejected = attempt.dep_rejected
        if placement is not None:
            return _build_result(kt, ii, placement, attempt.q)
    if dep_rejected and not budget_hit:
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


def _build_result(kt: _KernelTables, ii: int, placement: dict[int, tuple[Tile, int]], q: list[int]) -> MappingResult:
    """The mapping of a placement by node id, as _Attempt.run returns it,
    with q, its longest-path values by schedule position: each start is the
    residue plus II times the node's value. Built in one pass in node id
    order; every start and latency is >= 0, so the longest end starts at
    0. Its routes are left to route_paths."""
    lat = kt.lat
    schedule = {}
    schedule_len = 0
    for nid, i in kt.by_id:
        tile, residue = placement[nid]
        start = residue + ii * q[i]
        schedule[nid] = (tile, start)
        if start + lat[i] > schedule_len:
            schedule_len = start + lat[i]
    return MappingResult(ii=ii, schedule=schedule, schedule_len=schedule_len)


# ---------------------------------------------------------------------------
# Independent verification and derived metrics
# ---------------------------------------------------------------------------


def check_mapping(k: KernelGraph, f: FabricSpec, m: MappingResult) -> list[str]:
    """Re-verify every mapping invariant from scratch.

    Shares no state with the search: adjacency comes from arch.neighbors,
    hop counts come from the route paths, m.routes or else route_path's
    (route_paths). A placement off the grid is reported before any route
    is derived, and ends the check. Returns human-readable problem
    strings, empty when the mapping is valid.
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
    off_grid = False
    for nid in sorted(m.schedule):
        (tile, start) = m.schedule[nid]
        r, c = tile
        if not (0 <= r < f.rows and 0 <= c < f.cols):
            problems.append(f"node {nid} placed off-grid at {tile}")
            off_grid = True
            continue
        if start < 0:
            problems.append(f"node {nid} start {start} negative")
        slot = (tile, start % m.ii)
        if slot in slots:
            problems.append(f"nodes {slots[slot]} and {nid} share slot {slot}")
        else:
            slots[slot] = nid
    if off_grid:  # route_path cannot reach a tile off the grid
        return problems
    routes = route_paths(k, f, m)
    if len(routes) != len(k.edges):
        problems.append(f"{len(routes)} routes for {len(k.edges)} edges")
        return problems
    for e, path in zip(k.edges, routes):
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
