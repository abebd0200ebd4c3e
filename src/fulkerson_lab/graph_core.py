"""Multigraph primitives shared by every other module.

Edges carry dense integer identities (0..m-1) and parallel edges are
first-class citizens: an edge is always addressed by its id, never by its
endpoint pair.  All graph objects are immutable after construction and
therefore safe to share between concurrent searches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Raised when a graph, edge set or operation precondition is violated."""


class MultiGraph:
    """Undirected multigraph with dense vertex ids and dense edge ids.

    Parallel edges are allowed.  Self-loops are allowed at this level (they
    only ever appear in suppressed graphs); a loop contributes 2 to the
    degree of its vertex.
    """

    __slots__ = ("_n", "_edges", "_adj")

    def __init__(self, num_vertices: int, edge_list: Iterable[tuple[int, int]]):
        if num_vertices < 0:
            raise GraphError("vertex count must be non-negative")
        edges = []
        adj: list[list[int]] = [[] for _ in range(num_vertices)]
        for eid, (u, v) in enumerate(edge_list):
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise GraphError(f"edge {eid} endpoint out of range: ({u}, {v})")
            edges.append((eid, u, v))
            adj[u].append(eid)
            if v != u:
                adj[v].append(eid)
        self._n = num_vertices
        self._edges = tuple(edges)
        self._adj = tuple(tuple(sorted(a)) for a in adj)

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertices(self) -> range:
        return range(self._n)

    def edge_ids(self) -> range:
        return range(len(self._edges))

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """All edges as (edge_id, endpoint_a, endpoint_b) triples."""
        return self._edges

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self._edges[eid][1], self._edges[eid][2]

    def is_loop(self, eid: int) -> bool:
        _, u, v = self._edges[eid]
        return u == v

    def other_end(self, eid: int, v: int) -> int:
        _, a, b = self._edges[eid]
        if v == a:
            return b
        if v == b:
            return a
        raise GraphError(f"vertex {v} is not an endpoint of edge {eid}")

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge ids incident to v, ascending.  A loop appears once."""
        if not 0 <= v < self._n:
            raise GraphError(f"unknown vertex {v}")
        return self._adj[v]

    def degree(self, v: int) -> int:
        if not 0 <= v < self._n:
            raise GraphError(f"unknown vertex {v}")
        return sum(2 if self.is_loop(e) else 1 for e in self._adj[v])

    def edges_between(self, u: int, v: int) -> tuple[int, ...]:
        return tuple(e for e in self.incident(u) if self.other_end(e, u) == v)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Distinct neighbor vertices of v, ascending (loops excluded)."""
        return tuple(sorted({self.other_end(e, v) for e in self.incident(v)
                             if not self.is_loop(e)}))

    def has_loops(self) -> bool:
        return any(u == v for _, u, v in self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self._n}, m={self.num_edges})"


class CubicGraph(MultiGraph):
    """Multigraph in which every vertex has degree exactly 3 and no loops."""

    def __init__(self, num_vertices: int, edge_list: Iterable[tuple[int, int]]):
        super().__init__(num_vertices, edge_list)
        if self.has_loops():
            raise GraphError("cubic graph may not contain loops")
        for v in self.vertices():
            if self.degree(v) != 3:
                raise GraphError(f"vertex {v} has degree {self.degree(v)}, expected 3")


def degree(g: MultiGraph, v: int) -> int:
    """Degree of v in g; a loop counts twice."""
    return g.degree(v)


class EdgeSet:
    """A set of edge ids attached to its host graph."""

    __slots__ = ("graph", "members")

    def __init__(self, graph: MultiGraph, members: Iterable[int]):
        members = frozenset(members)
        for e in members:
            if not 0 <= e < graph.num_edges:
                raise GraphError(f"edge id {e} not in host graph")
        self.graph = graph
        self.members = members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, eid: int) -> bool:
        return eid in self.members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return self.graph == other.graph and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.graph, self.members))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({sorted(self.members)})"


class Matching(EdgeSet):
    """An edge set in which no two members share a vertex."""

    def __init__(self, graph: MultiGraph, members: Iterable[int]):
        super().__init__(graph, members)
        seen: set[int] = set()
        for e in self.members:
            u, v = graph.endpoints(e)
            if u == v:
                raise GraphError(f"loop {e} cannot belong to a matching")
            if u in seen or v in seen:
                raise GraphError(f"edges of a matching share vertex at edge {e}")
            seen.add(u)
            seen.add(v)


@dataclass(frozen=True)
class Cycle:
    """A closed walk with distinct edges; vertices[i] -- vertices[i+1] via edges[i].

    The walk is canonical: it starts at its lowest vertex and proceeds
    toward the lower-id neighbor (edge id breaks ties between parallels).
    """

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def is_odd(self) -> bool:
        return len(self.vertices) % 2 == 1


@dataclass(frozen=True)
class CycleSet:
    """Vertex-disjoint cycles, ordered by their lowest vertex id.

    place[v] is (i, p) when v is cycles[i].vertices[p], and None when no
    cycle passes through v.  `cycle_decomposition` records it as it walks
    the cycles; it takes no part in equality.
    """

    cycles: tuple[Cycle, ...]
    place: tuple[tuple[int, int] | None, ...] = field(default=(), init=False, compare=False,
                                                      repr=False)

    def __iter__(self) -> Iterator[Cycle]:
        return iter(self.cycles)

    def __len__(self) -> int:
        return len(self.cycles)

    def covered_edges(self) -> frozenset[int]:
        return frozenset(e for c in self.cycles for e in c.edges)


def _spanning_forest(g: MultiGraph) -> tuple[list[int], list[int]]:
    """Each vertex's forest edge to its parent, -1 at a root, and the
    vertices in the order they are taken: a component at a time from its
    lowest vertex, parents before children."""
    up = [-2] * g.num_vertices  # -2 until taken
    order = []
    for root in g.vertices():
        if up[root] == -2:
            up[root] = -1
            stack = [root]
            while stack:
                v = stack.pop()
                order.append(v)
                for e in g.incident(v):
                    w = g.other_end(e, v)
                    if up[w] == -2:
                        up[w] = e
                        stack.append(w)
    return up, order


def _components(g: MultiGraph) -> list[list[int]]:
    """Connected components (vertex lists) of g, each from its lowest vertex."""
    comps: list[list[int]] = []
    up, order = _spanning_forest(g)
    for v in order:
        if up[v] == -1:
            comps.append([])
        comps[-1].append(v)
    return comps


def is_connected(g: MultiGraph) -> bool:
    return len(_components(g)) <= 1


def _cut_labels(g: MultiGraph) -> list[int]:
    """A bit mask per edge such that a set of edges is a cut, the edges
    between some vertex set and the rest, iff their masks XOR to 0.

    A cut is an edge set that meets every cycle evenly.  Each edge off a
    spanning forest gets its own bit, and each forest edge the bits of the
    off-forest edges whose fundamental cycles pass it, those at the
    vertices below it.  A bridge's mask is 0; a loop's is its own bit.
    """
    up, order = _spanning_forest(g)
    label = [0] * g.num_edges
    below = [0] * g.num_vertices
    for e, u, w in g.edges:
        if e != up[u] and e != up[w]:
            label[e] = 1 << e
            below[u] ^= label[e]
            below[w] ^= label[e]  # a loop's bit cancels: it passes no forest edge
    for v in reversed(order):
        if up[v] >= 0:
            label[up[v]] = below[v]
            below[g.other_end(up[v], v)] ^= below[v]
    return label


def is_bridgeless(g: MultiGraph) -> bool:
    """True iff connected g has no cut edge, one whose `_cut_labels` mask is
    0.  Parallel edges are never bridges."""
    if not is_connected(g):
        raise GraphError("is_bridgeless requires a connected graph")
    return all(_cut_labels(g))


def _three_cuts(g: MultiGraph, label: Sequence[int]) -> Iterator[int]:
    """The cuts of g with exactly three edges, as edge bit masks, less the
    three edges at one vertex; label is g's `_cut_labels`.

    Three edges make a cut iff their labels XOR to 0.  The lowest bit of
    the three labels then lies in exactly two of them, and it is the
    lowest bit of both, so only pairs with the same lowest bit are looked
    up.  The cuts come lazily, so a caller that needs one stops there.
    """
    with_label: dict[int, list[int]] = {}
    by_low: dict[int, list[int]] = {}  # 0 holds the bridges, whose labels are 0
    for e, x in enumerate(label):
        with_label.setdefault(x, []).append(e)
        by_low.setdefault(x & -x, []).append(e)
    stars = {sum(1 << e for e in g.incident(v)) for v in g.vertices()}
    for low, edges in by_low.items():
        for i, a in enumerate(edges):
            for b in edges[i + 1:]:
                for c in with_label.get(label[a] ^ label[b], ()):
                    cut = 1 << a | 1 << b | 1 << c
                    if (low or c > b) and cut not in stars:
                        yield cut


def is_bipartite(g: MultiGraph) -> bool:
    """Whether the two sides of a spanning forest, by depth parity, hold no
    edge inside; parallel edges are irrelevant, loops fail it."""
    up, order = _spanning_forest(g)
    side = [0] * g.num_vertices
    for v in order:
        if up[v] >= 0:
            side[v] = 1 - side[g.other_end(up[v], v)]
    return all(side[u] != side[w] for _, u, w in g.edges)


def _connected_sets(nbrs: list[tuple[int, ...]], root: int, size: int) -> list[frozenset[int]]:
    """Connected sets of `size` vertices whose least vertex is `root`, sorted."""
    layer = {frozenset((root,))}
    for _ in range(size - 1):
        layer = {s | {w} for s in layer for v in s for w in nbrs[v] if w > root and w not in s}
    return sorted(layer, key=sorted)


def _feedback_vertices(g: MultiGraph) -> frozenset[int]:
    """A feedback vertex set of a loopless multigraph, found greedily.

    The vertices are scanned in id order, and each joins a forest unless two
    of its edges reach the same tree of it; parallel edges count one by one,
    so a digon is a cycle.  The vertices left out meet every cycle.
    """
    parent = [-1] * g.num_vertices  # union-find over the forest; -1 off it

    def tree(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    left_out = []
    for v in g.vertices():
        trees = [tree(w) for w in (g.other_end(e, v) for e in g.incident(v)) if parent[w] >= 0]
        if len(set(trees)) < len(trees):
            left_out.append(v)
        else:
            parent[v] = v
            for t in trees:
                parent[t] = v
    return frozenset(left_out)


def _splits_cyclically(arcs: list[tuple[tuple[int, int, int, int], ...]], num_edges: int,
                       source: frozenset[int], sink: frozenset[int]) -> bool:
    """True iff a minimum source-sink cut has a cycle on each side.

    Unit-capacity max flow: augments along breadth-first residual paths
    until none is left, so it runs one search more than the flow's value,
    which is at most the number of edges leaving the sink.  An arc
    (e, v, w, d) crosses edge e from v to w; flow[e] is +1 or -1 when one
    unit crosses e in the direction d = +1 or -1, and 0 when none does.
    When no path is left, the vertices the source still reaches are the
    smallest source side of a minimum cut, so the rest is its largest sink
    side.
    """
    n = len(arcs)
    flow = [0] * num_edges
    value = 0
    while True:
        seen = bytearray(n)
        for v in source:
            seen[v] = 1
        entry: list[tuple[int, int, int, int] | None] = [None] * n
        queue = list(source)
        hit = -1
        for v in queue:  # the list grows while it is walked
            for arc in arcs[v]:
                e, _, w, d = arc
                if seen[w] or flow[e] == d:
                    continue
                seen[w] = 1
                entry[w] = arc
                if w in sink:
                    hit = w
                    break
                queue.append(w)
            if hit >= 0:
                break
        if hit < 0:
            # Both sides are connected; such a side with f boundary edges in
            # a cubic graph contains a cycle iff it has at least f vertices.
            return len(queue) >= value and n - len(queue) >= value
        value += 1
        arc = entry[hit]
        while arc is not None:
            flow[arc[0]] += arc[3]
            arc = entry[arc[1]]


def cyclic_edge_connectivity_at_least(g: CubicGraph, k: int) -> bool:
    """True iff no edge cut of size < k leaves two components that both contain cycles.

    A cyclic cut of fewer than k edges exists iff some bond (a cut whose
    two sides are connected) of size c < k has a cycle on each side.  In a
    cubic graph a connected side S with f boundary edges has (3|S| - f) / 2
    edges, so it contains a cycle iff |S| >= f, and |S| = f (mod 2).

    Cuts of at most three edges are read from `_cut_labels`, which are
    exact: a set of edges is a cut iff their labels XOR to 0.
    - A zero label is a bridge, a bond of one edge; each side has at least
      one vertex, so the bridge is cyclic, and k >= 2 fails.
    - In a bridgeless graph two equal labels are a cut of two edges; it is
      a bond, since neither edge is a cut alone.  Each side has an even
      number of vertices, so at least 2, and the cut is cyclic: k >= 3
      fails.
    - With neither, every cut of three edges (`_three_cuts`) is a bond, as
      no smaller cut lies in it.  Its sides have an odd number of vertices,
      so it is cyclic iff neither side is a single vertex, iff it is not
      the star of a vertex, which `_three_cuts` leaves out: k >= 4 fails
      at the first cut it yields.

    Bonds of c = 4 and 5 edges (k = 5, 6) are found by flow, after Dvořák,
    Kára, Král' and Pangrác, "An algorithm for cyclic edge connectivity of
    cubic graphs" (SWAT 2004, LNCS 3111).  The search pairs a connected
    source seed X containing vertex 0 with each disjoint connected sink
    seed Y that meets D, of c - 1 and c - 2 vertices, and reads the minimum
    X-Y cut with the largest sink side (`_splits_cyclically`).  D is a
    feedback vertex set, found greedily once per call
    (`_feedback_vertices`).
    - Sound: a minimum cut between connected seeds is a bond, whichever
      seeds are tried; both of its sides are checked for a cycle.
    - Complete: let the bond have c edges, cycles on both sides and vertex
      0 on side S.  Each side has at least c vertices, so some X fits in S.
      The other side T contains a cycle, so it meets D; T is connected and
      has at least c vertices, so some Y of c - 2 vertices that holds that
      vertex of D fits in T.  A side that is a tree has two vertices fewer
      than the cut has edges.  The minimum X-Y cut has f <= c edges and its
      source side holds c - 1 >= f - 1 vertices.  If f = c, the bond is a
      minimum cut, so the largest sink side contains T; if f < c, that side
      holds at least c - 2 >= f - 1 vertices.  Either way neither side is
      a tree.

    For k <= 4 the test takes O(m) labels of O(m) bits and a scan of the
    edge pairs whose labels share their lowest bit, one dictionary lookup
    each.  For k = 5, 6 each c gets O(1) seeds X and O(|D|) seeds Y, and
    each flow runs at most c + 1 breadth-first searches, since at most c
    edges leave a connected Y of c - 2 vertices, so the flows take O(|D| n)
    time, quadratic in n at worst.  A feedback vertex set of a cubic graph
    has at least (n + 2) / 4 vertices; the greedy one has 52 of J51's 204.
    The input must be 3-regular and loopless.
    """
    if not isinstance(k, int) or not 1 <= k <= 6:
        raise GraphError(f"supported connectivity range is 1..6, got {k}")
    if g.has_loops() or any(g.degree(v) != 3 for v in g.vertices()):
        raise GraphError("cyclic edge connectivity requires a loopless cubic graph")
    if not is_connected(g):
        raise GraphError("cyclic edge connectivity requires a connected graph")
    n = g.num_vertices
    if n == 0:
        return True
    label = _cut_labels(g)
    if k > 1 and not all(label):
        return False
    if k > 2 and len(set(label)) < len(label):
        return False
    if k > 3 and next(_three_cuts(g, label), None) is not None:
        return False
    if k < 5:
        return True
    arcs = [tuple((e, v, g.other_end(e, v), 1 if g.endpoints(e)[0] == v else -1)
                  for e in g.incident(v)) for v in g.vertices()]
    nbrs = [g.neighbors(v) for v in g.vertices()]
    feedback = _feedback_vertices(g)
    for c in range(4, k):
        sinks = [y for root in range(1, n) for y in _connected_sets(nbrs, root, c - 2)
                 if y & feedback]
        for x in _connected_sets(nbrs, 0, c - 1):
            for y in sinks:
                if not x & y and _splits_cyclically(arcs, g.num_edges, x, y):
                    return False
    return True


def cycle_decomposition(g: MultiGraph, s: EdgeSet | Iterable[int]) -> CycleSet:
    """Partition an edge set of per-vertex degree 0 or 2 into vertex-disjoint cycles.

    The decomposition is unique; ordering is deterministic (each cycle starts
    at its lowest vertex and runs toward the lower neighbor, cycles sorted by
    their lowest vertex).  An edge id outside g raises GraphError.
    """
    members = (s if isinstance(s, EdgeSet) else EdgeSet(g, s)).members
    loop = min((e for e in members if g.is_loop(e)), default=None)
    if loop is not None:
        raise GraphError(f"loop {loop} admits no cycle decomposition here")
    at = [[e for e in g.incident(v) if e in members] for v in g.vertices()]
    bad = [v for v in g.vertices() if len(at[v]) not in (0, 2)]
    if bad:
        # name the bad vertex that the edges, taken in ascending id, reach first
        v = min(bad, key=lambda v: (at[v][0], g.endpoints(at[v][0])[0] != v))
        raise GraphError(f"vertex {v} has degree {len(at[v])} in the edge set, expected 2")
    return _cycle_set(g, at)


def _cycle_set(g: MultiGraph, at: Sequence[Sequence[int]],
               keep: Callable[[list[int]], bool] = lambda verts: True) -> CycleSet | None:
    """The cycles of an edge set, walked once, with `CycleSet.place` filled in.

    at[v] lists the set's edges at v, ascending: two on a cycle, none off
    it, and no loop.  Cycles come in order of their lowest vertex; each
    starts there and steps first to the lower neighbour, the lower edge id
    breaking a tie.  The walk stops at the first cycle whose vertex list
    keep rejects, and None comes with no `Cycle` built.
    """
    place: list[tuple[int, int] | None] = [None] * g.num_vertices
    cycles: list[tuple[list[int], list[int]]] = []
    for start, two in enumerate(at):
        if place[start] is not None or not two:
            continue
        e, f = two
        if g.other_end(f, start) < g.other_end(e, start):
            e = f
        verts = [start]
        edges = [e]
        place[start] = (len(cycles), 0)
        cur = g.other_end(e, start)
        while cur != start:
            place[cur] = (len(cycles), len(verts))
            verts.append(cur)
            x, y = at[cur]
            e = y if x == e else x  # the other edge of the set at cur
            edges.append(e)
            cur = g.other_end(e, cur)
        if not keep(verts):
            return None
        cycles.append((verts, edges))
    found = CycleSet(tuple(Cycle(tuple(verts), tuple(edges)) for verts, edges in cycles))
    object.__setattr__(found, "place", tuple(place))  # the frozen field no caller sets
    return found
