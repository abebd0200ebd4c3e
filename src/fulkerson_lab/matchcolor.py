"""Perfect matchings, edge colorings, edge splitting and the shrink pipeline.

The splitting operation doubles each removed matching edge into two
connector paths, so each endpoint of a split edge turns into two degree-2
vertices.  Suppressing all degree-2 vertices then yields cubic components
plus vertexless loops; chains of absorbed edges are recorded so colors can
be pulled back to the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import count, dropwhile, islice, permutations
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .budget import Budget, BudgetExhausted
from .graph_core import (
    CubicGraph,
    Cycle,
    CycleSet,
    EdgeSet,
    GraphError,
    Matching,
    MultiGraph,
    _components,
    _cycle_set,
    cycle_decomposition,
)


class PerfectMatching(Matching):
    """A matching that saturates every vertex of its host graph."""

    def __init__(self, graph: MultiGraph, members: Iterable[int]):
        super().__init__(graph, members)
        if 2 * len(self.members) != graph.num_vertices:
            raise GraphError("matching does not saturate every vertex")


E = TypeVar("E", bound=EdgeSet)


def _as_edges(g: MultiGraph, s: EdgeSet | Iterable[int], kind: type[E]) -> E:
    """s as a `kind` on g; an edge set attached to another graph is refused."""
    if isinstance(s, EdgeSet):
        if s.graph != g:
            raise GraphError(f"{type(s).__name__} belongs to a different graph")
        if isinstance(s, kind):
            return s
        s = s.members
    return kind(g, s)


def _as_matching(g: MultiGraph, a: Matching | Iterable[int]) -> Matching:
    return _as_edges(g, a, Matching)


def _as_perfect(g: MultiGraph, m: PerfectMatching | Iterable[int]) -> PerfectMatching:
    return _as_edges(g, m, PerfectMatching)


@dataclass(frozen=True)
class EdgeColoring:
    """Proper edge coloring; assignment[eid] is the color of edge eid."""

    graph: MultiGraph
    assignment: tuple[int, ...]
    palette_size: int

    def __post_init__(self) -> None:
        g = self.graph
        if len(self.assignment) != g.num_edges:
            raise GraphError("coloring must assign every edge")
        for c in self.assignment:
            if not 0 <= c < self.palette_size:
                raise GraphError(f"color {c} outside palette")
        for v in g.vertices():
            seen = set()
            for e in g.incident(v):
                if g.is_loop(e):
                    raise GraphError("loops admit no proper edge coloring")
                c = self.assignment[e]
                if c in seen:
                    raise GraphError(f"incident edges at vertex {v} share color {c}")
                seen.add(c)

    def color_class(self, c: int) -> frozenset[int]:
        return frozenset(e for e, col in enumerate(self.assignment) if col == c)


@dataclass(frozen=True)
class SuppressedGraph:
    """Result of splitting a matching and smoothing all degree-2 vertices.

    components are 3-regular multigraphs on the vertices the splitting left
    untouched; loops lists the vertexless loops as chains of absorbed
    original edge ids.  provenance[i][e] gives, for edge e of component i,
    the ordered original edges it absorbed (the doubled split-edge copies
    are implicit and never listed).
    """

    components: tuple[MultiGraph, ...]
    component_vertices: tuple[tuple[int, ...], ...]
    provenance: tuple[dict[int, tuple[int, ...]], ...]
    loops: tuple[tuple[int, ...], ...]

    @property
    def loop_count(self) -> int:
        return len(self.loops)


@dataclass
class PMEnumeration:
    """All perfect matchings found, with an explicit truncation flag."""

    matchings: tuple[PerfectMatching, ...]
    truncated: bool

    def __iter__(self) -> Iterator[PerfectMatching]:
        return iter(self.matchings)

    def __len__(self) -> int:
        return len(self.matchings)

    def __getitem__(self, i: int) -> PerfectMatching:
        return self.matchings[i]


# The cap of a perfect-matching listing
DEFAULT_PM_LIMIT = 1_000_000

# The states that the counting DP (`_holder_counts`) keeps over all the layers
# of its forward pass.  A kept state costs about 90 bytes (8.2M states held
# 740 MB on a 100-vertex graph), so 10^7 states stay near 1 GB, under the
# 2.3 GB that a listing of `DEFAULT_PM_LIMIT` matchings of that graph held.
_COUNT_CAP = 10_000_000


def _base(link: dict[int, int], v: int) -> int:
    """The base of the outermost blossom holding v, compressing the links on the way."""
    root = v
    while root in link:
        root = link[root]
    while v != root:
        link[v], v = root, link[v]
    return root


def _unmatched_edges(x: int, even: dict[int, tuple[int, int] | None],
                     odd: dict[int, int], mate: list[int]) -> list[tuple[int, int]]:
    """The unmatched edges of the alternating path from the even vertex x to the root.

    A vertex even from the start steps along its matched edge to an odd
    vertex, then along an unmatched edge to the even vertex that reached
    it.  A vertex that turned even inside a blossom with bridge (v, w) runs
    backwards along the path from v to itself, then crosses to w; direction
    does not change which edges are unmatched, so that detour is walked
    forwards, from a list of pending walks instead of by recursion.
    """
    edges: list[tuple[int, int]] = []
    walks = [(x, -1)]  # (start, the odd vertex that ends the walk; -1 is the root)
    while walks:
        x, stop = walks.pop()
        while True:
            bridge = even[x]
            if bridge is not None:
                v, w = bridge
                edges.append(bridge)
                walks.append((v, x))
                x = w
                continue
            o = mate[x]
            if o == -1 or o == stop:
                break
            x = odd[o]
            edges.append((o, x))
    return edges


def _augment(near: Sequence[Sequence[int]], saturated: list[bool], mate: list[int],
             root: int) -> bool:
    """Edmonds' search from the exposed vertex root; flips the path it finds.

    Runs on the vertices that are not `saturated`, along `near`, and looks
    for an alternating path to another vertex that `mate` leaves exposed.
    Blossoms are shrunk by union-find on their bases, so the work and the
    per-call dictionaries grow only with the vertices the search labels.
    """
    even: dict[int, tuple[int, int] | None] = {root: None}  # bridge, for a vertex turned even
    odd: dict[int, int] = {}  # odd vertex -> the even vertex that reached it
    link: dict[int, int] = {}  # blossom union-find towards the base
    queue = [root]
    for x in queue:
        for y in near[x]:
            if saturated[y]:
                continue
            if y in even:
                bx = _base(link, x) if x in link else x
                by = _base(link, y) if y in link else y
                if bx == by:
                    continue
                # Walk up from both bases in turn; the first base seen twice
                # is the base of the new blossom.
                seen = set()
                a, b = bx, by
                while a == -1 or a not in seen:
                    if a != -1:
                        seen.add(a)
                        a = -1 if mate[a] == -1 else _base(link, odd[mate[a]])
                    a, b = b, a
                top = a
                for v, w in ((x, y), (y, x)):
                    b = _base(link, v)
                    while b != top:
                        o = mate[b]
                        even[o] = (v, w)
                        queue.append(o)
                        link[b] = link[o] = top
                        b = _base(link, odd[o])
            elif y not in odd:
                odd[y] = x
                z = mate[y]
                if z == -1:
                    # Every vertex of the path lies on one unmatched edge:
                    # flipping the path matches exactly those.
                    for p, q in [(x, y), *_unmatched_edges(x, even, odd, mate)]:
                        mate[p], mate[q] = q, p
                    return True
                even[z] = None
                queue.append(z)
    return False


def _repair(near: Sequence[Sequence[int]], saturated: list[bool], mate: list[int],
            v: int, w: int) -> bool:
    """Pairs the saturated v and w in `mate`, or finds that no completion holds vw.

    Their old partners are left exposed, and one `_augment` search from v's
    old partner joins them again; on failure `mate` is restored.
    """
    a, c = mate[v], mate[w]
    mate[v], mate[w], mate[a], mate[c] = w, v, -1, -1
    if _augment(near, saturated, mate, a):
        return True
    mate[v], mate[a], mate[w], mate[c] = a, v, c, w
    return False


def _canonical_matchings(g: MultiGraph, exclude: frozenset[int] = frozenset(),
                         budget: Budget | None = None) -> Iterator[frozenset[int]]:
    """Perfect matchings avoiding `exclude`, lazily, lexicographic by sorted
    edge-id tuple: the one perfect-matching generator.

    A binary partition over the edges in ascending id, each edge with two
    unmatched ends first included, then excluded (the flashlight method;
    Read and Tarjan, Networks 5, 1975).  Matchings that hold an edge and
    agree below it with matchings that avoid it come first, so the order
    is canonical with no sort, and the first few come without the rest.

    `mate` is always one perfect matching of the allowed graph that holds
    every included edge, found up front by one `_augment` search per
    exposed vertex, so no subtree without a completion is entered.
    `mate` changes only by blossom search: including an edge that `mate`
    does not pair is one `_repair`, and excluding one that it does pair
    re-matches its ends by one `_augment`.
    `near[u][w]` counts the allowed edges between u and w, so excluding one
    of two parallel edges leaves its twin usable; loops are never allowed.
    Once the first matching is out, a bare vertex left with one allowed
    edge to another bare vertex takes it at once; such a forced edge takes
    no search, going in or coming out on backtracking.  It lies in every
    completion of the subtree, so the order is the same.

    It spends no nodes.  With a cancel callback it asks `budget.stopped()`
    before every blossom search and nowhere else (nothing else exhausts
    the budget between yields); it ends there, or on resuming from a yield
    once the budget is exhausted.
    """
    n = g.num_vertices
    if n % 2 == 1 or budget is not None and budget.exhausted:
        return
    cancel = None if budget is None else budget.cancel
    ends = [(u, w) for _, u, w in g.edges]
    near: list[dict[int, int]] = [{} for _ in range(n)]
    out = [True] * len(ends)  # the edges not allowed

    def allow(e: int, k: int) -> None:
        # Adds k (1 or -1) to the allowed edges between the ends of e.
        u, w = ends[e]
        out[e] = k < 0
        c = near[u].get(w, 0) + k
        if c:
            near[u][w] = near[w][u] = c
        else:
            del near[u][w], near[w][u]

    for e, (u, w) in enumerate(ends):
        if u != w and e not in exclude:
            out[e] = False
            near[u][w] = near[w][u] = near[u].get(w, 0) + 1
    saturated = [False] * n
    mate = [-1] * n
    for v in range(n):
        if mate[v] == -1:
            if cancel is not None and budget.stopped():
                return
            if not _augment(near, saturated, mate, v):
                return
    chosen: list[int] = []
    EXCLUDED, INCLUDED, FORCED = range(3)
    stack: list[tuple[int, int]] = []  # (edge decided, how)
    forcing = False

    def force(todo: list[int]) -> int:
        # Matches each bare vertex of todo that has one allowed edge left to
        # a bare vertex along that edge, then checks the neighbours of both
        # ends in turn; returns how many vertices it matched.
        matched = 0
        for x in todo:
            if saturated[x]:
                continue
            w = -1
            options = near[x]
            for y in options:
                if not saturated[y]:
                    if w != -1:
                        break
                    w = y
            else:  # w is mate[x], the one bare vertex left next to x
                if options[w] > 1:
                    continue
                for f in g.incident(x):
                    if not out[f] and w in ends[f]:
                        break
                saturated[x] = saturated[w] = True
                chosen.append(f)
                stack.append((f, FORCED))
                matched += 2
                todo += options
                todo += near[w]
        return matched

    e, bare = 0, n
    while True:
        # Decide the edges in ascending id until every vertex is matched;
        # `mate` guarantees that happens before the edges run out.
        while bare:
            u, w = ends[e]
            if not out[e] and not saturated[u] and not saturated[w]:
                take = mate[u] == w
                if not take:
                    if cancel is not None and budget.stopped():
                        return
                    saturated[u] = saturated[w] = True
                    take = _repair(near, saturated, mate, u, w)
                saturated[u] = saturated[w] = take
                if take:
                    chosen.append(e)
                    bare -= 2
                    stack.append((e, INCLUDED))
                    if forcing:
                        bare -= force([*near[u], *near[w]])
                else:  # `mate` avoids u-w, so it survives the exclusion
                    allow(e, -1)
                    stack.append((e, EXCLUDED))
                    if forcing:
                        bare -= force([u, w])
            e += 1
        yield frozenset(chosen)
        if budget is not None and budget.exhausted:
            return
        forcing = True
        # Backtrack to the deepest chosen edge whose exclusion still has a
        # completion, and exclude it.
        while stack:
            e, how = stack.pop()
            if how == EXCLUDED:
                allow(e, 1)
                continue
            u, w = ends[e]
            saturated[u] = saturated[w] = False
            chosen.pop()
            bare += 2
            if how == FORCED:
                continue
            allow(e, -1)
            if w not in near[u]:  # no parallel twin takes over, so re-match u and w
                if cancel is not None and budget.stopped():
                    return
                mate[u] = mate[w] = -1
                if not _augment(near, saturated, mate, u):
                    mate[u], mate[w] = w, u
                    allow(e, 1)
                    continue
            stack.append((e, EXCLUDED))
            bare -= force([u, w])
            e += 1
            break
        else:
            return


def _capped_matchings(g: CubicGraph, budget: Budget) -> Iterator[frozenset[int]]:
    """The first `DEFAULT_PM_LIMIT` perfect matchings in canonical order, lazily.

    Asking for one more exhausts `budget`: past the cap is unknown, not absent.
    """
    for i, m in enumerate(_canonical_matchings(g, budget=budget)):
        if i == DEFAULT_PM_LIMIT:
            budget.exhausted = True
            return
        yield m


class _MatchingRecord:
    """The canonical stream of g, kept as it is drawn: M_0, M_1, ... in `drawn`.

    It is the one reader of the stream that keeps what it draws, all by
    `reach`, so `drawn` stays a canonical prefix.  `listing` reads it to the
    cap; `avoiding` and `holding` answer exclusion queries from streams of
    their own, which keep nothing.
    """

    def __init__(self, g: MultiGraph, budget: Budget | None):
        self.drawn: list[frozenset[int]] = []
        self._g = g
        self._budget = budget
        self._stream = _canonical_matchings(g, budget=budget)

    def reach(self, i: int) -> bool:
        """Whether M_i exists, drawing up to it when it is not drawn yet."""
        if i >= len(self.drawn):
            self.drawn += islice(self._stream, i + 1 - len(self.drawn))
        return i < len(self.drawn)

    def avoiding(self, s: frozenset[int], j: int) -> Iterator[frozenset[int]]:
        """The matchings from M_j on that avoid s, lazily: a stream of its own
        that excludes s, less what sorts before the drawn M_j; it keeps none."""
        start = sorted(self.drawn[j])
        return dropwhile(lambda m: sorted(m) < start,
                         _canonical_matchings(self._g, s, budget=self._budget))

    def holding(self, e: int | None, s: frozenset[int]) -> Iterator[frozenset[int]]:
        """The matchings that hold e and avoid s, lazily, in canonical order: a
        stream of its own that excludes s and every other edge at an end of e
        (with e None, every matching that avoids s); it keeps none."""
        if e is not None:
            g = self._g
            s |= {f for v in g.endpoints(e) for f in g.incident(v) if f != e}
        return _canonical_matchings(self._g, s, budget=self._budget)

    def listing(self, limit: int | None = None) -> tuple[list[frozenset[int]], bool]:
        """The first `limit` perfect matchings (default `DEFAULT_PM_LIMIT`),
        canonical order, and whether the listing is truncated: there are
        more, or the stream stopped on an exhausted budget."""
        limit = DEFAULT_PM_LIMIT if limit is None else limit
        if limit < 0:
            raise GraphError(f"negative matching limit {limit}")
        truncated = self.reach(limit) or self._budget is not None and self._budget.exhausted
        return self.drawn[:limit], truncated


def enumerate_perfect_matchings(g: CubicGraph, limit: int | None = None,
                                budget: Budget | None = None) -> PMEnumeration:
    """The first `limit` perfect matchings of g (default one million),
    lexicographic by sorted edge-id tuple.

    The enumeration is truncated when there are more, or when `budget`
    stops the stream (see `_canonical_matchings`); an odd vertex count
    yields the empty, complete enumeration, and a negative `limit` raises
    `GraphError`.  No budget nodes are spent.  It validates every matching
    of a `_MatchingRecord`'s listing.
    """
    found, truncated = _MatchingRecord(g, budget).listing(limit)
    return PMEnumeration(tuple(PerfectMatching(g, s) for s in found), truncated)


def find_perfect_matching(
    g: CubicGraph,
    include: Matching | Iterable[int] = (),
    exclude: EdgeSet | Iterable[int] = (),
) -> PerfectMatching | None:
    """The first perfect matching, in canonical order, holding `include` and avoiding `exclude`.

    The first answer of `_canonical_matchings` that also excludes every
    other edge at an end of `include` (leaving the matchings that hold it),
    so with neither set it is `enumerate_perfect_matchings(g)[0]`: one Edmonds
    matching up front, then at most one repair per edge; None comes
    without branching.
    """
    inc = _as_matching(g, include).members
    excl = _as_edges(g, exclude, EdgeSet).members
    if inc & excl:
        raise GraphError("include and exclude overlap")
    excl |= {f for e in inc for v in g.endpoints(e) for f in g.incident(v)} - inc
    found = next(_canonical_matchings(g, excl), None)
    return None if found is None else PerfectMatching(g, found)


def split_and_suppress(
    g: CubicGraph,
    a: Matching | Iterable[int],
    partner: Matching | Iterable[int] | None = None,
) -> SuppressedGraph:
    """Split every edge of `a`, then smooth all degree-2 vertices.

    Splitting an edge uv doubles it into two connector paths, one for each
    way of pairing u's two remaining edges with v's.  When `partner` is
    given (a disjoint matching, normally forming alternating cycles with
    `a`), partner edges are paired with partner edges, which is the pairing
    the color-lifting construction relies on; otherwise ends are paired by
    ascending edge id.  Cycles consisting entirely of smoothed vertices
    become vertexless loops.
    """
    a = _as_matching(g, a)
    partner_set = frozenset() if partner is None else _as_matching(g, partner).members
    if partner_set & a.members:
        raise GraphError("partner matching must be disjoint from the split matching")

    # jump[(edge, vertex)] -> (edge', vertex'): a chain that reaches the split
    # end `vertex` along `edge` leaves the other split end vertex' along edge'.
    jump: dict[tuple[int, int], tuple[int, int]] = {}
    for e in a:
        ends = g.endpoints(e)
        rests = []
        for x in ends:
            rest = [f for f in g.incident(x) if f != e]
            if len(rest) != 2:
                raise GraphError("split endpoint is not cubic")
            if rest[1] in partner_set and rest[0] not in partner_set:
                rest.reverse()  # a lone partner edge pairs with its opposite number
            rests.append(rest)
        for eu, ev in zip(*rests):
            jump[(eu, ends[0])] = (ev, ends[1])
            jump[(ev, ends[1])] = (eu, ends[0])

    visited: set[int] = set()

    def walk(e: int, u: int) -> tuple[tuple[int, ...], int | None]:
        # The chain leaving u along e: its absorbed edges and the survivor it
        # ends at, or None when it comes back to e as a vertexless loop.
        chain = [e]
        while True:
            w = g.other_end(e, u)
            if (e, w) not in jump:
                break
            e, u = jump[(e, w)]
            if e == chain[0]:
                w = None
                break
            chain.append(e)
        visited.update(chain)
        return tuple(chain), w

    survivors = [v for v in g.vertices() if a.members.isdisjoint(g.incident(v))]
    chains: list[tuple[int, tuple[int, ...], int]] = []  # (start vertex, chain, end vertex)
    for u in survivors:
        for e in g.incident(u):
            if e not in visited:
                chains.append((u, *walk(e, u)))
    loops = [walk(e, g.endpoints(e)[0])[0] for e in g.edge_ids()
             if e not in visited and e not in a.members]

    whole = MultiGraph(g.num_vertices, [(u, w) for u, _, w in chains])
    comps = [sorted(c) for c in _components(whole) if a.members.isdisjoint(g.incident(c[0]))]
    place = {v: (ci, i) for ci, verts in enumerate(comps) for i, v in enumerate(verts)}
    edge_lists: list[list[tuple[int, int]]] = [[] for _ in comps]
    provenance: list[dict[int, tuple[int, ...]]] = [{} for _ in comps]
    # Order edges by their absorbed chains so an empty split reproduces the
    # input graph edge-for-edge.
    for u, chain, w in sorted(chains, key=lambda c: c[1]):
        ci = place[u][0]
        provenance[ci][len(edge_lists[ci])] = chain
        x, y = g.endpoints(chain[0]) if len(chain) == 1 else (u, w)  # keep original orientation
        edge_lists[ci].append((place[x][1], place[y][1]))
    return SuppressedGraph(tuple(MultiGraph(len(verts), edges)
                                 for verts, edges in zip(comps, edge_lists)),
                           tuple(map(tuple, comps)), tuple(provenance), tuple(loops))


def _edge_colorings(g: MultiGraph, colors: int,
                    budget: Budget | None = None) -> Iterator[tuple[int, ...]]:
    """Proper edge colorings by deterministic backtracking on an explicit stack.

    Pre-colors the lowest non-isolated vertex's edges 0, 1, 2, ..., which
    breaks global color symmetry without losing existence, then branches
    on the uncolored edge with the fewest available colors (ties by id),
    trying them in ascending order.  Each search node, leaves and dead ends
    included, spends one budget node; the search stops when the budget
    runs out.  The uncolored edges sit in buckets by their number of free
    colors, so a node costs time in proportion to one bucket, not to m.
    """
    m = g.num_edges
    if g.has_loops():
        return
    if m == 0:
        yield ()
        return
    ends = [g.endpoints(e) for e in range(m)]
    # (f, ends of f) for each edge f sharing an end with e, e included, once.
    near = [tuple({(f, *ends[f]) for x in ends[e] for f in g.incident(x)}) for e in range(m)]
    assignment = [-1] * m
    used = [0] * g.num_vertices  # bitmask of the colors at each vertex
    full = (1 << colors) - 1
    # buckets[k] holds the uncolored edges with k free colors; the last
    # bucket holds the colored edges.  where[e] is the bucket of edge e.
    buckets: list[set[int]] = [set() for _ in range(colors + 2)]
    buckets[colors].update(range(m))
    where = [colors] * m

    def toggle(e: int, c: int) -> None:
        # Places color c on the uncolored edge e, or takes it off again.
        u, v = ends[e]
        used[u] ^= 1 << c
        used[v] ^= 1 << c
        assignment[e] = -1 if assignment[e] == c else c
        for f, x, y in near[e]:
            k = colors + 1 if assignment[f] != -1 else (full & ~(used[x] | used[y])).bit_count()
            if k != where[f]:
                buckets[where[f]].remove(f)
                buckets[k].add(f)
                where[f] = k

    anchor = next(v for v in g.vertices() if g.incident(v))
    for c, e in enumerate(g.incident(anchor)):
        if c >= colors:
            return
        toggle(e, c)

    stack: list[list] = []  # [edge, its color options, index of the next option]
    while True:
        if budget is not None and not budget.spend():
            return
        # Branch on the first edge in id order with at most one free color
        # (none: a dead end), or else on the first with the fewest.
        low = buckets[0] | buckets[1]
        e = min(low) if low else next((min(b) for b in buckets[2:-1] if b), -1)
        if e == -1:
            yield tuple(assignment)
        else:
            u, v = ends[e]
            free = full & ~(used[u] | used[v])
            if free:
                stack.append([e, [c for c in range(colors) if free >> c & 1], 0])
        # Backtrack to the deepest edge with an untried color and place it.
        while stack:
            frame = stack[-1]
            e, opts, i = frame
            if assignment[e] != -1:
                toggle(e, assignment[e])
            if i == len(opts):
                stack.pop()
                continue
            toggle(e, opts[i])
            frame[2] = i + 1
            break
        else:
            return


def _first_coloring(g: MultiGraph, colors: int, budget: Budget | None) -> EdgeColoring | None:
    """The first coloring `_edge_colorings` finds, or None."""
    sol = next(_edge_colorings(g, colors, budget), None)
    return None if sol is None else EdgeColoring(g, sol, colors)


_ORDER_STARTS = 8  # start vertices of the order search, spread over the vertex ids
_FRONTIER_CAP = 4096  # states at one step past which the colour refuter gives up
_STATES_PER_NODE = 256  # states a frontier DP expands per budget node


def _frontier_order(g: MultiGraph, budget: Budget | None) -> list[int] | None:
    """A vertex order whose frontiers stay narrow, for the frontier DPs;
    None when the budget runs out.

    Each candidate grows greedily from a start vertex: the next vertex is
    one with the most edges to the vertices already taken, so the frontier
    (the edges with one end taken) grows least, ties going to the vertex
    that reached its count first or last; with none left next to the taken
    vertices, the lowest untaken vertex starts a new component.  A
    candidate costs the sum of 3^width over its frontiers, about the
    states the DP expands, and is dropped once that reaches the best cost
    so far.  `_ORDER_STARTS` start vertices spread over the ids, each with
    both tie rules, keep the search linear in the number of vertices; each
    candidate spends one budget node.
    """
    n = g.num_vertices
    near = [[g.other_end(e, v) for e in g.incident(v)] for v in g.vertices()]
    best: list[int] = []
    bound = float("inf")
    for start in range(0, n, max(1, -(-n // _ORDER_STARTS))):
        for last in (False, True):
            if budget is not None and not budget.spend():
                return None
            taken = [0] * n  # edges to taken vertices; -1 once taken
            # by[c] holds the untaken vertices with c edges to taken ones
            by: list[dict[int, None]] = [{}, {}, {}, {}]
            order: list[int] = []
            width = cost = low = 0
            v = start
            while True:
                order.append(v)
                width += 3 - 2 * taken[v]
                cost += 3 ** width
                if cost >= bound:
                    break
                taken[v] = -1
                for w in near[v]:
                    c = taken[w]
                    if c >= 0:
                        by[c].pop(w, None)
                        taken[w] = c + 1
                        by[c + 1][w] = None
                for ready in by[:0:-1]:
                    if ready:
                        v = next(reversed(ready)) if last else next(iter(ready))
                        del ready[v]
                        break
                else:
                    while low < n and taken[low] < 0:
                        low += 1
                    if low == n:
                        best, bound = order, cost
                        break
                    v = low
    return best


Move = tuple[int, dict[int, int]]  # one vertex of a frontier walk (`_frontier_steps`)


def _frontier_steps(g: MultiGraph, order: Sequence[int]) -> list[Move]:
    """The walk that both frontier DPs take over `order`, one move per vertex.

    The frontier is the set of edges with exactly one end taken; loops
    never join it.  Taking v closes its edges to vertices taken before it
    and opens its other edges.  Each frontier edge holds a slot, fixed while
    it stays on the frontier: the closing edges free theirs first, then each
    new edge takes the lowest free slot.  No two frontier edges share a
    slot, and the slots number exactly the widest frontier w, so a DP keeps
    a state as bit masks by slot, each below 2 ** w.  v's move is the slot
    mask of its closing edges and the slot bit of each new edge, mapped to
    the edge.  Each DP steps its own states along the walk, in a pass of
    its own: `_frontier_colorable` by `_coloring_step`, `_holder_counts`
    by `_matching_step`.
    """
    place = {v: i for i, v in enumerate(order)}
    bit_of: dict[int, int] = {}  # the slot bit of each frontier edge
    held = 0  # the slots that frontier edges hold
    moves = []
    for v in order:
        shut = sum(bit_of.pop(e) for e in g.incident(v) if place[g.other_end(e, v)] < place[v])
        held ^= shut
        opened = {}
        for e in g.incident(v):
            if place[g.other_end(e, v)] > place[v]:  # a new edge; a loop is neither
                bit_of[e] = bit = held + 1 & ~held  # the lowest free slot
                held |= bit
                opened[bit] = e
        moves.append((shut, opened))
    return moves


def _spend_on(budget: Budget | None, states: int) -> bool:
    """Spends one node for a vertex step and one per `_STATES_PER_NODE` of
    the `states` it expands; False once the budget refuses."""
    if budget is not None:
        for _ in range(1 + states // _STATES_PER_NODE):
            if not budget.spend():
                return False
    return True


@cache
def _class_fills(new: int) -> list[list[tuple[int, ...]]]:
    """The fill table of a vertex whose new edges hold the slot bits of
    `new`: for each bit mask `used` of the colour classes 0-2 that its
    closing edges take, every way to put the new bits one to a class in
    the classes left free, as the three masks that the classes gain."""
    bits = [1 << i for i in range(new.bit_length()) if new >> i & 1]
    table = []
    for used in range(8):
        free = [c for c in range(3) if not used >> c & 1]
        table.append([tuple(sum(bit for bit, k in zip(bits, classes) if k == c) for c in range(3))
                      for classes in permutations(free, len(bits))])
    return table


def _coloring_step(width: int, move: Move, states: set[int]) -> set[int]:
    """`_frontier_colorable`'s state step, by slot masks.  A state is the
    three colour-class masks of a walk `width` slots wide, sorted and
    packed as `a << 2 * width | b << width | c` with a >= b >= c.  Each
    state whose classes hold at most one closing edge each drops the
    closing edges and takes every fill of `_class_fills`."""
    shut, opened = move
    table = _class_fills(sum(opened))
    low = (1 << width) - 1
    after: set[int] = set()
    add = after.add
    for s in states:
        a, b, c = s >> 2 * width, s >> width & low, s & low
        x, y, z = a & shut, b & shut, c & shut
        if x & (x - 1) or y & (y - 1) or z & (z - 1):
            continue
        a, b, c = a ^ x, b ^ y, c ^ z
        for fa, fb, fc in table[(x != 0) | (y != 0) << 1 | (z != 0) << 2]:
            p, q, r = sorted((a | fa, b | fb, c | fc))
            add(r << 2 * width | q << width | p)
    return after


def _frontier_colorable(g: MultiGraph, budget: Budget | None) -> bool | None:
    """Whether the loopless 3-regular g has a 3-edge-coloring, by a frontier DP;
    None when it gives up.

    The vertices are taken in the order of `_frontier_order`.  A state is a
    coloring of the frontier edges that extends to a proper coloring of
    every edge with a taken end, kept as its three colour classes, bit
    masks by frontier slot (`_frontier_steps`).  Sorting the classes keeps
    one state per permutation of the three colors.  Taking a vertex keeps
    each state whose colors on the edges it closes differ, and gives its
    new edges the free colors in every order (`_coloring_step`); g is
    colorable iff a state survives the last vertex.  This is edge coloring
    over a path decomposition (Zhou, Nakano and Nishizeki, J. Algorithms
    21, 1996) as a frontier-based search (Kawahara et al., IEICE Trans.
    Fundamentals E100-A, 2017).

    It keeps the states of one vertex at a time, and answers False at the
    first vertex that leaves none.  Besides the order search's nodes, it
    spends as `_spend_on` says before each vertex.  It gives up when the
    budget runs out, or past `_FRONTIER_CAP` states at one vertex: a
    refuter that gives up leaves the colouring to the stream, so a small
    cap bounds the time it spends on wide graphs.
    """
    order = _frontier_order(g, budget)
    if order is None:
        return None
    moves = _frontier_steps(g, order)
    width = max((bit for _, opened in moves for bit in opened), default=0).bit_length()
    states = {0}
    for move in moves:
        if not _spend_on(budget, len(states)):
            return None
        states = _coloring_step(width, move, states)
        if len(states) > _FRONTIER_CAP:
            return None
        if not states:
            return False
    return True


def _matching_step(move: Move, states: dict[int, int]) -> dict[int, int]:
    """`_holder_counts`' forward state step, by slot bits.  `move` is a
    walk move whose new edges that are closed are dropped, so its fills
    are the slot bits of the new edges that a state may match.  A state
    that holds one closing edge drops it and takes no fill; one that holds
    none takes each fill in turn; one that holds two or more dies."""
    shut, fills = move
    after: dict[int, int] = {}
    get = after.get
    for s, ways in states.items():
        held = s & shut
        if not held:
            for fill in fills:
                t = s | fill
                after[t] = get(t, 0) + ways
        elif not held & (held - 1):
            s ^= held
            after[s] = get(s, 0) + ways
    return after


def _holder_counts(g: MultiGraph, moves: list[Move], closed: int,
                   budget: Budget | None) -> list[int] | None:
    """For every edge of g, the number of perfect matchings that hold it and
    avoid the edges in the bit mask `closed`; None when it gives up.

    The counting form of the frontier DP over the walk `moves` (Kawahara et
    al., above): a state is the bit mask, by frontier slot, of the frontier
    edges in the matching, and a closed edge is never in it.  A vertex
    with one matched closing edge matches none of its new edges, and one
    with none matches exactly one new edge that is not closed.  One plan,
    the moves with the closed new edges dropped (`_matching_step`), serves
    both passes.  The forward pass counts the ways to reach each state; a
    backward pass over the same plan counts each state's ways to finish.
    An edge's count is the sum of forward times backward over the states
    that hold it, at the move where it joins the frontier; an empty forward
    layer makes every count 0.  Each pass spends as `_spend_on` says before
    each move and gives up when the budget runs out.  The forward pass keeps
    its layers for the backward one, and gives up once they hold more than
    `_COUNT_CAP` states.  Closed edges only remove states, so with nothing
    closed the pass keeps the most.
    """
    plan = [(shut, {bit: e for bit, e in opened.items() if not closed >> e & 1})
            for shut, opened in moves]
    layers = [{0: 1}]
    kept = 1
    for move in plan:
        if not _spend_on(budget, len(layers[-1])):
            return None
        layers.append(_matching_step(move, layers[-1]))
        kept += len(layers[-1])
        if kept > _COUNT_CAP:
            return None
        if not layers[-1]:
            return [0] * g.num_edges  # no perfect matching avoids `closed`
    counts = [0] * g.num_edges
    finish = {0: 1}
    for i in range(len(plan), 0, -1):
        if not _spend_on(budget, len(finish)):
            return None
        shut, fills = plan[i - 1]
        pairs = tuple(fills.items())
        before: dict[int, int] = {}
        # a state's ways to finish, and the count of each fill it takes:
        # its forward ways times the ways to finish after the fill
        for s, ways in layers[i - 1].items():
            held = s & shut
            if not held:
                total = 0
                for fill, e in pairs:
                    rest = finish[s | fill]
                    total += rest
                    counts[e] += ways * rest
                before[s] = total
            else:
                before[s] = 0 if held & (held - 1) else finish[s ^ held]
        finish = before
    return counts


# `three_edge_coloring` asks `_frontier_colorable` once, after this many
# perfect matchings drawn with no coloring.  Colourable graphs seldom draw
# that many: of the 8,916 colourable graphs in random-batch seeds 1-29
# (12-32 vertices), 99.9 % draw at most 23 and three draw more than 32,
# while the snarks J_k and G_k draw hundreds (CHANGES.md).
_REFUTE_AFTER = 32

# Budget nodes that `three_edge_coloring` spends per perfect matching drawn, one `spend()`
# each, so the cancel callback is asked as often: one for the draw and eight for the
# backtracking search that ran beside the stream until it was dropped.  The charge keeps the
# node counts of AUTO and the node count at which a wide graph gives up.  A draw there costs
# 0.08-0.27 ms, and a charge of one gave "unknown" 8-12 times later (CHANGES.md).
NODES_PER_MATCHING = 9


def three_edge_coloring(g: MultiGraph, budget: Budget | None = None) -> EdgeColoring | None:
    """A proper 3-edge-coloring, or None: absent, or unknown when `budget` is exhausted.

    On loopless 3-regular input the canonical matching stream decides, by
    Tait's equivalence: g is colorable iff some perfect matching m leaves
    a 2-factor G - m with no odd cycle.  The first such m in canonical
    order takes color 0, and on each cycle the lowest edge id takes color
    1, the colors alternating 1, 2 after it.  Each draw spends
    `NODES_PER_MATCHING` nodes first, and a stream that ends with budget to
    spare proves absence.  A refuter can end the stream early: once
    `_REFUTE_AFTER` matchings are drawn with no coloring,
    `_frontier_colorable` runs once, and when it proves g not colorable the
    call returns None.  When it finds g colorable or gives up, the stream
    goes on where it stopped, so the coloring returned is always the
    stream's; a budget it spends or a cancel it meets leaves None with
    `budget.exhausted`, unknown.  Other input runs the backtracking search
    `_edge_colorings`; a loop refutes at once.  The matchings come from a
    `_canonical_matchings(g, budget=budget)` stream of the call's own,
    which keeps nothing.
    """
    if not _loopless_cubic(g):
        return _first_coloring(g, 3, budget)
    factors = _two_factors(g, _canonical_matchings(g, budget=budget),
                           lambda verts: len(verts) % 2 == 0)
    for drawn in count(1):
        if budget is not None and not all(budget.spend() for _ in range(NODES_PER_MATCHING)):
            return None
        m, factor = next(factors, (None, None))
        if m is None:
            return None  # the stream ended
        if factor is not None:
            assignment = [0] * g.num_edges
            for cyc in factor:
                low = cyc.edges.index(min(cyc.edges))
                for i, e in enumerate(cyc.edges):
                    assignment[e] = 1 + (i - low) % 2
            return EdgeColoring(g, tuple(assignment), 3)
        if drawn == _REFUTE_AFTER and _frontier_colorable(g, budget) is False:
            return None


def three_edge_colorable(s: SuppressedGraph,
                         budget: Budget | None = None) -> list[EdgeColoring] | None:
    """Per-component 3-edge-colorings of a suppressed graph, or None.

    Vertexless loops take any color and never obstruct; a suppressed graph
    with no cubic components is vacuously colorable (empty list).
    """
    colorings = []
    for comp in s.components:
        col = three_edge_coloring(comp, budget=budget)
        if col is None:
            return None
        colorings.append(col)
    return colorings


def _canonical_color_form(assignment: tuple[int, ...], colors: int) -> tuple[int, ...]:
    return min(tuple(perm[c] for c in assignment) for perm in permutations(range(colors)))


def enumerate_three_edge_colorings(g: MultiGraph) -> list[EdgeColoring]:
    """All proper 3-edge-colorings up to global color permutation.

    Each orbit is represented by its lexicographically minimal assignment;
    the list is sorted by that assignment.
    """
    reps = sorted({_canonical_color_form(sol, 3) for sol in _edge_colorings(g, 3)})
    return [EdgeColoring(g, rep, 3) for rep in reps]


def color_classes_as_matchings(c: EdgeColoring) -> tuple[PerfectMatching, ...]:
    """The color classes of a cubic graph's 3-edge-coloring, as perfect matchings."""
    return tuple(PerfectMatching(c.graph, c.color_class(i)) for i in range(c.palette_size))


def phi_two_factor(c: EdgeColoring, x: int, y: int) -> CycleSet:
    """The even cycles induced by the two color classes x and y."""
    if x == y:
        raise GraphError("the two colors must differ")
    edges = [e for e in range(c.graph.num_edges) if c.assignment[e] in (x, y)]
    return cycle_decomposition(c.graph, edges)


def kempe_exchange(c: EdgeColoring, x: int, y: int, cycle: Cycle) -> EdgeColoring:
    """Swap colors x and y along `cycle`, a `Cycle` of the 2-factor of x and y.

    Raises `GraphError` when an edge of the cycle is colored neither x nor y.
    """
    if x == y:
        raise GraphError("the two colors must differ")
    for e in cycle.edges:
        if c.assignment[e] not in (x, y):
            raise GraphError(f"edge {e} on the cycle is not colored {x} or {y}")
    new_assignment = list(c.assignment)
    for e in cycle.edges:
        new_assignment[e] = y if c.assignment[e] == x else x
    return EdgeColoring(c.graph, tuple(new_assignment), c.palette_size)


def two_factor_cycles(g: CubicGraph, m: PerfectMatching | Iterable[int]) -> CycleSet:
    """Cycles of the 2-factor complementary to a perfect matching.

    The `CycleSet` that `cycle_decomposition` gives for G - m, place
    included, from `_two_factors` with no edge-set check beyond m's own.
    """
    (_, cycles), = _two_factors(g, [_as_perfect(g, m).members])
    return cycles


def _loopless_cubic(g: MultiGraph) -> bool:
    return isinstance(g, CubicGraph) or (not g.has_loops()
                                         and all(len(g.incident(v)) == 3 for v in g.vertices()))


def _two_factors(g: MultiGraph, matchings: Iterable[frozenset[int]],
                 keep: Callable[[list[int]], bool] = lambda verts: True
                 ) -> Iterator[tuple[frozenset[int], CycleSet | None]]:
    """(m, the 2-factor G - m) for each perfect matching m drawn, as edge-id sets.

    The one walk of G - m that every search reads.  g must be loopless and
    3-regular, checked once, and the other two edges at each vertex are
    tabled once.  The 2-factor is `cycle_decomposition(g, E - m)`, or None
    at its first cycle that keep rejects (see `_cycle_set`).
    """
    if not _loopless_cubic(g):
        raise GraphError("a perfect matching leaves a 2-factor only in a loopless cubic graph")
    incident = [g.incident(v) for v in g.vertices()]
    others = [((b, c), (a, c), (a, b)) for a, b, c in incident]  # all but incident[v][i]
    for m in matchings:
        at: list[tuple[int, ...]] = [()] * g.num_vertices
        for e in m:
            u, w = g.endpoints(e)
            at[u] = others[u][incident[u].index(e)]
            at[w] = others[w][incident[w].index(e)]
        yield m, _cycle_set(g, at, keep)


def _member_positions(g: MultiGraph, cycles: CycleSet,
                      members: Sequence[Matching]) -> list[list[list[int]]]:
    """positions[ci][mi] = sorted cycle positions whose vertex ends an edge of member mi."""
    positions: list[list[list[int]]] = [[[] for _ in members] for _ in cycles]
    for mi, mem in enumerate(members):
        for e in mem:
            for v in g.endpoints(e):
                ci, pos = cycles.place[v]
                positions[ci][mi].append(pos)
    for per_cycle in positions:
        for lst in per_cycle:
            lst.sort()
    return positions


def _odd_arcs(length: int, posns: Sequence[int]) -> bool:
    """True iff the sorted positions cut a cycle of this length into odd arcs.

    An arc runs from one position to the next, around the cycle.  It is odd
    when it spans an odd number of edges; then an even number of vertices
    lies inside it, and its own edges match them.  The arcs' lengths sum to
    the cycle's, so once the inner arcs are odd the closing one is odd iff
    the number of positions has the parity of the length (with no position,
    iff the cycle is even).
    """
    return len(posns) % 2 == length % 2 and all((q - p) % 2 for p, q in zip(posns, posns[1:]))


def is_m_balanced(g: CubicGraph, m: PerfectMatching, a: Matching | Iterable[int]) -> bool:
    """True iff a = m intersect m' for some perfect matching m'.

    Such an m' holds a and avoids the rest of m, so it matches the vertices
    that a leaves bare by edges of the 2-factor G - m.  On each cycle those
    vertices form paths between the ends of a (the whole cycle if a misses
    it), and a path has a perfect matching iff its vertex count is even.  So
    a is balanced iff it cuts every cycle into odd arcs: exact, no search.
    """
    m = _as_perfect(g, m)
    a = _as_matching(g, a)
    if not a.members <= m.members:
        raise GraphError("the candidate set must be a subset of the perfect matching")
    cycles = two_factor_cycles(g, m)
    return all(_odd_arcs(len(cyc), posns[0])
               for cyc, posns in zip(cycles, _member_positions(g, cycles, [a])))


def _chordless(g: MultiGraph, verts: Sequence[int]) -> bool:
    k = len(verts)
    for i in range(k):
        for j in range(i + 1, k):
            if (j - i) % k in (1, k - 1):
                continue
            if g.edges_between(verts[i], verts[j]):
                return False
    return True


def _c5_exclusions(g: MultiGraph) -> frozenset[int]:
    """The edges that no chordless-C5 2-factor leaves in its matching.

    G - m runs through each vertex by the two edges that m leaves there, so
    an edge uw of m needs, at u and at w alike, a chordless 5-cycle through
    the other two edges.  The chordless 5-cycles are listed once, each from
    its lowest vertex; an edge that fails at either end is returned.
    """
    nbrs = [set(g.neighbors(v)) for v in g.vertices()]
    pairs: list[set[frozenset[int]]] = [set() for _ in g.vertices()]  # v's two cycle neighbours
    for s in g.vertices():
        for x in nbrs[s]:
            for a in nbrs[x]:
                for b in nbrs[a]:
                    for y in nbrs[b] & nbrs[s]:
                        cyc = (s, x, a, b, y)
                        if x < y and min(cyc) == s and len(set(cyc)) == 5 and _chordless(g, cyc):
                            for i, v in enumerate(cyc):
                                pairs[v].add(frozenset((cyc[i - 1], cyc[(i + 1) % 5])))

    def fits(e: int, v: int) -> bool:
        return frozenset(g.other_end(f, v) for f in g.incident(v) if f != e) in pairs[v]

    return frozenset(e for e, u, w in g.edges if not (fits(e, u) and fits(e, w)))


def _first_two_factor(g: CubicGraph, keep: Callable[[list[int]], bool], count: int | None = None,
                      exclude: frozenset[int] = frozenset()
                      ) -> tuple[PerfectMatching, CycleSet] | None:
    """The first perfect matching, in canonical order, whose 2-factor passes
    keep at every cycle and has `count` cycles when given, with that 2-factor.

    It draws from the stream of matchings that avoid `exclude`.  When no
    matching that passes holds an excluded edge, the answer is the one the
    whole stream gives, for the excluded stream keeps the canonical order
    of what it yields.  Raises `BudgetExhausted` when none passes before
    `DEFAULT_PM_LIMIT` matchings of that stream.
    """
    for i, (m, cycles) in enumerate(_two_factors(g, _canonical_matchings(g, exclude), keep)):
        if i == DEFAULT_PM_LIMIT:
            raise BudgetExhausted(f"none of the first {DEFAULT_PM_LIMIT} perfect matchings "
                                  "has the 2-factor sought")
        if cycles is not None and (count is None or len(cycles) == count):
            return PerfectMatching(g, m), cycles
    return None


def find_c5_two_factor(g: CubicGraph) -> tuple[PerfectMatching, CycleSet] | None:
    """A perfect matching whose complement is a 2-factor of chordless 5-cycles.

    Canonical-first.  Before it draws a matching it excludes each edge uw
    with an end, u or w, that lies on no chordless 5-cycle avoiding uw
    (`_c5_exclusions`).  Such an edge is in no matching it could return, so
    the first matching that passes is the same as over the whole stream.
    `DEFAULT_PM_LIMIT` counts matchings of the excluded stream, which skips
    only matchings that fail: a result can go from unknown to found, never
    the reverse.  Raises `BudgetExhausted` when the cap cuts the search short.
    """
    if g.num_vertices % 5 != 0 or g.num_vertices % 2 == 1:
        return None
    return _first_two_factor(g, lambda verts: len(verts) == 5 and _chordless(g, verts),
                             exclude=_c5_exclusions(g))


@dataclass(frozen=True)
class ShrinkResult:
    """5-regular multigraph obtained by contracting each 5-cycle to a vertex.

    Vertex i of the graph is cycles[i]; edge_origin maps each output edge
    id to the perfect matching edge it came from.
    """

    graph: MultiGraph
    cycles: CycleSet
    edge_origin: tuple[int, ...]


def shrink_to_gstar(g: CubicGraph, m: PerfectMatching | Iterable[int],
                    cs: CycleSet) -> ShrinkResult:
    """Contract every cycle of a chordless-C5 2-factor to a single vertex."""
    m = _as_perfect(g, m)
    if cs != two_factor_cycles(g, m):
        raise GraphError("cycle set is not the 2-factor of the matching")
    for c in cs:
        if len(c) != 5 or not _chordless(g, c.vertices):
            raise GraphError("every 2-factor cycle must be a chordless 5-cycle")
    origin = tuple(sorted(m.members))
    edge_list = [tuple(cs.place[v][0] for v in g.endpoints(e)) for e in origin]
    return ShrinkResult(MultiGraph(len(cs), edge_list), cs, origin)


def five_edge_coloring(gstar: MultiGraph, budget: Budget | None = None) -> EdgeColoring | None:
    """A proper 5-edge-coloring of a 5-regular multigraph, or None."""
    for v in gstar.vertices():
        if gstar.degree(v) != 5:
            raise GraphError(f"vertex {v} has degree {gstar.degree(v)}, expected 5")
    return _first_coloring(gstar, 5, budget)
