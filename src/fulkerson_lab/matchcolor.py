"""Perfect matchings, edge colorings, edge splitting and the shrink pipeline.

The splitting operation doubles each removed matching edge into two
connector paths, so each endpoint of a split edge turns into two degree-2
vertices.  Suppressing all degree-2 vertices then yields cubic components
plus vertexless loops; chains of absorbed edges are recorded so colors can
be pulled back to the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, permutations
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


DEFAULT_PM_LIMIT = 1_000_000


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

    Their old partners are left exposed, and one `_augment` search joins
    them again; on failure `mate` is restored.
    """
    a, c = mate[v], mate[w]
    if c in near[a]:  # the shortest repair: pair a with c
        mate[v], mate[w], mate[a], mate[c] = w, v, c, a
        return True
    for x in near[a]:
        if not saturated[x]:
            break
    else:
        return False  # a has no free neighbour left
    for x in near[c]:
        if not saturated[x]:
            break
    else:
        return False  # c has no free neighbour left
    mate[v], mate[w], mate[a], mate[c] = w, v, -1, -1
    if _augment(near, saturated, mate, a):
        return True
    mate[v], mate[a], mate[w], mate[c] = a, v, c, w
    return False


def _canonical_matchings(g: MultiGraph, exclude: frozenset[int] = frozenset(),
                         include: frozenset[int] = frozenset(),
                         budget: Budget | None = None) -> Iterator[frozenset[int]]:
    """Perfect matchings holding the matching `include` and avoiding `exclude`,
    lazily, lexicographic by sorted edge-id tuple: the one perfect-matching generator.

    A binary partition over the edges in ascending id, each edge with two
    unmatched ends first included, then excluded (the flashlight method;
    Read and Tarjan, Networks 5, 1975).  Matchings that hold an edge and
    agree below it with matchings that avoid it come first, so the order
    is canonical with no sort, and the first few come without the rest.
    The edges of `include` are matched up front; the order among matchings
    that all hold them is the same.

    `mate` is always one perfect matching of the allowed graph that holds
    every included edge, found up front by one `_augment` search per
    exposed vertex, so no subtree without a completion is entered:
    including an edge that `mate` does not pair is one `_repair`, and
    excluding one that it does pair re-matches its ends, by an alternating
    4-cycle u-x-mate(x)-w when there is one, else by one `_augment`.
    `near[u][w]` counts the allowed edges between u and w, so excluding one
    of two parallel edges leaves its twin usable; loops are never allowed.
    Once the first matching is out, a bare vertex left with one allowed
    edge to another bare vertex takes it at once; such a forced edge takes
    no search, going in or coming out on backtracking.  It lies in every
    completion of the subtree, so the order is the same.

    It spends no nodes.  With a cancel callback it asks `budget.stopped()`
    before every blossom search and every 4-cycle repair (nothing else
    exhausts the budget between yields); it ends there, or on resuming from
    a yield once the budget is exhausted.
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
    for e in include:
        u, w = ends[e]
        saturated[u] = saturated[w] = True
        mate[u], mate[w] = w, u
    for v in range(n):
        if mate[v] == -1:
            if cancel is not None and budget.stopped():
                return
            if not _augment(near, saturated, mate, v):
                return
    chosen = list(include)
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

    e, bare = 0, n - 2 * len(include)
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
                for x in near[u]:
                    if not saturated[x] and mate[x] in near[w]:
                        y = mate[x]
                        mate[u], mate[x], mate[w], mate[y] = x, u, y, w
                        break
                else:
                    # a w with no free neighbour left is a dead end without a search
                    if all(saturated[x] for x in near[w]) or not _augment(near, saturated,
                                                                          mate, u):
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

    It is the one reader of the stream that keeps what it draws.  A colour
    stage iterates it, keeping at most `DEFAULT_PM_LIMIT` + 1 draws, all
    that the default `listing` reads; `listing` then gives what was drawn
    and the rest of the same stream, so no second generator starts.  The
    FR-triple walk and the enumerations draw only by `reach`, which keeps
    every draw, so `drawn` stays a canonical prefix.
    """

    def __init__(self, g: MultiGraph, budget: Budget | None):
        self.drawn: list[frozenset[int]] = []
        self._budget = budget
        self._stream = _canonical_matchings(g, budget=budget)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return self

    def __next__(self) -> frozenset[int]:
        m = next(self._stream)
        if len(self.drawn) <= DEFAULT_PM_LIMIT:
            self.drawn.append(m)
        return m

    def reach(self, i: int) -> bool:
        """Whether M_i exists, drawing up to it when it is not drawn yet."""
        if i >= len(self.drawn):
            self.drawn += islice(self._stream, i + 1 - len(self.drawn))
        return i < len(self.drawn)

    def listing(self, limit: int | None = None) -> tuple[list[frozenset[int]], bool]:
        """The first `limit` perfect matchings (default `DEFAULT_PM_LIMIT`),
        canonical order, and whether the listing is truncated: there are
        more, or the stream stopped on an exhausted budget."""
        limit = DEFAULT_PM_LIMIT if limit is None else limit
        truncated = self.reach(limit) or self._budget is not None and self._budget.exhausted
        return self.drawn[:limit], truncated


def enumerate_perfect_matchings(g: CubicGraph, limit: int | None = None,
                                budget: Budget | None = None) -> PMEnumeration:
    """The first `limit` perfect matchings of g (default one million),
    lexicographic by sorted edge-id tuple.

    The enumeration is truncated when there are more, or when `budget`
    stops the stream (see `_canonical_matchings`); an odd vertex count
    yields the empty, complete enumeration.  No budget nodes are spent.
    It validates every matching of a `_MatchingRecord`'s listing, which
    the covering searches read as raw edge-id sets.
    """
    found, truncated = _MatchingRecord(g, budget).listing(limit)
    return PMEnumeration(tuple(PerfectMatching(g, s) for s in found), truncated)


def find_perfect_matching(
    g: CubicGraph,
    include: Matching | Iterable[int] = (),
    exclude: EdgeSet | Iterable[int] = (),
) -> PerfectMatching | None:
    """The first perfect matching, in canonical order, holding `include` and avoiding `exclude`.

    The first answer of `_canonical_matchings`, so with no `include` and no
    `exclude` it is `enumerate_perfect_matchings(g)[0]`: one Edmonds
    matching up front, then at most one repair per edge; None comes
    without branching.
    """
    inc = _as_matching(g, include)
    excl = _as_edges(g, exclude, EdgeSet).members
    if inc.members & excl:
        raise GraphError("include and exclude overlap")
    found = next(_canonical_matchings(g, excl, inc.members), None)
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
                    budget: Budget | None = None) -> Iterator[tuple[int, ...] | None]:
    """Proper edge colorings by deterministic backtracking on an explicit stack.

    Pre-colors the lowest non-isolated vertex's edges 0, 1, 2, ..., which
    breaks global color symmetry without losing existence, then branches
    on the uncolored edge with the fewest available colors (ties by id),
    trying them in ascending order.  Each search node, leaves and dead ends
    included, spends one budget node; the search stops when the budget
    runs out.  The uncolored edges sit in buckets by their number of free
    colors, so a node costs time in proportion to one bucket, not to m.
    A leaf yields its coloring and every other node yields None, so a
    caller can run the search node by node.
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
        if c >= colors or used[g.other_end(e, anchor)] >> c & 1:
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
            yield None
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
    sol = next((s for s in _edge_colorings(g, colors, budget) if s is not None), None)
    return None if sol is None else EdgeColoring(g, sol, colors)


# Coloring-search nodes run per perfect matching drawn, in `three_edge_coloring`.
# The matching stream refutes the flower snarks J_k first and the node
# search the Goldberg snarks G_k; a draw costs about as much as 15 nodes.
# Of k = 4 ... 16, 8 gave about the lowest total on J9, J11, G5 and G7
# (CHANGES.md).
NODES_PER_MATCHING = 8


def three_edge_coloring(g: MultiGraph, budget: Budget | None = None, *,
                        matchings: Iterator[frozenset[int]] | None = None) -> EdgeColoring | None:
    """A proper 3-edge-coloring, or None: absent, or unknown when `budget` is exhausted.

    On loopless 3-regular input two searches alternate, counted in work:
    one perfect matching drawn from the canonical stream for one budget
    node, then `NODES_PER_MATCHING` nodes of the coloring search.  By
    Tait's equivalence a matching m whose 2-factor G - m has no odd cycle
    gives a coloring: m takes color 0, and on each cycle the lowest edge id
    takes color 1, the colors alternating 1, 2 after it.  The first search
    to finish decides, and one that runs out with budget to spare proves
    absence.  Other input runs the coloring search alone; a loop refutes at
    once.

    `matchings` is the stream drawn from, by default a fresh
    `_canonical_matchings(g, budget=budget)`.  AUTO passes a
    `_MatchingRecord`, so that what the colour stage drew starts its
    listing of the perfect matchings.
    """
    if not _loopless_cubic(g):
        return _first_coloring(g, 3, budget)
    colorings = _edge_colorings(g, 3, budget)
    if matchings is None:
        matchings = _canonical_matchings(g, budget=budget)
    factors = _two_factors(g, matchings, lambda verts: len(verts) % 2 == 0)
    while True:
        if budget is not None and not budget.spend():
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
        steps = 0
        for sol in islice(colorings, NODES_PER_MATCHING):
            if sol is not None:
                return EdgeColoring(g, sol, 3)
            steps += 1
        if steps < NODES_PER_MATCHING:
            return None  # the coloring search ended


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
    reps = sorted({_canonical_color_form(sol, 3) for sol in _edge_colorings(g, 3)
                   if sol is not None})
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


def kempe_exchange(c: EdgeColoring, x: int, y: int,
                   cycle: Cycle | Sequence[int]) -> EdgeColoring:
    """Swap colors x and y along one cycle of the 2-factor of x and y."""
    if x == y:
        raise GraphError("the two colors must differ")
    g = c.graph
    if isinstance(cycle, Cycle):
        cycle_edges = list(cycle.edges)
    else:
        verts = list(cycle)
        if len(verts) < 2:
            raise GraphError("a cycle needs at least two vertices")
        cycle_edges = []
        for i, u in enumerate(verts):
            v = verts[(i + 1) % len(verts)]
            cands = [e for e in g.edges_between(u, v)
                     if c.assignment[e] in (x, y) and e not in cycle_edges]
            if not cands:
                raise GraphError(f"no {x}/{y}-colored edge between {u} and {v}")
            cycle_edges.append(cands[0])
    for e in cycle_edges:
        if c.assignment[e] not in (x, y):
            raise GraphError(f"edge {e} on the cycle is not colored {x} or {y}")
    new_assignment = list(c.assignment)
    for e in cycle_edges:
        new_assignment[e] = y if c.assignment[e] == x else x
    return EdgeColoring(g, tuple(new_assignment), c.palette_size)


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


def _first_two_factor(g: CubicGraph, keep: Callable[[list[int]], bool], count: int | None = None
                      ) -> tuple[PerfectMatching, CycleSet] | None:
    """The first perfect matching, in canonical order, whose 2-factor passes
    keep at every cycle and has `count` cycles when given, with that 2-factor.

    Raises `BudgetExhausted` when none passes before the matching cap.
    """
    budget = Budget(limit=0)  # spent by nothing; flags a read past the cap
    for m, cycles in _two_factors(g, _capped_matchings(g, budget), keep):
        if cycles is not None and (count is None or len(cycles) == count):
            return PerfectMatching(g, m), cycles
    if budget.exhausted:
        raise BudgetExhausted(f"none of the first {DEFAULT_PM_LIMIT} perfect matchings "
                              "has the 2-factor sought")
    return None


def find_c5_two_factor(g: CubicGraph) -> tuple[PerfectMatching, CycleSet] | None:
    """A perfect matching whose complement is a 2-factor of chordless 5-cycles.

    Canonical-first; raises `BudgetExhausted` when the matching cap cuts the search short.
    """
    if g.num_vertices % 5 != 0 or g.num_vertices % 2 == 1:
        return None
    return _first_two_factor(g, lambda verts: len(verts) == 5 and _chordless(g, verts))


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
