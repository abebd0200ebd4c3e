"""FR-triples, their T-partitions, compatibility, and covering search.

An FR-triple is three perfect matchings with empty common intersection;
T_i collects the edges it covers exactly i times.  Two FR-triples whose
T_0/T_2 partitions swap places assemble into six perfect matchings covering
every edge exactly twice, and conversely.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterable, Iterator, Sequence

from .budget import Budget, BudgetExhausted, SearchResult
from .graph_core import CubicGraph, EdgeSet, GraphError, Matching, cycle_decomposition, _cut_labels
from .matchcolor import (
    EdgeColoring,
    PerfectMatching,
    color_classes_as_matchings,
    enumerate_three_edge_colorings,
    find_perfect_matching,
    kempe_exchange,
    phi_two_factor,
    split_and_suppress,
    three_edge_colorable,
    three_edge_coloring,
    _as_matching,
    _frontier_order,
    _frontier_steps,
    _holder_counts,
    _MatchingRecord,
)


class LiftError(GraphError):
    """A precondition of the FR-triple lifting construction failed."""


@dataclass(frozen=True)
class FRTriple:
    """Three perfect matchings with empty common intersection."""

    m1: PerfectMatching
    m2: PerfectMatching
    m3: PerfectMatching

    def __post_init__(self) -> None:
        if not (self.m1.graph == self.m2.graph == self.m3.graph):
            raise GraphError("triple members live on different graphs")
        if self.m1.members & self.m2.members & self.m3.members:
            raise GraphError("triple members have a common edge")

    @property
    def graph(self) -> CubicGraph:
        return self.m1.graph

    @property
    def matchings(self) -> tuple[PerfectMatching, PerfectMatching, PerfectMatching]:
        return (self.m1, self.m2, self.m3)


@dataclass(frozen=True)
class TPartition:
    """Edges covered 0, 1 and 2 times by an FR-triple."""

    t0: EdgeSet
    t1: EdgeSet
    t2: EdgeSet


@dataclass(frozen=True)
class FulkersonCovering:
    """An ordered multiset of six perfect matchings (coverage checked separately)."""

    matchings: tuple[PerfectMatching, ...]

    def __post_init__(self) -> None:
        if len(self.matchings) != 6:
            raise GraphError("a covering needs exactly six matchings")
        g = self.matchings[0].graph
        if any(m.graph != g for m in self.matchings):
            raise GraphError("covering members live on different graphs")

    @property
    def graph(self) -> CubicGraph:
        return self.matchings[0].graph


@dataclass(frozen=True)
class CoverageReport:
    """Per-edge coverage of a candidate covering."""

    ok: bool
    coverage: tuple[int, ...]

    def violations(self) -> tuple[int, ...]:
        return tuple(e for e, c in enumerate(self.coverage) if c != 2)


def t_partition(g: CubicGraph, t: FRTriple) -> TPartition:
    """The three-way partition of E(g) by coverage multiplicity under t."""
    if t.graph != g:
        raise GraphError("triple belongs to a different graph")
    counts = Counter()
    for m in t.matchings:
        counts.update(m.members)
    buckets: list[set[int]] = [set(), set(), set()]
    for e in g.edge_ids():
        buckets[counts.get(e, 0)].add(e)
    part = TPartition(EdgeSet(g, buckets[0]), EdgeSet(g, buckets[1]),
                      EdgeSet(g, buckets[2]))
    # T0 and T2 are two buckets of one partition, so they never meet; each
    # is a matching for a genuine FR-triple, and a failure here indicates a
    # corrupted triple.
    Matching(g, part.t0.members)
    Matching(g, part.t2.members)
    return part


def verify_covering(g: CubicGraph, f: FulkersonCovering) -> CoverageReport:
    """Check that every edge of g lies in exactly two members of f."""
    if f.graph != g:
        raise GraphError("covering belongs to a different graph")
    counts = Counter()
    for m in f.matchings:
        counts.update(m.members)
    coverage = tuple(counts.get(e, 0) for e in g.edge_ids())
    return CoverageReport(all(c == 2 for c in coverage), coverage)


def _checked_covering(g: CubicGraph, matchings: Iterable[PerfectMatching], uncovered: str,
                      repeated: str | None = None) -> FulkersonCovering:
    """The covering a construction guarantees, checked to cover g twice.

    Given `repeated`, its six matchings must also be distinct; either failure
    raises an internal invariant failure with the message given."""
    covering = FulkersonCovering(tuple(matchings))
    if not verify_covering(g, covering).ok:
        raise GraphError(f"internal invariant failure: {uncovered}")
    if repeated is not None and not is_proper(covering):
        raise GraphError(f"internal invariant failure: {repeated}")
    return covering


def are_compatible(t: FRTriple, t2: FRTriple) -> bool:
    """True iff the T0 of each triple is the T2 of the other."""
    if t.graph != t2.graph:
        raise GraphError("triples live on different graphs")
    p, q = t_partition(t.graph, t), t_partition(t2.graph, t2)
    return p.t0.members == q.t2.members and p.t2.members == q.t0.members


def covering_from_compatible(t: FRTriple, t2: FRTriple) -> FulkersonCovering:
    """Merge two compatible FR-triples into a verified Fulkerson covering."""
    if not are_compatible(t, t2):
        raise GraphError("the triples are not compatible")
    return _checked_covering(t.graph, t.matchings + t2.matchings,
                             "compatible triples do not cover")


def fr_triple_from_matchings(g: CubicGraph, a1: Matching | Iterable[int],
                             a2: Matching | Iterable[int],
                             budget: Budget | None = None) -> FRTriple:
    """Lift a 3-edge-coloring of the suppressed graph into an FR-triple.

    a1 and a2 must be disjoint matchings whose union is a disjoint union of
    (necessarily even, alternating) cycles, and splitting a1 must leave a
    3-edge-colorable graph.  The returned triple has T2 = a1 and T0 = a2:
    chain colors are pulled back through the suppression provenance, each
    a1 edge takes the two colors its neighboring chains avoid, and a2 edges
    stay uncovered.  The colouring of each component, by
    `three_edge_coloring`, spends the budget, when there is one, and
    raises `BudgetExhausted` when it runs out first.
    """
    a1 = _as_matching(g, a1)
    a2 = _as_matching(g, a2)
    if a1.members & a2.members:
        raise LiftError("a1 and a2 are not disjoint")
    try:
        cycle_decomposition(g, a1.members | a2.members)
    except GraphError as exc:
        raise LiftError(f"a1 and a2 do not form a disjoint union of cycles: {exc}") from exc
    suppressed = split_and_suppress(g, a1, partner=a2)
    colorings = three_edge_colorable(suppressed, budget)
    if colorings is None:
        if budget is not None and budget.exhausted:
            raise BudgetExhausted("the 3-edge-coloring search of the lift ran out of its budget")
        raise LiftError("the suppressed graph of a1 is not 3-edge-colorable")

    color_of: dict[int, int] = {}
    for comp_idx, coloring in enumerate(colorings):
        for local_e, chain in suppressed.provenance[comp_idx].items():
            for orig in chain:
                color_of[orig] = coloring.assignment[local_e]
    for chain in suppressed.loops:
        in_a2 = [e in a2.members for e in chain]
        if any(in_a2):
            if not all(in_a2):
                raise GraphError("internal invariant failure: mixed suppression loop")
            continue  # partner-edge loops stay uncovered
        for e in chain:
            color_of[e] = 0  # free choice, constant along the loop

    classes: list[set[int]] = [set(), set(), set()]
    for e, c in color_of.items():
        classes[c].add(e)
    excluded = a1.members | a2.members
    for e in a1:
        u, v = g.endpoints(e)
        third_u = next(x for x in g.incident(u) if x not in excluded)
        third_v = next(x for x in g.incident(v) if x not in excluded)
        cu, cv = color_of[third_u], color_of[third_v]
        if cu != cv:
            raise GraphError("internal invariant failure: chain colors disagree at a split edge")
        for c in range(3):
            if c != cu:
                classes[c].add(e)

    triple = FRTriple(*(PerfectMatching(g, cls) for cls in classes))
    part = t_partition(g, triple)
    if part.t2.members != a1.members or part.t0.members != a2.members:
        raise GraphError("internal invariant failure: lift produced a wrong partition")
    return triple


def _fr_triples(g: CubicGraph, budget: Budget) -> Iterator[tuple[frozenset[int], ...]]:
    """Every FR-triple (M_i, M_j, M_k), i <= j <= k, as edge-id sets, by pair queries.

    M_0, M_1, ... are the perfect matchings in canonical order, kept in a
    `_MatchingRecord` and drawn one by one by its `reach`.  The pairs
    (i, j), i <= j, are walked in order; each spends one budget node and
    asks one query, the matchings from M_j on that avoid M_i & M_j, so the
    triples come in index order.  Row 0 asks the record's `avoiding`, which
    holds only M_0 ... M_j, so no matching cap applies; it draws every
    matching, so the later rows scan the drawn list.  No matching at all
    avoids M_i & M_j for a pair before the first triple's: an M_l, l < j,
    would have answered pair (i, l) with M_j, or (l, i) when l < i.  When
    row 0 yields nothing, one `avoiding` query per edge of M_0 looks for an
    edge that every matching holds (every bridge is one): it would lie in
    every triple, so the walk stops there.  It also stops
    when the budget runs out, which callers tell by ``budget.exhausted``:
    the next pair's `spend` refuses, and an exhausted stream draws nothing.
    """
    record = _MatchingRecord(g, budget)
    drawn = record.drawn
    i = 0
    while record.reach(i):
        j, met = i, False
        while record.reach(j):
            if not budget.spend():
                return
            s = drawn[i] & drawn[j]
            answers = record.avoiding(s, j) if i == 0 else (m for m in drawn[j:] if not m & s)
            for k in answers:
                met = True
                yield drawn[i], drawn[j], k
            j += 1
        if i == 0 and not met:
            for e in sorted(drawn[0]):  # an edge in every matching lies in every triple
                if not budget.spend() or next(record.avoiding(frozenset([e]), 0), None) is None:
                    return
        i += 1


def find_fr_triple(g: CubicGraph, budget: Budget | None = None) -> SearchResult[FRTriple]:
    """The first FR-triple in canonical order, the first that `_fr_triples` yields.

    Only its three matchings become `PerfectMatching`s.  Absence is proved
    only when the walk ends with budget to spare; an exhausted budget, or a
    cancel callback that fires inside a matching search, yields an explicit
    unknown, never a claimed absence.
    """
    budget = Budget() if budget is None else budget
    triple = next(_fr_triples(g, budget), None)
    if triple is None:
        return SearchResult(None, not budget.exhausted)
    return SearchResult(FRTriple(*(PerfectMatching(g, m) for m in triple)), True)


def enumerate_fr_triples(g: CubicGraph,
                         budget: Budget | None = None) -> SearchResult[list[FRTriple]]:
    """Every FR-triple `_fr_triples` yields, complete unless out of budget.

    The triples share one `PerfectMatching` per perfect matching they hold."""
    budget = Budget() if budget is None else budget
    wrap = cache(partial(PerfectMatching, g))
    triples = [FRTriple(*map(wrap, t)) for t in _fr_triples(g, budget)]
    return SearchResult(triples, not budget.exhausted)


COLOR = "color"
EXACT2COVER = "exact2cover"
A1A2 = "a1a2"
AUTO = "auto"
_STRATEGIES = (COLOR, EXACT2COVER, A1A2, AUTO)


def _covering_by_color(g: CubicGraph, budget: Budget) -> SearchResult[FulkersonCovering]:
    coloring = three_edge_coloring(g, budget=budget)
    if coloring is None:
        # Failure to 3-color never proves a covering absent.
        return SearchResult(None, False)
    classes = color_classes_as_matchings(coloring)
    return SearchResult(_checked_covering(g, classes + classes, "doubled coloring does not cover"),
                        False)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _three_cuts(g: CubicGraph) -> list[int]:
    """The cuts of g with exactly three edges, as edge bit masks, less the
    three edges at one vertex.

    Three edges make a cut iff their `_cut_labels` XOR to 0.  The lowest
    bit of the three labels then lies in exactly two of them, and it is
    the lowest bit of both, so only pairs with the same lowest bit are
    looked up.
    """
    label = _cut_labels(g)
    with_label: dict[int, list[int]] = {}
    by_low: dict[int, list[int]] = {}  # 0 holds the bridges, whose labels are 0
    for e, x in enumerate(label):
        with_label.setdefault(x, []).append(e)
        by_low.setdefault(x & -x, []).append(e)
    stars = {sum(1 << e for e in g.incident(v)) for v in g.vertices()}
    cuts = []
    for low, edges in by_low.items():
        for i, a in enumerate(edges):
            for b in edges[i + 1:]:
                for c in with_label.get(label[a] ^ label[b], ()):
                    cut = 1 << a | 1 << b | 1 << c
                    if (low or c > b) and cut not in stars:
                        cuts.append(cut)
    return cuts


def _two_covers(g: CubicGraph, budget: Budget) -> Iterator[tuple[frozenset[int], ...]] | None:
    """The 6-tuples of perfect matchings that cover every edge exactly twice,
    lazily; None when the counting DP gives up before the search starts.

    The exact-multiplicity cover (after Knuth's Algorithm M) that EXACT2COVER,
    AUTO and the covering enumeration share: an edge is open twice, open
    once or closed, and a matching is usable while it holds no closed edge.
    Each node spends one budget node and branches on the first open edge
    in id order with the fewest usable holders, trying them in canonical
    order with repeats allowed, so one multiset may come out in several
    orders.  The search unwinds as soon as the budget runs out.

    No perfect matching is listed: `count(closed)` gives every edge's
    usable holders by the frontier DP `_holder_counts`, which spends budget
    nodes of its own, and `holders(e, closed)` draws e's usable holders
    (every usable matching when e is None) from one `record.holding` stream
    with their edge bit masks.  A perfect matching meets a cut of three
    edges (`_three_cuts`) in one or three of them, since the cut has an odd
    side, and six that cover each edge twice meet it six times, once each:
    a holder that holds a whole cut is in no cover, and `holders` skips it,
    which spares the search every partner it would try with it.  A graph
    with no perfect matching spends no node and yields nothing.  The DP's
    root pass, with nothing closed, keeps the most states, since closed
    edges only remove states: when it gives up, on the budget or past its
    state bound, the result is None, which callers report as unknown,
    never absent.  Every later pass fits the bound, so it gives up only
    when the budget runs out.
    """
    record = _MatchingRecord(g, budget)
    if not record.reach(0):  # no perfect matching, or no budget left
        return None if budget.exhausted else iter(())
    order = _frontier_order(g, budget)
    if order is None:
        return None
    count = partial(_holder_counts, g, _frontier_steps(g, order), budget=budget)
    root = count(0)
    if root is None:
        return None

    cuts = _three_cuts(g)

    def holders(e: int | None, closed: int) -> Iterator[tuple[frozenset[int], int]]:
        for m in record.holding(e, frozenset(_bits(closed))):
            mask = sum(1 << f for f in m)
            if all(cut & ~mask for cut in cuts):
                yield m, mask

    def search(search: Callable, chosen: tuple[frozenset[int], ...], open_once: int,
               open_twice: int, counts: Sequence[int] | None
               ) -> Iterator[tuple[frozenset[int], ...]]:
        # counts: the usable holders per edge at this node, when its parent
        # closed no edge.  `search` is handed itself: a closure that named
        # itself would be a reference cycle, and would keep the record, the
        # DP plan and the cuts alive until the cyclic collector ran.
        if not budget.spend():
            return
        if len(chosen) == 6:
            # Six perfect matchings fill all 3n edge slots and no edge is
            # ever covered more than twice, so every edge is covered twice.
            yield chosen
            return
        closed = everything & ~open_once
        if counts is None:
            counts = count(closed)
            if counts is None:
                return
        # with no open edge (only on the graph with no edges) every usable
        # matching is a child: six empty matchings
        branch = min(_bits(open_once), key=counts.__getitem__, default=None)
        if branch is not None and not counts[branch]:
            return
        for m, mask in holders(branch, closed):
            now_closed = mask & ~open_twice
            yield from search(search, chosen + (m,), open_once & ~now_closed,
                              open_twice & ~mask, None if now_closed else counts)
            if budget.exhausted:
                return

    everything = (1 << g.num_edges) - 1
    return search(search, (), everything, everything, root)


def _covering_by_exact_cover(g: CubicGraph, budget: Budget) -> SearchResult[FulkersonCovering]:
    """EXACT2COVER: the first cover `_two_covers` finds.

    Only the six chosen become `PerfectMatching`s.  Finding none proves
    absence only when the counting DP did not give up and the budget held
    out.
    """
    covers = _two_covers(g, budget)
    chosen = None if covers is None else next(covers, None)
    if chosen is not None:
        return SearchResult(_checked_covering(g, (PerfectMatching(g, m) for m in chosen),
                                              "exact cover result does not cover"), True)
    return SearchResult(None, covers is not None and not budget.exhausted)


def _covering_by_a1a2(g: CubicGraph, budget: Budget) -> SearchResult[FulkersonCovering]:
    """Search matching pairs (T2, T0) of FR-triples per the splitting criterion.

    Every FR-triple that `_fr_triples` yields supplies a candidate pair
    (a1, a2) = (T2, T0), each pair tried once.  The partner (a2, a1) is
    lifted first, since its split is the one that is rarely
    3-edge-colorable; only when it succeeds is (a1, a2) lifted, and the two
    compatible triples make a covering.  Only the lifts build
    `PerfectMatching`s.  The lifts' colorings spend the budget too, and one
    that runs out of it ends the search as unknown.
    """
    seen_pairs: set[tuple[frozenset[int], frozenset[int]]] = set()
    edges = frozenset(g.edge_ids())
    for a, b, c in _fr_triples(g, budget):
        t2, t0 = (a & b) | (a & c) | (b & c), edges - a - b - c
        if (t2, t0) in seen_pairs:
            continue
        seen_pairs.add((t2, t0))
        try:
            partner = fr_triple_from_matchings(g, t0, t2, budget)
            lifted = fr_triple_from_matchings(g, t2, t0, budget)
        except LiftError:
            continue
        except BudgetExhausted:
            break
        return SearchResult(covering_from_compatible(lifted, partner), True)
    return SearchResult(None, not budget.exhausted)


def enumerate_fulkerson_coverings(g: CubicGraph,
                                  budget: Budget | None = None
                                  ) -> SearchResult[list[FulkersonCovering]]:
    """All coverings (as multisets of perfect matchings), canonical order.

    Runs `_two_covers`, the search EXACT2COVER stops at its first cover, to
    the end; each multiset is kept once, members in canonical order, and
    the list is sorted by the members' edge sets.  Only the members of the
    coverings kept become `PerfectMatching`s.  The list is complete unless
    the budget runs out or the counting DP gives up, and then it holds the
    coverings found so far (none, when the DP gave up).
    """
    budget = Budget() if budget is None else budget
    covers = _two_covers(g, budget)
    kept = sorted({tuple(sorted(tuple(sorted(m)) for m in chosen)) for chosen in covers or ()})
    out = [FulkersonCovering(tuple(PerfectMatching(g, m) for m in chosen)) for chosen in kept]
    return SearchResult(out, covers is not None and not budget.exhausted)


def find_fulkerson_covering(g: CubicGraph, strategy: str = AUTO,
                            budget: Budget | None = None) -> SearchResult[FulkersonCovering]:
    """Search for a Fulkerson covering with the requested strategy, one of
    `color`, `exact2cover`, `a1a2` and `auto` as written.

    COLOR doubles a 3-edge-coloring when one exists; EXACT2COVER solves the
    exact multiset cover of `_two_covers`, which counts the perfect
    matchings by a frontier DP and lists none, and is unknown when that DP
    gives up; A1A2 searches disjoint matching pairs whose splits are both
    3-edge-colorable, drawing them from the FR-triples of `_fr_triples`.
    AUTO cascades the three, going on to A1A2 whenever the exact cover is
    unknown with budget to spare.

    The coloring is `three_edge_coloring`'s, from the canonical matching
    stream: the first perfect matching m with an even 2-factor gives m
    color 0 and alternates 1, 2 around each cycle of G - m from its lowest
    edge id; once 32 matchings are drawn with no coloring, a frontier DP
    runs once and may prove that there is none, which ends the colour
    stage with no further draws.  COLOR without a coloring is
    unknown, never absent.  When the colour stage spends the budget, AUTO
    stops there: absent if g has no perfect matching (one search, no
    enumeration), else unknown.

    The matchings stay edge-id sets: only the six of a covering, and in
    A1A2 those of each successful lift, become `PerfectMatching`s.
    """
    if strategy not in _STRATEGIES:
        raise GraphError(f"unknown strategy {strategy!r}; expected one of {_STRATEGIES}")
    budget = Budget() if budget is None else budget
    if strategy == A1A2:
        return _covering_by_a1a2(g, budget)
    if strategy in (COLOR, AUTO):
        result = _covering_by_color(g, budget)
        if strategy == COLOR or result.found:
            return result
        if budget.exhausted:
            return SearchResult(None, find_perfect_matching(g) is None)
    result = _covering_by_exact_cover(g, budget)
    if strategy == EXACT2COVER or result.found or result.definitely_absent:
        return result
    return _covering_by_a1a2(g, budget)


def is_proper(f: FulkersonCovering) -> bool:
    """True iff the six matchings are pairwise distinct."""
    return len({m.members for m in f.matchings}) == 6


@dataclass(frozen=True)
class ProperCoveringWitness:
    """A coloring together with two color pairs whose 2-factors are not Hamiltonian."""

    coloring: EdgeColoring
    pairs: tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class BiHamiltonianReport:
    is_bi_hamiltonian: bool
    witness: ProperCoveringWitness | None


def is_bi_hamiltonian(g: CubicGraph) -> BiHamiltonianReport:
    """Whether every 3-edge-coloring has at least two Hamiltonian color-pair 2-factors.

    Undefined (an error) for graphs with no 3-edge-coloring.  When false,
    the report carries a witness coloring and two non-Hamiltonian pairs.
    """
    colorings = enumerate_three_edge_colorings(g)
    if not colorings:
        raise GraphError("bi-hamiltonicity is undefined for non-3-edge-colorable graphs")
    for coloring in colorings:
        bad_pairs = []
        for x, y in ((0, 1), (0, 2), (1, 2)):
            cycles = phi_two_factor(coloring, x, y)
            if not (len(cycles) == 1 and len(cycles.cycles[0]) == g.num_vertices):
                bad_pairs.append((x, y))
        if len(bad_pairs) >= 2:
            witness = ProperCoveringWitness(coloring, (bad_pairs[0], bad_pairs[1]))
            return BiHamiltonianReport(False, witness)
    return BiHamiltonianReport(True, None)


def proper_covering_from_witness(g: CubicGraph,
                                 witness: ProperCoveringWitness) -> FulkersonCovering:
    """Build a proper covering by two Kempe exchanges on a witness coloring.

    The witness pairs must share one color (the middle one); one cycle of
    each non-Hamiltonian 2-factor is exchanged, and the six matchings of
    the original and the two exchanged colorings form a proper covering.
    """
    coloring = witness.coloring
    if coloring.graph != g:
        raise GraphError("witness coloring belongs to a different graph")
    (p1, p2) = witness.pairs
    shared = set(p1) & set(p2)
    if len(shared) != 1:
        raise GraphError("witness pairs must share exactly one color")
    beta = shared.pop()
    alpha = next(c for c in p1 if c != beta)
    gamma = next(c for c in p2 if c != beta)

    def exchange(x: int, y: int) -> EdgeColoring:
        cycles = phi_two_factor(coloring, x, y)
        if len(cycles) == 1 and len(cycles.cycles[0]) == g.num_vertices:
            raise GraphError(f"the 2-factor of colors {x},{y} is Hamiltonian")
        target = min(cycles, key=lambda c: c.vertices[0])
        return kempe_exchange(coloring, x, y, target)

    prime = exchange(alpha, beta)
    second = exchange(beta, gamma)

    def pm(col: EdgeColoring, c: int) -> PerfectMatching:
        return PerfectMatching(g, col.color_class(c))

    return _checked_covering(g, (
        pm(coloring, alpha),
        pm(prime, alpha),
        pm(prime, beta),
        pm(second, beta),
        pm(coloring, gamma),
        pm(second, gamma),
    ), "witness construction does not cover", "witness construction not proper")
