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
from itertools import dropwhile
from typing import Iterable, Iterator, Sequence

from .budget import Budget, BudgetExhausted, SearchResult
from .graph_core import CubicGraph, EdgeSet, GraphError, Matching, cycle_decomposition
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
    _canonical_matchings,
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
    stay uncovered.  The coloring search spends the budget, when there is
    one, and raises `BudgetExhausted` when it runs out first.
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
    triples come in index order.  Row 0 asks a stream that excludes
    M_0 & M_j, dropping what sorts before M_j, and holds only M_0 ... M_j,
    so no matching cap applies; it draws every matching, so the later rows
    scan the drawn list.  No matching at all avoids M_i & M_j for a pair
    before the first triple's: an M_l, l < j, would have answered pair
    (i, l) with M_j, or (l, i) when l < i.  When row 0 yields nothing, one query per edge of
    M_0 looks for an edge that every matching holds (every bridge is one):
    it would lie in every triple, so the walk stops there.  It also stops
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
            if i == 0:
                answers = dropwhile(lambda m, start=sorted(drawn[j]): sorted(m) < start,
                                    _canonical_matchings(g, s, budget=budget))
            else:
                answers = (m for m in drawn[j:] if not m & s)
            for k in answers:
                met = True
                yield drawn[i], drawn[j], k
            j += 1
        if i == 0 and not met:
            for e in sorted(drawn[0]):  # an edge in every matching lies in every triple
                if not budget.spend() or next(_canonical_matchings(g, frozenset([e]),
                                                                   budget=budget), None) is None:
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


def _covering_by_color(g: CubicGraph, budget: Budget,
                       matchings: _MatchingRecord | None = None
                       ) -> SearchResult[FulkersonCovering]:
    coloring = three_edge_coloring(g, budget=budget, matchings=matchings)
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


def _two_covers(g: CubicGraph, pms: Sequence[frozenset[int]],
                budget: Budget) -> Iterator[tuple[int, ...]]:
    """Index 6-tuples of matchings that cover every edge exactly twice.

    The exact-multiplicity cover (after Knuth's Algorithm M) shared by
    EXACT2COVER and the covering enumeration, over the raw edge-id sets of
    a matching listing (no `PerfectMatching` is built), on int bitmasks:
    ``holders[e]`` has bit i set iff edge e lies in matching i; an edge is
    open twice, open once or closed; a matching is usable while none of
    its edges is closed.  Each node spends one budget node and branches on
    the first open edge with the fewest usable holders, trying them in
    index order with repeats allowed, so one multiset may come out in
    several orders.  The search unwinds as soon as the budget runs out.
    """
    if not pms:
        return
    holders = [0] * g.num_edges
    edges_of = []
    for idx, pm in enumerate(pms):
        mask = 0
        for e in pm:
            holders[e] |= 1 << idx
            mask |= 1 << e
        edges_of.append(mask)

    def search(chosen: tuple[int, ...], usable: int, open_once: int,
               open_twice: int) -> Iterator[tuple[int, ...]]:
        if not budget.spend():
            return
        if len(chosen) == 6:
            # Six perfect matchings fill all 3n edge slots and no edge is
            # ever covered more than twice, so every edge is covered twice.
            yield chosen
            return
        if open_once:
            branch = min(_bits(open_once), key=lambda e: (holders[e] & usable).bit_count())
            children = holders[branch] & usable
        else:  # only on the graph with no edges: six empty matchings
            children = usable
        for idx in _bits(children):
            closed = edges_of[idx] & ~open_twice
            rest = usable
            for e in _bits(closed):
                rest &= ~holders[e]
            yield from search(chosen + (idx,), rest, open_once & ~closed,
                              open_twice & ~edges_of[idx])
            if budget.exhausted:
                return

    everything = (1 << g.num_edges) - 1
    yield from search((), (1 << len(pms)) - 1, everything, everything)


def _covering_by_exact_cover(g: CubicGraph, matchings: _MatchingRecord,
                             budget: Budget) -> SearchResult[FulkersonCovering]:
    """EXACT2COVER: the first cover `_two_covers` finds over the matchings.

    They are the `listing` of `matchings`; only the six chosen become
    `PerfectMatching`s.  Finding none proves absence only when the list was
    not truncated and the budget held out.
    """
    pms, truncated = matchings.listing()
    chosen = next(_two_covers(g, pms, budget), None)
    if chosen is not None:
        return SearchResult(_checked_covering(g, (PerfectMatching(g, pms[i]) for i in chosen),
                                              "exact cover result does not cover"), True)
    return SearchResult(None, not truncated and not budget.exhausted)


def _covering_by_a1a2(g: CubicGraph, budget: Budget) -> SearchResult[FulkersonCovering]:
    """Search matching pairs (T2, T0) of FR-triples per the splitting criterion.

    Every FR-triple that `_fr_triples` yields supplies a candidate pair
    (a1, a2) = (T2, T0), each pair tried once; when the split of a2 is
    also 3-edge-colorable the double lift yields two compatible triples,
    hence a covering.  Only the lifts build `PerfectMatching`s.  The lifts'
    colorings spend the budget too, and one that runs out of it ends the
    search as unknown.
    """
    seen_pairs: set[tuple[frozenset[int], frozenset[int]]] = set()
    edges = frozenset(g.edge_ids())
    for a, b, c in _fr_triples(g, budget):
        t2, t0 = (a & b) | (a & c) | (b & c), edges - a - b - c
        if (t2, t0) in seen_pairs:
            continue
        seen_pairs.add((t2, t0))
        try:
            lifted = fr_triple_from_matchings(g, t2, t0, budget)
            partner = fr_triple_from_matchings(g, t0, t2, budget)
        except LiftError:
            continue
        except BudgetExhausted:
            break
        return SearchResult(covering_from_compatible(lifted, partner), True)
    return SearchResult(None, not budget.exhausted)


def enumerate_fulkerson_coverings(g: CubicGraph,
                                  budget: Budget | None = None
                                  ) -> SearchResult[list[FulkersonCovering]]:
    """All coverings (as multisets of enumerated matchings), canonical order.

    Runs `_two_covers`, the search EXACT2COVER stops at its first cover, to
    the end; each multiset is kept once, members in index order, and the
    list is sorted by the members' edge sets.  The matchings are listed in
    canonical order, so index order is edge-set order, and only the members
    of the coverings kept become `PerfectMatching`s.
    """
    budget = Budget() if budget is None else budget
    pms, truncated = _MatchingRecord(g, budget).listing()
    kept = sorted({tuple(sorted(chosen)) for chosen in _two_covers(g, pms, budget)})
    out = [FulkersonCovering(tuple(PerfectMatching(g, pms[i]) for i in chosen))
           for chosen in kept]
    return SearchResult(out, not truncated and not budget.exhausted)


def find_fulkerson_covering(g: CubicGraph, strategy: str = AUTO,
                            budget: Budget | None = None) -> SearchResult[FulkersonCovering]:
    """Search for a Fulkerson covering with the requested strategy.

    COLOR doubles a 3-edge-coloring when one exists; EXACT2COVER solves the
    exact multiset cover over enumerated matchings; A1A2 searches disjoint
    matching pairs whose splits are both 3-edge-colorable, drawing them from
    the FR-triples of `_fr_triples`.  AUTO cascades the three and lists the
    perfect matchings at most once, for the exact cover.

    The coloring is `three_edge_coloring`'s: a perfect matching m with an
    even 2-factor gives m color 0 and alternates 1, 2 around each cycle of
    G - m from its lowest edge id, unless the coloring search finishes
    first.  COLOR without a coloring is unknown, never absent.  When the
    colour stage spends the budget, AUTO stops there: absent if g has no
    perfect matching (one search, no enumeration), else unknown.

    AUTO's colour stage draws from a `_MatchingRecord`, and the exact cover
    lists from the same record: first what the colour stage drew, then the
    rest of that canonical stream, capped as in
    `enumerate_perfect_matchings`, so one stream serves both.  The
    matchings stay edge-id sets: only the six of a covering, and in A1A2
    those of each successful lift, become `PerfectMatching`s.
    """
    strat = strategy.lower()
    if strat not in _STRATEGIES:
        raise GraphError(f"unknown strategy {strategy!r}; expected one of {_STRATEGIES}")
    budget = Budget() if budget is None else budget
    if strat == A1A2:
        return _covering_by_a1a2(g, budget)
    record = _MatchingRecord(g, budget)
    if strat in (COLOR, AUTO):
        # only AUTO lists after the colour stage, so only AUTO keeps its draws
        result = _covering_by_color(g, budget, record if strat == AUTO else None)
        if strat == COLOR or result.found:
            return result
        if budget.exhausted:
            return SearchResult(None, find_perfect_matching(g) is None)
    result = _covering_by_exact_cover(g, record, budget)
    if strat == EXACT2COVER or result.found or result.definitely_absent:
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
