"""F-families: verification, search, covering assembly and dot-product transport.

An F-family for a perfect matching M is four pairwise disjoint M-balanced
matchings whose endpoints meet every odd cycle of the complementary
2-factor once per member, meet even cycles in a 2+2 or 4+0 pattern, and
whose determined vertices pair up along cycle edges (the set N).  Such a
family assembles into a Fulkerson covering, and suitable dot products
transport it to bigger graphs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

from .budget import DEFAULT_BUDGET_ENV, Budget, BudgetExhausted, SearchResult
from .generators import DotProductResult, DotProductSpec, dot_product, petersen
from .graph_core import CubicGraph, Cycle, CycleSet, GraphError, Matching
from .matchcolor import (
    PerfectMatching,
    find_c5_two_factor,
    find_perfect_matching,
    five_edge_coloring,
    shrink_to_gstar,
    two_factor_cycles,
    _as_matching,
    _as_perfect,
    _capped_matchings,
    _first_two_factor,
    _member_positions,
    _odd_arcs,
    _two_factors,
)
from .fulkerson import FulkersonCovering, _checked_covering


class TransportError(GraphError):
    """A precondition of an F-family-preserving dot product failed."""


class StepOptionError(GraphError):
    """An explicit edge option of a dot step names no edge of its graph."""


@dataclass(frozen=True)
class FFamily:
    """A perfect matching m with four disjoint sub-matchings and the pair set N."""

    m: PerfectMatching
    a: Matching
    b: Matching
    c: Matching
    d: Matching
    n_edges: Matching

    def __post_init__(self) -> None:
        g = self.m.graph
        seen: set[int] = set()
        for mem in self.members:
            if mem.graph != g:
                raise GraphError("family members live on different graphs")
            if not mem.members <= self.m.members:
                raise GraphError("family members must be subsets of the perfect matching")
            if mem.members & seen:
                raise GraphError("family members are not pairwise disjoint")
            seen |= mem.members
        if self.n_edges.graph != g:
            raise GraphError("N lives on a different graph")
        if self.n_edges.members & self.m.members:
            raise GraphError("N must avoid the perfect matching")

    @property
    def members(self) -> tuple[Matching, Matching, Matching, Matching]:
        return (self.a, self.b, self.c, self.d)

    @property
    def graph(self) -> CubicGraph:
        return self.m.graph


@dataclass(frozen=True)
class FFamilyReport:
    ok: bool
    diagnostics: tuple[str, ...]


def _pairing_candidates(cycle: Cycle, posns: Sequence[int]) -> list[frozenset[int]]:
    """2-edge cycle matchings covering the four given positions, canonical order."""
    length = len(cycle)
    p1, p2, p3, p4 = sorted(posns)
    cands = []
    if (p2 - p1) % length == 1 and (p4 - p3) % length == 1:
        cands.append(frozenset((cycle.edges[p1], cycle.edges[p3])))
    if (p3 - p2) % length == 1 and (p1 - p4) % length == 1:
        cands.append(frozenset((cycle.edges[p2], cycle.edges[p4])))
    cands.sort(key=lambda s: tuple(sorted(s)))
    return cands


def _count_violation(cycle: Cycle, per_member: Sequence[Sequence[int]]) -> str | None:
    """The violated odd- or even-cycle incidence count on one cycle, or None."""
    counts = [len(p) for p in per_member]
    if cycle.is_odd:
        if counts != [1, 1, 1, 1]:
            return "an odd cycle must meet each member exactly once"
    elif sorted(c for c in counts if c) not in ([], [2, 2], [4]):
        return "an even cycle must meet the family in a 2+2 or 4+0 pattern"
    return None


def _cycle_condition(cycle: Cycle, per_member: Sequence[Sequence[int]]
                     ) -> tuple[str | None, list[frozenset[int]]]:
    """First violated incidence condition on one cycle, or None, and its candidates for N."""
    problem = _count_violation(cycle, per_member)
    if problem is not None or not any(per_member):
        return problem, []
    for mi, posns in enumerate(per_member):
        if not _odd_arcs(len(cycle), posns):
            return f"member {mi} splits the cycle into an even arc (not balanced)", []
    cands = _pairing_candidates(cycle, sorted(p for posns in per_member for p in posns))
    if not cands:
        return "the four determined vertices admit no 2-edge cycle matching", []
    return None, cands


def verify_ffamily(g: CubicGraph, fam: FFamily) -> FFamilyReport:
    """Check balancedness (odd arcs, as in `is_m_balanced`), the per-cycle conditions and N.

    An empty member is reported only when everything else holds.
    """
    if fam.graph != g:
        raise GraphError("family belongs to a different graph")
    cycles = two_factor_cycles(g, fam.m)
    positions = _member_positions(g, cycles, fam.members)
    diagnostics = [f"member {mi} is not balanced for the perfect matching" for mi in range(4)
                   if not all(_odd_arcs(len(cyc), positions[ci][mi])
                              for ci, cyc in enumerate(cycles))]
    expected_n: set[int] = set()
    for ci, cyc in enumerate(cycles):
        problem, cands = _cycle_condition(cyc, positions[ci])
        if problem is not None:
            diagnostics.append(f"cycle {ci} (at vertex {cyc.vertices[0]}): {problem}")
            continue
        if not cands:
            continue
        chosen = fam.n_edges.members & set(cyc.edges)
        if chosen not in cands:
            diagnostics.append(
                f"cycle {ci} (at vertex {cyc.vertices[0]}): N does not restrict to a "
                "valid 2-edge matching of the determined vertices")
            continue
        expected_n |= chosen
    if not diagnostics and expected_n != fam.n_edges.members:
        diagnostics.append("N contains edges on cycles the family does not meet")
    if not diagnostics:
        diagnostics = [f"member {mi} is empty" for mi, mem in enumerate(fam.members) if not mem]
    return FFamilyReport(not diagnostics, tuple(diagnostics))


def derive_n(g: CubicGraph, m: PerfectMatching | Iterable[int],
             members: Sequence[Matching | Iterable[int]]) -> Matching | None:
    """The union of per-cycle 2-edge matchings on the determined vertices.

    Requires the incidence conditions on every cycle (raises otherwise);
    returns None when some met cycle admits no 2-edge cycle matching.
    Ties go to the lexicographically least pairing.
    """
    m = _as_perfect(g, m)
    members = [_as_matching(g, mem) for mem in members]
    if len(members) != 4:
        raise GraphError("an F-family has exactly four members")
    cycles = two_factor_cycles(g, m)
    positions = _member_positions(g, cycles, members)
    n_total: set[int] = set()
    for ci, cyc in enumerate(cycles):
        per_member = positions[ci]
        problem = _count_violation(cyc, per_member)
        if problem is not None:
            raise GraphError(f"cycle {ci}: {problem}")
        if not any(per_member):
            continue
        cands = _pairing_candidates(cyc, sorted(p for posns in per_member for p in posns))
        if not cands:
            return None
        n_total |= cands[0]
    return Matching(g, n_total)


def _restriction(cycle: Cycle, posns: Sequence[int]) -> frozenset[int]:
    """Cycle-edge matching saturating every cycle vertex except the given sorted positions."""
    if not _odd_arcs(len(cycle), posns):
        raise GraphError("internal invariant failure: even arc in a balanced member")
    length = len(cycle)
    # each odd arc from p to the next position q is matched from its first inner vertex on
    return frozenset(cycle.edges[(p + step) % length]
                     for p, q in zip(posns, [*posns[1:], posns[0] + length])
                     for step in range(1, q - p - 1, 2))


def covering_from_ffamily(g: CubicGraph, fam: FFamily) -> FulkersonCovering:
    """Assemble the six-matching covering a verified family guarantees.

    Each member extends to a perfect matching by per-cycle restrictions
    (forced wherever the member touches the cycle, a two-way choice
    elsewhere); M' replaces the members inside m by the pair set N.  On
    every cycle the restrictions and N leave a coverage that is constant on
    each alternating class, and the free members level it out to two: as
    many as the second class lacks take that class, the rest the first.
    The result is verified, and the six matchings are always pairwise
    distinct.
    """
    report = verify_ffamily(g, fam)
    if not report.ok:
        raise GraphError("family fails verification: " + "; ".join(report.diagnostics))
    cycles = two_factor_cycles(g, fam.m)
    positions = _member_positions(g, cycles, fam.members)
    extensions: list[set[int]] = [set(mem.members) for mem in fam.members]
    for ci, cyc in enumerate(cycles):
        cover = Counter(fam.n_edges.members & set(cyc.edges))
        free: list[int] = []
        for mi, posns in enumerate(positions[ci]):
            if posns:
                fixed = _restriction(cyc, posns)
                cover.update(fixed)
                extensions[mi] |= fixed
            else:
                free.append(mi)
        # A free member takes one alternating class, which adds a constant to
        # each class; so the first `ones` of them, the number that levels the
        # odd-position edges, take those edges and the rest the others.
        ones = 2 - cover[cyc.edges[1]]
        picks = [frozenset(cyc.edges[int(slot < ones)::2]) for slot in range(len(free))]
        if not all(cover[e] + sum(e in cls for cls in picks) == 2 for e in cyc.edges):
            raise GraphError(
                f"no per-cycle assignment covers cycle {ci} (at vertex "
                f"{cyc.vertices[0]}); family or construction invalid")
        for mi, cls in zip(free, picks):
            extensions[mi] |= cls

    member_union = set()
    for mem in fam.members:
        member_union |= mem.members
    m_prime = (fam.m.members - member_union) | fam.n_edges.members
    return _checked_covering(g, (fam.m, *(PerfectMatching(g, ext) for ext in extensions),
                                 PerfectMatching(g, m_prime)),
                             "family assembly does not cover", "family assembly repeats a matching")


# Member shapes of four sorted ends, as a block per end: four members with
# one end each (on an odd cycle), or on an even one a member at all four
# ends, or two members with two ends each.
_SHAPES = ((0, 1, 2, 3), (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))


@lru_cache(maxsize=4096)
def _end_labels(odd: int, parities: tuple[int, ...], fixed: tuple[int, ...],
                own: tuple[int, ...], used: int) -> tuple[tuple[int, ...], ...]:
    """Every labelling of a placement's own edges, given its four sorted ends.

    odd is the cycle's length mod 2 and parities[i] that of end i's
    position, all that `_odd_arcs` reads: a shape is admitted when every
    member's ends cut the cycle into odd arcs, so an odd cycle sees four
    distinct members.  fixed[i] is the member of a fixed end, -1 at an own
    one; own[i] is the rank among the placement's own edges, in id order,
    of the edge at end i, -1 at a fixed end (a chord holds two ends).  A
    new label is at most one above the largest before it, `used` before
    the first own edge: members are interchangeable, and this first-use
    rule keeps one family of each relabelling.
    """
    count = max(own) + 1
    out = []
    for shape in _SHAPES:
        if not all(_odd_arcs(odd, [q for q, b in zip(parities, shape) if b == block])
                   for block in range(max(shape) + 1)):
            continue
        for member in permutations(range(4), max(shape) + 1):
            if any(lab >= 0 and member[b] != lab for b, lab in zip(shape, fixed)):
                continue
            labs = [-1] * count
            for b, j in zip(shape, own):
                if j >= 0 and labs[j] in (-1, member[b]):
                    labs[j] = member[b]
                elif j >= 0:
                    break  # a chord across two members
            else:
                if all(lab <= max((used, *labs[:i])) + 1 for i, lab in enumerate(labs)):
                    out.append(tuple(labs))
    return tuple(out)


def _position_sets(length: int, need: Sequence[int], scan: Iterable[int], rank: Sequence[int],
                   floor: int, budget: Budget) -> Iterator[tuple[int, ...]]:
    """The ends {p, p+1, q, q+1} of two disjoint cycle edges that hold `need`, sorted.

    An end p may be taken when rank[p] >= floor.  The first edge holds
    need[0]; the second holds the next needed end it misses, or else starts
    at a position of `scan`.  Each candidate with ends free to take spends
    one node, and the sets stop when the budget runs out.  Each set comes
    once: only on a 4-cycle do two edge pairs share their ends.
    """
    if length == 4:
        if min(rank) >= floor and budget.spend():
            yield (0, 1, 2, 3)
        return
    f = need[0]
    for a in ((f - 1) % length, f):
        a1 = (a + 1) % length
        if rank[a] < floor or rank[a1] < floor:
            continue
        rest = [p for p in need if p != a and p != a1]
        for b in (((rest[0] - 1) % length, rest[0]) if rest else scan):
            b1 = (b + 1) % length
            if rank[b] < floor or rank[b1] < floor or b == a or b == a1 or b1 == a:
                continue
            posns = sorted((a, a1, b, b1))
            if rest and not all(p in posns for p in rest):
                continue
            if not budget.spend():
                return
            yield tuple(posns)


def _placements(cycle: Cycle, own: Sequence[tuple[int, tuple[int, ...]]], fixed: dict[int, int],
                used: int, budget: Budget) -> Iterator[tuple[tuple[tuple[int, int], ...], int]]:
    """The labellings of a cycle's own m-edges that meet its conditions, in canonical order.

    own lists the m-edges first met at this cycle (by id, with their
    positions); fixed[pos] is the label of an edge met before.  A placement
    is (key, used after it); the key lists (-edge, member) for the own
    edges it puts in a member, so keys sort as the label vectors of the
    own edges, with -1 < 0 < 1 < 2 < 3.  The placement that labels no own
    edge comes first: the empty one on an even cycle no member touches, or
    the four fixed member ends alone.  The others come in buckets by their
    least labelled own edge j, largest first; a bucket holds the fixed
    member ends, the ends of edge j and ends of larger own edges only, so
    memory stays linear in the cycle's length.
    """
    length, odd = len(cycle), cycle.is_odd
    required = sorted(p for p, lab in fixed.items() if lab >= 0)
    top = len(own)
    rank = [-1] * length  # own index at each end, top at a fixed member end, -1 where none may be
    for j, (_, posns) in enumerate(own):
        if len(posns) == 1 or not odd:  # a chord of an odd cycle would give a member two ends
            for p in posns:
                rank[p] = j
    for p in required:
        rank[p] = top

    def bucket(need: Sequence[int], scan: Iterable[int], floor: int) -> list:
        out = []
        for posns in _position_sets(length, need, scan, rank, floor, budget):
            ranks = [rank[p] for p in posns]
            ids = sorted({j for j in ranks if j < top})
            if any(len(own[j][1]) != ranks.count(j) for j in ids):
                continue  # a chord with one end inside
            for labs in _end_labels(length % 2, tuple(p % 2 for p in posns),
                                    tuple(fixed.get(p, -1) for p in posns),
                                    tuple(ids.index(j) if j < top else -1 for j in ranks), used):
                out.append((tuple((-own[j][0], lab) for j, lab in zip(ids, labs)),
                            max((used, *labs))))
        out.sort()
        return out

    if len(required) == 4:  # four fixed member ends leave no room for an own edge
        yield from bucket(required, (), top)
        return
    if not required and not odd and budget.spend():
        yield (), used
    allowed: list[int] = []
    for j in reversed(range(top)):
        allowed += own[j][1]
        yield from bucket([*required, *own[j][1]], allowed, j)
        if budget.exhausted:
            return


def _ffamilies(g: CubicGraph, m: PerfectMatching | Iterable[int], budget: Budget,
               factor: CycleSet) -> Iterator[FFamily]:
    """Every family for m in canonical order: per-cycle placements on an explicit stack.

    Each m-edge is labelled -1 (no member) or with a member at the first
    cycle it touches, and the cycles are settled shortest first.  At each
    cycle the search takes, in turn, the placements of member ends that
    agree with the labels fixed so far: the ends of two disjoint cycle
    edges (the N edges), or none on an even cycle no member touches yet
    (see `_placements`).  Each placement labels the cycle's own m-edges,
    and a forward check rejects it when a later cycle gets too many member
    ends.  Placements are tried in the order of the own edges' label
    vectors, -1 < 0 < 1 < 2 < 3, so families come in lexicographic order
    of all the labels, cycle by cycle and by edge id within a cycle.
    Every candidate placement examined spends one node.  `factor` is the
    2-factor G - m, as `_two_factors` or `two_factor_cycles` walks it, and
    m is wrapped only for a family yielded.
    """
    cycles = factor.cycles
    order = sorted(range(len(cycles)), key=lambda ci: (len(cycles[ci]), ci))
    turn = {ci: r for r, ci in enumerate(order)}  # the cycle's place in the order
    own: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in order]  # (m-edge, positions)
    prior: list[list[tuple[int, int]]] = [[] for _ in order]  # (m-edge met before, position)
    far: dict[int, int] = {}  # m-edge -> the later cycle it touches, or -1
    for e in sorted(m):
        on: dict[int, list[int]] = {}
        for v in g.endpoints(e):
            ci, pos = factor.place[v]
            on.setdefault(turn[ci], []).append(pos)
        first, far[e] = min(on), max(on) if len(on) == 2 else -1
        own[first].append((e, tuple(on[first])))
        if far[e] >= 0:
            prior[far[e]].append((e, on[far[e]][0]))
    caps = [1 if cycles[ci].is_odd else 4 for ci in order]
    counts = [[0] * 5 for _ in order]  # member ends fixed on each cycle, then their total
    label = dict.fromkeys(m, -1)

    def place(key: tuple[tuple[int, int], ...], sign: int) -> bool:
        """Apply (sign 1) or undo (sign -1) a placement; False if a later cycle is overfull.

        This is the forward check: no cycle may hold more than four member
        ends, nor an odd one two ends of a member.
        """
        fits = True
        for ne, lab in key:
            label[-ne] = lab if sign > 0 else -1
            later = far[-ne]
            if later >= 0:
                cnt = counts[later]
                cnt[lab] += sign
                cnt[4] += sign
                fits = fits and cnt[4] <= 4 and cnt[lab] <= caps[later]
        return fits

    stack: list[tuple[Iterator, list]] = []  # per placed cycle: its placements, the one taken
    used = -1
    while True:
        r = len(stack)
        if r == len(order):
            if used == 3:
                yield _checked_family(g, m, [[e for e, lab in label.items() if lab == mi]
                                             for mi in range(4)], "searched members")
        else:
            fixed = {pos: label[e] for e, pos in prior[r]}
            stack.append((_placements(cycles[order[r]], own[r], fixed, used, budget),
                          [()]))
        # take the next placement that passes the forward check, at the deepest cycle with one
        while stack:
            places, taken = stack[-1]
            place(taken[0], -1)
            for taken[0], used in places:
                if place(taken[0], 1):
                    break
                place(taken[0], -1)
            else:
                if budget.exhausted:
                    return
                stack.pop()
                continue
            break
        else:
            return


def _checked_family(g: CubicGraph, m: PerfectMatching | Iterable[int],
                    members: Sequence[Iterable[int]], what: str) -> FFamily:
    """The family of m with these members and their N; the callers ensure that it verifies."""
    m = _as_perfect(g, m)
    members = [Matching(g, mem) for mem in members]
    n = derive_n(g, m, members)
    if n is None:
        raise GraphError(f"internal invariant failure: {what} admit no pair set")
    fam = FFamily(m, *members, n)
    report = verify_ffamily(g, fam)
    if not report.ok:
        raise GraphError(f"internal invariant failure: the family of {what} fails "
                         "verification: " + "; ".join(report.diagnostics))
    return fam


def _families(g: CubicGraph, m: PerfectMatching | Iterable[int] | None,
              budget: Budget) -> Iterator[FFamily]:
    """Families over m, or over the capped canonical stream of matchings, which
    ends once the budget is exhausted."""
    matchings = [_as_perfect(g, m).members] if m is not None else _capped_matchings(g, budget)
    # an odd cycle shorter than 5 has no two disjoint edges to hold N
    factors = _two_factors(g, matchings, lambda verts: len(verts) % 2 == 0 or len(verts) >= 5)
    return (fam for s, factor in factors if factor is not None
            for fam in _ffamilies(g, s, budget, factor))


def find_ffamily(g: CubicGraph, m: PerfectMatching | Iterable[int] | None = None,
                 budget: Budget | None = None) -> SearchResult[FFamily]:
    """Search for an F-family, over one matching or all of them.

    Members are required to be nonempty.  The search places member ends
    cycle by cycle (see `_ffamilies`) and spends one node per candidate
    placement, under the node budget (by default `Budget()`); it reports
    unknown when the budget is exceeded or cancelled.
    """
    budget = Budget() if budget is None else budget
    fam = next(_families(g, m, budget), None)
    return SearchResult(fam, fam is not None or not budget.exhausted)


def enumerate_ffamilies(g: CubicGraph, budget: Budget | None = None) -> SearchResult[list[FFamily]]:
    """All F-families over all perfect matchings (canonical order, budget-capped)."""
    budget = Budget() if budget is None else budget
    out = list(_families(g, None, budget))
    return SearchResult(out, not budget.exhausted)


@dataclass(frozen=True)
class TransportResult:
    """A dot product together with the transported family."""

    product: DotProductResult
    family: FFamily

    @property
    def graph(self) -> CubicGraph:
        return self.product.graph


def _two_odd_cycles(g: CubicGraph, m: PerfectMatching) -> CycleSet:
    cycles = two_factor_cycles(g, m)
    if len(cycles) != 2 or not all(c.is_odd for c in cycles):
        raise TransportError("the 2-factor must consist of exactly two odd cycles")
    return cycles


def _joins_odd_cycles(g: CubicGraph, cycles: CycleSet, e: int) -> bool:
    """True iff edge e joins two distinct odd cycles of the 2-factor."""
    (i, _), (j, _) = (cycles.place[v] for v in g.endpoints(e))
    return i != j and cycles.cycles[i].is_odd and cycles.cycles[j].is_odd


def _map_matching(result_map: dict[int, int], mem: Matching | PerfectMatching,
                  drop: frozenset[int] = frozenset()) -> set[int]:
    out = set()
    for e in mem:
        if e in drop:
            continue
        if e not in result_map:
            raise TransportError(f"edge {e} does not survive the dot product")
        out.add(result_map[e])
    return out


def _transport(g1: CubicGraph, m1: PerfectMatching, g2: CubicGraph, m2: PerfectMatching,
               spec: DotProductSpec, fam: FFamily, from_first: bool) -> TransportResult:
    """Dot g1 with g2 and carry fam, from g1 or from g2, onto the product.

    The product's matching is m1 and m2 minus the spec's removed edge e3.
    """
    product = dot_product(g1, g2, spec)
    graph = product.graph
    new_m = _map_matching(product.g1_edges, m1)
    new_m |= _map_matching(product.g2_edges, m2, drop=frozenset((spec.e3,)))
    edge_map = product.g1_edges if from_first else product.g2_edges
    members = [Matching(graph, _map_matching(edge_map, mem)) for mem in fam.members]
    n = Matching(graph, _map_matching(edge_map, fam.n_edges))
    moved = FFamily(PerfectMatching(graph, new_m), *members, n)
    out = verify_ffamily(graph, moved)
    if not out.ok:
        raise TransportError("transported family fails verification: "
                             + "; ".join(out.diagnostics))
    return TransportResult(product, moved)


def dot_preserve_type1(g1: CubicGraph, m1: PerfectMatching | Iterable[int],
                       g2: CubicGraph, fam2: FFamily,
                       spec: DotProductSpec) -> TransportResult:
    """Dot product carrying the second factor's family onto the result.

    g1\\m1 must be exactly two odd cycles holding the spec's e1 and e2.
    The spec's e3 is the paper's xy: an edge of fam2.m outside the members
    whose ends lie on two distinct odd cycles of g2's 2-factor.  The
    result's matching is m1 plus fam2.m minus xy; the family maps across
    unchanged.
    """
    xy = spec.e3
    m1 = _as_perfect(g1, m1)
    cycles1 = _two_odd_cycles(g1, m1)
    report = verify_ffamily(g2, fam2)
    if not report.ok:
        raise TransportError("the second factor's family fails verification")
    if xy not in fam2.m.members:
        raise TransportError("xy must belong to the second factor's perfect matching")
    if any(xy in mem.members for mem in fam2.members):
        raise TransportError("xy must avoid the family members")
    if not _joins_odd_cycles(g2, two_factor_cycles(g2, fam2.m), xy):
        raise TransportError("xy must join two distinct odd cycles of the 2-factor")
    in_first = spec.e1 in cycles1.cycles[0].edges and spec.e2 in cycles1.cycles[1].edges
    in_second = spec.e2 in cycles1.cycles[0].edges and spec.e1 in cycles1.cycles[1].edges
    if not (in_first or in_second):
        raise TransportError("e1 and e2 must lie on the two distinct odd cycles of g1")
    return _transport(g1, m1, g2, fam2.m, spec, fam2, from_first=False)


def dot_preserve_type2(g1: CubicGraph, fam1: FFamily, g2: CubicGraph,
                       m2: PerfectMatching | Iterable[int],
                       spec: DotProductSpec) -> TransportResult:
    """Dot product carrying the first factor's family onto the result.

    The spec's e1 and e2 are the paper's xy and zt: 2-factor edges of g1
    outside N.  Its e3 is a matching edge of g2 joining the two odd cycles
    that g2's 2-factor must consist of.
    """
    report = verify_ffamily(g1, fam1)
    if not report.ok:
        raise TransportError("the first factor's family fails verification")
    for name, e in (("xy", spec.e1), ("zt", spec.e2)):
        if e in fam1.m.members:
            raise TransportError(f"{name} must avoid the perfect matching")
        if e in fam1.n_edges.members:
            raise TransportError(f"{name} must avoid N")
    m2 = _as_perfect(g2, m2)
    cycles2 = _two_odd_cycles(g2, m2)
    if spec.e3 not in m2.members:
        raise TransportError("e3 must belong to the second factor's perfect matching")
    if not _joins_odd_cycles(g2, cycles2, spec.e3):
        raise TransportError("e3 must join the two odd cycles of g2's 2-factor")
    return _transport(g1, fam1.m, g2, m2, spec, fam1, from_first=True)


@dataclass(frozen=True)
class DotStep:
    """One pipeline step: dot the accumulated graph with `factor`.

    kind "type1" takes the family from the factor (the accumulated graph
    contributes a 2-factor of two odd cycles); kind "type2" keeps the
    accumulated family (the factor contributes the odd-cycle pair).
    Explicit edge choices are optional; omitted ones are searched in
    canonical order.
    """

    kind: str
    factor: CubicGraph
    e1: int | None = None
    e2: int | None = None
    e3: int | None = None


@dataclass(frozen=True)
class PipelineResult:
    graph: CubicGraph
    family: FFamily
    covering: FulkersonCovering
    stages: tuple[tuple[CubicGraph, FFamily], ...]


def _first_two_odd_cycle_pm(g: CubicGraph) -> tuple[PerfectMatching, CycleSet]:
    found = _first_two_factor(g, lambda verts: len(verts) % 2 == 1, count=2)
    if found is None:
        raise TransportError("no perfect matching with a two-odd-cycle 2-factor")
    return found


def _joining_edge(g: CubicGraph, m: PerfectMatching, cycles: CycleSet,
                  exclude: frozenset[int] = frozenset()) -> int:
    """The least edge of m outside exclude with exactly one end on the first cycle."""
    for e in sorted(m.members - exclude):
        if [cycles.place[v][0] for v in g.endpoints(e)].count(0) == 1:
            return e
    raise TransportError("no matching edge joins the two odd cycles")


def _searched_family(g: CubicGraph, what: str) -> FFamily:
    """The first F-family of g under the default budget; raises when none is known."""
    budget = Budget()
    famres = find_ffamily(g, budget=budget)
    if famres.unknown:
        raise BudgetExhausted(f"the F-family search on {what} ran out of its "
                              f"{budget.limit}-node budget (${DEFAULT_BUDGET_ENV})")
    if not famres.found:
        raise TransportError(f"{what} has no F-family")
    return famres.value


def _step_type1(g1: CubicGraph, step: DotStep) -> TransportResult:
    m1, cycles1 = _first_two_odd_cycle_pm(g1)
    fam2 = _searched_family(step.factor, "the factor")
    member_edges = frozenset(e for mem in fam2.members for e in mem)
    cycles2 = two_factor_cycles(step.factor, fam2.m)
    if step.e3 is not None:
        xy = step.e3
    else:
        xy = _joining_edge(step.factor, fam2.m, cycles2, exclude=member_edges)
    e1 = step.e1 if step.e1 is not None else min(cycles1.cycles[0].edges)
    e2 = step.e2 if step.e2 is not None else min(cycles1.cycles[1].edges)
    return dot_preserve_type1(g1, m1, step.factor, fam2, DotProductSpec(e1=e1, e2=e2, e3=xy))


def _step_type2(g1: CubicGraph, fam1: FFamily, step: DotStep) -> TransportResult:
    m2, cycles2 = _first_two_odd_cycle_pm(step.factor)
    e3 = step.e3 if step.e3 is not None else _joining_edge(step.factor, m2, cycles2)
    forbidden = fam1.m.members | fam1.n_edges.members
    candidates = [e for e in sorted(g1.edge_ids()) if e not in forbidden]
    if step.e1 is not None and step.e2 is not None:
        pairs: Iterable[tuple[int, int]] = [(step.e1, step.e2)]
    else:
        pairs = combinations(candidates, 2)
    last_error: TransportError | None = None
    for xy, zt in pairs:
        spec = DotProductSpec(e1=xy, e2=zt, e3=e3)
        try:
            return dot_preserve_type2(g1, fam1, step.factor, m2, spec)
        except GraphError as exc:
            last_error = TransportError(str(exc))
            continue
    raise last_error or TransportError("no valid edge pair for the dot product")


def iterate_dot_sequence(base: CubicGraph, steps: Sequence[DotStep],
                         base_family: FFamily | None = None) -> PipelineResult:
    """Chain family-preserving dot products and assemble the final covering.

    The base graph's family is searched unless supplied; every intermediate
    family is verified by the transport operations themselves.  An F-family
    search that runs out of budget, or a two-odd-cycle matching search that
    reaches the matching cap, raises `BudgetExhausted`, and an edge
    option outside its graph (e1 and e2 in the accumulated graph, e3 in the
    factor) raises `StepOptionError`.
    """
    graph = base
    family = _searched_family(base, "the base graph") if base_family is None else base_family
    stages: list[tuple[CubicGraph, FFamily]] = [(graph, family)]
    for idx, step in enumerate(steps):
        if step.kind not in ("type1", "type2"):
            raise GraphError(f"unknown dot step kind {step.kind!r}")
        for name, host in (("e1", graph), ("e2", graph), ("e3", step.factor)):
            value = getattr(step, name)
            if value is not None and not 0 <= value < host.num_edges:
                raise StepOptionError(f"step {idx + 1}: {name}={value} names no edge of its "
                                      f"graph, which has edges 0..{host.num_edges - 1}")
        try:
            if step.kind == "type1":
                result = _step_type1(graph, step)
            else:
                result = _step_type2(graph, family, step)
        except (TransportError, BudgetExhausted) as exc:
            raise type(exc)(f"step {idx + 1} failed: {exc}") from exc
        graph, family = result.graph, result.family
        stages.append((graph, family))
    covering = covering_from_ffamily(graph, family)
    return PipelineResult(graph, family, covering, tuple(stages))


@dataclass(frozen=True)
class PetersenExpansion:
    """A Petersen host whose matching edges were replaced by Petersen blocks.

    matching is the perfect matching complementary to the inherited
    2-factor of chordless 5-cycles (two per block).
    """

    graph: CubicGraph
    matching: PerfectMatching
    cycles: CycleSet


def petersen_expansion() -> PetersenExpansion:
    """Blow every matching edge of a Petersen host up into a Petersen block.

    Each of the five host matching edges is consumed as the removed edge of
    a dot product whose other factor is a fresh Petersen (losing two edges
    of the matching complementary to its 5-cycle 2-factor).  The host's
    vertices all vanish, leaving a 50-vertex cubic graph with a 2-factor of
    ten chordless 5-cycles.
    """
    host = petersen()
    host_m = find_perfect_matching(host)
    current: CubicGraph = host
    pending = sorted(host_m.members)  # ids in the current graph, updated per step
    factor_edges: list[int] = []  # 2-factor edge ids in the current graph

    for _ in range(5):
        block = petersen()
        block_m = find_perfect_matching(block)
        e1, e2 = sorted(block_m.members)[:2]
        spec = DotProductSpec(e1=e1, e2=e2, e3=pending[0])
        product = dot_product(block, current, spec)
        block_factor = sorted(set(block.edge_ids()) - block_m.members)
        factor_edges = [product.g2_edges[e] for e in factor_edges]
        factor_edges += [product.g1_edges[e] for e in block_factor]
        pending = [product.g2_edges[e] for e in pending[1:]]
        current = product.graph

    m = PerfectMatching(current, set(current.edge_ids()) - set(factor_edges))
    cycles = two_factor_cycles(current, m)
    return PetersenExpansion(current, m, cycles)


@dataclass(frozen=True)
class C5StructureResult:
    """Outcome of the chordless-C5 2-factor covering pipeline."""

    covering: FulkersonCovering | None
    reason: str | None
    family: FFamily | None = None

    @property
    def found(self) -> bool:
        return self.covering is not None


def covering_from_c5_structure(g: CubicGraph) -> C5StructureResult:
    """Covering via contraction of a chordless-C5 2-factor.

    Finds a 2-factor of chordless 5-cycles, contracts it to a 5-regular
    multigraph, 5-edge-colors that, and pulls four color classes back as
    an F-family for the complementary matching.
    """
    found = find_c5_two_factor(g)
    if found is None:
        return C5StructureResult(None, "no 2-factor of chordless 5-cycles")
    m, cycles = found
    shrunk = shrink_to_gstar(g, m, cycles)
    coloring = five_edge_coloring(shrunk.graph)
    if coloring is None:
        return C5StructureResult(None, "the contracted graph is not 5-edge-colorable")
    fam = _checked_family(g, m, [[shrunk.edge_origin[e] for e in coloring.color_class(color)]
                                 for color in range(4)], "color classes")
    return C5StructureResult(covering_from_ffamily(g, fam), None, fam)
