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
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .budget import DEFAULT_BUDGET_ENV, Budget, BudgetExhausted, SearchResult
from .generators import DotProductResult, DotProductSpec, dot_product, petersen
from .graph_core import CubicGraph, Cycle, CycleSet, GraphError, Matching
from .matchcolor import (
    PerfectMatching,
    enumerate_perfect_matchings,
    find_c5_two_factor,
    five_edge_coloring,
    shrink_to_gstar,
    two_factor_cycles,
    _as_matching,
    _as_perfect,
    _member_positions,
    _odd_arcs,
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
    """Check balancedness (odd arcs, as in `is_m_balanced`) and the per-cycle conditions."""
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


def _ffamilies(g: CubicGraph, m: PerfectMatching, budget: Budget) -> Iterator[FFamily]:
    """Every family for m in canonical order: member labels for m-edges on an explicit stack.

    Cycles are settled shortest first.  Each m-edge gets a slot at the
    first cycle it touches, and each cycle ends in a close slot, so the
    search walks one flat list of slots and spends one node per visit.  An
    edge slot checks the cycle's caps, then tries label -1 (no member) and
    the members in order of first use, -1..min(used + 1, 3).  A close slot
    checks the cycle's incidence conditions.
    """
    if budget.exhausted:  # skip the set-up for the matchings left after the budget ran out
        return
    factor = two_factor_cycles(g, m)
    cycles = factor.cycles
    counts = [[0, 0, 0, 0] for _ in cycles]  # counts[ci][mi]: ends of member mi on cycle ci
    around: list[list[tuple[int, list[int]]]] = [[] for _ in cycles]  # (m-edge, its positions)
    hits: dict[int, list[tuple[list[int], int]]] = {}  # m-edge -> (a cycle's counts, ends on it)
    for e in sorted(m.members):
        on: dict[int, list[int]] = {}
        for v in g.endpoints(e):
            ci, pos = factor.place[v]
            on.setdefault(ci, []).append(pos)
        for ci, posns in on.items():
            around[ci].append((e, posns))
        hits[e] = [(counts[ci], len(posns)) for ci, posns in on.items()]
    # Short cycles carry the tightest incidence constraints; settle them first.
    slots: list[tuple[int, int | None]] = []  # (cycle, m-edge), or (cycle, None) to close it
    slotted: set[int] = set()
    for ci in sorted(range(len(cycles)), key=lambda ci: (len(cycles[ci]), ci)):
        for e, _ in around[ci]:
            if e not in slotted:
                slotted.add(e)
                slots.append((ci, e))
        slots.append((ci, None))
    caps = [1 if cyc.is_odd else 4 for cyc in cycles]
    label = dict.fromkeys(hits, -1)
    stack: list[list[int]] = []  # [slot, label, used before the slot] per open edge slot
    i, used = 0, -1
    while True:
        if i == len(slots):
            if used == 3:
                yield _checked_family(g, m, [[e for e, lab in label.items() if lab == mi]
                                             for mi in range(4)], "searched members")
        elif not budget.spend():
            return
        else:
            ci, e = slots[i]
            # determined vertices on the cycle never exceed four in total
            if sum(counts[ci]) <= 4 and max(counts[ci]) <= caps[ci]:
                if e is not None:
                    stack.append([i, -1, used])
                    label[e] = -1
                    i += 1
                    continue
                per_member: list[list[int]] = [[], [], [], []]
                for f, posns in around[ci]:
                    if label[f] >= 0:
                        per_member[label[f]] += posns
                if _cycle_condition(cycles[ci], [sorted(p) for p in per_member])[0] is None:
                    i += 1
                    continue
        # backtrack to the deepest edge slot with a label left to try
        while stack:
            frame = stack[-1]
            i, lab, used = frame
            e = slots[i][1]
            if lab >= 0:
                for cnt, k in hits[e]:
                    cnt[lab] -= k
            if lab <= used and lab < 3:
                lab = label[e] = frame[1] = lab + 1
                for cnt, k in hits[e]:
                    cnt[lab] += k
                used = max(used, lab)
                i += 1
                break
            stack.pop()
        else:
            return


def _checked_family(g: CubicGraph, m: PerfectMatching, members: Sequence[Iterable[int]],
                    what: str) -> FFamily:
    """The family of m with these members and their N; the callers ensure that it verifies."""
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
              budget: Budget) -> tuple[Iterator[FFamily], bool]:
    """Families over m, or over every perfect matching, and whether that source is complete."""
    if m is not None:
        matchings: Sequence[PerfectMatching] = [_as_perfect(g, m)]
        complete = True
    else:
        enum = enumerate_perfect_matchings(g, budget=budget)
        matchings, complete = enum.matchings, not enum.truncated
    return (fam for pm in matchings for fam in _ffamilies(g, pm, budget)), complete


def find_ffamily(g: CubicGraph, m: PerfectMatching | Iterable[int] | None = None,
                 budget: Budget | None = None) -> SearchResult[FFamily]:
    """Search for an F-family, over one matching or all of them.

    Members are required to be nonempty.  The search runs under the node
    budget (by default `Budget()`) and reports unknown when it is exceeded.
    """
    budget = Budget() if budget is None else budget
    families, complete = _families(g, m, budget)
    fam = next(families, None)
    return SearchResult(fam, fam is not None or (complete and not budget.exhausted))


def enumerate_ffamilies(g: CubicGraph, budget: Budget | None = None) -> SearchResult[list[FFamily]]:
    """All F-families over all perfect matchings (canonical order, budget-capped)."""
    budget = Budget() if budget is None else budget
    families, complete = _families(g, None, budget)
    out = list(families)
    return SearchResult(out, complete and not budget.exhausted)


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
                  graph: CubicGraph, drop: frozenset[int] = frozenset()) -> set[int]:
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
    new_m = _map_matching(product.g1_edges, m1, graph)
    new_m |= _map_matching(product.g2_edges, m2, graph, drop=frozenset((spec.e3,)))
    edge_map = product.g1_edges if from_first else product.g2_edges
    members = [Matching(graph, _map_matching(edge_map, mem, graph)) for mem in fam.members]
    n = Matching(graph, _map_matching(edge_map, fam.n_edges, graph))
    moved = FFamily(PerfectMatching(graph, new_m), *members, n)
    out = verify_ffamily(graph, moved)
    if not out.ok:
        raise TransportError("transported family fails verification: "
                             + "; ".join(out.diagnostics))
    return TransportResult(product, moved)


def dot_preserve_type1(g1: CubicGraph, m1: PerfectMatching | Iterable[int],
                       g2: CubicGraph, fam2: FFamily, xy: int,
                       spec: DotProductSpec) -> TransportResult:
    """Dot product carrying the second factor's family onto the result.

    g1\\m1 must be exactly two odd cycles holding e1 and e2; xy is an edge
    of fam2.m outside the members whose ends lie on two distinct odd cycles
    of g2's 2-factor, and it is the spec's removed edge e3.  The result's
    matching is m1 plus fam2.m minus xy; the family maps across unchanged.
    """
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
    if spec.e3 != xy:
        raise TransportError("the spec must remove xy as its e3")
    in_first = spec.e1 in cycles1.cycles[0].edges and spec.e2 in cycles1.cycles[1].edges
    in_second = spec.e2 in cycles1.cycles[0].edges and spec.e1 in cycles1.cycles[1].edges
    if not (in_first or in_second):
        raise TransportError("e1 and e2 must lie on the two distinct odd cycles of g1")
    return _transport(g1, m1, g2, fam2.m, spec, fam2, from_first=False)


def dot_preserve_type2(g1: CubicGraph, fam1: FFamily, xy: int, zt: int,
                       g2: CubicGraph, m2: PerfectMatching | Iterable[int], e3: int,
                       spec: DotProductSpec) -> TransportResult:
    """Dot product carrying the first factor's family onto the result.

    xy and zt are 2-factor edges of g1 outside N (they are the removed e1
    and e2); g2's 2-factor is exactly two odd cycles joined by its matching
    edge e3.
    """
    report = verify_ffamily(g1, fam1)
    if not report.ok:
        raise TransportError("the first factor's family fails verification")
    for name, e in (("xy", xy), ("zt", zt)):
        if e in fam1.m.members:
            raise TransportError(f"{name} must avoid the perfect matching")
        if e in fam1.n_edges.members:
            raise TransportError(f"{name} must avoid N")
    if {spec.e1, spec.e2} != {xy, zt}:
        raise TransportError("the spec must remove exactly xy and zt")
    m2 = _as_perfect(g2, m2)
    cycles2 = _two_odd_cycles(g2, m2)
    if e3 not in m2.members:
        raise TransportError("e3 must belong to the second factor's perfect matching")
    if not _joins_odd_cycles(g2, cycles2, e3):
        raise TransportError("e3 must join the two odd cycles of g2's 2-factor")
    if spec.e3 != e3:
        raise TransportError("the spec must remove e3 from the second factor")
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
    for pm in enumerate_perfect_matchings(g):
        cycles = two_factor_cycles(g, pm)
        if len(cycles) == 2 and all(c.is_odd for c in cycles):
            return pm, cycles
    raise TransportError("no perfect matching with a two-odd-cycle 2-factor")


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
    spec = DotProductSpec(e1=e1, e2=e2, e3=xy)
    return dot_preserve_type1(g1, m1, step.factor, fam2, xy, spec)


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
            return dot_preserve_type2(g1, fam1, xy, zt, step.factor, m2, e3, spec)
        except (TransportError, GraphError) as exc:
            last_error = TransportError(str(exc))
            continue
    raise last_error or TransportError("no valid edge pair for the dot product")


def iterate_dot_sequence(base: CubicGraph, steps: Sequence[DotStep],
                         base_family: FFamily | None = None) -> PipelineResult:
    """Chain family-preserving dot products and assemble the final covering.

    The base graph's family is searched unless supplied; every intermediate
    family is verified by the transport operations themselves.  An F-family
    search that runs out of budget raises `BudgetExhausted`, and an edge
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
    host_m = enumerate_perfect_matchings(host)[0]
    current: CubicGraph = host
    pending = sorted(host_m.members)  # ids in the current graph, updated per step
    factor_edges: list[int] = []  # 2-factor edge ids in the current graph

    for _ in range(5):
        block = petersen()
        block_m = enumerate_perfect_matchings(block)[0]
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
