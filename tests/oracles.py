"""Independent brute-force oracles used to pin expected test values.

These deliberately avoid the library's search code paths: matchings come
from subset enumeration, bridges from edge deletion plus connectivity,
cyclic cuts from edge-subset enumeration, cuts of three edges from
vertex-subset enumeration, colorability from matching
partitions or raw assignment enumeration, F-families from balanced subsets
of the matching.  The random cubic multigraphs that the differential tests
feed them come from one Hypothesis helper here; `c5_structured_graph` seeds
graphs that have a chordless-C5 2-factor, and `first_c5_two_factor` finds
the first such factor in the sorted reference listing.  Four former library
searches live on here as references: the plain depth-first perfect-matching
search and the slot search for F-families (for the orders the library
yields), the brute-force cyclic-connectivity test, and the FR-triple search
that enumerates every matching before it scans the index triples (the scan,
`fr_triple_scan`, gives the order `enumerate_fr_triples` must keep).
`SearchCounts` counts the blossom searches and stream starts that the
search-count pins read.
"""

import random
from collections import Counter
from itertools import combinations, combinations_with_replacement
from typing import Iterator

from hypothesis import strategies as st

from fulkerson_lab.budget import Budget, SearchResult
from fulkerson_lab.ffamily import FFamily, _checked_family, _cycle_condition
from fulkerson_lab.fulkerson import FRTriple
from fulkerson_lab.graph_core import CubicGraph, GraphError, MultiGraph
from fulkerson_lab.matchcolor import PerfectMatching, enumerate_perfect_matchings, two_factor_cycles


def brute_force_perfect_matchings(g: MultiGraph) -> list[frozenset[int]]:
    """All perfect matchings by subset enumeration (tiny graphs only)."""
    n = g.num_vertices
    if n % 2:
        return []
    out = []
    for combo in combinations(range(g.num_edges), n // 2):
        seen = set()
        ok = True
        for e in combo:
            u, v = g.endpoints(e)
            if u == v or u in seen or v in seen:
                ok = False
                break
            seen.add(u)
            seen.add(v)
        if ok and len(seen) == n:
            out.append(frozenset(combo))
    return sorted(out, key=lambda s: tuple(sorted(s)))


def naive_perfect_matchings(g: MultiGraph, include: frozenset[int] = frozenset(),
                            exclude: frozenset[int] = frozenset()) -> Iterator[frozenset[int]]:
    """Perfect matchings containing the matching `include` and avoiding `exclude`.

    Depth first on an explicit stack: branch on the lowest unsaturated
    vertex and try its non-excluded edges in ascending id.  Every vertex
    below a branching vertex stays saturated, so the next one is looked up
    from there onward.
    """
    n = g.num_vertices
    if n % 2 == 1:
        return
    saturated = [False] * n
    for e in include:
        u, v = g.endpoints(e)
        saturated[u] = saturated[v] = True
    options = [[(e, g.other_end(e, v)) for e in g.incident(v) if e not in exclude]
               for v in g.vertices()]
    chosen = list(include)
    stack: list[list[int]] = []  # [branching vertex, index of the edge taken there]
    u = 0
    while True:
        while u < n and saturated[u]:
            u += 1
        if u == n:
            yield frozenset(chosen)
        else:
            saturated[u] = True
            stack.append([u, -1])
        # Backtrack to the deepest vertex with an untried edge and take it.
        while stack:
            frame = stack[-1]
            v, i = frame
            opts = options[v]
            if i >= 0:
                saturated[opts[i][1]] = False
                chosen.pop()
            i += 1
            while i < len(opts) and saturated[opts[i][1]]:
                i += 1
            if i < len(opts):
                frame[1] = i
                e, w = opts[i]
                saturated[w] = True
                chosen.append(e)
                u = v + 1
                break
            saturated[v] = False
            stack.pop()
        else:
            return


class SearchCounts:
    """What the perfect-matching stream does, counted by patching the library.

    `augment` and `repair` count the outcomes (True or False) of every
    `_augment` and `_repair` call, the `_augment` inside `_repair`
    included; `starts` lists the graph of every `_canonical_matchings`
    stream, once it is first read (only matchcolor calls the stream).
    """

    def __init__(self, monkeypatch):
        from fulkerson_lab import matchcolor

        self.augment: Counter = Counter()
        self.repair: Counter = Counter()
        self.starts: list[MultiGraph] = []

        def counted(search, tally):
            def run(*args):
                found = search(*args)
                tally[found] += 1
                return found
            return run

        stream = matchcolor._canonical_matchings

        def started(g, *args, **kwargs):
            self.starts.append(g)
            yield from stream(g, *args, **kwargs)

        monkeypatch.setattr(matchcolor, "_augment", counted(matchcolor._augment, self.augment))
        monkeypatch.setattr(matchcolor, "_repair", counted(matchcolor._repair, self.repair))
        monkeypatch.setattr(matchcolor, "_canonical_matchings", started)


def random_cubic_multigraph(data, max_order: int, bridgeless: bool = False,
                            loops: bool = False) -> MultiGraph:
    """A pairing-model cubic multigraph on an even number of vertices up to
    `max_order` that is connected (and bridgeless, when asked); parallel
    edges stay.  It is a loopless `CubicGraph` unless `loops` is set, which
    keeps the pairing model's loops (a loop counts 2 towards the degree).
    Hypothesis's `data` draws the order and a seed, and the pairing model is
    redrawn from that seed until a graph qualifies, so no example is ever
    rejected."""
    n = data.draw(st.sampled_from(range(2, max_order + 1, 2)))
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return seeded_cubic_multigraph(n, seed, bridgeless, loops)


def seeded_cubic_multigraph(n: int, seed: int, bridgeless: bool = False,
                            loops: bool = False) -> MultiGraph:
    """The graph `random_cubic_multigraph` draws for order n and this seed."""
    rng = random.Random(seed)
    points = list(range(3 * n))
    while True:
        rng.shuffle(points)
        pairs = [(points[i] // 3, points[i + 1] // 3) for i in range(0, 3 * n, 2)]
        if loops:
            g = MultiGraph(n, pairs)
        elif any(u == v for u, v in pairs):
            continue
        else:
            g = CubicGraph(n, pairs)
        if len(_components(g, frozenset())) == 1 and (not bridgeless or naive_is_bridgeless(g)):
            return g


def naive_is_bridgeless(g: MultiGraph) -> bool:
    """Delete each edge in turn and test connectivity."""

    def connected_without(skip: int) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for e in g.incident(v):
                if e == skip or g.is_loop(e):
                    continue
                w = g.other_end(e, v)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == g.num_vertices

    return all(connected_without(e) for e in range(g.num_edges))


def _components(g: MultiGraph, removed: frozenset[int]) -> list[list[int]]:
    """Connected components (vertex lists) of g with `removed` edges deleted."""
    seen = [False] * g.num_vertices
    comps = []
    for s in g.vertices():
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for e in g.incident(v):
                if e in removed or g.is_loop(e):
                    continue
                w = g.other_end(e, v)
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def _has_cycle_component(g: MultiGraph, comp: list[int], removed: frozenset[int]) -> bool:
    # A connected component contains a cycle iff #edges >= #vertices,
    # counting loops and parallels.
    vs = set(comp)
    edge_count = 0
    for eid, u, v in g.edges:
        if eid in removed:
            continue
        if u in vs:
            if u == v:
                return True
            edge_count += 1
    return edge_count >= len(comp)


def naive_cyclic_edge_connectivity_at_least(g: MultiGraph, k: int) -> bool:
    """True iff no edge cut of size < k leaves two components that both contain cycles.

    Tries every edge subset of fewer than k edges, smallest first.
    """
    if not isinstance(k, int) or not 1 <= k <= 6:
        raise GraphError(f"supported connectivity range is 1..6, got {k}")
    if len(_components(g, frozenset())) > 1:
        raise GraphError("cyclic edge connectivity requires a connected graph")
    all_edges = range(g.num_edges)
    for size in range(1, k):
        for cut in combinations(all_edges, size):
            removed = frozenset(cut)
            comps = _components(g, removed)
            if len(comps) < 2:
                continue
            cyclic = 0
            for comp in comps:
                if _has_cycle_component(g, comp, removed):
                    cyclic += 1
                    if cyclic >= 2:
                        break
            if cyclic >= 2:
                return False
    return True


def naive_three_cuts(g: MultiGraph) -> set[int]:
    """The cuts of exactly three edges, as edge bit masks, less the three
    edges at one vertex: the cut of every vertex subset is tried."""
    cuts = set()
    for size in range(1, g.num_vertices):
        for side in combinations(g.vertices(), size):
            inside = set(side)
            cut = [e for e, u, w in g.edges if (u in inside) != (w in inside)]
            if len(cut) == 3:
                cuts.add(sum(1 << e for e in cut))
    return cuts - {sum(1 << e for e in g.incident(v)) for v in g.vertices()}


def colorable_via_matching_partition(g: MultiGraph) -> bool:
    """3-edge-colorable iff the edges split into three disjoint perfect matchings."""
    pms = brute_force_perfect_matchings(g)
    for i, j in combinations(range(len(pms)), 2):
        if pms[i] & pms[j]:
            continue
        rest = frozenset(range(g.num_edges)) - pms[i] - pms[j]
        if rest in pms:
            return True
    return False


def count_proper_colorings(g: MultiGraph, colors: int) -> int:
    """All proper edge colorings by raw backtracking over edge ids in order."""
    m = g.num_edges
    assignment = [-1] * m
    used = [set() for _ in range(g.num_vertices)]
    total = 0

    def rec(e: int) -> None:
        nonlocal total
        if e == m:
            total += 1
            return
        u, v = g.endpoints(e)
        for c in range(colors):
            if c in used[u] or c in used[v]:
                continue
            used[u].add(c)
            used[v].add(c)
            assignment[e] = c
            rec(e + 1)
            used[u].discard(c)
            used[v].discard(c)
            assignment[e] = -1

    if g.has_loops():
        return 0
    rec(0)
    return total


def _covers_twice(g, pms, combo) -> bool:
    counts = Counter()
    for i in combo:
        counts.update(pms[i])
    return len(counts) == g.num_edges and all(c == 2 for c in counts.values())


def covering_exists(g) -> bool:
    """Exhaustive search for six perfect matchings, repeats allowed, covering twice."""
    pms = brute_force_perfect_matchings(g)
    return any(_covers_twice(g, pms, combo)
               for combo in combinations_with_replacement(range(len(pms)), 6))


def proper_covering_exists(g) -> bool:
    """Exhaustive search for six distinct perfect matchings covering twice."""
    pms = brute_force_perfect_matchings(g)
    return any(_covers_twice(g, pms, combo) for combo in combinations(range(len(pms)), 6))


def fr_triple_partitions(g: MultiGraph) -> set[tuple[frozenset[int], frozenset[int]]]:
    """Every (T2, T0) over the triples of perfect matchings, repeats allowed,
    whose common intersection is empty: T2 holds the edges in two members,
    T0 the edges in none."""
    pms = brute_force_perfect_matchings(g)
    out = set()
    for trio in combinations_with_replacement(pms, 3):
        if trio[0] & trio[1] & trio[2]:
            continue
        counts = Counter(e for pm in trio for e in pm)
        out.add((frozenset(e for e, c in counts.items() if c == 2),
                 frozenset(range(g.num_edges)).difference(counts)))
    return out


def fr_triple_scan(pms: list[frozenset[int]],
                   budget: Budget) -> Iterator[tuple[frozenset[int], ...]]:
    """The FR-triples among listed matchings, by index triple i <= j <= k.

    The former library scan: one budget node per index triple, stopping
    when the budget runs out.
    """
    for i, j, k in combinations_with_replacement(range(len(pms)), 3):
        if not budget.spend():
            return
        if not pms[i] & pms[j] & pms[k]:
            yield pms[i], pms[j], pms[k]


def enumerated_fr_triple(g: CubicGraph, budget: Budget | None = None) -> SearchResult[FRTriple]:
    """The first FR-triple over every enumerated perfect matching, canonical order.

    The former library search, which `find_fr_triple` must agree with: it
    lists and sorts every matching, then scans the index triples.  Absence
    is proved only when the enumeration is complete and the budget lasts.
    """
    budget = Budget() if budget is None else budget
    pms = enumerate_perfect_matchings(g, budget=budget)
    triple = next(fr_triple_scan([pm.members for pm in pms], budget), None)
    if triple is not None:
        triple = FRTriple(*(PerfectMatching(g, m) for m in triple))
    return SearchResult(triple, triple is not None or not (pms.truncated or budget.exhausted))


def balanced_subsets(g: MultiGraph, m) -> set[frozenset[int]]:
    """Every m & m' over the perfect matchings m' of g: the m-balanced sets."""
    m = frozenset(m)
    return {m & other for other in brute_force_perfect_matchings(g)}


def ffamily_holds(g: MultiGraph, m, members, balanced: set[frozenset[int]] | None = None) -> bool:
    """True iff the four members (edge-id sets) form an F-family for the
    perfect matching m (edge ids).

    Straight from the definition: the members are nonempty and pairwise
    disjoint, and each equals m & m' for some perfect matching m' (it is in
    `balanced`, by default `balanced_subsets(g, m)`); every odd cycle of
    the complementary 2-factor meets each member in exactly one endpoint;
    every even cycle meets them in no endpoint, 2+2 or 4 endpoints of one
    member; and on every cycle the determined vertices are the ends of two
    disjoint edges of that cycle.
    """
    m = frozenset(m)
    members = [frozenset(mem) for mem in members]
    balanced = balanced_subsets(g, m) if balanced is None else balanced
    if (len(members) != 4 or not all(mem and mem in balanced for mem in members)
            or sum(map(len, members)) != len(frozenset().union(*members))):
        return False
    for comp in _components(g, m):
        vs = set(comp)
        ends = [[v for e in mem for v in g.endpoints(e) if v in vs] for mem in members]
        counts = sorted(len(x) for x in ends)
        if len(vs) % 2:
            if counts != [1, 1, 1, 1]:
                return False
        elif counts not in ([0, 0, 0, 0], [0, 0, 2, 2], [0, 0, 0, 4]):
            return False
        determined = {v for x in ends for v in x}
        cycle_edges = [eid for eid, u, v in g.edges if eid not in m and u in vs]
        if determined and not any(set(g.endpoints(e)) | set(g.endpoints(f)) == determined
                                  for e, f in combinations(cycle_edges, 2)
                                  if not set(g.endpoints(e)) & set(g.endpoints(f))):
            return False
    return True


def ffamily_exists(g: MultiGraph, m) -> bool:
    """True iff the perfect matching m (edge ids) carries an F-family: some
    four nonempty m-balanced sets pass `ffamily_holds`."""
    balanced = balanced_subsets(g, m)
    return any(ffamily_holds(g, m, members, balanced)
               for members in combinations(balanced - {frozenset()}, 4))


def slot_ffamilies(g: CubicGraph, m: PerfectMatching, budget: Budget) -> Iterator[FFamily]:
    """Every F-family for m in canonical order, by the former slot search of the library.

    The reference for the order the library yields: member labels for
    m-edges on an explicit stack.

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


def c5_structured_graph(k: int, seed: int) -> CubicGraph:
    """k disjoint 5-cycles (k even) joined by a random perfect matching with no
    edge inside a cycle, its vertex and edge ids shuffled: a simple cubic
    graph with a chordless-C5 2-factor."""
    rng = random.Random(seed)
    n = 5 * k
    while True:
        ends = list(range(n))
        rng.shuffle(ends)
        joins = list(zip(ends[::2], ends[1::2]))
        if all(u // 5 != w // 5 for u, w in joins):
            break
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[u], label[w]) for u, w in
             [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(k) for i in range(5)] + joins]
    rng.shuffle(edges)
    return CubicGraph(n, edges)


def leaves_chordless_c5s(g: MultiGraph, m: frozenset[int]) -> bool:
    """True iff the perfect matching m of the cubic g leaves a 2-factor of
    chordless 5-cycles: each component of G - m has five vertices, and no
    matching edge joins a vertex to one of its own cycle other than its
    two neighbours there."""
    cycle_of = {v: set(c) for c in _components(g, m) for v in c}
    for e in m:
        u, w = g.endpoints(e)
        for v, mate in ((u, w), (w, u)):
            beside = {g.other_end(f, v) for f in g.incident(v) if f != e}
            if len(cycle_of[v]) != 5 or mate in cycle_of[v] - beside:
                return False
    return True


def first_c5_two_factor(g: MultiGraph) -> frozenset[int] | None:
    """The first perfect matching in canonical order that leaves chordless
    5-cycles.  The matchings come from `naive_perfect_matchings`, sorted:
    subset enumeration is out of reach beyond 12 vertices."""
    return next((m for m in sorted(naive_perfect_matchings(g), key=lambda s: tuple(sorted(s)))
                 if leaves_chordless_c5s(g, m)), None)
