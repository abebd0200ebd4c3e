"""Independent brute-force oracles used to pin expected test values.

These deliberately avoid the library's search code paths: matchings come
from subset enumeration, bridges from edge deletion plus connectivity,
colorability from matching partitions or raw assignment enumeration.
"""

from collections import Counter
from itertools import combinations, combinations_with_replacement

from fulkerson_lab.graph_core import MultiGraph


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
