"""Seeded random cubic graphs from the pairing (configuration) model.

The generator is the benchmark's own code, so the inputs do not depend on
the program under test: the same seed gives the same edge lists whatever
the library does.
"""

from __future__ import annotations

import random
from collections import deque


def _connected(n: int, adj: list[list[tuple[int, int]]], skip: int = -1) -> bool:
    """Whether the graph is connected once edge number `skip` is removed."""
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    reached = 1
    while queue:
        u = queue.popleft()
        for eid, v in adj[u]:
            if eid != skip and not seen[v]:
                seen[v] = True
                reached += 1
                queue.append(v)
    return reached == n


def random_cubic_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Sorted edge list (u < v) of a simple connected bridgeless cubic graph.

    Pairs the 3n half-edges uniformly at random and rejects the pairing
    when it makes a loop or a repeated edge, when the graph is disconnected,
    or when some edge is a bridge.  The edge at position i gets id i.
    """
    if n < 4 or n % 2:
        raise ValueError(f"a simple cubic graph needs an even n >= 4, got {n}")
    points = list(range(3 * n))
    while True:
        rng.shuffle(points)
        edges: set[tuple[int, int]] = set()
        for i in range(0, 3 * n, 2):
            u, v = sorted((points[i] // 3, points[i + 1] // 3))
            if u == v or (u, v) in edges:
                break
            edges.add((u, v))
        else:
            edge_list = sorted(edges)
            adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
            for eid, (u, v) in enumerate(edge_list):
                adj[u].append((eid, v))
                adj[v].append((eid, u))
            if _connected(n, adj) and all(_connected(n, adj, eid)
                                          for eid in range(len(edge_list))):
                return edge_list


def graph_text(n: int, edges: list[tuple[int, int]]) -> str:
    """The graph-file text of an edge list: `cubic n m`, then `id u v` lines."""
    lines = [f"cubic {n} {len(edges)}"]
    lines += [f"{eid} {u} {v}" for eid, (u, v) in enumerate(edges)]
    return "\n".join(lines) + "\n"
