"""Constructors for the named cubic graphs and the dot product operation.

Every generator is deterministic: the same parameters always produce the
identical vertex numbering and edge-id order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import CubicGraph, GraphError


@dataclass(frozen=True)
class NamedVertexMap:
    """Bijection between human-readable vertex labels and vertex ids."""

    names: dict[str, int]

    def __post_init__(self) -> None:
        if len(set(self.names.values())) != len(self.names):
            raise GraphError("vertex labels must map to distinct ids")

    def __getitem__(self, label: str) -> int:
        return self.names[label]


def petersen() -> CubicGraph:
    """The Petersen graph.

    Vertices 0-4 form the outer 5-cycle, 5-9 the inner pentagram
    (i+5 adjacent to ((i+2) mod 5)+5), spokes join i and i+5.
    Edge ids: outer 0-4, inner 5-9, spokes 10-14.
    """
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return CubicGraph(10, edges)


def flower_snark(k: int) -> CubicGraph:
    """The flower graph J_k on 4k vertices (odd k >= 3).

    Vertex numbering: x_i = i, y_i = k+i, z_i = 2k+i, t_i = 3k+i.
    The x's form an induced k-cycle, the y's followed by the z's an induced
    2k-cycle, and each t_i is joined to x_i, y_i and z_i (the claw C_i).
    """
    if k < 3 or k % 2 == 0:
        raise GraphError(f"flower graph needs an odd k >= 3, got {k}")
    x = lambda i: i
    y = lambda i: k + i
    z = lambda i: 2 * k + i
    t = lambda i: 3 * k + i
    edges = [(x(i), x((i + 1) % k)) for i in range(k)]
    edges += [(y(i), y(i + 1)) for i in range(k - 1)]
    edges.append((y(k - 1), z(0)))
    edges += [(z(i), z(i + 1)) for i in range(k - 1)]
    edges.append((z(k - 1), y(0)))
    for i in range(k):
        edges += [(t(i), x(i)), (t(i), y(i)), (t(i), z(i))]
    return CubicGraph(4 * k, edges)


def flower_snark_names(k: int) -> NamedVertexMap:
    names = {}
    for i in range(k):
        names[f"x{i}"] = i
        names[f"y{i}"] = k + i
        names[f"z{i}"] = 2 * k + i
        names[f"t{i}"] = 3 * k + i
    return NamedVertexMap(names)


# Eight-vertex block of the Goldberg graphs.  The five link vertices
# (a, c, e, f, h) must have internal degree one and b, d, g internal
# degree three, which leaves exactly two simple block shapes.  The block
# and the closing identification below are the lexicographically least
# variant, over all block shapes and boundary identifications, whose
# assembled G_3 and G_5 are connected, bridgeless and class 2; no variant
# at all is additionally cyclically 4-edge-connected (see the test suite).
# Block: triangle b-d-g with pendants a, c, e on b, d, g plus the edge
# f-h.  Link families run straight (same letter) between consecutive
# blocks; the closing boundary identifies c, e, f cyclically
# (c -> f, e -> c, f -> e).
_GOLDBERG_OFFSETS = {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4, "f": 5, "g": 6, "h": 7}
_GOLDBERG_BLOCK = [
    ("b", "d"),
    ("d", "g"),
    ("b", "g"),
    ("a", "b"),
    ("c", "d"),
    ("e", "g"),
    ("f", "h"),
]
_GOLDBERG_LINKS = ("a", "c", "e", "f", "h")
_GOLDBERG_SEAM = {"a": "a", "c": "f", "e": "c", "f": "e", "h": "h"}


def goldberg(k: int) -> CubicGraph:
    """The Goldberg graph G_k on 8k vertices (odd k >= 3).

    k blocks of eight vertices a_i..h_i (a_i = 8i, ..., h_i = 8i+7) are
    linked by the edge families a_i a_{i+1}, c_i c_{i+1}, e_i e_{i+1},
    f_i f_{i+1} and h_i h_{i+1}; the closing boundary from block k-1 back
    to block 0 identifies the c/e/f ends cyclically.  G_3 and G_5 are
    class 2; the latter plays the role of the Goldberg snark here.
    """
    if k < 3 or k % 2 == 0:
        raise GraphError(f"Goldberg graph needs an odd k >= 3, got {k}")
    edges = []
    for i in range(k):
        base = 8 * i
        for p, q in _GOLDBERG_BLOCK:
            edges.append((base + _GOLDBERG_OFFSETS[p], base + _GOLDBERG_OFFSETS[q]))
    for i in range(k):
        for lab in _GOLDBERG_LINKS:
            target = lab if i < k - 1 else _GOLDBERG_SEAM[lab]
            edges.append((8 * i + _GOLDBERG_OFFSETS[lab],
                          8 * ((i + 1) % k) + _GOLDBERG_OFFSETS[target]))
    return CubicGraph(8 * k, edges)


def goldberg_names(k: int) -> NamedVertexMap:
    names = {}
    for i in range(k):
        for lab, off in _GOLDBERG_OFFSETS.items():
            names[f"{lab}{i}"] = 8 * i + off
    return NamedVertexMap(names)


def theta() -> CubicGraph:
    """Two vertices joined by three parallel edges."""
    return CubicGraph(2, [(0, 1), (0, 1), (0, 1)])


def k4() -> CubicGraph:
    return CubicGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])


def k33() -> CubicGraph:
    """Complete bipartite K_{3,3}; parts {0,1,2} and {3,4,5}."""
    return CubicGraph(6, [(u, v) for u in range(3) for v in range(3, 6)])


def cube_q3() -> CubicGraph:
    """The 3-cube; vertex i is the bit vector of i, edges flip one bit."""
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            w = v ^ bit
            if v < w:
                edges.append((v, w))
    return CubicGraph(8, edges)


def doubled_matching_cycle(m: int) -> CubicGraph:
    """Even cycle v0..v_{m-1} with the matching edges v_{2i} v_{2i+1} doubled.

    Edge ids: the m cycle edges first, then the m/2 second copies.
    """
    if m < 4 or m % 2 == 1:
        raise GraphError(f"doubled matching cycle needs an even m >= 4, got {m}")
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(2 * i, 2 * i + 1) for i in range(m // 2)]
    return CubicGraph(m, edges)


def ten_vertex_c5_example() -> CubicGraph:
    """Two 5-cycles abcde (0-4) and 12345 (5-9) plus a2, b4, c3, d5, e1.

    The cross edges are (0,6), (1,8), (2,7), (3,9), (4,5); digit vertex
    "j" is 4 + j.
    """
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    edges += [(0, 6), (1, 8), (2, 7), (3, 9), (4, 5)]
    return CubicGraph(10, edges)


def ten_vertex_c5_names() -> NamedVertexMap:
    names = {lab: i for i, lab in enumerate("abcde")}
    names.update({str(j): 4 + j for j in range(1, 6)})
    return NamedVertexMap(names)


@dataclass(frozen=True)
class DotProductSpec:
    """Parameters of a dot product G1 . G2.

    e1 = u1 v1 and e2 = u2 v2 are the non-adjacent edges removed from G1,
    e3 = x1 x2 the edge of G2 whose endpoints are removed.  y1/y2 are the
    other neighbors of x1 (receiving u1/v1), z1/z2 those of x2 (receiving
    u2/v2).  Each pair is taken in ascending vertex id: u1 < v1, u2 < v2,
    x1 < x2, y1 < y2 and z1 < z2.
    """

    e1: int
    e2: int
    e3: int


@dataclass(frozen=True)
class DotProductResult:
    """A dot product together with edge and vertex provenance.

    g2_vertices maps g2's surviving vertex ids to output ids (g1's keep
    theirs); g1_edges / g2_edges map surviving source edge ids to output
    edge ids; new_edges lists the four joining edges (u1y1, v1y2, u2z1, v2z2).
    """

    graph: CubicGraph
    g2_vertices: dict[int, int]
    g1_edges: dict[int, int]
    g2_edges: dict[int, int]
    new_edges: tuple[int, int, int, int]


def dot_product(g1: CubicGraph, g2: CubicGraph, spec: DotProductSpec) -> DotProductResult:
    """The dot product of g1 and g2 under the given spec.

    Removes e1, e2 from g1 and the endpoints of e3 from g2, then joins the
    loose ends with four new edges.  Output vertex order: g1's vertices
    keep their ids, g2's surviving vertices follow in ascending order.
    Output edge order: g1's surviving edges (ascending), then g2's, then
    the four new edges.
    """
    if spec.e1 == spec.e2:
        raise GraphError("e1 and e2 must be distinct")
    u1, v1 = sorted(g1.endpoints(spec.e1))
    u2, v2 = sorted(g1.endpoints(spec.e2))
    if {u1, v1} & {u2, v2}:
        raise GraphError("e1 and e2 must not share endpoints")
    x1, x2 = sorted(g2.endpoints(spec.e3))

    def side_neighbors(x: int) -> list[int]:
        ends = []
        for e in g2.incident(x):
            if e == spec.e3:
                continue
            w = g2.other_end(e, x)
            if w in (x1, x2):
                raise GraphError("e3 endpoints must have no further edges between them")
            ends.append(w)
        if len(ends) != 2 or ends[0] == ends[1]:
            raise GraphError(f"endpoint {x} of e3 needs two other distinct neighbors")
        return sorted(ends)

    y1, y2 = side_neighbors(x1)
    z1, z2 = side_neighbors(x2)

    n1 = g1.num_vertices
    g2_vertices = {}
    nxt = n1
    for v in g2.vertices():
        if v in (x1, x2):
            continue
        g2_vertices[v] = nxt
        nxt += 1

    edge_list: list[tuple[int, int]] = []
    g1_edges = {}
    for eid, a, b in g1.edges:
        if eid in (spec.e1, spec.e2):
            continue
        g1_edges[eid] = len(edge_list)
        edge_list.append((a, b))
    g2_edges = {}
    for eid, a, b in g2.edges:
        if a in (x1, x2) or b in (x1, x2):
            continue
        g2_edges[eid] = len(edge_list)
        edge_list.append((g2_vertices[a], g2_vertices[b]))
    new_ids = []
    for a, b in ((u1, y1), (v1, y2), (u2, z1), (v2, z2)):
        new_ids.append(len(edge_list))
        edge_list.append((a, g2_vertices[b]))
    graph = CubicGraph(nxt, edge_list)
    return DotProductResult(graph, g2_vertices, g1_edges, g2_edges,
                            tuple(new_ids))
