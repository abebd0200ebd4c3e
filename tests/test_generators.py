import hashlib
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from fulkerson_lab.generators import (
    DotProductSpec,
    NamedVertexMap,
    cube_q3,
    dot_product,
    doubled_matching_cycle,
    flower_snark,
    flower_snark_names,
    goldberg,
    goldberg_names,
    k4,
    k33,
    petersen,
    ten_vertex_c5_example,
    ten_vertex_c5_names,
    theta,
)
from fulkerson_lab.graph_core import (
    CubicGraph,
    GraphError,
    cycle_decomposition,
    cyclic_edge_connectivity_at_least,
    is_bridgeless,
    is_connected,
)
from fulkerson_lab.matchcolor import enumerate_perfect_matchings, three_edge_coloring
from fulkerson_lab.cli import write_graph_file

from oracles import colorable_via_matching_partition


class TestPetersen:
    def test_size(self):
        g = petersen()
        assert (g.num_vertices, g.num_edges) == (10, 15)

    def test_class_two(self):
        assert three_edge_coloring(petersen()) is None

    def test_class_two_agrees_with_matching_partition_oracle(self):
        assert not colorable_via_matching_partition(petersen())

    def test_exactly_six_perfect_matchings(self):
        assert len(enumerate_perfect_matchings(petersen())) == 6

    def test_deterministic(self):
        assert petersen().edges == petersen().edges


class TestFlowerSnark:
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_sizes(self, k):
        g = flower_snark(k)
        assert (g.num_vertices, g.num_edges) == (4 * k, 6 * k)

    @pytest.mark.parametrize("k", [4, 1, 2, -3])
    def test_rejects_bad_k(self, k):
        with pytest.raises(GraphError):
            flower_snark(k)

    @pytest.mark.parametrize("k", [3, 5])
    def test_class_two(self, k):
        assert three_edge_coloring(flower_snark(k)) is None

    def test_j5_bridgeless_and_cyclically_4_connected(self):
        g = flower_snark(5)
        assert is_bridgeless(g)
        assert cyclic_edge_connectivity_at_least(g, 4)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_removing_claws_leaves_the_two_quoted_cycles(self, k):
        g = flower_snark(k)
        names = flower_snark_names(k)
        claw_vertices = {names[f"t{i}"] for i in range(k)}
        surviving = [e for e, u, v in g.edges
                     if u not in claw_vertices and v not in claw_vertices]
        cs = cycle_decomposition(g, surviving)
        assert sorted(len(c) for c in cs) == [k, 2 * k]
        x_cycle = next(c for c in cs if len(c) == k)
        assert set(x_cycle.vertices) == {names[f"x{i}"] for i in range(k)}


class TestGoldberg:
    @pytest.mark.parametrize("k", [3, 5])
    def test_sizes(self, k):
        g = goldberg(k)
        assert (g.num_vertices, g.num_edges) == (8 * k, 12 * k)

    @pytest.mark.parametrize("k", [2, 1])
    def test_rejects_bad_k(self, k):
        with pytest.raises(GraphError):
            goldberg(k)

    @pytest.mark.parametrize("k", [3, 5])
    def test_block_gate_connected_bridgeless_class_two(self, k):
        # Gate for the reconstructed block: the figure content is not
        # available in text, so the generator stands on these oracle checks.
        g = goldberg(k)
        assert is_connected(g)
        assert is_bridgeless(g)
        assert three_edge_coloring(g) is None

    def test_block_triangles_prevent_cyclic_4_connectivity(self):
        # No block satisfying the quoted inter-block families can be both
        # class 2 and cyclically 4-edge-connected (exhaustive block search);
        # the adopted block keeps class 2 and gives up the connectivity.
        assert not cyclic_edge_connectivity_at_least(goldberg(5), 4)

    def test_names_cover_all_vertices(self):
        names = goldberg_names(3)
        assert sorted(names.names.values()) == list(range(24))


class TestNamedVertexMap:
    def test_labels_map_to_distinct_ids(self):
        with pytest.raises(GraphError, match="vertex labels must map to distinct ids"):
            NamedVertexMap({"a": 0, "b": 0})


class TestSmallGraphs:
    def test_theta(self):
        g = theta()
        assert (g.num_vertices, g.num_edges) == (2, 3)

    def test_doubled_matching_cycle(self):
        g = doubled_matching_cycle(4)
        assert (g.num_vertices, g.num_edges) == (4, 6)

    def test_doubled_matching_cycle_rejects_odd(self):
        with pytest.raises(GraphError):
            doubled_matching_cycle(5)

    def test_k33_bipartite_class_one(self):
        assert three_edge_coloring(k33()) is not None

    def test_cube_class_one(self):
        assert three_edge_coloring(cube_q3()) is not None

    def test_ten_vertex_example_has_the_named_c5_two_factor(self):
        g = ten_vertex_c5_example()
        assert (g.num_vertices, g.num_edges) == (10, 15)
        names = ten_vertex_c5_names()
        cross = []
        for a, b in (("a", "2"), ("b", "4"), ("c", "3"), ("d", "5"), ("e", "1")):
            edges = g.edges_between(names[a], names[b])
            assert len(edges) == 1
            cross.append(edges[0])
        cs = cycle_decomposition(g, set(g.edge_ids()) - set(cross))
        assert sorted(len(c) for c in cs) == [5, 5]
        assert {frozenset(c.vertices) for c in cs} == {
            frozenset(names[x] for x in "abcde"),
            frozenset(names[str(j)] for j in range(1, 6)),
        }


class TestDotProduct:
    def test_petersen_dot_petersen_sizes(self):
        res = dot_product(petersen(), petersen(), DotProductSpec(e1=0, e2=2, e3=0))
        g = res.graph
        assert g.num_vertices == 18
        assert g.num_edges == 27
        assert 2 * g.num_edges == 3 * g.num_vertices

    def test_provenance_covers_all_edges(self):
        res = dot_product(petersen(), petersen(), DotProductSpec(e1=0, e2=2, e3=0))
        mapped = set(res.g1_edges.values()) | set(res.g2_edges.values()) | set(res.new_edges)
        assert mapped == set(res.graph.edge_ids())
        assert len(res.g1_edges) == 13
        assert len(res.g2_edges) == 10
        assert len(res.new_edges) == 4

    def test_rejects_adjacent_e1_e2(self):
        with pytest.raises(GraphError):
            dot_product(petersen(), petersen(), DotProductSpec(e1=0, e2=1, e3=0))

    def test_rejects_equal_e1_e2(self):
        with pytest.raises(GraphError):
            dot_product(petersen(), petersen(), DotProductSpec(e1=0, e2=0, e3=0))

    def test_rejects_bad_e3_on_theta(self):
        # every non-e3 edge at the theta endpoints returns to the other endpoint
        with pytest.raises(GraphError):
            dot_product(petersen(), theta(), DotProductSpec(e1=0, e2=2, e3=0))

    def test_rejects_an_e3_end_with_a_double_edge(self):
        # e3 = 0 joins 0 and 1; vertex 0's two other edges both go to 2
        g2 = CubicGraph(4, [(0, 1), (0, 2), (0, 2), (1, 3), (1, 3), (2, 3)])
        with pytest.raises(GraphError, match="endpoint 0 of e3 needs two other distinct"):
            dot_product(petersen(), g2, DotProductSpec(e1=0, e2=2, e3=0))

    def test_first_spec_yields_a_snark(self):
        res = dot_product(petersen(), petersen(), DotProductSpec(e1=0, e2=2, e3=0))
        assert three_edge_coloring(res.graph) is None
        assert cyclic_edge_connectivity_at_least(res.graph, 4)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bridgeless_inputs_give_bridgeless_outputs(self, data):
        pool = [petersen(), flower_snark(3), k33(), cube_q3()]
        g1 = data.draw(st.sampled_from(pool))
        g2 = data.draw(st.sampled_from(pool))
        e1 = data.draw(st.integers(0, g1.num_edges - 1))
        candidates = [e for e in g1.edge_ids()
                      if e != e1 and not set(g1.endpoints(e)) & set(g1.endpoints(e1))]
        if not candidates:
            return
        e2 = data.draw(st.sampled_from(candidates))
        e3 = data.draw(st.integers(0, g2.num_edges - 1))
        res = dot_product(g1, g2, DotProductSpec(e1=e1, e2=e2, e3=e3))
        assert is_bridgeless(res.graph)

    def test_spec_holds_only_the_three_edges(self):
        assert [f.name for f in fields(DotProductSpec)] == ["e1", "e2", "e3"]

    def test_joins_pair_each_side_in_ascending_vertex_id(self):
        # e1 = 0 1 and e2 = 2 3 of Petersen; e3 = 0 1 of K4, whose ends
        # have the neighbours 2 3 (x1 = 0) and 2 3 (x2 = 1), now 10 and 11
        res = dot_product(petersen(), k4(), DotProductSpec(e1=0, e2=2, e3=0))
        joins = [res.graph.endpoints(e) for e in res.new_edges]
        assert joins == [(0, 10), (1, 11), (2, 10), (3, 11)]


@pytest.mark.parametrize("make", [petersen, theta, k4, k33, cube_q3,
                                  lambda: flower_snark(5), lambda: goldberg(3),
                                  lambda: doubled_matching_cycle(6),
                                  ten_vertex_c5_example])
def test_every_generator_is_cubic_with_matching_size(make):
    g = make()
    assert 2 * g.num_edges == 3 * g.num_vertices
    assert all(g.degree(v) == 3 for v in g.vertices())


# Every certificate names edge ids, so the snark families' edge lists are
# pinned byte for byte, as the graph file `gen` writes.
EDGE_LIST_SHA256 = {
    (flower_snark, 3): "bba5240fd17756c391ef780df06eb95731a8602242b0354931bb53e5c3c5a847",
    (flower_snark, 5): "7436cfd1c0f6ade96dfcd53aac56a95231e4011d75df54833f33d7854bd4003c",
    (flower_snark, 7): "d1a168fc011f1c1d66d44e452beb507bac2ea54fa7a449741641e1ec5c45e1f6",
    (flower_snark, 9): "a3a3a623b08e3baa08b93999329087638b3125650e3dd5f6f86e2af560380a44",
    (flower_snark, 101): "620e318fbceda5242ffa1cc1f02a6888132c0384d54b81306ef575cde91a682e",
    (goldberg, 3): "e97844597e56dc228d8225ce98db52a201e05b539ef4c45ca17ef7bf89a02e6d",
    (goldberg, 5): "747dc7d9caf27bfa5da4ed6c7d5c5876edd75487539f8a5f49427d529565901a",
    (goldberg, 7): "d5345b8107efe8856db841346f922152c1dd60b9b0d4824807e733c2f6d59f1d",
    (goldberg, 9): "71945d3c627f14c7ea78e926ed4e299ebc7658adf7154887e23c451b7839016a",
    (goldberg, 101): "3292bfb8acb06a0b42cde96c06260cb458c16a8b8f72801a78038b36a5b2901b",
}


@pytest.mark.parametrize("make,k", list(EDGE_LIST_SHA256),
                         ids=[f"{make.__name__}-{k}" for make, k in EDGE_LIST_SHA256])
def test_snark_edge_lists_are_pinned(make, k):
    digest = hashlib.sha256(write_graph_file(make(k)).encode()).hexdigest()
    assert digest == EDGE_LIST_SHA256[make, k]
