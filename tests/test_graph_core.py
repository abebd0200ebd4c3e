import pytest
from hypothesis import given, settings, strategies as st

from fulkerson_lab.graph_core import (
    CubicGraph,
    EdgeSet,
    GraphError,
    Matching,
    MultiGraph,
    _feedback_vertices,
    cycle_decomposition,
    cyclic_edge_connectivity_at_least,
    degree,
    is_bipartite,
    is_bridgeless,
    is_connected,
)
from fulkerson_lab.generators import (
    cube_q3,
    doubled_matching_cycle,
    flower_snark,
    goldberg,
    k4,
    k33,
    petersen,
    ten_vertex_c5_example,
    theta,
)
from fulkerson_lab.matchcolor import enumerate_perfect_matchings, shrink_to_gstar, two_factor_cycles

from oracles import (
    _components,
    _has_cycle_component,
    brute_force_perfect_matchings,
    naive_cyclic_edge_connectivity_at_least,
    naive_is_bridgeless,
    random_cubic_multigraph,
    seeded_cubic_multigraph,
)


ALL_GENERATORS = [theta, k4, k33, cube_q3, petersen, ten_vertex_c5_example,
                  lambda: doubled_matching_cycle(4), lambda: doubled_matching_cycle(6),
                  lambda: flower_snark(3), lambda: flower_snark(5)]


def petersen_gstar():
    g = petersen()
    m = enumerate_perfect_matchings(g)[0]
    return shrink_to_gstar(g, m, two_factor_cycles(g, m)).graph


class TestMultiGraph:
    def test_dense_edge_ids_and_adjacency(self):
        g = theta()
        assert list(g.edge_ids()) == [0, 1, 2]
        assert g.incident(0) == (0, 1, 2)
        assert g.incident(1) == (0, 1, 2)

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(GraphError):
            MultiGraph(2, [(0, 5)])

    def test_cubic_rejects_wrong_degree(self):
        with pytest.raises(GraphError):
            CubicGraph(2, [(0, 1), (0, 1)])

    def test_cubic_rejects_loops(self):
        with pytest.raises(GraphError):
            CubicGraph(2, [(0, 0), (0, 1), (1, 1)])

    def test_rejects_a_negative_vertex_count(self):
        with pytest.raises(GraphError, match="vertex count must be non-negative"):
            MultiGraph(-1, [])

    def test_other_end_refuses_a_vertex_off_the_edge(self):
        g = petersen()
        v = next(v for v in g.vertices() if v not in g.endpoints(0))
        with pytest.raises(GraphError, match=f"vertex {v} is not an endpoint of edge 0"):
            g.other_end(0, v)

    def test_incident_refuses_an_unknown_vertex(self):
        with pytest.raises(GraphError, match="unknown vertex 10"):
            petersen().incident(10)

    def test_a_matching_holds_no_loop(self):
        with pytest.raises(GraphError, match="loop 1 cannot belong to a matching"):
            Matching(MultiGraph(2, [(0, 1), (0, 0)]), [1])

    def test_equality_is_structural(self):
        assert theta() == theta()
        assert petersen() == petersen()
        assert theta() != k4()


class TestDegree:
    def test_theta_both_vertices(self):
        g = theta()
        assert degree(g, 0) == 3
        assert degree(g, 1) == 3

    def test_petersen_is_cubic(self):
        g = petersen()
        assert all(degree(g, v) == 3 for v in g.vertices())

    def test_contracted_petersen_has_degree_five(self):
        gs = petersen_gstar()
        assert gs.num_vertices == 2
        assert degree(gs, 0) == 5
        assert degree(gs, 1) == 5

    def test_loop_counts_twice(self):
        g = MultiGraph(2, [(0, 0), (0, 1)])
        assert degree(g, 0) == 3

    def test_unknown_vertex(self):
        with pytest.raises(GraphError):
            degree(theta(), 7)


class TestBridgeless:
    def test_k4_true(self):
        assert is_bridgeless(k4())

    def test_two_triangles_joined_by_edge_false(self):
        g = MultiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        assert not is_bridgeless(g)

    def test_flower_snark_j5_true(self):
        assert is_bridgeless(flower_snark(5))

    def test_disconnected_is_an_error(self):
        g = MultiGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            is_bridgeless(g)

    @pytest.mark.parametrize("make", ALL_GENERATORS)
    def test_agrees_with_naive_oracle_on_generators(self, make):
        g = make()
        assert is_bridgeless(g) == naive_is_bridgeless(g)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_naive_oracle_on_random_graphs(self, data):
        n = data.draw(st.integers(min_value=2, max_value=12))
        # spanning tree plus random extra edges keeps it connected
        edges = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        extra = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=14))
        edges += [(u, v) for u, v in extra if u != v]
        g = MultiGraph(n, edges)
        assert is_bridgeless(g) == naive_is_bridgeless(g)


class TestBipartite:
    def test_contracted_petersen_true(self):
        assert is_bipartite(petersen_gstar())

    def test_k4_false(self):
        assert not is_bipartite(k4())

    def test_k33_true(self):
        assert is_bipartite(k33())

    def test_loop_false(self):
        assert not is_bipartite(MultiGraph(1, [(0, 0)]))


class TestCyclicEdgeConnectivity:
    def test_petersen_at_least_four_and_five(self):
        g = petersen()
        assert cyclic_edge_connectivity_at_least(g, 4)
        assert cyclic_edge_connectivity_at_least(g, 5)

    def test_j3_fails_four(self):
        assert not cyclic_edge_connectivity_at_least(flower_snark(3), 4)

    def test_j3_triangle_boundary_is_a_cyclic_cut(self):
        # Independent witness: removing the three claw edges at the x-triangle
        # separates two cycle-bearing parts.
        g = flower_snark(3)
        cut = {e for e, u, v in g.edges if {u, v} & {0, 1, 2} and not {u, v} <= {0, 1, 2}}
        assert len(cut) == 3
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for e in g.incident(v):
                if e in cut:
                    continue
                w = g.other_end(e, v)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == {0, 1, 2}

    def test_theta_vacuous_case(self):
        assert cyclic_edge_connectivity_at_least(theta(), 1)

    def test_monotone_in_k(self):
        g = petersen()
        values = [cyclic_edge_connectivity_at_least(g, k) for k in range(1, 7)]
        assert values == sorted(values, reverse=True)

    def test_rejects_bad_k(self):
        with pytest.raises(GraphError):
            cyclic_edge_connectivity_at_least(petersen(), 9)

    @pytest.mark.parametrize("g", [
        MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        MultiGraph(2, [(0, 0), (0, 1), (1, 1)]),
    ], ids=["four_cycle", "loops"])
    def test_rejects_non_cubic_input(self, g):
        with pytest.raises(GraphError):
            cyclic_edge_connectivity_at_least(g, 4)

    def test_rejects_disconnected_input(self):
        with pytest.raises(GraphError):
            cyclic_edge_connectivity_at_least(CubicGraph(4, [(0, 1)] * 3 + [(2, 3)] * 3), 2)

    def test_covered_passes_are_skipped(self, monkeypatch):
        # at k = 4 pass 3 covers passes 1 and 2, so only its flows run
        import fulkerson_lab.graph_core as graph_core

        flows = []
        splits = graph_core._splits_cyclically
        monkeypatch.setattr(graph_core, "_splits_cyclically",
                            lambda *args: flows.append(args[4]) or splits(*args))
        assert cyclic_edge_connectivity_at_least(flower_snark(51), 4)
        assert len(flows) == 154 and set(flows) == {3}

    def test_edgeless_graph_has_no_cyclic_cut(self):
        assert cyclic_edge_connectivity_at_least(CubicGraph(0, []), 6)


# The brute force tries every cut of fewer than k edges, which takes 0.5 to
# 35 s on J5 from k = 5 and on J7 from k = 4; these values come from one run
# of `naive_cyclic_edge_connectivity_at_least` and are pinned.
PINNED_ORACLE = {("J5", 5): True, ("J5", 6): False,
                 ("J7", 4): True, ("J7", 5): True, ("J7", 6): True}


def oracle_by_k(g, name=None):
    """The brute force at k = 1..6.  A cut of fewer than k edges has fewer
    than k + 1 too, so after the first False every value is False."""
    values = []
    for k in range(1, 7):
        if values and not values[-1]:
            values.append(False)
        elif (name, k) in PINNED_ORACLE:
            values.append(PINNED_ORACLE[name, k])
        else:
            values.append(naive_cyclic_edge_connectivity_at_least(g, k))
    return values


NAMED_GRAPHS = {
    "petersen": petersen, "J3": lambda: flower_snark(3), "J5": lambda: flower_snark(5),
    "J7": lambda: flower_snark(7), "theta": theta, "K4": k4, "K33": k33, "Q3": cube_q3,
    "G5": lambda: goldberg(5), "dmc6": lambda: doubled_matching_cycle(6),
    "ten_vertex": ten_vertex_c5_example,
}


class TestCyclicEdgeConnectivityOracle:
    @pytest.mark.parametrize("name", NAMED_GRAPHS)
    def test_agrees_with_brute_force_on_named_graphs(self, name):
        g = NAMED_GRAPHS[name]()
        values = [cyclic_edge_connectivity_at_least(g, k) for k in range(1, 7)]
        assert values == oracle_by_k(g, name)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_agrees_with_brute_force_on_random_multigraphs(self, data):
        g = random_cubic_multigraph(data, max_order=12)
        values = [cyclic_edge_connectivity_at_least(g, k) for k in range(1, 7)]
        assert values == oracle_by_k(g)


class TestFeedbackSinks:
    """A pass pairs the source seeds only with the sink seeds that meet the
    greedy feedback vertex set; D = V gives back every sink seed."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_removing_the_feedback_vertices_leaves_a_forest(self, data):
        # parallel edges stay in the pairing model, so digons are drawn often
        g = random_cubic_multigraph(data, max_order=16)
        cut = frozenset(e for e, u, v in g.edges if {u, v} & _feedback_vertices(g))
        assert not any(_has_cycle_component(g, comp, cut) for comp in _components(g, cut))

    def test_a_digon_is_a_cycle(self):
        assert _feedback_vertices(doubled_matching_cycle(4)) != frozenset()
        assert _feedback_vertices(theta()) == frozenset({1})

    @pytest.mark.parametrize("k,size", [(9, 10), (51, 52)])
    def test_size_on_flower_snarks(self, k, size):
        # a feedback vertex set of a cubic graph has at least (n + 2) / 4 vertices
        assert len(_feedback_vertices(flower_snark(k))) == size

    @pytest.mark.parametrize("g", [
        *(pytest.param(seeded_cubic_multigraph(n, seed), id=f"n{n}-seed{seed}")
          for n in (16, 24, 32, 40) for seed in range(10)),
        pytest.param(flower_snark(9), id="J9"),
    ])
    def test_agrees_with_every_sink_seed(self, g, monkeypatch):
        # past the brute force's reach: the old seed family, D = V, is the reference
        import fulkerson_lab.graph_core as graph_core

        values = [cyclic_edge_connectivity_at_least(g, k) for k in range(1, 7)]
        monkeypatch.setattr(graph_core, "_feedback_vertices", lambda g: frozenset(g.vertices()))
        assert values == [cyclic_edge_connectivity_at_least(g, k) for k in range(1, 7)]


class TestCycleDecomposition:
    def test_c6_all_edges_is_one_hexagon(self):
        g = MultiGraph(6, [(i, (i + 1) % 6) for i in range(6)])
        cs = cycle_decomposition(g, range(6))
        assert len(cs) == 1
        assert len(cs.cycles[0]) == 6

    def test_petersen_matching_complement_is_two_pentagons(self):
        g = petersen()
        for m in enumerate_perfect_matchings(g):
            cs = cycle_decomposition(g, set(g.edge_ids()) - m.members)
            assert sorted(len(c) for c in cs) == [5, 5]

    def test_matching_alone_is_an_error(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        with pytest.raises(GraphError):
            cycle_decomposition(g, m.members)

    def test_covers_input_exactly(self):
        g = cube_q3()
        m = enumerate_perfect_matchings(g)[0]
        rest = set(g.edge_ids()) - m.members
        cs = cycle_decomposition(g, rest)
        assert cs.covered_edges() == frozenset(rest)

    def test_deterministic_canonical_order(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        rest = set(g.edge_ids()) - m.members
        c1 = cycle_decomposition(g, rest)
        c2 = cycle_decomposition(g, rest)
        assert c1 == c2
        assert all(c.vertices[0] == min(c.vertices) for c in c1)

    def test_parallel_edges_make_a_digon(self):
        g = doubled_matching_cycle(4)
        cs = cycle_decomposition(g, [0, 4])
        assert len(cs) == 1
        assert len(cs.cycles[0]) == 2

    @pytest.mark.parametrize("n,edges,message", [
        # the lowest loop is named, even where a vertex has a bad degree
        (4, [(0, 1), (2, 2), (1, 1), (3, 0)], "loop 1 admits no cycle decomposition here"),
        # the bad vertex named is the first that the edges, ascending, reach
        (4, [(3, 2), (0, 1), (1, 2)], "vertex 3 has degree 1 in the edge set, expected 2"),
        (3, [(0, 2), (0, 1)], "vertex 2 has degree 1 in the edge set, expected 2"),
        (4, [(1, 0), (0, 2), (0, 3), (2, 3)], "vertex 1 has degree 1 in the edge set, expected 2"),
    ])
    def test_errors_name_the_first_loop_or_vertex(self, n, edges, message):
        with pytest.raises(GraphError) as exc:
            cycle_decomposition(MultiGraph(n, edges), range(len(edges)))
        assert str(exc.value) == message

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_place_locates_each_vertex_on_its_cycle(self, data):
        g = random_cubic_multigraph(data, max_order=10)
        for m in brute_force_perfect_matchings(g):
            factor = two_factor_cycles(g, m)
            assert all(factor.place[v] is not None for v in g.vertices())
            for v, (i, p) in enumerate(factor.place):
                assert factor.cycles[i].vertices[p] == v
            one = cycle_decomposition(g, factor.cycles[0].edges)
            assert ([v for v in g.vertices() if one.place[v] is not None]
                    == sorted(factor.cycles[0].vertices))

    @pytest.mark.parametrize("bad", [15, -1])
    def test_edge_id_outside_the_graph_is_an_error(self, bad):
        with pytest.raises(GraphError, match=f"edge id {bad} not in host graph"):
            cycle_decomposition(petersen(), [bad])


class TestEdgeSets:
    def test_edge_set_validates_membership(self):
        with pytest.raises(GraphError):
            EdgeSet(theta(), [7])

    def test_matching_rejects_shared_vertex(self):
        with pytest.raises(GraphError):
            Matching(k4(), [0, 1])

    def test_parallel_edges_have_distinct_ids(self):
        g = theta()
        assert g.edges_between(0, 1) == (0, 1, 2)


@pytest.mark.parametrize("make", ALL_GENERATORS)
def test_handshake_and_cubic_size(make):
    g = make()
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges
    assert 2 * g.num_edges == 3 * g.num_vertices


@pytest.mark.parametrize("make", ALL_GENERATORS)
def test_generators_connected(make):
    assert is_connected(make())
