import random
import weakref
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from fulkerson_lab.budget import Budget
from fulkerson_lab.generators import (
    cube_q3,
    doubled_matching_cycle,
    flower_snark,
    goldberg,
    k4,
    k33,
    petersen,
    ten_vertex_c5_example,
    ten_vertex_c5_names,
    theta,
)
from fulkerson_lab.graph_core import (
    CubicGraph,
    EdgeSet,
    GraphError,
    Matching,
    MultiGraph,
    cycle_decomposition,
)
from fulkerson_lab import matchcolor
from fulkerson_lab.matchcolor import (
    NODES_PER_MATCHING,
    EdgeColoring,
    PerfectMatching,
    _canonical_matchings,
    _first_coloring,
    color_classes_as_matchings,
    enumerate_perfect_matchings,
    enumerate_three_edge_colorings,
    find_c5_two_factor,
    find_perfect_matching,
    five_edge_coloring,
    is_m_balanced,
    kempe_exchange,
    phi_two_factor,
    shrink_to_gstar,
    split_and_suppress,
    three_edge_colorable,
    three_edge_coloring,
    two_factor_cycles,
)

from oracles import (
    SearchCounts,
    balanced_subsets,
    brute_force_perfect_matchings,
    c5_structured_graph,
    colorable_via_matching_partition,
    count_proper_colorings,
    first_c5_two_factor,
    leaves_chordless_c5s,
    naive_perfect_matchings,
    random_cubic_multigraph,
    seeded_cubic_multigraph,
)


def three_bridges(gadget: CubicGraph) -> CubicGraph:
    """A centre joined by three bridges to three copies of `gadget`, each with
    edge 0 subdivided to take its bridge.  Every copy has an odd number of
    vertices, so deleting the centre leaves three odd components and (by
    Tutte's theorem) the cubic graph has no perfect matching."""
    n = gadget.num_vertices + 1
    edges = []
    for k in range(3):
        off = 1 + k * n
        mid = off + n - 1
        for e, u, v in gadget.edges:
            if e == 0:
                edges += [(off + u, mid), (mid, off + v), (0, mid)]
            else:
                edges.append((off + u, off + v))
    return CubicGraph(1 + 3 * n, edges)


class TestEnumeratePerfectMatchings:
    @pytest.mark.parametrize("make,count", [
        (petersen, 6), (k4, 3), (theta, 3), (k33, 6), (cube_q3, 9),
    ])
    def test_counts(self, make, count):
        enum = enumerate_perfect_matchings(make())
        assert len(enum) == count
        assert not enum.truncated

    @pytest.mark.parametrize("make", [petersen, k4, theta, k33, cube_q3,
                                      lambda: doubled_matching_cycle(6)])
    def test_agrees_with_brute_force(self, make):
        g = make()
        got = [m.members for m in enumerate_perfect_matchings(g)]
        assert got == brute_force_perfect_matchings(g)

    def test_canonical_lexicographic_order(self):
        enum = enumerate_perfect_matchings(petersen())
        keys = [tuple(sorted(m.members)) for m in enum]
        assert keys == sorted(keys)

    def test_truncation_flag(self):
        enum = enumerate_perfect_matchings(petersen(), limit=2)
        assert len(enum) == 2
        assert enum.truncated

    @pytest.mark.parametrize("make,count", [(petersen, 6), (k4, 3)])
    def test_limit_equal_to_count_is_not_truncated(self, make, count):
        enum = enumerate_perfect_matchings(make(), limit=count)
        assert len(enum) == count
        assert not enum.truncated

    @pytest.mark.parametrize("make", [petersen, lambda: flower_snark(7), lambda: goldberg(5)],
                             ids=["petersen", "J7", "G5"])
    def test_a_limit_keeps_the_canonical_prefix(self, make):
        g = make()
        full = [m.members for m in enumerate_perfect_matchings(g)]
        for k in range(1, min(len(full), 100) + 1):
            enum = enumerate_perfect_matchings(g, limit=k)
            assert [m.members for m in enum] == full[:k]
            assert enum.truncated == (k < len(full))

    def test_a_negative_limit_is_refused(self):
        with pytest.raises(GraphError):
            enumerate_perfect_matchings(petersen(), limit=-1)
        record = matchcolor._MatchingRecord(petersen(), None)
        assert record.reach(4)  # five drawn
        with pytest.raises(GraphError):
            record.listing(-2)

    def test_limit_at_least_count_finds_the_same_set(self):
        full = {m.members for m in enumerate_perfect_matchings(petersen())}
        capped = {m.members for m in enumerate_perfect_matchings(petersen(), limit=6)}
        assert capped == full

    def test_every_matching_saturates(self):
        for g in (petersen(), cube_q3(), flower_snark(3)):
            for m in enumerate_perfect_matchings(g):
                assert len(m) * 2 == g.num_vertices


class TestFindPerfectMatching:
    @pytest.mark.parametrize("make", [petersen, lambda: flower_snark(5), lambda: goldberg(5)],
                             ids=["petersen", "J5", "G5"])
    def test_first_in_canonical_order(self, make):
        g = make()
        assert find_perfect_matching(g) == enumerate_perfect_matchings(g)[0]

    def test_every_petersen_edge_extends(self):
        g = petersen()
        for e in g.edge_ids():
            assert find_perfect_matching(g, [e]) is not None

    def test_k4_excluding_the_complement_fails(self):
        g = k4()
        e = 0
        disjoint = [x for x in g.edge_ids()
                    if not set(g.endpoints(x)) & set(g.endpoints(e))]
        assert find_perfect_matching(g, [e], disjoint) is None

    def test_full_matching_is_identity(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        found = find_perfect_matching(g, m)
        assert found.members == m.members

    def test_rejects_non_matching_include(self):
        with pytest.raises(GraphError):
            find_perfect_matching(k4(), [0, 1])

    def test_rejects_overlapping_exclude(self):
        with pytest.raises(GraphError):
            find_perfect_matching(k4(), [0], [0])

    def test_rejects_exclude_ids_outside_the_graph(self):
        with pytest.raises(GraphError):
            find_perfect_matching(petersen(), exclude=[999])

    def test_rejects_exclude_set_of_another_graph(self):
        with pytest.raises(GraphError):
            find_perfect_matching(petersen(), exclude=EdgeSet(k4(), [0, 1, 2]))

    # The first matchings in canonical order.  J15, J17 and J19 were pinned
    # from the depth-first search, whose first matching is the canonical
    # one there; G7 was re-pinned when the canonical order took over.
    @pytest.mark.parametrize("make,first", [
        (lambda: flower_snark(15),
         [0, 2, 4, 6, 8, 10, 12, 16, 18, 20, 22, 24, 26, 28, 44, 47, 50, 53, 56, 59, 62, 65,
          68, 71, 74, 77, 80, 83, 86, 87]),
        (lambda: flower_snark(17),
         [0, 2, 4, 6, 8, 10, 12, 14, 18, 20, 22, 24, 26, 28, 30, 32, 50, 53, 56, 59, 62, 65,
          68, 71, 74, 77, 80, 83, 86, 89, 92, 95, 98, 99]),
        (lambda: flower_snark(19),
         [0, 2, 4, 6, 8, 10, 12, 14, 16, 20, 22, 24, 26, 28, 30, 32, 34, 36, 56, 59, 62, 65,
          68, 71, 74, 77, 80, 83, 86, 89, 92, 95, 98, 101, 104, 107, 110, 111]),
        (lambda: goldberg(7),
         [0, 5, 6, 7, 12, 13, 14, 19, 20, 21, 26, 27, 28, 33, 34, 35, 40, 41, 43, 45, 48, 49,
          55, 59, 65, 69, 75, 81]),
    ])
    def test_pinned_first_matchings(self, make, first):
        assert sorted(find_perfect_matching(make()).members) == first

    def test_flower_snark_51(self):
        assert isinstance(find_perfect_matching(flower_snark(51)), PerfectMatching)

    @pytest.mark.parametrize("gadget", [k4, lambda: goldberg(5)], ids=["16", "124"])
    def test_no_perfect_matching_is_decided_up_front(self, gadget):
        g = three_bridges(gadget())
        assert find_perfect_matching(g) is None
        enum = enumerate_perfect_matchings(g)
        assert len(enum) == 0 and not enum.truncated


class TestInputChecks:
    def test_a_perfect_matching_must_saturate_every_vertex(self):
        with pytest.raises(GraphError, match="matching does not saturate every vertex"):
            PerfectMatching(petersen(), [0])

    def test_a_coloring_must_assign_every_edge(self):
        with pytest.raises(GraphError, match="coloring must assign every edge"):
            EdgeColoring(k4(), (0, 1, 2), 3)

    def test_a_coloring_stays_inside_its_palette(self):
        with pytest.raises(GraphError, match="color 3 outside palette"):
            EdgeColoring(k4(), (0, 1, 2, 0, 1, 3), 3)

    def test_incident_edges_of_a_coloring_differ(self):
        with pytest.raises(GraphError, match="incident edges at vertex 0 share color 0"):
            EdgeColoring(k4(), (0,) * 6, 3)

    def test_a_plain_matching_stands_in_for_a_perfect_one(self):
        g = petersen()
        pm = enumerate_perfect_matchings(g)[0]
        assert two_factor_cycles(g, Matching(g, pm.members)) == two_factor_cycles(g, pm)
        with pytest.raises(GraphError, match="matching does not saturate every vertex"):
            two_factor_cycles(g, Matching(g, [0]))


class TestBalanced:
    def test_whole_matching_is_balanced(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        assert is_m_balanced(g, m, m.members)

    def test_petersen_single_edges_balanced(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        for e in m:
            assert is_m_balanced(g, m, [e])

    def test_petersen_pairs_not_balanced(self):
        # distinct Petersen matchings share exactly one edge
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        for pair in combinations(sorted(m.members), 2):
            assert not is_m_balanced(g, m, pair)

    def test_rejects_non_subset(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        outside = next(e for e in g.edge_ids() if e not in m.members)
        with pytest.raises(GraphError):
            is_m_balanced(g, m, [outside])

    @staticmethod
    def _assert_agrees_with_brute_force(g):
        for m in brute_force_perfect_matchings(g):
            pm = PerfectMatching(g, m)
            balanced = balanced_subsets(g, m)
            for k in range(len(m) + 1):
                for a in combinations(sorted(m), k):
                    assert is_m_balanced(g, pm, a) == (frozenset(a) in balanced)

    @pytest.mark.parametrize("make", [petersen, k4, k33, cube_q3, theta,
                                      ten_vertex_c5_example])
    def test_named_graphs_agree_with_brute_force(self, make):
        self._assert_agrees_with_brute_force(make())

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_agrees_with_brute_force_on_random_multigraphs(self, data):
        self._assert_agrees_with_brute_force(random_cubic_multigraph(data, max_order=10))

    def test_runs_no_matching_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("is_m_balanced ran a perfect-matching search")

        monkeypatch.setattr("fulkerson_lab.matchcolor._canonical_matchings", no_search)
        k = 25
        g = flower_snark(k)
        # each claw centre t_i takes x_i; the y-z 2k-cycle (edge ids k..3k-1) alternates
        m = PerfectMatching(g, [3 * k + 3 * i for i in range(k)] + list(range(k, 3 * k, 2)))
        assert not is_m_balanced(g, m, [])  # the x's form an odd k-cycle of the 2-factor
        assert is_m_balanced(g, m, m.members)

    def test_balanced_implies_odd_arcs(self):
        # every balanced singleton splits its 2-factor cycle into odd arcs
        g = petersen()
        pms = enumerate_perfect_matchings(g)
        for m in pms:
            cycles = two_factor_cycles(g, m)
            for m2 in pms:
                if m2.members == m.members:
                    continue
                shared = m.members & m2.members
                ends = {v for e in shared for v in g.endpoints(e)}
                for cyc in cycles:
                    hits = sorted(i for i, v in enumerate(cyc.vertices) if v in ends)
                    if len(hits) < 2:
                        continue
                    gaps = [(hits[(i + 1) % len(hits)] - p) % len(cyc)
                            for i, p in enumerate(hits)]
                    assert all(gap % 2 == 1 for gap in gaps)


class TestSplitAndSuppress:
    def test_empty_matching_is_identity(self):
        g = petersen()
        s = split_and_suppress(g, [])
        assert s.loop_count == 0
        assert len(s.components) == 1
        assert s.components[0] == g
        assert all(chain == (e,) for e, chain in s.provenance[0].items())

    def test_refuses_a_split_end_that_is_not_cubic(self):
        with pytest.raises(GraphError, match="split endpoint is not cubic"):
            split_and_suppress(MultiGraph(2, [(0, 1)]), [0])

    def test_doubled_cycle_one_copy_per_pair(self):
        # splitting one copy of each doubled edge dissolves everything into
        # vertexless loops: the two copy-digons and the surviving 4-cycle
        g = doubled_matching_cycle(4)
        s = split_and_suppress(g, [4, 5], partner=[0, 2])
        assert not s.components
        assert s.loop_count == 3
        assert sorted(len(c) for c in s.loops) == [1, 1, 2]

    def test_petersen_t0_split_is_3_edge_colorable(self):
        from fulkerson_lab.fulkerson import FRTriple, t_partition

        g = petersen()
        pms = enumerate_perfect_matchings(g)
        part = t_partition(g, FRTriple(pms[0], pms[1], pms[2]))
        s = split_and_suppress(g, part.t0.members, partner=part.t2.members)
        assert three_edge_colorable(s) is not None

    def test_theta_split_dissolves_into_two_loops(self):
        s = split_and_suppress(theta(), [0], partner=[1])
        assert not s.components
        assert s.loop_count == 2

    def test_rejects_non_matching(self):
        with pytest.raises(GraphError):
            split_and_suppress(k4(), [0, 1])

    def test_rejects_overlapping_partner(self):
        with pytest.raises(GraphError):
            split_and_suppress(k4(), [0], partner=[0])

    def test_provenance_partitions_surviving_edges(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        s = split_and_suppress(g, m.members)
        absorbed = [e for prov in s.provenance for chain in prov.values() for e in chain]
        loop_edges = [e for chain in s.loops for e in chain]
        assert sorted(absorbed + loop_edges) == sorted(set(g.edge_ids()) - m.members)

    @staticmethod
    def _petersen_first_triple_split():
        from fulkerson_lab.fulkerson import find_fr_triple, t_partition

        g = petersen()
        part = t_partition(g, find_fr_triple(g).value)
        assert (sorted(part.t2.members), sorted(part.t0.members)) == ([0, 3, 6], [4, 11, 13])
        return g, part.t2.members, part.t0.members

    @pytest.mark.parametrize("case,want", [
        ("petersen", (
            [[(0, 1), (0, 3), (1, 2), (2, 3), (1, 3), (0, 2)]],
            ((2, 5, 7, 9),),
            ({0: (1, 10), 1: (2, 14), 2: (5,), 3: (7,), 4: (8, 9), 5: (12,)},),
            ((4, 11, 13),))),
        ("j5", (
            [], (), (),
            ((1, 3, 28, 25, 13, 5, 7, 9, 15, 18, 10, 16, 29, 4), (11, 21, 24, 12, 22, 19)))),
        ("doubled4", ([], (), (), ((0,), (1, 3), (2,)))),
        ("goldberg3", (
            [[(0, 1), (2, 3), (0, 1), (2, 3), (2, 0), (3, 1)],
             [(1, 1), (0, 1), (2, 3), (0, 2), (2, 3), (0, 3)]],
            ((0, 2, 16, 20), (18, 19, 21, 23)),
            ({0: (3, 4), 1: (17, 19), 2: (21, 7, 22), 3: (26, 9, 28), 4: (31,), 5: (33,)},
             {0: (14, 15), 1: (18,), 2: (20,), 3: (27, 8, 23, 1, 2, 34), 4: (29, 30),
              5: (32, 35)}),
            ((24, 25),))),
    ])
    def test_pinned_suppressed_graphs(self, case, want):
        # chain direction, edge order, component order and loop order are all pinned
        if case == "petersen":
            g, a, partner = self._petersen_first_triple_split()
        elif case == "j5":
            g = flower_snark(5)
            a, partner = enumerate_perfect_matchings(g)[0].members, None
        elif case == "doubled4":
            g, a, partner = doubled_matching_cycle(4), [4, 5], [0, 2]
        else:
            g, a, partner = goldberg(3), [0, 5, 6, 10, 11, 12, 13, 16], None
        s = split_and_suppress(g, a, partner=partner)
        got = ([[(u, v) for _, u, v in comp.edges] for comp in s.components],
               s.component_vertices, s.provenance, s.loops)
        assert got == want


class TestThreeEdgeColoring:
    def test_k33_found(self):
        assert three_edge_coloring(k33()) is not None

    def test_flower_snark_none(self):
        assert three_edge_coloring(flower_snark(5)) is None

    def test_cube_found(self):
        assert three_edge_coloring(cube_q3()) is not None

    def test_color_classes_are_perfect_matchings(self):
        for g in (k4(), k33(), cube_q3(), ten_vertex_c5_example()):
            coloring = three_edge_coloring(g)
            for m in color_classes_as_matchings(coloring):
                assert len(m) * 2 == g.num_vertices

    def test_suppressed_k4_colorable(self):
        assert three_edge_colorable(split_and_suppress(k4(), [])) is not None

    def test_suppressed_petersen_not_colorable(self):
        assert three_edge_colorable(split_and_suppress(petersen(), [])) is None

    def test_loops_only_is_vacuously_colorable(self):
        s = split_and_suppress(theta(), [0], partner=[1])
        assert three_edge_colorable(s) == []

    def test_a_vertex_of_degree_four_is_refuted_before_the_first_node(self):
        # the search colours the first vertex's edges 0, 1, 2 and finds no
        # colour for its fourth
        budget = Budget()
        assert three_edge_coloring(MultiGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), budget) is None
        assert budget.spent == 0 and not budget.exhausted


class TestEnumerateColorings:
    def test_k4_has_one_coloring_up_to_permutation(self):
        assert len(enumerate_three_edge_colorings(k4())) == 1

    def test_theta_has_one(self):
        assert len(enumerate_three_edge_colorings(theta())) == 1

    @pytest.mark.parametrize("make", [k4, theta, cube_q3, k33])
    def test_count_matches_brute_force_over_six(self, make):
        g = make()
        assert len(enumerate_three_edge_colorings(g)) == count_proper_colorings(g, 3) // 6

    def test_representatives_are_lexicographic_minima(self):
        from itertools import permutations

        for coloring in enumerate_three_edge_colorings(cube_q3()):
            for perm in permutations(range(3)):
                mapped = tuple(perm[c] for c in coloring.assignment)
                assert coloring.assignment <= mapped


class TestKempe:
    def _cube_coloring(self):
        return three_edge_coloring(cube_q3())

    def test_exchange_is_an_involution(self):
        c = self._cube_coloring()
        cyc = phi_two_factor(c, 0, 1).cycles[0]
        once = kempe_exchange(c, 0, 1, cyc)
        twice = kempe_exchange(once, 0, 1, cyc)
        assert twice.assignment == c.assignment

    def test_k4_exchange_swaps_the_two_colors(self):
        c = three_edge_coloring(k4())
        cycles = phi_two_factor(c, 0, 1)
        assert len(cycles) == 1  # the unique 4-cycle of the two colors
        swapped = kempe_exchange(c, 0, 1, cycles.cycles[0])
        assert swapped.color_class(0) == c.color_class(1)
        assert swapped.color_class(1) == c.color_class(0)
        assert swapped.color_class(2) == c.color_class(2)

    def test_cube_exchange_keeps_propriety_and_class_sizes(self):
        c = self._cube_coloring()
        cyc = phi_two_factor(c, 0, 1).cycles[0]
        out = kempe_exchange(c, 0, 1, cyc)  # EdgeColoring validates propriety
        assert sorted(len(out.color_class(i)) for i in range(3)) == \
            sorted(len(c.color_class(i)) for i in range(3))

    def test_rejects_equal_colors(self):
        c = self._cube_coloring()
        cyc = phi_two_factor(c, 0, 1).cycles[0]
        with pytest.raises(GraphError, match="must differ"):
            phi_two_factor(c, 1, 1)
        with pytest.raises(GraphError, match="must differ"):
            kempe_exchange(c, 1, 1, cyc)

    def test_rejects_non_bichromatic_cycle(self):
        c = self._cube_coloring()
        cyc = phi_two_factor(c, 0, 1).cycles[0]
        with pytest.raises(GraphError):
            kempe_exchange(c, 0, 2, cyc)


class TestTwoFactor:
    def test_petersen_two_pentagons(self):
        g = petersen()
        for m in enumerate_perfect_matchings(g):
            assert sorted(len(c) for c in two_factor_cycles(g, m)) == [5, 5]

    def test_k4_single_square(self):
        g = k4()
        for m in enumerate_perfect_matchings(g):
            assert [len(c) for c in two_factor_cycles(g, m)] == [4]

    def test_ten_vertex_example_named_matching(self):
        g = ten_vertex_c5_example()
        names = ten_vertex_c5_names()
        m = [g.edges_between(names[a], names[b])[0]
             for a, b in (("a", "2"), ("b", "4"), ("c", "3"), ("d", "5"), ("e", "1"))]
        cycles = two_factor_cycles(g, m)
        assert {frozenset(c.vertices) for c in cycles} == {
            frozenset(names[x] for x in "abcde"),
            frozenset(names[str(j)] for j in range(1, 6)),
        }

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_same_cycles_and_places_as_the_decomposition(self, data):
        g = random_cubic_multigraph(data, max_order=12, bridgeless=True)
        # the shared walk with a keep rule: one cycle length is rejected
        banned = data.draw(st.integers(min_value=2, max_value=12), label="rejected length")
        ms = brute_force_perfect_matchings(g)
        walks = list(matchcolor._two_factors(g, ms, lambda verts: len(verts) != banned))
        assert [m for m, _ in walks] == ms
        for m, (_, kept) in zip(ms, walks):
            got = two_factor_cycles(g, m)
            want = cycle_decomposition(g, set(g.edge_ids()) - m)
            assert got == want
            assert got.place == want.place
            if any(len(cyc) == banned for cyc in want):
                assert kept is None
            else:
                assert kept == want
                assert kept.place == want.place
            # The two share one walk, so check its order on its own too:
            # cycles by lowest vertex, each from there toward the lower
            # neighbour, the lower edge id first between parallels.
            assert got.covered_edges() == frozenset(g.edge_ids()) - m
            starts = [cyc.vertices[0] for cyc in got]
            assert starts == sorted(starts)
            for cyc in got:
                assert cyc.vertices[0] == min(cyc.vertices)
                assert (cyc.vertices[1], cyc.edges[0]) < (cyc.vertices[-1], cyc.edges[-1])

    def test_rejects_a_graph_with_a_loop(self):
        # 3-regular, but the loop at 0 stays in G - m
        g = MultiGraph(2, [(0, 0), (0, 1), (1, 1)])
        with pytest.raises(GraphError):
            two_factor_cycles(g, [1])


class TestC5Structure:
    def test_petersen_found(self):
        found = find_c5_two_factor(petersen())
        assert found is not None
        m, cycles = found
        assert sorted(len(c) for c in cycles) == [5, 5]

    def test_k4_none(self):
        assert find_c5_two_factor(k4()) is None

    def test_ten_vertex_found(self):
        assert find_c5_two_factor(ten_vertex_c5_example()) is not None

    def test_only_the_matching_returned_is_wrapped(self, monkeypatch):
        # ten-c5's first matching with a two-odd-cycle 2-factor is its 9th of 9
        made = []
        init = PerfectMatching.__init__
        monkeypatch.setattr(PerfectMatching, "__init__",
                            lambda self, *args: made.append(self) or init(self, *args))
        g = ten_vertex_c5_example()
        m, cycles = matchcolor._first_two_factor(g, lambda verts: len(verts) % 2 == 1, count=2)
        assert made == [m]
        assert m.members == enumerate_perfect_matchings(g)[8].members
        assert cycles == two_factor_cycles(g, m)

    @pytest.mark.parametrize("k, seeds", [(2, 100), (4, 80), (6, 40)])
    def test_agrees_with_the_oracle_on_c5_structured_graphs(self, k, seeds):
        for seed in range(seeds):
            g = c5_structured_graph(k, seed)
            m, cycles = find_c5_two_factor(g)
            assert m.members == first_c5_two_factor(g), seed
            assert cycles == two_factor_cycles(g, m)

    @pytest.mark.parametrize("n", [10, 20, 30])
    def test_agrees_with_the_oracle_on_random_cubic_graphs(self, n):
        for seed in range(20):
            g = seeded_cubic_multigraph(n, seed)
            found = find_c5_two_factor(g)
            want = first_c5_two_factor(g)
            assert (found and found[0].members) == want, seed
            assert found is None or found[1] == two_factor_cycles(g, found[0])

    @pytest.mark.parametrize("graph, excluded", [
        (petersen, 0),
        (ten_vertex_c5_example, 8),
        (lambda: c5_structured_graph(4, 87), 14),
        (lambda: c5_structured_graph(6, 3), 30),
        # two 5-cycles, each with one edge doubled by a matching edge: either
        # twin can be the matching edge, and the eight other cycle edges are
        # excluded
        (lambda: CubicGraph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7),
                                 (7, 8), (8, 9), (9, 5), (0, 1), (5, 6), (2, 7), (3, 8),
                                 (4, 9)]), 8),
    ], ids=["petersen", "ten-c5", "c5-structured-20-seed-87", "c5-structured-30-seed-3",
            "twins"])
    def test_excludes_no_edge_of_a_c5_two_factors_matching(self, graph, excluded):
        g = graph()
        out = matchcolor._c5_exclusions(g)
        assert len(out) == excluded
        factors = [m for m in naive_perfect_matchings(g) if leaves_chordless_c5s(g, m)]
        assert factors and not any(m & out for m in factors)

    def test_shrink_petersen_two_vertices_five_parallels(self):
        g = petersen()
        m, cycles = find_c5_two_factor(g)
        res = shrink_to_gstar(g, m, cycles)
        assert res.graph.num_vertices == 2
        assert res.graph.num_edges == 5
        assert res.graph.edges_between(0, 1) == (0, 1, 2, 3, 4)

    def test_shrink_ten_vertex_same_shape(self):
        g = ten_vertex_c5_example()
        m, cycles = find_c5_two_factor(g)
        res = shrink_to_gstar(g, m, cycles)
        assert res.graph.num_vertices == 2
        assert res.graph.num_edges == 5

    def test_shrink_degree_sum(self):
        g = petersen()
        m, cycles = find_c5_two_factor(g)
        res = shrink_to_gstar(g, m, cycles)
        assert sum(res.graph.degree(v) for v in res.graph.vertices()) == 2 * len(m)

    def test_shrink_rejects_wrong_cycle_set(self):
        g = petersen()
        m, _ = find_c5_two_factor(g)
        other = cycle_decomposition(g, set(g.edge_ids()) - m.members)
        bad = cycle_decomposition(k4(), range(4))
        with pytest.raises(GraphError):
            shrink_to_gstar(g, m, bad)
        assert shrink_to_gstar(g, m, other) is not None
        # the 2-factor of another perfect matching of g
        m2 = next(p for p in enumerate_perfect_matchings(g) if p != m)
        with pytest.raises(GraphError, match="cycle set is not the 2-factor of the matching"):
            shrink_to_gstar(g, m, two_factor_cycles(g, m2))
        # the matching's own 2-factor, but a 4-cycle
        pm = find_perfect_matching(k4())
        with pytest.raises(GraphError, match="every 2-factor cycle must be a chordless 5-cycle"):
            shrink_to_gstar(k4(), pm, two_factor_cycles(k4(), pm))


class TestFiveEdgeColoring:
    def test_five_parallels_found(self):
        g = MultiGraph(2, [(0, 1)] * 5)
        coloring = five_edge_coloring(g)
        assert coloring is not None
        assert sorted(coloring.assignment) == [0, 1, 2, 3, 4]

    def test_rejects_non_5_regular(self):
        with pytest.raises(GraphError):
            five_edge_coloring(petersen())

    def test_an_edgeless_graph_takes_the_empty_coloring(self):
        # `_edge_colorings` yields () at once when there is no edge to colour
        assert five_edge_coloring(MultiGraph(0, [])).assignment == ()
        assert three_edge_coloring(MultiGraph(2, [])).assignment == ()
        assert [c.assignment for c in enumerate_three_edge_colorings(MultiGraph(1, []))] == [()]

    def test_tripled_matching_multigraph_decision(self):
        # Petersen with one perfect matching tripled: 5-regular; the search
        # itself is the decision procedure, cross-checked for propriety.
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        edges = [(u, v) for _, u, v in g.edges]
        for e in sorted(m.members):
            u, v = g.endpoints(e)
            edges += [(u, v), (u, v)]
        tripled = MultiGraph(10, edges)
        coloring = five_edge_coloring(tripled)
        assert coloring is None or isinstance(coloring, EdgeColoring)

    def test_small_5_regular_agrees_with_exhaustive_oracle(self):
        # doubled 4-cycle plus both diagonals: 5-regular on four vertices
        g = MultiGraph(4, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3),
                           (3, 0), (3, 0), (0, 2), (1, 3)])
        assert all(g.degree(v) == 5 for v in g.vertices())
        found = five_edge_coloring(g) is not None
        assert found == (count_proper_colorings(g, 5) > 0)


class TestDepthAndNodeCounts:
    def test_matching_of_a_long_doubled_cycle(self):
        g = doubled_matching_cycle(2400)
        assert PerfectMatching(g, find_perfect_matching(g).members)

    def test_coloring_of_a_long_doubled_cycle(self):
        g = doubled_matching_cycle(700)
        assert EdgeColoring(g, three_edge_coloring(g).assignment, 3)

    # The coloring search alone, as five_edge_coloring and non-cubic input run it.
    @pytest.mark.parametrize("make,spent", [
        (petersen, 33), (lambda: flower_snark(5), 358), (lambda: goldberg(5), 900),
        (cube_q3, 10), (lambda: flower_snark(7), 2402), (lambda: flower_snark(9), 13541),
    ])
    def test_coloring_node_counts(self, make, spent):
        budget = Budget(limit=5_000_000)
        _first_coloring(make(), 3, budget)
        assert budget.spent == spent
        assert not budget.exhausted

    def test_the_coloring_search_one_node_short_is_unknown(self):
        budget = Budget(limit=32)
        assert _first_coloring(petersen(), 3, budget) is None
        assert budget.exhausted

    # The matching stream: nine nodes per matching drawn, plus the frontier
    # refuter's nodes once 32 matchings are drawn.  Petersen's stream ends
    # after its six matchings (seven draws, 63 nodes); the other snarks draw
    # 32 matchings (288 nodes) and are refuted by the frontier DP, J13 in
    # 355 nodes where the unrefuted stream spends 73,737 and the coloring
    # search alone 344,485.  Q3 and the pairing-model graph are colored by
    # a matching, Q3 by the first.
    @pytest.mark.parametrize("make,spent,found", [
        (petersen, 63, False), (lambda: flower_snark(5), 321, False),
        (lambda: goldberg(5), 340, False), (cube_q3, 9, True),
        (lambda: flower_snark(7), 329, False), (lambda: flower_snark(9), 339, False),
        (lambda: flower_snark(13), 355, False), (lambda: pairing_model(300, seed=1), 261, True),
    ], ids=["petersen", "J5", "G5", "Q3", "J7", "J9", "J13", "pairing300"])
    def test_three_edge_coloring_node_counts(self, make, spent, found):
        g = make()
        budget = Budget(limit=5_000_000)
        col = three_edge_coloring(g, budget=budget)
        assert (col is not None) == found
        assert budget.spent == spent < 100_000
        assert not budget.exhausted


def pairing_model(n: int, seed: int) -> CubicGraph:
    """A seeded pairing-model cubic multigraph, redrawn until it has no loop."""
    rng = random.Random(seed)
    points = list(range(3 * n))
    while True:
        rng.shuffle(points)
        pairs = [(points[i] // 3, points[i + 1] // 3) for i in range(0, 3 * n, 2)]
        if all(u != v for u, v in pairs):
            return CubicGraph(n, pairs)


class TestColoringByMatchings:
    """On loopless cubic input `three_edge_coloring` decides by the canonical
    matching stream alone, with the frontier refuter to end it early."""

    # the backtracking search, which non-cubic input runs, is the reference
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_colorable_iff_three_matchings_partition_the_edges(self, data):
        g = random_cubic_multigraph(data, max_order=12, loops=True)
        colorable = colorable_via_matching_partition(g)
        assert (_first_coloring(g, 3, None) is not None) == colorable
        col = three_edge_coloring(g)
        assert (col is not None) == colorable
        if col is not None:
            assert EdgeColoring(g, col.assignment, 3)

    @pytest.mark.parametrize("make,colorable", [
        (petersen, False), (lambda: flower_snark(5), False), (lambda: goldberg(5), False),
        (k33, True), (cube_q3, True), (lambda: pairing_model(300, seed=1), True),
    ], ids=["petersen", "J5", "G5", "K33", "Q3", "pairing300"])
    def test_cubic_input_runs_no_backtracking(self, monkeypatch, make, colorable):
        def refuse(*args):
            raise AssertionError("three_edge_coloring ran the backtracking search")

        monkeypatch.setattr(matchcolor, "_edge_colorings", refuse)
        g = make()
        budget = Budget()
        col = three_edge_coloring(g, budget)
        assert (col is not None) == colorable and not budget.exhausted
        if col is not None:
            assert EdgeColoring(g, col.assignment, 3)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_the_stream_colors_by_the_lowest_edge_rule(self, data):
        # The first matching, in canonical order, whose 2-factor is even
        # takes color 0; on each cycle the lowest edge takes color 1 and the
        # colors alternate from it, whichever way the cycle is walked.
        g = random_cubic_multigraph(data, max_order=12)
        want = None
        for m in brute_force_perfect_matchings(g):
            cycles = cycle_decomposition(g, set(g.edge_ids()) - m)
            if all(len(cyc) % 2 == 0 for cyc in cycles):
                want = [0] * g.num_edges
                for cyc in cycles:
                    low = cyc.edges.index(min(cyc.edges))
                    for i, e in enumerate(cyc.edges):
                        want[e] = 1 + (i - low) % 2
                want = tuple(want)
                break
        col = three_edge_coloring(g)
        assert (None if col is None else col.assignment) == want

    def test_one_node_budget_is_unknown(self):
        budget = Budget(limit=1)
        assert three_edge_coloring(pairing_model(300, seed=1), budget=budget) is None
        assert budget.exhausted

    # Each draw asks cancel at each of its nine spends, and the stream asks
    # it before every blossom search.  The frontier refuter is held off, so
    # the stream runs on J9 until the cancel fires: the second question is
    # the first draw's second spend, the tenth the stream's first blossom
    # search.
    @pytest.mark.parametrize("fire_on", [2, 10, 500, 3000])
    def test_cancel_inside_the_stream_is_unknown(self, monkeypatch, fire_on):
        monkeypatch.setattr(matchcolor, "_REFUTE_AFTER", 10**9)
        calls = []

        def cancel():
            calls.append(None)
            return len(calls) >= fire_on

        budget = Budget(cancel=cancel)
        assert three_edge_coloring(flower_snark(9), budget=budget) is None
        assert budget.exhausted and len(calls) == fire_on
        if fire_on in (2, 10):
            assert budget.spent == min(fire_on, NODES_PER_MATCHING)

    def test_a_record_past_the_cap_is_no_listing(self, monkeypatch):
        # a listing past the cap keeps the first matchings and is truncated
        g = flower_snark(5)
        full = [m.members for m in enumerate_perfect_matchings(g)]
        assert len(full) == 32
        monkeypatch.setattr(matchcolor, "DEFAULT_PM_LIMIT", 30)
        record = matchcolor._MatchingRecord(g, Budget())
        assert record.listing() == (full[:30], True)
        assert record.drawn == full[:31]  # the cap and one more
        monkeypatch.setattr(matchcolor, "DEFAULT_PM_LIMIT", 32)
        record = matchcolor._MatchingRecord(g, Budget())
        assert record.reach(0)
        assert record.listing() == (full, False)  # what was drawn, then the rest

    def test_lists_no_matchings(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("three_edge_coloring listed perfect matchings")

        monkeypatch.setattr(matchcolor, "enumerate_perfect_matchings", refuse)
        monkeypatch.setattr(matchcolor._MatchingRecord, "listing", refuse)
        assert three_edge_coloring(flower_snark(9)) is None
        assert three_edge_coloring(pairing_model(300, seed=1)) is not None
        assert three_edge_coloring(cube_q3()) is not None


def disjoint_union(g: MultiGraph, h: MultiGraph) -> CubicGraph:
    n = g.num_vertices
    return CubicGraph(n + h.num_vertices,
                      [(u, w) for _, u, w in g.edges] + [(n + u, n + w) for _, u, w in h.edges])


class TestFrontierRefuter:
    """`_frontier_colorable`, the frontier DP that `three_edge_coloring` asks
    once it has drawn `_REFUTE_AFTER` matchings with no coloring."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_agrees_with_the_matching_partition_oracle(self, data):
        g = random_cubic_multigraph(data, max_order=12)
        colorable = colorable_via_matching_partition(g)
        budget = Budget()
        assert matchcolor._frontier_colorable(g, budget) is colorable
        assert not budget.exhausted
        assert matchcolor._frontier_colorable(g, None) is colorable

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_a_disjoint_union_is_colorable_iff_both_parts_are(self, data):
        # the vertex order starts the second component once the first is taken
        g = random_cubic_multigraph(data, max_order=10)
        h = random_cubic_multigraph(data, max_order=10)
        want = colorable_via_matching_partition(g) and colorable_via_matching_partition(h)
        assert matchcolor._frontier_colorable(disjoint_union(g, h), None) is want
        assert matchcolor._frontier_colorable(disjoint_union(h, petersen()), None) is False

    def test_the_empty_graph_is_colorable(self):
        assert matchcolor._frontier_colorable(CubicGraph(0, []), Budget()) is True

    # Nodes: two candidate orders per start vertex (at most 8 starts), then
    # one per vertex and one more per 256 states expanded.
    @pytest.mark.parametrize("k,flower_spent,goldberg_spent", [
        (3, 21, 37), (5, 33, 52), (7, 41, 81), (9, 51, 108), (11, 59, 134),
        (13, 67, 168), (15, 75, 209), (17, 83, 244), (19, 91, 269), (21, 99, 378),
    ])
    def test_refutes_the_flower_and_goldberg_snarks(self, k, flower_spent, goldberg_spent):
        for g, spent in ((flower_snark(k), flower_spent), (goldberg(k), goldberg_spent)):
            budget = Budget()
            assert matchcolor._frontier_colorable(g, budget) is False
            assert budget.spent == spent and not budget.exhausted

    # (layers, most states in one, states in all), the start layer included;
    # the pass stops at the first empty layer
    @pytest.mark.parametrize("make,layers,widest,total", [
        (lambda: flower_snark(9), 36, 96, 1058), (lambda: flower_snark(11), 44, 96, 1400),
        (lambda: goldberg(5), 31, 592, 3813), (lambda: goldberg(7), 43, 1536, 8910),
    ], ids=["J9", "J11", "G5", "G7"])
    def test_layer_sizes(self, monkeypatch, make, layers, widest, total):
        sizes = [1]  # the start layer: the empty frontier's one state
        step = matchcolor._coloring_step
        monkeypatch.setattr(matchcolor, "_coloring_step",
                            lambda *args: sizes.append(len(after := step(*args))) or after)
        assert matchcolor._frontier_colorable(make(), None) is False
        assert (len(sizes), max(sizes), sum(sizes)) == (layers, widest, total)

    def test_keeps_one_layer_alive(self, monkeypatch):
        # the refuter reads only its last layer, so while it computes the
        # next, no layer before the current one is still alive
        class Layer(set):
            pass

        made, alive = [], []
        step = matchcolor._coloring_step

        def tracked(*args):
            alive.append(sum(ref() is not None for ref in made))
            after = Layer(step(*args))
            made.append(weakref.ref(after))
            return after

        monkeypatch.setattr(matchcolor, "_coloring_step", tracked)
        assert matchcolor._frontier_colorable(goldberg(7), None) is False
        assert len(alive) == 42 and max(alive) == 1

    def test_the_fill_table_is_every_one_to_one_assignment_to_the_free_classes(self):
        for new in range(64):
            bits = [1 << i for i in range(6) if new >> i & 1]
            if len(bits) > 3:
                continue
            table = matchcolor._class_fills(new)
            assert len(table) == 8
            for used in range(8):
                want = set()
                for classes in product(range(3), repeat=len(bits)):
                    if len(set(classes)) == len(bits) and not any(used >> c & 1 for c in classes):
                        want.add(tuple(sum(b for b, c in zip(bits, classes) if c == k)
                                       for k in range(3)))
                assert sorted(table[used]) == sorted(want)

    def test_gives_up_past_the_state_cap(self, monkeypatch):
        monkeypatch.setattr(matchcolor, "_FRONTIER_CAP", 2)
        budget = Budget()
        assert matchcolor._frontier_colorable(goldberg(5), budget) is None
        assert not budget.exhausted

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_the_stream_colors_whatever_the_refuter_says(self, data):
        # refuting after the first draw, with and without a cap that makes
        # the DP give up, returns what the stream alone returns
        g = random_cubic_multigraph(data, max_order=12, loops=True)
        results = []
        for after, cap in ((10**9, 4096), (1, 4096), (1, 2)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(matchcolor, "_REFUTE_AFTER", after)
                mp.setattr(matchcolor, "_FRONTIER_CAP", cap)
                col = three_edge_coloring(g)
            results.append(None if col is None else col.assignment)
        assert results[0] == results[1] == results[2]

    def test_a_snark_past_the_cap_is_refuted_by_the_stream(self, monkeypatch):
        monkeypatch.setattr(matchcolor, "_FRONTIER_CAP", 2)
        refuted = []
        refute = matchcolor._frontier_colorable
        monkeypatch.setattr(matchcolor, "_frontier_colorable",
                            lambda *args: refuted.append(refute(*args)) or refuted[-1])
        budget = Budget()
        assert three_edge_coloring(flower_snark(9), budget) is None
        assert refuted == [None] and not budget.exhausted
        # the stream runs out after its 512 matchings (513 draws, 4,617
        # nodes); the refuter spent 19 before it gave up
        assert budget.spent == 4617 + 19

    def test_every_budget_short_of_the_refutation_is_unknown(self):
        g = flower_snark(9)
        for limit in range(51):
            budget = Budget(limit=limit)
            assert matchcolor._frontier_colorable(g, budget) is None
            assert budget.exhausted
        assert matchcolor._frontier_colorable(g, Budget(limit=51)) is False

    def test_every_cancel_inside_the_refuter_is_unknown(self):
        g = goldberg(5)
        for fire_on in range(1, 53):
            calls = []

            def cancel():
                calls.append(None)
                return len(calls) >= fire_on

            budget = Budget(cancel=cancel)
            assert matchcolor._frontier_colorable(g, budget) is None
            assert budget.exhausted and len(calls) == fire_on

    def test_a_cancel_inside_the_refuter_leaves_the_coloring_unknown(self, monkeypatch):
        inside = []
        refute = matchcolor._frontier_colorable
        monkeypatch.setattr(matchcolor, "_frontier_colorable",
                            lambda *args: inside.append(True) or refute(*args))
        budget = Budget(cancel=lambda: bool(inside))
        assert three_edge_coloring(flower_snark(9), budget) is None
        assert budget.exhausted and inside == [True]
        # 32 draws spend 288 nodes; a budget that ends inside the refuter
        budget = Budget(limit=300)
        assert three_edge_coloring(flower_snark(9), budget) is None
        assert budget.exhausted


class TestHolderCounts:
    """`_holder_counts`, the counting frontier DP behind the exact cover, and
    `_MatchingRecord.holding`, which draws the holders it counts."""

    @staticmethod
    def steps(g, order=None):
        if order is None:
            order = matchcolor._frontier_order(g, None)
        return matchcolor._frontier_steps(g, order)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_counts_are_the_filtered_naive_listing(self, data):
        # loops and parallel edges included; any vertex order gives the counts
        g = random_cubic_multigraph(data, max_order=12, loops=True)
        closed = data.draw(st.sets(st.sampled_from(range(g.num_edges)), max_size=4))
        order = data.draw(st.permutations(range(g.num_vertices)))
        pms = list(naive_perfect_matchings(g, exclude=frozenset(closed)))
        want = [sum(e in m for m in pms) for e in range(g.num_edges)]
        mask = sum(1 << e for e in closed)
        budget = Budget()
        assert matchcolor._holder_counts(g, self.steps(g), mask, budget) == want
        assert not budget.exhausted
        assert matchcolor._holder_counts(g, self.steps(g, order), mask, None) == want

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_frontier_slots_are_distinct_and_as_many_as_the_widest_frontier(self, data):
        g = random_cubic_multigraph(data, max_order=12, loops=True)
        order = data.draw(st.permutations(range(g.num_vertices)))
        place = {v: i for i, v in enumerate(order)}
        slot_of: dict[int, int] = {}  # the frontier edges and their slot bits
        widest = used = 0
        for v, (shut, opened) in zip(order, matchcolor._frontier_steps(g, order)):
            closing = [e for e in g.incident(v) if place[g.other_end(e, v)] < place[v]]
            assert sum(slot_of.pop(e) for e in closing) == shut
            assert sorted(opened.values()) == [e for e in g.incident(v)
                                               if e not in closing and not g.is_loop(e)]
            for bit, e in opened.items():
                assert bit > 0 and not bit & (bit - 1)  # one slot
                slot_of[e] = bit
            assert len(set(slot_of.values())) == len(slot_of)
            widest = max(widest, len(slot_of))
            used |= sum(opened)
        assert slot_of == {}
        assert used == (1 << widest) - 1

    def test_the_empty_graph_has_no_edge_to_count(self):
        assert matchcolor._holder_counts(CubicGraph(0, []), [], 0, Budget()) == []

    # A forward and a backward step per vertex, and one node more per 256
    # states: on G5 two layers hold 256 or more (296 at most), and each is
    # expanded forward and read backward.
    @pytest.mark.parametrize("make,count,spent", [
        (petersen, 6, 20), (lambda: flower_snark(5), 32, 40), (lambda: goldberg(5), 619, 84),
    ], ids=["petersen", "J5", "G5"])
    def test_one_node_per_vertex_step_and_state_block(self, make, count, spent):
        g = make()
        steps = self.steps(g)
        budget = Budget()
        counts = matchcolor._holder_counts(g, steps, 0, budget)
        # each matching holds n/2 edges
        assert sum(counts) == count * g.num_vertices // 2
        assert budget.spent == spent
        for limit in range(spent):
            budget = Budget(limit=limit)
            assert matchcolor._holder_counts(g, steps, 0, budget) is None
            assert budget.exhausted
        for fire_on in range(1, spent + 1):
            budget = Budget(cancel=lambda: budget.spent >= fire_on)
            assert matchcolor._holder_counts(g, steps, 0, budget) is None
            assert budget.exhausted and budget.spent == fire_on

    def test_the_state_cap_applies_to_the_counts(self, monkeypatch):
        # the counts' cap is `_COUNT_CAP`, not the colour refuter's, and it
        # bounds the states of all the layers: G5's forward pass keeps
        # 2,947, 296 in its widest layer
        g = goldberg(5)
        monkeypatch.setattr(matchcolor, "_FRONTIER_CAP", 2)
        monkeypatch.setattr(matchcolor, "_COUNT_CAP", 2947)
        assert matchcolor._holder_counts(g, self.steps(g), 0, Budget()) is not None
        monkeypatch.setattr(matchcolor, "_COUNT_CAP", 2946)
        budget = Budget()
        assert matchcolor._holder_counts(g, self.steps(g), 0, budget) is None
        assert not budget.exhausted

    def test_a_closed_set_with_no_perfect_matching_counts_nothing(self):
        g = petersen()
        m = find_perfect_matching(g).members
        # every perfect matching of the Petersen graph meets every other in one edge
        closed = sum(1 << e for e in range(g.num_edges) if e not in m)
        counts = matchcolor._holder_counts(g, self.steps(g), closed, None)
        assert counts == [int(e in m) for e in range(g.num_edges)]
        closed |= 1 << min(m)
        assert matchcolor._holder_counts(g, self.steps(g), closed, None) == [0] * g.num_edges

    @pytest.mark.parametrize("make", [petersen, lambda: flower_snark(5), lambda: goldberg(3)],
                             ids=["petersen", "J5", "G3"])
    def test_holding_is_the_filtered_listing(self, make):
        g = make()
        full = [m.members for m in enumerate_perfect_matchings(g)]
        record = matchcolor._MatchingRecord(g, None)
        for e in range(g.num_edges):
            for s in (frozenset(), full[0] - {e}, frozenset([e])):
                assert list(record.holding(e, s)) == [m for m in full if e in m and not m & s]
        assert list(record.holding(None, full[0])) == [m for m in full if not m & full[0]]
        assert record.drawn == []


class TestOracleDifferential:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matchings_and_colorings_match_brute_force(self, data):
        g = random_cubic_multigraph(data, max_order=12)
        brute = brute_force_perfect_matchings(g)
        enum = enumerate_perfect_matchings(g)
        assert [m.members for m in enum] == brute
        assert not enum.truncated

        include = frozenset()
        if brute:
            base = data.draw(st.sampled_from(brute))
            include = frozenset(data.draw(st.sets(st.sampled_from(sorted(base)))))
        others = sorted(set(g.edge_ids()) - include)
        exclude = frozenset(data.draw(st.sets(st.sampled_from(others), max_size=4)))
        found = find_perfect_matching(g, include, exclude)
        extends = any(include <= m and not m & exclude for m in brute)
        assert (found is not None) == extends
        if found is not None:
            assert include <= found.members
            assert not found.members & exclude

        count = count_proper_colorings(g, 3)
        assert (three_edge_coloring(g) is None) == (count == 0)
        assert len(enumerate_three_edge_colorings(g)) == count // 6


def draw_include_exclude(data, g: MultiGraph) -> tuple[frozenset[int], frozenset[int]]:
    """A random matching of up to 3 edges to include, and up to 5 other edges to exclude."""
    include: set[int] = set()
    ends: set[int] = set()
    for e in data.draw(st.lists(st.sampled_from(g.edge_ids()), max_size=3)):
        u, v = g.endpoints(e)
        if u != v and not {u, v} & ends:
            include.add(e)
            ends |= {u, v}
    others = sorted(set(g.edge_ids()) - include)
    exclude = frozenset(data.draw(st.sets(st.sampled_from(others), max_size=5)))
    return frozenset(include), exclude


class TestCanonicalOrder:
    """The lazy generator yields the perfect matchings avoiding its exclude
    set in canonical order, on multigraphs with loops, parallel edges and
    bridges, and its full listing is the enumeration's."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sorted_plain_search_under_random_excludes(self, data):
        g = random_cubic_multigraph(data, max_order=12, loops=True)
        exclude = frozenset(data.draw(st.sets(st.sampled_from(g.edge_ids()), max_size=6)))
        want = sorted(naive_perfect_matchings(g, exclude=exclude), key=lambda m: tuple(sorted(m)))
        assert list(_canonical_matchings(g, exclude)) == want

    @pytest.mark.parametrize("make", [petersen, k33, lambda: flower_snark(5), lambda: goldberg(3),
                                      lambda: doubled_matching_cycle(10)],
                             ids=["petersen", "K33", "J5", "G3", "dmc10"])
    def test_full_listing_is_the_enumeration(self, make):
        g = make()
        assert list(_canonical_matchings(g)) == [m.members for m in enumerate_perfect_matchings(g)]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sorted_plain_search_under_random_includes_and_excludes(self, data):
        # the whole stream, where forced edges sit next to parallel twins and loops
        g = random_cubic_multigraph(data, max_order=12, loops=True)
        include, exclude = draw_include_exclude(data, g)
        want = sorted(naive_perfect_matchings(g, include, exclude), key=lambda m: tuple(sorted(m)))
        # holding include is avoiding every other edge at an end of it
        at_ends = {f for e in include for v in g.endpoints(e) for f in g.incident(v)}
        assert list(_canonical_matchings(g, exclude | (at_ends - include))) == want

    @pytest.mark.parametrize("make", [petersen, lambda: flower_snark(5), lambda: goldberg(3)],
                             ids=["petersen", "J5", "G3"])
    def test_a_record_answers_exclusion_queries_from_m_j_on(self, make):
        g = make()
        full = [m.members for m in enumerate_perfect_matchings(g)]
        record = matchcolor._MatchingRecord(g, None)
        assert record.reach(len(full) - 1)
        for j, mj in enumerate(full):
            for s in (frozenset(), full[0] & mj, frozenset([min(mj)])):
                assert list(record.avoiding(s, j)) == [m for m in full[j:] if not m & s]

    # Outcomes of the blossom searches and of the repairs of a full listing,
    # from one measured run.  The stream re-matches only by blossom search:
    # each repair runs one, and so does each backtrack that re-matches the
    # ends of the edge it excludes.
    @pytest.mark.parametrize("make,count,augment,repair", [
        (lambda: goldberg(5), 619, {False: 209, True: 1103}, {False: 169, True: 465}),
        (lambda: goldberg(7), 8166, {False: 1690, True: 14585}, {False: 1396, True: 6392}),
    ], ids=["G5", "G7"])
    def test_failed_blossom_searches_of_a_full_listing(self, monkeypatch, make, count, augment,
                                                       repair):
        counts = SearchCounts(monkeypatch)
        assert len(list(_canonical_matchings(make()))) == count
        assert counts.augment == augment
        assert counts.repair == repair

    def test_parallel_twin_survives_the_exclusion(self):
        # theta: three parallel edges between two vertices
        assert list(_canonical_matchings(theta(), frozenset([0]))) == [{1}, {2}]

    # On J13 at most 26 searches build `mate` up front, and the first
    # matching comes after 51 calls: the 30th falls in the descent to it,
    # the 60th after it.
    @pytest.mark.parametrize("fire_on,yielded", [(1, 0), (30, 0), (60, 1)])
    def test_cancel_exhausts_the_budget_and_stops(self, fire_on, yielded):
        calls = []

        def cancel():
            calls.append(None)
            return len(calls) >= fire_on

        budget = Budget(limit=0, cancel=cancel)
        got = list(_canonical_matchings(flower_snark(13), budget=budget))
        assert len(got) == yielded and len(calls) == fire_on
        assert budget.exhausted and budget.spent == 0

    @pytest.mark.parametrize("generator", [_canonical_matchings])
    @pytest.mark.parametrize("make", [petersen, lambda: CubicGraph(0, [])], ids=["petersen", "empty"])
    def test_an_exhausted_budget_yields_nothing(self, generator, make):
        budget = Budget(limit=0)
        assert not budget.spend()
        assert list(generator(make(), budget=budget)) == []

    @pytest.mark.parametrize("generator", [_canonical_matchings])
    def test_exhaustion_between_draws_ends_the_stream(self, generator):
        budget = Budget(limit=0)
        stream = generator(flower_snark(5), budget=budget)
        assert next(stream) is not None
        budget.spend()  # a reader's own search runs out
        assert list(stream) == []


class TestFirstMatchDifferential:
    """`find_perfect_matching` gives the canonical-first matching holding
    `include` and avoiding `exclude`, on multigraphs with loops and parallel
    edges."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_canonical_first_of_the_plain_search(self, data):
        g = random_cubic_multigraph(data, max_order=12, loops=True)
        include, exclude = draw_include_exclude(data, g)
        found = find_perfect_matching(g, include, exclude)
        want = min(naive_perfect_matchings(g, include, exclude),
                   key=lambda m: tuple(sorted(m)), default=None)
        assert (None if found is None else found.members) == want


def test_coloring_rejects_loops():
    g = MultiGraph(2, [(0, 0), (0, 1), (1, 1)])
    with pytest.raises(GraphError):
        EdgeColoring(g, (0, 1, 2), 3)
    assert three_edge_coloring(g) is None
