import re
import time
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from fulkerson_lab.budget import Budget, BudgetExhausted
from fulkerson_lab.generators import (
    DotProductSpec,
    cube_q3,
    doubled_matching_cycle,
    flower_snark,
    goldberg,
    k4,
    k33,
    petersen,
    ten_vertex_c5_example,
    ten_vertex_c5_names,
)
from fulkerson_lab.graph_core import (
    CubicGraph,
    Cycle,
    GraphError,
    Matching,
    cyclic_edge_connectivity_at_least,
    is_bridgeless,
)
from fulkerson_lab import ffamily, fulkerson, matchcolor
from fulkerson_lab.matchcolor import (
    PerfectMatching,
    enumerate_perfect_matchings,
    find_c5_two_factor,
    find_perfect_matching,
    three_edge_coloring,
    two_factor_cycles,
)
from fulkerson_lab.fulkerson import is_proper, verify_covering
from fulkerson_lab.ffamily import (
    C5StructureResult,
    DotStep,
    FFamily,
    StepOptionError,
    TransportError,
    covering_from_c5_structure,
    covering_from_ffamily,
    derive_n,
    dot_preserve_type1,
    dot_preserve_type2,
    enumerate_ffamilies,
    _cycle_condition,
    _end_labels,
    _ffamilies,
    _first_two_odd_cycle_pm,
    find_ffamily,
    iterate_dot_sequence,
    petersen_expansion,
    verify_ffamily,
)

from oracles import (
    balanced_subsets,
    brute_force_perfect_matchings,
    c5_structured_graph,
    ffamily_exists,
    ffamily_holds,
    random_cubic_multigraph,
    slot_ffamilies,
)


def ten_vertex_family():
    g = ten_vertex_c5_example()
    names = ten_vertex_c5_names()

    def eid(a, b):
        edges = g.edges_between(names[a], names[b])
        assert len(edges) == 1
        return edges[0]

    m = PerfectMatching(g, [eid(*p) for p in
                            (("a", "2"), ("b", "4"), ("c", "3"), ("d", "5"), ("e", "1"))])
    members = [Matching(g, [eid(*p)])
               for p in (("a", "2"), ("b", "4"), ("c", "3"), ("d", "5"))]
    n = derive_n(g, m, members)
    return g, FFamily(m, *members, n), eid


class TestVerifyFFamily:
    def test_ten_vertex_witness_verifies(self):
        g, fam, _ = ten_vertex_family()
        report = verify_ffamily(g, fam)
        assert report.ok, report.diagnostics

    def test_searched_petersen_family_verifies(self):
        g = petersen()
        res = find_ffamily(g)
        assert res.found
        assert verify_ffamily(g, res.value).ok

    def test_all_empty_members_fail_on_petersen(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        empty = [Matching(g, []) for _ in range(4)]
        fam = FFamily(m, *empty, Matching(g, []))
        report = verify_ffamily(g, fam)
        assert not report.ok
        assert report.diagnostics

    def test_refuses_a_family_of_another_graph(self):
        _, fam, _ = ten_vertex_family()
        with pytest.raises(GraphError, match="family belongs to a different graph"):
            verify_ffamily(petersen(), fam)

    def test_rejects_member_outside_matching(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        outside = next(e for e in g.edge_ids() if e not in m.members)
        with pytest.raises(GraphError):
            FFamily(m, Matching(g, [outside]), Matching(g, []), Matching(g, []),
                    Matching(g, []), Matching(g, []))

    def test_rejects_overlapping_members(self):
        g, fam, eid = ten_vertex_family()
        with pytest.raises(GraphError):
            FFamily(fam.m, fam.a, fam.a, fam.c, fam.d, fam.n_edges)

    def test_rejects_a_member_of_another_graph(self):
        _, fam, _ = ten_vertex_family()
        with pytest.raises(GraphError, match="family members live on different graphs"):
            FFamily(fam.m, Matching(petersen(), []), fam.b, fam.c, fam.d, fam.n_edges)

    def test_rejects_n_of_another_graph(self):
        _, fam, _ = ten_vertex_family()
        with pytest.raises(GraphError, match="N lives on a different graph"):
            FFamily(fam.m, *fam.members, Matching(petersen(), []))

    def test_rejects_n_meeting_the_matching(self):
        g, fam, _ = ten_vertex_family()
        with pytest.raises(GraphError, match="N must avoid the perfect matching"):
            FFamily(fam.m, *fam.members, Matching(g, [min(fam.m.members)]))


class TestDeriveN:
    def test_ten_vertex_hand_values(self):
        g, fam, eid = ten_vertex_family()
        expected = {eid("a", "b"), eid("c", "d"), eid("2", "3"), eid("4", "5")}
        assert fam.n_edges.members == expected

    def test_petersen_family_has_two_edges_per_pentagon(self):
        g = petersen()
        fam = find_ffamily(g).value
        cycles = two_factor_cycles(g, fam.m)
        for cyc in cycles:
            assert len(fam.n_edges.members & set(cyc.edges)) == 2
        assert len(fam.n_edges) == 4

    def test_violating_families_raise(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        members = [Matching(g, []) for _ in range(4)]
        with pytest.raises(GraphError):
            derive_n(g, m, members)  # odd cycles unmet

    def test_needs_four_members(self):
        g, fam, _ = ten_vertex_family()
        with pytest.raises(GraphError, match="an F-family has exactly four members"):
            derive_n(g, fam.m, [fam.a, fam.b, fam.c])

    def test_non_adjacent_determined_vertices_give_none(self):
        # on a C6 2-factor, pick two members with interleaved single...
        # build it directly: K4 has a C4 2-factor; 2+2 pattern with opposite
        # vertices has no adjacent pairing
        g = k4()
        m = enumerate_perfect_matchings(g)[0]
        e1, e2 = sorted(m.members)
        members = [Matching(g, [e1]), Matching(g, [e2]), Matching(g, []), Matching(g, [])]
        # the two chords determine all four C4 vertices; pairings exist here,
        # so instead check the documented None path via a crafted position set
        from fulkerson_lab.ffamily import _pairing_candidates
        cycles = two_factor_cycles(g, m)
        # positions 0 and 2 on a 4-cycle twice: no two adjacent pairs
        assert _pairing_candidates(cycles.cycles[0], [0, 0, 2, 2]) == []

    def test_a_met_cycle_with_no_pairing_gives_none(self):
        # m's 2-factor is a 13-cycle and a 7-cycle, and each member joins
        # them; on the 7-cycle the member ends sit at positions 0, 1, 2 and
        # 5, which no two disjoint cycle edges cover.
        g = flower_snark(5)
        m = [0, 2, 6, 8, 14, 17, 20, 23, 26, 27]
        assert derive_n(g, m, [[8], [14], [17], [20]]) is None

    def test_a_checked_family_walks_its_two_factor_once(self, monkeypatch):
        # the pair set and the check read one walk of G - m
        g, fam, _ = ten_vertex_family()
        walks = []
        walk = ffamily.two_factor_cycles
        monkeypatch.setattr(ffamily, "two_factor_cycles",
                            lambda *args: walks.append(1) or walk(*args))
        assert ffamily._checked_family(g, fam.m, fam.members, "members") == fam
        assert len(walks) == 1

    def test_a_checked_family_keeps_the_no_pair_set_refusal(self):
        g = flower_snark(5)
        m = [0, 2, 6, 8, 14, 17, 20, 23, 26, 27]
        with pytest.raises(GraphError, match="members admit no pair set"):
            ffamily._checked_family(g, m, [[8], [14], [17], [20]], "members")


class TestCoveringFromFFamily:
    def test_ten_vertex_proper_covering(self):
        g, fam, _ = ten_vertex_family()
        covering = covering_from_ffamily(g, fam)
        assert verify_covering(g, covering).ok
        assert is_proper(covering)

    def test_petersen_covering_is_the_six_matchings(self):
        g = petersen()
        fam = find_ffamily(g).value
        covering = covering_from_ffamily(g, fam)
        assert {m.members for m in covering.matchings} == \
            {m.members for m in enumerate_perfect_matchings(g)}

    def test_first_member_of_covering_is_m(self):
        g, fam, _ = ten_vertex_family()
        covering = covering_from_ffamily(g, fam)
        assert covering.matchings[0].members == fam.m.members

    def test_rejects_invalid_family(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        empty = [Matching(g, []) for _ in range(4)]
        fam = FFamily(m, *empty, Matching(g, []))
        with pytest.raises(GraphError):
            covering_from_ffamily(g, fam)

    @pytest.mark.parametrize("k", [5, 7])
    def test_flower_families_assemble(self, k):
        g = flower_snark(k)
        fam = find_ffamily(g).value
        covering = covering_from_ffamily(g, fam)
        assert verify_covering(g, covering).ok
        assert is_proper(covering)


class TestFindFFamily:
    def test_petersen_found(self):
        assert find_ffamily(petersen()).found

    def test_k4_definitely_absent(self):
        res = find_ffamily(k4())
        assert not res.found
        assert res.definitely_absent

    def test_members_all_nonempty(self):
        fam = find_ffamily(petersen()).value
        assert all(len(mem) >= 1 for mem in fam.members)

    def test_fixed_matching_variant(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        res = find_ffamily(g, m=m)
        assert res.found
        assert res.value.m.members == m.members

    def test_fixed_matching_without_family_is_absent(self):
        g = k4()
        m = enumerate_perfect_matchings(g)[0]
        res = find_ffamily(g, m=m)
        assert res.definitely_absent

    def test_budget_exhaustion_reports_unknown(self):
        res = find_ffamily(flower_snark(5), budget=Budget(limit=3))
        assert res.unknown

    def test_cancel_during_the_search_reports_unknown(self):
        # The matching stream asks cancel before its blossom searches and
        # each node asks it once, interleaved as the matchings are drawn.
        # A cancel keyed to the nodes spent fires halfway through a full
        # run wherever the stream's own calls fall.
        full = Budget()
        assert find_ffamily(flower_snark(9), budget=full).found
        half = full.spent // 2
        assert half > 0
        budget = Budget(cancel=lambda: budget.spent >= half)
        res = find_ffamily(flower_snark(9), budget=budget)
        assert res.unknown
        assert budget.exhausted and budget.spent == half

    def test_enumerate_families_petersen(self):
        res = enumerate_ffamilies(petersen())
        assert res.complete
        for fam in res.value[:3]:
            assert verify_ffamily(petersen(), fam).ok
        # members are four of the matching's five edges, so exactly five
        # families per matching, uniformly across matchings
        from collections import Counter

        per_matching = Counter(tuple(sorted(f.m.members)) for f in res.value)
        assert sorted(per_matching.values()) == [5] * 6


class TestDotTransports:
    def _petersen_type1_parts(self):
        g1 = petersen()
        m1 = enumerate_perfect_matchings(g1)[0]
        cycles1 = two_factor_cycles(g1, m1)
        g2 = petersen()
        fam2 = find_ffamily(g2).value
        member_edges = {e for mem in fam2.members for e in mem}
        xy = next(e for e in sorted(fam2.m.members) if e not in member_edges)
        spec = DotProductSpec(e1=min(cycles1.cycles[0].edges),
                              e2=min(cycles1.cycles[1].edges), e3=xy)
        return g1, m1, g2, fam2, xy, spec

    def test_type1_petersen_petersen(self):
        g1, m1, g2, fam2, xy, spec = self._petersen_type1_parts()
        result = dot_preserve_type1(g1, m1, g2, fam2, spec)
        assert result.graph.num_vertices == 18
        assert verify_ffamily(result.graph, result.family).ok
        covering = covering_from_ffamily(result.graph, result.family)
        assert verify_covering(result.graph, covering).ok

    def test_type1_rejects_xy_in_member(self):
        g1, m1, g2, fam2, xy, spec = self._petersen_type1_parts()
        bad = next(iter(fam2.a.members))
        with pytest.raises(TransportError):
            dot_preserve_type1(g1, m1, g2, fam2, DotProductSpec(e1=spec.e1, e2=spec.e2, e3=bad))

    def test_type1_rejects_wrong_cycle_count(self):
        # K3,3 admits matchings with a single 6-cycle complement
        from fulkerson_lab.generators import k33
        g1 = k33()
        m1 = enumerate_perfect_matchings(g1)[0]
        g2 = petersen()
        fam2 = find_ffamily(g2).value
        member_edges = {e for mem in fam2.members for e in mem}
        xy = next(e for e in sorted(fam2.m.members) if e not in member_edges)
        with pytest.raises(TransportError):
            dot_preserve_type1(g1, m1, g2, fam2, DotProductSpec(0, 2, xy))

    def test_type1_rejects_e1_off_the_cycles(self):
        g1, m1, g2, fam2, xy, spec = self._petersen_type1_parts()
        e_in_m = min(m1.members)
        bad_spec = DotProductSpec(e1=e_in_m, e2=spec.e2, e3=xy)
        with pytest.raises(TransportError):
            dot_preserve_type1(g1, m1, g2, fam2, bad_spec)

    @staticmethod
    def _unverified(fam):
        """fam with an empty N, which fails verification."""
        return replace(fam, n_edges=Matching(fam.m.graph, []))

    @staticmethod
    def _rejects(message, transport, *args, **kwargs):
        with pytest.raises(TransportError, match=f"^{re.escape(message)}$"):
            transport(*args, **kwargs)

    def test_type1_rejects_an_unverified_family(self):
        g1, m1, g2, fam2, xy, spec = self._petersen_type1_parts()
        self._rejects("the second factor's family fails verification", dot_preserve_type1,
                      g1, m1, g2, self._unverified(fam2), spec)

    def test_type1_rejects_xy_outside_the_matching(self):
        g1, m1, g2, fam2, xy, spec = self._petersen_type1_parts()
        bad = min(set(g2.edge_ids()) - fam2.m.members)
        self._rejects("xy must belong to the second factor's perfect matching",
                      dot_preserve_type1, g1, m1, g2, fam2, replace(spec, e3=bad))

    def test_type1_rejects_xy_on_one_cycle(self):
        # J5's first family has a 13-cycle and a 7-cycle, and its m-edge 0,
        # in no member, is a chord of the 13-cycle
        g1, m1, _, _, _, spec = self._petersen_type1_parts()
        g2 = flower_snark(5)
        fam2 = find_ffamily(g2).value
        assert 0 in fam2.m.members and not any(0 in mem.members for mem in fam2.members)
        self._rejects("xy must join two distinct odd cycles of the 2-factor",
                      dot_preserve_type1, g1, m1, g2, fam2, replace(spec, e3=0))

    def _type2_parts(self):
        g1 = petersen()
        fam1 = find_ffamily(g1).value
        g2 = petersen()
        m2 = enumerate_perfect_matchings(g2)[0]
        cycles2 = two_factor_cycles(g2, m2)
        first = set(cycles2.cycles[0].vertices)
        e3 = next(e for e in sorted(m2.members)
                  if len(set(g2.endpoints(e)) & first) == 1)
        return g1, fam1, g2, m2, e3

    def test_type2_petersen_petersen(self):
        g1, fam1, g2, m2, e3 = self._type2_parts()
        forbidden = fam1.m.members | fam1.n_edges.members
        candidates = [e for e in sorted(g1.edge_ids()) if e not in forbidden]
        done = False
        for i, xy in enumerate(candidates):
            for zt in candidates[i + 1:]:
                if set(g1.endpoints(xy)) & set(g1.endpoints(zt)):
                    continue
                result = dot_preserve_type2(g1, fam1, g2, m2,
                                            DotProductSpec(e1=xy, e2=zt, e3=e3))
                done = True
                break
            if done:
                break
        assert done
        assert result.graph.num_vertices == 18
        assert verify_ffamily(result.graph, result.family).ok

    def test_type2_rejects_xy_in_n(self):
        g1, fam1, g2, m2, e3 = self._type2_parts()
        bad = min(fam1.n_edges.members)
        other = next(e for e in sorted(g1.edge_ids())
                     if e not in fam1.m.members and e not in fam1.n_edges.members
                     and not set(g1.endpoints(e)) & set(g1.endpoints(bad)))
        with pytest.raises(TransportError):
            dot_preserve_type2(g1, fam1, g2, m2, DotProductSpec(e1=bad, e2=other, e3=e3))

    def _type2_args(self):
        """Keyword arguments of a type-2 transport that succeeds."""
        g1, fam1, g2, m2, e3 = self._type2_parts()
        forbidden = fam1.m.members | fam1.n_edges.members
        xy, zt = [e for e in sorted(g1.edge_ids()) if e not in forbidden][:2]
        return dict(g1=g1, fam1=fam1, g2=g2, m2=m2, spec=DotProductSpec(e1=xy, e2=zt, e3=e3))

    def test_type2_rejects_an_unverified_family(self):
        args = self._type2_args()
        args["fam1"] = self._unverified(args["fam1"])
        self._rejects("the first factor's family fails verification", dot_preserve_type2,
                      **args)

    def test_type2_rejects_xy_in_the_matching(self):
        args = self._type2_args()
        args["spec"] = replace(args["spec"], e1=min(args["fam1"].m.members))
        self._rejects("xy must avoid the perfect matching", dot_preserve_type2, **args)

    def test_type2_rejects_e3_on_one_cycle(self):
        # J5's first matching leaves a 13-cycle and a 7-cycle, and its edge 0
        # is a chord of the 13-cycle
        args = self._type2_args()
        args["g2"] = flower_snark(5)
        args["m2"] = enumerate_perfect_matchings(args["g2"])[0]
        args["spec"] = replace(args["spec"], e3=0)
        self._rejects("e3 must join the two odd cycles of g2's 2-factor", dot_preserve_type2,
                      **args)

    def test_type2_rejects_e3_outside_m2(self):
        g1, fam1, g2, m2, e3 = self._type2_parts()
        outside = next(e for e in sorted(g2.edge_ids()) if e not in m2.members)
        forbidden = fam1.m.members | fam1.n_edges.members
        xy, zt = [e for e in sorted(g1.edge_ids()) if e not in forbidden][:2]
        with pytest.raises(TransportError):
            dot_preserve_type2(g1, fam1, g2, m2, DotProductSpec(e1=xy, e2=zt, e3=outside))


class TestIteratePipeline:
    def test_empty_pipeline_is_the_base(self):
        result = iterate_dot_sequence(petersen(), [])
        assert result.graph == petersen()
        assert verify_covering(result.graph, result.covering).ok

    def test_one_step_18_vertices(self):
        result = iterate_dot_sequence(petersen(), [DotStep("type1", petersen())])
        assert result.graph.num_vertices == 18
        assert verify_ffamily(result.graph, result.family).ok
        assert verify_covering(result.graph, result.covering).ok

    def test_two_steps_26_vertices(self):
        result = iterate_dot_sequence(
            petersen(), [DotStep("type1", petersen()), DotStep("type2", petersen())])
        assert result.graph.num_vertices == 26
        assert verify_covering(result.graph, result.covering).ok

    def test_outputs_stay_snarks(self):
        result = iterate_dot_sequence(petersen(), [DotStep("type1", petersen())])
        g = result.graph
        assert is_bridgeless(g)
        assert three_edge_coloring(g) is None
        assert cyclic_edge_connectivity_at_least(g, 4)

    def test_step_failures_name_the_step(self):
        with pytest.raises(TransportError, match="step 1"):
            iterate_dot_sequence(petersen(), [DotStep("type1", k4())])

    def test_exhausted_factor_search_is_not_absence(self, monkeypatch):
        fam = find_ffamily(petersen()).value
        # Petersen's first family takes two nodes
        monkeypatch.setenv("FULKERSON_LAB_BUDGET", "1")
        with pytest.raises(BudgetExhausted, match="step 1 failed: .* 1-node budget"):
            iterate_dot_sequence(petersen(), [DotStep("type1", petersen())], base_family=fam)

    @pytest.mark.parametrize("kind,option,value", [
        ("type1", "e1", 27), ("type1", "e2", -1), ("type2", "e3", 15),
    ])
    def test_out_of_range_options_name_step_and_option(self, kind, option, value):
        # after step 1 the accumulated graph has edges 0..26; a Petersen factor has 0..14
        steps = [DotStep("type1", petersen()), DotStep(kind, petersen(), **{option: value})]
        with pytest.raises(StepOptionError, match=f"step 2: {option}={value} names no edge"):
            iterate_dot_sequence(petersen(), steps)

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError):
            iterate_dot_sequence(petersen(), [DotStep("type9", petersen())])


class TestC5StructurePipeline:
    def test_petersen(self):
        result = covering_from_c5_structure(petersen())
        assert result.found
        assert verify_covering(petersen(), result.covering).ok
        # Petersen's whole covering space is its six matchings
        assert {m.members for m in result.covering.matchings} == \
            {m.members for m in enumerate_perfect_matchings(petersen())}

    def test_ten_vertex(self):
        g = ten_vertex_c5_example()
        result = covering_from_c5_structure(g)
        assert result.found
        assert verify_covering(g, result.covering).ok

    def test_k4_has_no_c5_factor(self):
        result = covering_from_c5_structure(k4())
        assert not result.found
        assert "no 2-factor" in result.reason

    def test_flower_snark_j5_reports_reason(self):
        # J5 has 20 vertices but no chordless-C5 2-factor
        result = covering_from_c5_structure(flower_snark(5))
        assert isinstance(result, C5StructureResult)
        if not result.found:
            assert result.reason


class TestPetersenExpansion:
    def test_build_and_certify(self):
        exp = petersen_expansion()
        g = exp.graph
        assert g.num_vertices == 50
        assert g.num_edges == 75
        assert is_bridgeless(g)
        assert sorted(len(c) for c in exp.cycles) == [5] * 10
        assert three_edge_coloring(g) is None

    def test_two_factor_is_chordless(self):
        from fulkerson_lab.matchcolor import _chordless

        exp = petersen_expansion()
        assert all(_chordless(exp.graph, c.vertices) for c in exp.cycles)

    def test_contracted_graph_is_5_regular_and_bridgeless(self):
        from fulkerson_lab.matchcolor import shrink_to_gstar

        exp = petersen_expansion()
        shrunk = shrink_to_gstar(exp.graph, exp.matching, exp.cycles)
        assert shrunk.graph.num_vertices == 10
        assert all(shrunk.graph.degree(v) == 5 for v in shrunk.graph.vertices())
        assert is_bridgeless(shrunk.graph)


class TestCompositesStayClassTwo:
    def test_class_two_preserved_up_to_30_vertices(self):
        composites = [
            iterate_dot_sequence(petersen(), [DotStep("type1", petersen())]).graph,
            iterate_dot_sequence(petersen(), [DotStep("type1", petersen()),
                                              DotStep("type2", petersen())]).graph,
            iterate_dot_sequence(petersen(), [DotStep("type1", flower_snark(5))]).graph,
        ]
        assert [g.num_vertices for g in composites] == [18, 26, 28]
        for g in composites:
            assert three_edge_coloring(g) is None
            assert is_bridgeless(g)


def pentagons_and_hexagon(chords=True):
    """Two pentagons (0-4, 5-9) and a hexagon (10-15) wired by a matching.

    With chords=True the hexagon carries the matching chords 11-14 and
    12-15; otherwise the edges 10-11 and 12-13 are doubled instead and the
    pentagon tails attach at 14 and 15.
    """
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    edges += [(10 + i, 10 + (i + 1) % 6) for i in range(6)]
    edges += [(0, 5), (1, 6), (2, 7), (3, 8)]
    if chords:
        edges += [(4, 10), (9, 13), (11, 14), (12, 15)]
    else:
        edges += [(4, 14), (9, 15), (10, 11), (12, 13)]
    return CubicGraph(16, edges)


def crossed_hexagon_and_square():
    """A hexagon (0-5) and a square (6-9) left by the perfect matching
    m = {0-2, 1-3, 4-5, 6-8, 7-9}, returned with m.

    With the members {0-2}, {1-3}, {6-8} and {7-9} every cycle passes the
    incidence counts and its determined vertices end two disjoint cycle
    edges, but no member is balanced: each cuts its cycle into even arcs.
    """
    g = CubicGraph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2), (1, 3), (4, 5),
                        (6, 7), (7, 8), (8, 9), (9, 6), (6, 8), (7, 9)])
    return g, frozenset([6, 7, 8, 13, 14])


class TestEvenCyclePatterns:
    """Families that meet an even cycle: untouched, 2+2 and 4+0 shapes."""

    @staticmethod
    def _edge(g, u, v, idx=0):
        return g.edges_between(u, v)[idx]

    def _chorded(self):
        g = pentagons_and_hexagon(chords=True)
        e = lambda u, v: self._edge(g, u, v)
        m = PerfectMatching(g, [e(0, 5), e(1, 6), e(2, 7), e(3, 8),
                                e(4, 10), e(9, 13), e(11, 14), e(12, 15)])
        return g, e, m

    def _family_case(self, g, m, member_edge_sets):
        members = [Matching(g, edges) for edges in member_edge_sets]
        n = derive_n(g, m, members)
        assert n is not None
        return FFamily(m, *members, n)

    def test_untouched_even_cycle(self):
        g, e, m = self._chorded()
        fam = self._family_case(g, m, [[e(0, 5)], [e(1, 6)], [e(2, 7)], [e(3, 8)]])
        assert verify_ffamily(g, fam).ok
        covering = covering_from_ffamily(g, fam)
        assert verify_covering(g, covering).ok and is_proper(covering)

    def test_two_plus_two_pattern(self):
        g, e, m = self._chorded()
        fam = self._family_case(g, m, [[e(0, 5)], [e(1, 6)],
                                       [e(2, 7), e(12, 15)],
                                       [e(3, 8), e(11, 14)]])
        from fulkerson_lab.ffamily import _member_positions

        cycles = two_factor_cycles(g, fam.m)
        positions = _member_positions(g, cycles, fam.members)
        even = next(i for i, c in enumerate(cycles) if not c.is_odd)
        assert sorted(len(p) for p in positions[even]) == [0, 0, 2, 2]
        assert verify_ffamily(g, fam).ok
        covering = covering_from_ffamily(g, fam)
        assert verify_covering(g, covering).ok and is_proper(covering)

    def test_four_from_one_member_pattern(self):
        g = pentagons_and_hexagon(chords=False)
        e = lambda u, v, i=0: self._edge(g, u, v, i)
        m = PerfectMatching(g, [e(0, 5), e(1, 6), e(2, 7), e(3, 8),
                                e(4, 14), e(9, 15), e(10, 11, 1), e(12, 13, 1)])
        fam = self._family_case(g, m, [[e(0, 5)], [e(1, 6)], [e(2, 7)],
                                       [e(3, 8), e(10, 11, 1), e(12, 13, 1)]])
        from fulkerson_lab.ffamily import _member_positions

        cycles = two_factor_cycles(g, fam.m)
        positions = _member_positions(g, cycles, fam.members)
        even = next(i for i, c in enumerate(cycles) if not c.is_odd)
        assert sorted(len(p) for p in positions[even]) == [0, 0, 0, 4]
        assert verify_ffamily(g, fam).ok
        covering = covering_from_ffamily(g, fam)
        assert verify_covering(g, covering).ok and is_proper(covering)

    def test_two_endpoints_only_violate_the_even_condition(self):
        g, e, m = self._chorded()
        members = [Matching(g, [e(0, 5)]), Matching(g, [e(1, 6)]),
                   Matching(g, [e(2, 7), e(11, 14)]), Matching(g, [e(3, 8)])]
        with pytest.raises(GraphError):
            derive_n(g, m, members)

    def test_unbalanced_four_pattern_fails_verification(self):
        # both hexagon chords in one member: a valid 4+0 incidence shape,
        # but the chord endpoints cut the hexagon into even arcs
        g, e, m = self._chorded()
        members = [Matching(g, [e(0, 5)]), Matching(g, [e(1, 6)]),
                   Matching(g, [e(2, 7), e(11, 14), e(12, 15)]),
                   Matching(g, [e(3, 8)])]
        n = derive_n(g, m, members)
        fam = FFamily(m, *[Matching(g, mm.members) for mm in members], n)
        report = verify_ffamily(g, fam)
        assert not report.ok
        assert any("balanced" in d for d in report.diagnostics)


class TestEndLabelsAgreeWithTheVerifier:
    """The search's rule for four member ends on one cycle is `_cycle_condition`'s."""

    @staticmethod
    def _first_use(assignment):
        names = {}
        return tuple(names.setdefault(mem, len(names)) for mem in assignment)

    @pytest.mark.parametrize("length", range(4, 11))
    def test_every_four_ends_on_two_disjoint_edges(self, length):
        cycle = Cycle(tuple(range(length)), tuple(range(length)))
        edge_pairs = [{p, (p + 1) % length, q, (q + 1) % length}
                      for p in range(length) for q in range(length)]
        for posns in sorted({tuple(sorted(ends)) for ends in edge_pairs if len(ends) == 4}):
            accepted = set()
            for assignment in product(range(4), repeat=4):
                per_member = [[p for p, mem in zip(posns, assignment) if mem == mi]
                              for mi in range(4)]
                if _cycle_condition(cycle, per_member)[0] is None:
                    accepted.add(self._first_use(assignment))
            # end i holds own edge i, so each labelling is an assignment of the ends
            admitted = _end_labels(length % 2, tuple(p % 2 for p in posns), (-1,) * 4,
                                   (0, 1, 2, 3), -1)
            assert sorted(admitted) == sorted(accepted), posns


class TestVerifyDiagnosticsPins:
    """Exact diagnostics of invalid families, pinned across rewrites of the checks."""

    def test_unbalanced_member(self):
        # both hexagon chords in member 2: the incidence counts hold, the arcs do not
        g = pentagons_and_hexagon(chords=True)
        e = lambda u, v: g.edges_between(u, v)[0]
        m = PerfectMatching(g, [e(0, 5), e(1, 6), e(2, 7), e(3, 8),
                                e(4, 10), e(9, 13), e(11, 14), e(12, 15)])
        members = [Matching(g, [e(0, 5)]), Matching(g, [e(1, 6)]),
                   Matching(g, [e(2, 7), e(11, 14), e(12, 15)]), Matching(g, [e(3, 8)])]
        fam = FFamily(m, *members, Matching(g, [0, 2, 5, 7, 11, 14]))
        assert verify_ffamily(g, fam).diagnostics == (
            "member 2 is not balanced for the perfect matching",
            "cycle 2 (at vertex 10): member 2 splits the cycle into an even arc (not balanced)",
        )

    def test_odd_cycle_count(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        fam = FFamily(m, *[Matching(g, [])] * 4, Matching(g, []))
        assert verify_ffamily(g, fam).diagnostics == tuple(
            [f"member {mi} is not balanced for the perfect matching" for mi in range(4)]
            + [f"cycle {ci} (at vertex {ci}): an odd cycle must meet each member exactly once"
               for ci in range(2)])

    def test_even_cycle_count(self):
        # one chord of the hexagon in member 2: balanced, but two determined
        # vertices on an even cycle
        g = pentagons_and_hexagon(chords=True)
        e = lambda u, v: g.edges_between(u, v)[0]
        m = PerfectMatching(g, [e(0, 5), e(1, 6), e(2, 7), e(3, 8),
                                e(4, 10), e(9, 13), e(11, 14), e(12, 15)])
        members = [Matching(g, [e(0, 5)]), Matching(g, [e(1, 6)]),
                   Matching(g, [e(2, 7), e(11, 14)]), Matching(g, [e(3, 8)])]
        fam = FFamily(m, *members, Matching(g, [0, 2, 5, 7]))
        assert verify_ffamily(g, fam).diagnostics == (
            "cycle 2 (at vertex 10): an even cycle must meet the family in a 2+2 or 4+0 pattern",
        )

    def test_n_is_not_a_pairing(self):
        g, fam, _ = ten_vertex_family()
        shifted = FFamily(fam.m, *fam.members, Matching(g, [1, 3, 6, 8]))
        assert verify_ffamily(g, shifted).diagnostics == (
            "cycle 0 (at vertex 0): N does not restrict to a valid 2-edge matching "
            "of the determined vertices",
        )

    def test_empty_members(self):
        # the 2-factor is two 4-cycles, each met 2+2 by A and B; C and D are
        # empty, and every other check passes
        g = cube_q3()
        m = PerfectMatching(g, [0, 5, 8, 11])
        fam = FFamily(m, Matching(g, [0, 5]), Matching(g, [8, 11]), Matching(g, []),
                      Matching(g, []), Matching(g, [1, 3, 9, 10]))
        assert verify_ffamily(g, fam).diagnostics == ("member 2 is empty", "member 3 is empty")
        with pytest.raises(GraphError, match="fails verification: member 2 is empty"):
            covering_from_ffamily(g, fam)
        assert find_ffamily(g).definitely_absent

    def test_n_on_an_unmet_cycle(self):
        g = pentagons_and_hexagon(chords=True)
        e = lambda u, v: g.edges_between(u, v)[0]
        m = PerfectMatching(g, [e(0, 5), e(1, 6), e(2, 7), e(3, 8),
                                e(4, 10), e(9, 13), e(11, 14), e(12, 15)])
        members = [Matching(g, [e(0, 5)]), Matching(g, [e(1, 6)]),
                   Matching(g, [e(2, 7)]), Matching(g, [e(3, 8)])]
        n = derive_n(g, m, members)
        fam = FFamily(m, *members, Matching(g, n.members | {e(10, 11)}))
        assert verify_ffamily(g, fam).diagnostics == (
            "N contains edges on cycles the family does not meet",
        )


class TestGoldbergFamilies:
    def test_goldberg3_has_no_ffamily(self):
        # every 2-factor of the block graph contains a triangle, which the
        # odd-cycle condition cannot satisfy
        res = find_ffamily(goldberg(3))
        assert not res.found
        assert res.definitely_absent


class TestSearchPins:
    """Results and node counts of the F-family search, pinned across rewrites."""

    @pytest.mark.parametrize("make,found,spent", [
        (petersen, True, 2), (lambda: flower_snark(5), True, 15),
        (lambda: flower_snark(7), True, 28), (lambda: flower_snark(9), True, 45),
        (ten_vertex_c5_example, True, 64), (lambda: goldberg(3), False, 14),
        (k4, False, 6), (cube_q3, False, 60), (k33, False, 36),
        (lambda: pentagons_and_hexagon(chords=True), True, 10),
    ], ids=["petersen", "J5", "J7", "J9", "ten", "G3", "K4", "Q3", "K33", "hexagon"])
    def test_find_node_counts(self, make, found, spent):
        budget = Budget()
        res = find_ffamily(make(), budget=budget)
        assert res.found == found
        assert res.complete
        assert budget.spent == spent

    @pytest.mark.parametrize("make,families,spent", [
        (petersen, 30, 60), (lambda: flower_snark(5), 40, 530),
        (ten_vertex_c5_example, 5, 72),
        # most of these families meet the hexagon, in 2+2 or 4+0 shape
        (lambda: pentagons_and_hexagon(chords=True), 80, 458),
        (lambda: pentagons_and_hexagon(chords=False), 208, 831),
    ], ids=["petersen", "J5", "ten", "hexagon-chords", "hexagon-doubled"])
    def test_enumerate_counts(self, make, families, spent):
        g = make()
        budget = Budget()
        res = enumerate_ffamilies(g, budget=budget)
        assert res.complete
        assert len(res.value) == families
        assert budget.spent == spent
        assert all(verify_ffamily(g, fam).ok for fam in res.value)

    def test_goldberg5_is_absent_within_500k_nodes(self):
        # 418 of its 619 perfect matchings leave a triangle and cost no node
        budget = Budget(limit=500_000)
        res = find_ffamily(goldberg(5), budget=budget)
        assert res.definitely_absent
        assert budget.spent == 1827

    def test_long_even_cycle_gives_unknown_not_recursion_error(self):
        # the second copies of the doubled edges leave one 2400-cycle, and
        # all 1200 matching edges are chords of it
        g = doubled_matching_cycle(2400)
        budget = Budget(limit=20_000)
        res = find_ffamily(g, m=range(2400, 3600), budget=budget)
        assert res.unknown
        assert budget.exhausted


class TestSlotOrder:
    """The placement search yields the families of the former slot search, in its order."""

    @staticmethod
    def _labels(families):
        return [tuple(tuple(sorted(mem.members)) for mem in fam.members) for fam in families]

    def _assert_same_sequence(self, g):
        for pm in enumerate_perfect_matchings(g):
            assert (self._labels(_ffamilies(g, pm, Budget(), two_factor_cycles(g, pm)))
                    == self._labels(slot_ffamilies(g, pm, Budget())))

    @pytest.mark.parametrize("make", [
        petersen, lambda: flower_snark(5), lambda: flower_snark(7), ten_vertex_c5_example,
        lambda: goldberg(3), k4, cube_q3, k33, lambda: pentagons_and_hexagon(chords=True),
        lambda: pentagons_and_hexagon(chords=False),
    ], ids=["petersen", "J5", "J7", "ten", "G3", "K4", "Q3", "K33", "hexagon-chords",
            "hexagon-doubled"])
    def test_named_graphs(self, make):
        self._assert_same_sequence(make())

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_multigraphs(self, data):
        self._assert_same_sequence(random_cubic_multigraph(data, max_order=12))


class TestOracleDifferential:
    @pytest.mark.parametrize("make", [petersen, ten_vertex_c5_example, k4, cube_q3, k33],
                             ids=["petersen", "ten", "K4", "Q3", "K33"])
    def test_named_graphs_agree_with_brute_force(self, make):
        g = make()
        for m in brute_force_perfect_matchings(g):
            assert find_ffamily(g, m=m).found == ffamily_exists(g, m)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_find_agrees_with_brute_force(self, data):
        g = random_cubic_multigraph(data, max_order=10, bridgeless=True)
        for m in brute_force_perfect_matchings(g):
            assert find_ffamily(g, m=m).found == ffamily_exists(g, m)

    @staticmethod
    def _verify_agrees_with_the_definition(g, m, labels, balanced=None) -> bool:
        """Checks m's edges, sorted and labelled by member (-1 is none), with
        `verify_ffamily` against `ffamily_holds`; returns whether they hold."""
        members = [frozenset(e for e, k in zip(sorted(m), labels) if k == mi) for mi in range(4)]
        holds = ffamily_holds(g, m, members, balanced)
        try:
            n = derive_n(g, m, members)
        except GraphError:
            n = None
        if n is None:
            assert not holds
        else:
            fam = FFamily(PerfectMatching(g, m), *(Matching(g, mem) for mem in members), n)
            assert verify_ffamily(g, fam).ok == holds
        return holds

    @pytest.mark.parametrize("make,families", [
        (lambda: (petersen(), brute_force_perfect_matchings(petersen())[0]), 120),
        (lambda: (ten_vertex_c5_example(),
                  brute_force_perfect_matchings(ten_vertex_c5_example())[0]), 0),
        (crossed_hexagon_and_square, 0),
    ], ids=["petersen", "ten", "crossed"])
    def test_verify_agrees_with_the_definition_on_every_labelling(self, make, families):
        g, m = make()
        balanced = balanced_subsets(g, m)
        held = [self._verify_agrees_with_the_definition(g, m, labels, balanced)
                for labels in product(range(-1, 4), repeat=len(m))]
        assert sum(held) == families

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_verify_agrees_with_the_definition(self, data):
        g = random_cubic_multigraph(data, max_order=10, bridgeless=True)
        m = data.draw(st.sampled_from(brute_force_perfect_matchings(g)))
        labels = data.draw(st.lists(st.integers(-1, 3), min_size=len(m), max_size=len(m)))
        self._verify_agrees_with_the_definition(g, m, labels)


class TestFirstMatchStream:
    """Searches that stop at a first match read the lazy canonical stream,
    never a full listing, and past the matching cap they answer unknown."""

    @pytest.mark.parametrize("search", [
        lambda: find_ffamily(flower_snark(9)).found,
        lambda: find_c5_two_factor(petersen_expansion().graph) is not None,
        lambda: _first_two_odd_cycle_pm(flower_snark(17)) is not None,
        lambda: find_perfect_matching(goldberg(7)) is not None,
        lambda: petersen_expansion().graph.num_vertices == 50,
    ], ids=["find_ffamily-J9", "find_c5_two_factor", "_first_two_odd_cycle_pm",
            "find_perfect_matching", "petersen_expansion"])
    def test_never_lists_every_matching(self, monkeypatch, search):
        def refuse(*args, **kwargs):
            raise AssertionError("a first-match search listed every perfect matching")

        for module in (matchcolor, fulkerson, ffamily):
            if hasattr(module, "enumerate_perfect_matchings"):
                monkeypatch.setattr(module, "enumerate_perfect_matchings", refuse)
        monkeypatch.setattr(matchcolor._MatchingRecord, "listing", refuse)
        assert search()

    @staticmethod
    def _found_from_cap(monkeypatch, g, first):
        # the cap counts the matchings of the stream that avoids the excluded
        # edges; the factor is that of its `first`-th matching
        want = find_c5_two_factor(g)
        monkeypatch.setattr(matchcolor, "DEFAULT_PM_LIMIT", first)
        assert find_c5_two_factor(g) == want
        monkeypatch.setattr(matchcolor, "DEFAULT_PM_LIMIT", first - 1)
        with pytest.raises(BudgetExhausted, match=f"first {first - 1} perfect matchings"):
            find_c5_two_factor(g)

    def test_c5_factor_past_the_cap_is_unknown(self, monkeypatch):
        # the expansion's first chordless-C5 2-factor is that of the first
        # matching that avoids the excluded edges (its 899th of 1,286 in all)
        self._found_from_cap(monkeypatch, petersen_expansion().graph, 1)

    def test_a_later_c5_factor_past_the_cap_is_unknown(self, monkeypatch):
        self._found_from_cap(monkeypatch, c5_structured_graph(4, 87), 4)

    def test_family_search_past_the_cap_is_unknown(self, monkeypatch):
        # G5 has no F-family, but only its first two matchings are read
        monkeypatch.setattr(matchcolor, "DEFAULT_PM_LIMIT", 2)
        budget = Budget()
        res = find_ffamily(goldberg(5), budget=budget)
        assert res.unknown and budget.exhausted
        assert not enumerate_ffamilies(goldberg(5)).complete

    def test_two_odd_cycle_matching_of_a_large_flower_snark_comes_fast(self):
        g = flower_snark(17)
        start = time.perf_counter()
        m, cycles = _first_two_odd_cycle_pm(g)
        assert time.perf_counter() - start < 0.1
        # the canonical first matching already leaves two odd cycles
        assert m == find_perfect_matching(g)
        assert sorted(len(c) for c in cycles) == [19, 49]


class TestRejectedTwoFactorsBuildNothing:
    """A 2-factor that fails a search's cycle test is rejected at its first
    failing cycle, before any `Cycle` or `PerfectMatching` is built for it."""

    @staticmethod
    def _count(monkeypatch, cls):
        made = []
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args: made.append(1) or init(self, *args))
        return made

    def test_absence_proof_on_goldberg5_wraps_no_matching(self, monkeypatch):
        g = goldberg(5)
        made = self._count(monkeypatch, PerfectMatching)
        res = find_ffamily(g, budget=Budget(limit=500_000))
        assert res.definitely_absent
        assert made == []

    def test_c5_search_on_the_expansion_builds_few_cycles(self, monkeypatch):
        # one matching is drawn, and its 2-factor's ten 5-cycles are all
        # that is built
        g = petersen_expansion().graph
        made = self._count(monkeypatch, Cycle)
        assert find_c5_two_factor(g) is not None
        assert len(made) == 10

    def test_c5_search_on_the_expansion_draws_one_matching(self, monkeypatch):
        # the edges that no chordless-C5 2-factor leaves in its matching are
        # excluded before the first draw, and one matching avoids all 45 of
        # them; the whole stream reaches the same one at its 899th
        g = petersen_expansion().graph
        drawn = []
        stream = matchcolor._canonical_matchings

        def counted(*args, **kwargs):
            for m in stream(*args, **kwargs):
                drawn.append(m)
                yield m

        monkeypatch.setattr(matchcolor, "_canonical_matchings", counted)
        m, _ = find_c5_two_factor(g)
        assert drawn == [m.members]
        assert len(matchcolor._c5_exclusions(g)) == 45
