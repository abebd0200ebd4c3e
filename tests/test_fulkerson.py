import time
from itertools import combinations

import pytest

from hypothesis import given, settings, strategies as st

from fulkerson_lab.budget import Budget, BudgetExhausted
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
from fulkerson_lab.ffamily import DotStep, find_ffamily, iterate_dot_sequence
from fulkerson_lab.graph_core import CubicGraph, GraphError, Matching
from fulkerson_lab.matchcolor import (
    PerfectMatching,
    color_classes_as_matchings,
    enumerate_perfect_matchings,
    split_and_suppress,
    three_edge_colorable,
    three_edge_coloring,
)
from fulkerson_lab.fulkerson import (
    FRTriple,
    FulkersonCovering,
    LiftError,
    ProperCoveringWitness,
    are_compatible,
    covering_from_compatible,
    enumerate_fr_triples,
    enumerate_fulkerson_coverings,
    find_fr_triple,
    find_fulkerson_covering,
    fr_triple_from_matchings,
    is_bi_hamiltonian,
    is_proper,
    proper_covering_from_witness,
    t_partition,
    verify_covering,
)
from oracles import (
    SearchCounts,
    brute_force_perfect_matchings,
    covering_exists,
    enumerated_fr_triple,
    fr_triple_partitions,
    fr_triple_scan,
    naive_three_cuts,
    proper_covering_exists,
    random_cubic_multigraph,
    seeded_cubic_multigraph,
)


def petersen_triples():
    g = petersen()
    pms = enumerate_perfect_matchings(g)
    return g, [FRTriple(pms[i], pms[j], pms[k])
               for i, j, k in combinations(range(6), 3)]


def color_triple(g):
    return FRTriple(*color_classes_as_matchings(three_edge_coloring(g)))


def chain8():
    """The 82-vertex graph of the pipeline `base petersen`, `dot type1
    petersen`, then eight `dot type2 petersen` steps."""
    steps = [DotStep("type1", petersen())] + [DotStep("type2", petersen())] * 8
    return iterate_dot_sequence(petersen(), steps).graph


def bridged_prisms(k):
    """Two k-prisms, each with one rung subdivided, joined by a bridge
    between the two subdivision vertices: every perfect matching holds the
    bridge, so there is no FR-triple."""
    edges = []
    for off in (0, 2 * k + 1):
        for i in range(k):
            edges += [(off + i, off + (i + 1) % k), (off + k + i, off + k + (i + 1) % k)]
        edges += [(off + i, off + k + i) for i in range(1, k)]
        edges += [(off, off + 2 * k), (off + 2 * k, off + k)]
    edges.append((2 * k, 4 * k + 1))
    return CubicGraph(4 * k + 2, edges)


class TestFRTriple:
    def test_rejects_common_edge(self):
        g = k33()
        m = enumerate_perfect_matchings(g)[0]
        with pytest.raises(GraphError):
            FRTriple(m, m, m)

    def test_any_three_petersen_matchings_form_a_triple(self):
        g, triples = petersen_triples()
        assert len(triples) == 20  # constructor validated each


class TestTPartition:
    def test_k4_color_classes_cover_once(self):
        g = k4()
        part = t_partition(g, color_triple(g))
        assert len(part.t1) == g.num_edges
        assert len(part.t0) == 0 and len(part.t2) == 0

    def test_petersen_triples_have_disjoint_nonempty_t0_t2(self):
        g, triples = petersen_triples()
        for t in triples:
            part = t_partition(g, t)
            assert len(part.t0) == 3 and len(part.t2) == 3
            assert not part.t0.members & part.t2.members
            Matching(g, part.t0.members)
            Matching(g, part.t2.members)

    def test_partition_is_exhaustive(self):
        g, triples = petersen_triples()
        part = t_partition(g, triples[0])
        union = part.t0.members | part.t1.members | part.t2.members
        assert union == frozenset(g.edge_ids())


class TestVerifyCovering:
    def test_k4_doubled_classes(self):
        g = k4()
        classes = color_classes_as_matchings(three_edge_coloring(g))
        covering = FulkersonCovering(tuple(classes) + tuple(classes))
        assert verify_covering(g, covering).ok

    def test_petersen_six_matchings(self):
        g = petersen()
        covering = FulkersonCovering(tuple(enumerate_perfect_matchings(g)))
        report = verify_covering(g, covering)
        assert report.ok
        assert report.violations() == ()

    def test_one_matching_six_times_fails_with_report(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        report = verify_covering(g, FulkersonCovering((m,) * 6))
        assert not report.ok
        for e in g.edge_ids():
            assert report.coverage[e] == (6 if e in m.members else 0)

    def test_wrong_size_rejected(self):
        g = petersen()
        m = enumerate_perfect_matchings(g)[0]
        with pytest.raises(GraphError):
            FulkersonCovering((m,) * 5)


class TestCompatibility:
    def test_petersen_covering_split_is_compatible(self):
        g = petersen()
        pms = enumerate_perfect_matchings(g)
        t1 = FRTriple(pms[0], pms[1], pms[2])
        t2 = FRTriple(pms[3], pms[4], pms[5])
        assert are_compatible(t1, t2)
        covering = covering_from_compatible(t1, t2)
        assert verify_covering(g, covering).ok

    def test_triple_not_self_compatible_when_t0_differs_from_t2(self):
        g, triples = petersen_triples()
        t = triples[0]
        assert not are_compatible(t, t)

    def test_k4_color_triple_self_compatible(self):
        t = color_triple(k4())
        assert are_compatible(t, t)
        covering = covering_from_compatible(t, t)
        assert verify_covering(k4(), covering).ok

    def test_incompatible_raises_on_merge(self):
        g, triples = petersen_triples()
        with pytest.raises(GraphError):
            covering_from_compatible(triples[0], triples[0])


class TestWrongGraphRefusals:
    """The checks that refuse parts of another graph, each with its message."""

    def test_a_triple_lives_on_one_graph(self):
        m = enumerate_perfect_matchings(k4())[0]
        with pytest.raises(GraphError, match="triple members live on different graphs"):
            FRTriple(m, m, enumerate_perfect_matchings(k33())[0])

    def test_a_covering_lives_on_one_graph(self):
        m = enumerate_perfect_matchings(k4())[0]
        with pytest.raises(GraphError, match="covering members live on different graphs"):
            FulkersonCovering((m,) * 5 + (enumerate_perfect_matchings(k33())[0],))

    def test_t_partition_refuses_a_triple_of_another_graph(self):
        with pytest.raises(GraphError, match="triple belongs to a different graph"):
            t_partition(petersen(), color_triple(k4()))

    def test_verify_covering_refuses_a_covering_of_another_graph(self):
        classes = tuple(color_classes_as_matchings(three_edge_coloring(k4())))
        with pytest.raises(GraphError, match="covering belongs to a different graph"):
            verify_covering(petersen(), FulkersonCovering(classes + classes))

    def test_are_compatible_refuses_triples_of_two_graphs(self):
        _, triples = petersen_triples()
        with pytest.raises(GraphError, match="triples live on different graphs"):
            are_compatible(color_triple(k4()), triples[0])

    def test_a_witness_coloring_of_another_graph_is_refused(self):
        witness = ProperCoveringWitness(three_edge_coloring(k4()), ((0, 1), (1, 2)))
        with pytest.raises(GraphError, match="witness coloring belongs to a different graph"):
            proper_covering_from_witness(cube_q3(), witness)


class TestLift:
    def test_k4_empty_case_gives_color_classes(self):
        g = k4()
        triple = fr_triple_from_matchings(g, [], [])
        part = t_partition(g, triple)
        assert len(part.t1) == g.num_edges

    def test_petersen_round_trip(self):
        g, triples = petersen_triples()
        for t in triples:
            part = t_partition(g, t)
            lifted = fr_triple_from_matchings(g, part.t2.members, part.t0.members)
            lpart = t_partition(g, lifted)
            assert lpart.t2.members == part.t2.members
            assert lpart.t0.members == part.t0.members

    def test_rejects_paths(self):
        g = petersen()
        with pytest.raises(LiftError):
            fr_triple_from_matchings(g, [0], [2])

    def test_rejects_overlap(self):
        g = petersen()
        with pytest.raises(LiftError):
            fr_triple_from_matchings(g, [0], [0])

    def test_rejects_uncolorable_split(self):
        # splitting nothing on the Petersen graph leaves it class 2
        with pytest.raises(LiftError):
            fr_triple_from_matchings(petersen(), [], [])

    def test_lift_that_runs_out_of_its_budget_raises_budget_exhausted(self):
        # One node would already draw the first matching, which colors this split.
        with pytest.raises(BudgetExhausted):
            fr_triple_from_matchings(petersen(), [0, 3, 6], [4, 11, 13], Budget(limit=0))

    def test_budgeted_lift_of_an_uncolorable_split_is_still_a_lift_error(self):
        budget = Budget()
        with pytest.raises(LiftError):
            fr_triple_from_matchings(petersen(), [], [], budget)
        assert budget.spent > 0 and not budget.exhausted

    def test_theta_digon_lift(self):
        triple = fr_triple_from_matchings(theta(), [0], [1])
        part = t_partition(theta(), triple)
        assert part.t2.members == frozenset([0])
        assert part.t0.members == frozenset([1])

    @pytest.mark.parametrize("make,t2,t0,want", [
        (petersen, [0, 3, 6], [4, 11, 13],
         [[1, 3, 6, 7, 10], [0, 2, 5, 6, 14], [0, 3, 8, 9, 12]]),
        (lambda: flower_snark(5), [0, 2, 6, 14, 20, 23, 25, 27], [4, 5, 7, 11, 18, 21, 24, 29],
         [[0, 2, 6, 8, 14, 17, 20, 23, 26, 27], [0, 2, 6, 9, 13, 16, 20, 23, 25, 27],
          [1, 3, 10, 12, 14, 15, 19, 22, 25, 28]]),
    ], ids=["petersen", "J5"])
    def test_pinned_lifts_of_first_triples(self, make, t2, t0, want):
        # (t2, t0) is the T-partition of the graph's first FR-triple
        g = make()
        part = t_partition(g, find_fr_triple(g).value)
        assert (sorted(part.t2.members), sorted(part.t0.members)) == (t2, t0)
        triple = fr_triple_from_matchings(g, t2, t0)
        assert [sorted(m.members) for m in triple.matchings] == want


class TestFindFRTriple:
    @pytest.mark.parametrize("make", [petersen, k33, lambda: flower_snark(5)])
    def test_found(self, make):
        res = find_fr_triple(make())
        assert res.found

    def test_canonical_first_for_petersen(self):
        g = petersen()
        pms = enumerate_perfect_matchings(g)
        res = find_fr_triple(g)
        got = sorted(tuple(sorted(m.members)) for m in res.value.matchings)
        want = sorted(tuple(sorted(m.members)) for m in (pms[0], pms[1], pms[2]))
        assert got == want

    def test_budget_exhaustion_reports_unknown(self):
        res = find_fr_triple(flower_snark(5), budget=Budget(limit=1))
        assert res.unknown

    def test_search_stopped_after_a_failing_pair_is_unknown(self):
        # No matching of J5 avoids M_0, so pair (0, 0) fails and pair (0, 1)
        # answers; a budget of one node stops the walk between the two.
        budget = Budget(limit=1)
        res = find_fr_triple(flower_snark(5), budget=budget)
        assert res.unknown and not res.definitely_absent
        assert budget.exhausted and budget.spent == 2
        budget = Budget(limit=2)
        assert find_fr_triple(flower_snark(5), budget=budget).found
        assert budget.spent == 2 and not budget.exhausted

    def test_matching_cap_does_not_limit_the_search(self, monkeypatch):
        want = find_fr_triple(flower_snark(5))
        monkeypatch.setattr("fulkerson_lab.matchcolor.DEFAULT_PM_LIMIT", 2)
        assert find_fr_triple(flower_snark(5)) == want

    @staticmethod
    def draws_of_find_fr_triple(monkeypatch, g):
        """find_fr_triple(g) with every listing refused, and the number of
        matchings drawn into each `_MatchingRecord` it starts."""
        from fulkerson_lab import fulkerson, matchcolor

        def refuse(*args, **kwargs):
            raise AssertionError("find_fr_triple listed every perfect matching")

        records = []

        class Kept(matchcolor._MatchingRecord):
            def __init__(self, *args):
                super().__init__(*args)
                records.append(self)

        monkeypatch.setattr(matchcolor, "enumerate_perfect_matchings", refuse)
        monkeypatch.setattr(matchcolor._MatchingRecord, "listing", refuse)
        monkeypatch.setattr(fulkerson, "_MatchingRecord", Kept)
        res = find_fr_triple(g)
        return res, [len(r.drawn) for r in records]

    # The first triple comes at pair (0, 1) on Petersen and J5 and at (0, 3)
    # on G5, and the walk has drawn M_0 ... M_j.
    @pytest.mark.parametrize("make,draws", [
        (petersen, 2), (lambda: flower_snark(5), 2), (lambda: goldberg(5), 4),
    ], ids=["petersen", "J5", "G5"])
    def test_never_lists_every_matching(self, monkeypatch, make, draws):
        want = enumerated_fr_triple(make())
        assert self.draws_of_find_fr_triple(monkeypatch, make()) == (want, [draws])

    # The first triples of the enumerating search (now `enumerated_fr_triple`),
    # pinned from one run of it: J19 took 48 s, G9 6.6 s.
    J19_TRIPLE = [
        [0, 2, 4, 6, 8, 10, 12, 14, 16, 20, 22, 24, 26, 28, 30, 32, 34, 36, 56, 59, 62, 65, 68,
         71, 74, 77, 80, 83, 86, 89, 92, 95, 98, 101, 104, 107, 110, 111],
        [0, 2, 4, 6, 8, 10, 12, 14, 16, 20, 22, 24, 26, 28, 30, 32, 34, 37, 55, 58, 62, 65, 68,
         71, 74, 77, 80, 83, 86, 89, 92, 95, 98, 101, 104, 107, 109, 111],
        [1, 3, 5, 7, 9, 11, 13, 15, 17, 38, 40, 42, 44, 46, 48, 50, 52, 54, 56, 57, 61, 64, 67,
         70, 73, 76, 79, 82, 85, 88, 91, 94, 97, 100, 103, 106, 109, 112],
    ]
    G9_TRIPLE = [
        [0, 5, 6, 7, 12, 13, 14, 19, 20, 21, 26, 27, 28, 33, 34, 35, 40, 41, 42, 47, 48, 49, 54,
         55, 57, 59, 62, 63, 69, 73, 79, 83, 89, 93, 99, 105],
        [0, 5, 6, 7, 12, 13, 14, 19, 20, 21, 26, 27, 28, 33, 34, 35, 40, 41, 42, 47, 48, 49, 54,
         59, 60, 61, 63, 64, 73, 74, 83, 84, 93, 94, 101, 102],
        [1, 3, 8, 10, 15, 17, 22, 24, 29, 31, 36, 38, 43, 45, 51, 53, 58, 60, 62, 65, 66, 67, 69,
         75, 76, 77, 79, 85, 86, 87, 89, 95, 96, 97, 98, 105],
    ]

    @pytest.mark.parametrize("make,want,pairs", [
        (lambda: flower_snark(19), J19_TRIPLE, 2),
        (lambda: goldberg(9), G9_TRIPLE, 4),
    ], ids=["J19", "G9"])
    def test_pinned_first_triples_come_fast(self, make, want, pairs):
        g = make()
        budget = Budget()
        start = time.perf_counter()
        res = find_fr_triple(g, budget=budget)
        assert time.perf_counter() - start < 0.1
        assert [sorted(m.members) for m in res.value.matchings] == want
        assert budget.spent == pairs

    @pytest.mark.parametrize("make,draws", [(lambda: flower_snark(19), 2),
                                            (lambda: goldberg(9), 4)], ids=["J19", "G9"])
    def test_pinned_first_triples_draw_few_matchings(self, monkeypatch, make, draws):
        res, drawn = self.draws_of_find_fr_triple(monkeypatch, make())
        assert res.found and drawn == [draws]

    @pytest.mark.parametrize("k,queries", [(4, 45), (5, 47)])
    def test_an_edge_in_every_matching_ends_the_walk(self, k, queries):
        # After the pairs (0, j), the queries on M_0's edges find the bridge,
        # and absence is proved without asking the other pairs.
        g = bridged_prisms(k)
        budget = Budget()
        res = find_fr_triple(g, budget)
        assert res.definitely_absent
        assert budget.spent == queries
        assert res == enumerated_fr_triple(g)

    def test_j21_past_the_matching_cap(self):
        # 2^21 perfect matchings, more than the enumeration keeps
        g = flower_snark(21)
        res = find_fr_triple(g)
        assert res.found
        FRTriple(*(PerfectMatching(g, m.members) for m in res.value.matchings))

    def test_enumerate_starts_with_the_first_triple(self):
        g = petersen()
        res = enumerate_fr_triples(g)
        assert res.complete
        assert len(res.value) == 20
        assert res.value[0] == find_fr_triple(g).value

    def test_enumerate_under_a_small_budget_is_incomplete(self):
        res = enumerate_fr_triples(petersen(), budget=Budget(limit=1))
        assert not res.complete
        assert res.value == []

    @staticmethod
    def cancelled(fire_on):
        """A budget whose cancel fires at its `fire_on`-th call, and the calls."""
        calls = []
        return Budget(cancel=lambda: calls.append(None) or len(calls) >= fire_on), calls

    @pytest.mark.parametrize("make", [petersen, lambda: flower_snark(5), lambda: goldberg(5)],
                             ids=["petersen", "J5", "G5"])
    def test_a_cancel_before_the_first_triple_gives_unknown(self, make):
        # Wherever the cancel fires, inside a pair query or at a pair's node,
        # the walk ends with no triple and asks cancel no more.
        budget, calls = self.cancelled(float("inf"))
        assert find_fr_triple(make(), budget).found
        for fire_on in range(1, len(calls) + 1):
            budget, calls = self.cancelled(fire_on)
            assert find_fr_triple(make(), budget).unknown
            assert len(calls) == fire_on

    def test_a_cancelled_enumeration_is_a_prefix(self):
        g = flower_snark(5)
        budget, calls = self.cancelled(float("inf"))
        full = enumerate_fr_triples(g, budget).value
        for fire_on in range(1, len(calls) + 1, 50):
            budget, calls = self.cancelled(fire_on)
            res = enumerate_fr_triples(g, budget)
            assert not res.complete and res.value == full[:len(res.value)]
            assert len(calls) == fire_on


class TestFRTripleOracle:
    """The pair walk returns what the enumerate-then-scan search returns,
    found or definitely absent, on connected cubic multigraphs, bridged ones
    included (some of which have no triple)."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_same_result_as_the_enumerating_search(self, data):
        g = random_cubic_multigraph(data, max_order=12)
        res = find_fr_triple(g)
        assert res == enumerated_fr_triple(g)
        assert res.complete

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_enumeration_is_the_index_triple_scan(self, data):
        # Every triple in index order, and a run cut by a cancel at its k-th
        # pair query is incomplete and keeps a prefix.
        g = random_cubic_multigraph(data, max_order=10)
        budget = Budget()
        res = enumerate_fr_triples(g, budget)
        assert res.complete
        got = [tuple(m.members for m in t.matchings) for t in res.value]
        assert got == list(fr_triple_scan(brute_force_perfect_matchings(g), Budget()))
        if budget.spent:
            k = data.draw(st.integers(min_value=1, max_value=budget.spent))
            cut_budget = Budget(cancel=lambda: cut_budget.spent >= k)
            cut = enumerate_fr_triples(g, cut_budget)
            assert not cut.complete
            assert cut.value == res.value[:len(cut.value)]


class TestFindCovering:
    def test_k4_color_strategy(self):
        g = k4()
        res = find_fulkerson_covering(g, "color")
        assert res.found
        assert verify_covering(g, res.value).ok
        assert not is_proper(res.value)

    def test_petersen_exact2cover_uses_all_six(self):
        g = petersen()
        res = find_fulkerson_covering(g, "exact2cover")
        assert res.found
        assert {m.members for m in res.value.matchings} == \
            {m.members for m in enumerate_perfect_matchings(g)}

    @pytest.mark.parametrize("strategy", ["color", "exact2cover", "a1a2", "auto"])
    def test_j3_every_strategy(self, strategy):
        g = flower_snark(3)
        res = find_fulkerson_covering(g, strategy)
        if strategy == "color":
            assert not res.found  # class 2, and color proves nothing
            assert res.unknown
        else:
            assert res.found
            assert verify_covering(g, res.value).ok

    def test_unknown_strategy_rejected(self):
        with pytest.raises(GraphError):
            find_fulkerson_covering(k4(), "dance")

    @pytest.mark.parametrize("strategy", ["AUTO", "Color"])
    def test_strategy_names_match_exactly(self, strategy):
        with pytest.raises(GraphError, match="expected one of .*'exact2cover'"):
            find_fulkerson_covering(k4(), strategy)

    @staticmethod
    def refuse_listings(monkeypatch):
        """Makes every capped listing of the perfect matchings fail."""
        def refuse(*args, **kwargs):
            raise AssertionError("listed the perfect matchings")

        monkeypatch.setattr("fulkerson_lab.matchcolor._MatchingRecord.listing", refuse)

    # Out of budget from the first node: AUTO's colour stage draws nothing,
    # then one stream decides whether g has a perfect matching; EXACT2COVER
    # draws M_0 before its counting DP; A1A2 draws M_0 before its first pair
    # query.
    @pytest.mark.parametrize("strategy,calls", [
        ("auto", 1), ("color", 0), ("exact2cover", 1), ("a1a2", 1),
    ])
    def test_matchings_enumerated_at_most_once(self, monkeypatch, strategy, calls):
        counts = SearchCounts(monkeypatch)
        res = find_fulkerson_covering(flower_snark(5), strategy, budget=Budget(limit=0))
        assert res.unknown
        assert len(counts.starts) == calls

    @pytest.mark.parametrize("search", [
        lambda g: find_fulkerson_covering(g, "a1a2"),
        # a short run: the full one yields 3,228,016 triples
        lambda g: enumerate_fr_triples(g, Budget(limit=10)),
    ], ids=["a1a2", "enumerate_fr_triples"])
    def test_the_fr_triple_walk_lists_no_matchings(self, monkeypatch, search):
        self.refuse_listings(monkeypatch)
        assert search(goldberg(5)).value

    def test_a1a2_wraps_only_what_its_lifts_build(self, monkeypatch):
        import fulkerson_lab.fulkerson as fulkerson

        made = []
        init = PerfectMatching.__init__
        monkeypatch.setattr(PerfectMatching, "__init__",
                            lambda self, *args: made.append(self) or init(self, *args))
        lifted = []
        lift = fulkerson.fr_triple_from_matchings
        monkeypatch.setattr(fulkerson, "fr_triple_from_matchings",
                            lambda *args: lifted.append(lift(*args)) or lifted[-1])
        res = find_fulkerson_covering(goldberg(5), "a1a2")
        assert res.found
        # the covering is the last two lifts' six matchings: the triple's
        # own lift, then its partner's, which was lifted first
        assert made == [m for t in lifted for m in t.matchings]
        assert list(res.value.matchings) == made[-3:] + made[-6:-3]

    @pytest.mark.parametrize("make,calls", [
        (lambda: flower_snark(5), 1), (lambda: flower_snark(7), 1), (lambda: flower_snark(9), 1),
        (petersen, 1), (lambda: goldberg(5), 1), (lambda: goldberg(7), 1),
    ], ids=["J5", "J7", "J9", "petersen", "G5", "G7"])
    def test_auto_lists_once_unless_the_colour_stream_ended(self, monkeypatch, make, calls):
        # AUTO lists no matching at all now.  The colour stage starts its
        # own stream (`calls`): the frontier refuter refutes the snarks'
        # colourings after 32 draws, Petersen's stream ends after its six
        # matchings.  The exact cover then starts one stream for M_0 and one per
        # branching node, six on the way to each of these covers, exactly
        # as EXACT2COVER does.
        self.refuse_listings(monkeypatch)
        counts = SearchCounts(monkeypatch)
        assert find_fulkerson_covering(make()).found
        assert len(counts.starts) == calls + 7
        assert find_fulkerson_covering(make(), "exact2cover").found
        assert len(counts.starts) == calls + 14

    @pytest.mark.parametrize("k", [5, 7, 9])
    def test_auto_covering_from_the_reused_stream_is_exact2covers(self, k):
        g = flower_snark(k)
        auto = find_fulkerson_covering(g, "auto")
        exact = find_fulkerson_covering(g, "exact2cover")
        assert [m.members for m in auto.value.matchings] == \
            [m.members for m in exact.value.matchings]

    def test_auto_past_the_state_cap_lists_nothing(self, monkeypatch):
        # `_COUNT_CAP` bounds the states that the counting DP keeps.  Past it
        # the exact cover lists nothing: it and the covering enumeration are
        # unknown, never absent, and AUTO goes on to A1A2.
        g = flower_snark(7)
        self.refuse_listings(monkeypatch)
        monkeypatch.setattr("fulkerson_lab.matchcolor._COUNT_CAP", 2)
        exact = find_fulkerson_covering(g, "exact2cover")
        assert exact.unknown and not exact.definitely_absent
        every = enumerate_fulkerson_coverings(g)
        assert every.value == [] and not every.complete
        auto = find_fulkerson_covering(g, "auto")
        assert auto.found and auto == find_fulkerson_covering(g, "a1a2")

    # The colour stage spends 63 and 321 nodes (Petersen's stream ends after
    # its six matchings, J5's refuter refutes it after the stream's 32
    # draws), the exact cover 11 and 15: its order search, and one step of
    # the forward pass, after which the DP keeps more than 3 states; A1A2
    # spends the last 20, nine for each of the two matchings its lifts draw.
    @pytest.mark.parametrize("make,spent", [(petersen, 94), (lambda: flower_snark(5), 356)],
                             ids=["petersen", "J5"])
    def test_auto_falls_through_to_a1a2_past_the_matching_cap(self, monkeypatch, make, spent):
        # with a state cap of 3 the counting DP gives up on its first pass,
        # so the exact cover is unknown and AUTO's last stage, A1A2, finds
        # the covering
        monkeypatch.setattr("fulkerson_lab.matchcolor._COUNT_CAP", 3)
        g = make()
        assert find_fulkerson_covering(g, "exact2cover").unknown
        budget = Budget()
        auto = find_fulkerson_covering(g, "auto", budget)
        a1a2 = find_fulkerson_covering(g, "a1a2")
        assert auto.found and auto == a1a2
        assert budget.spent == spent

    def test_cancel_inside_the_colour_stream_gives_unknown(self, monkeypatch):
        import sys

        import fulkerson_lab.fulkerson as fulkerson

        self.refuse_listings(monkeypatch)
        covers = []
        two_covers = fulkerson._two_covers
        monkeypatch.setattr(fulkerson, "_two_covers",
                            lambda *args: covers.append(args) or two_covers(*args))
        asked = []

        def cancel():
            # Budget.stopped asks on behalf of the canonical stream; fire
            # at its 100th question, well before J9's 512 matchings are drawn.
            if sys._getframe(2).f_code.co_name == "_canonical_matchings":
                asked.append(True)
            return len(asked) >= 100

        budget = Budget(cancel=cancel)
        res = find_fulkerson_covering(flower_snark(9), budget=budget)
        assert len(asked) >= 100
        assert budget.exhausted
        assert res.unknown
        assert covers == []

    def test_auto_wraps_only_the_matchings_it_returns(self, monkeypatch):
        made = []
        init = PerfectMatching.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PerfectMatching, "__init__", counting)
        res = find_fulkerson_covering(goldberg(5))
        assert res.found
        # G5 has 619 perfect matchings; only the covering's six are wrapped
        assert len(made) <= 6

    def test_auto_stops_once_the_colour_stage_spends_the_budget(self, monkeypatch):
        import time

        self.refuse_listings(monkeypatch)
        # 32 draws spend 288 nodes: 200 runs out among the draws, 300 inside
        # the frontier refuter
        for limit in (200, 300):
            start = time.perf_counter()
            budget = Budget(limit=limit)
            res = find_fulkerson_covering(flower_snark(17), budget=budget)
            assert time.perf_counter() - start < 2
            assert res.unknown and budget.exhausted

    def test_auto_out_of_budget_still_proves_absence_without_a_perfect_matching(self):
        from test_matchcolor import three_bridges

        budget = Budget(limit=0)
        res = find_fulkerson_covering(three_bridges(k4()), budget=budget)
        assert budget.exhausted
        assert res.definitely_absent

    # AUTO on the snark-search benchmark's graphs: the colour stage's draws
    # and refuter, then the exact cover and its counting DP.  A DP that
    # spends or branches differently moves these.  G5 and G7 have cuts of
    # three edges, and the exact cover skips the matchings that hold one
    # whole; without that they spend 1,985 and 2,668.
    @pytest.mark.parametrize("make,spent", [
        (lambda: flower_snark(9), 758), (lambda: flower_snark(11), 851),
        (lambda: goldberg(5), 1418), (lambda: goldberg(7), 1877),
    ], ids=["J9", "J11", "G5", "G7"])
    def test_auto_node_counts(self, make, spent):
        budget = Budget()
        assert find_fulkerson_covering(make(), "auto", budget).found
        assert budget.spent == spent

    def test_cancel_inside_the_first_a1a2_lift_gives_unknown(self, monkeypatch):
        import fulkerson_lab.fulkerson as fulkerson

        lifts = []
        lift = fulkerson.fr_triple_from_matchings
        monkeypatch.setattr(fulkerson, "fr_triple_from_matchings",
                            lambda *args: lifts.append(args) or lift(*args))
        # cancel fires at the first node the first lift's colouring spends
        res = find_fulkerson_covering(petersen(), "a1a2", budget=Budget(cancel=lambda: bool(lifts)))
        assert res.unknown
        assert len(lifts) == 1

    def test_enumerate_coverings_theta(self):
        # theta has three single-edge matchings; the unique covering repeats each
        res = enumerate_fulkerson_coverings(theta())
        assert res.complete
        assert len(res.value) == 1
        assert not is_proper(res.value[0])

    def test_enumerate_coverings_petersen(self):
        res = enumerate_fulkerson_coverings(petersen())
        assert res.complete
        assert len(res.value) == 1
        assert is_proper(res.value[0])


class TestNoPerfectMatching:
    """Three K4s, each with one edge subdivided, bridged to a centre: cubic,
    16 vertices and no perfect matching.  Every search that needs one proves
    absence, except COLOR, which proves nothing."""

    @staticmethod
    def graph():
        from test_matchcolor import three_bridges

        return three_bridges(k4())

    def test_color_is_unknown(self):
        assert find_fulkerson_covering(self.graph(), "color").unknown

    @pytest.mark.parametrize("strategy", ["a1a2", "auto"])
    def test_other_strategies_prove_absence(self, strategy):
        assert find_fulkerson_covering(self.graph(), strategy).definitely_absent

    def test_exact_cover_proves_absence_in_no_node(self):
        budget = Budget()
        assert find_fulkerson_covering(self.graph(), "exact2cover", budget).definitely_absent
        assert budget.spent == 0

    def test_fr_triple_and_ffamily_are_absent(self):
        assert find_fr_triple(self.graph()).definitely_absent
        assert find_ffamily(self.graph()).definitely_absent

    def test_covering_listing_is_empty_and_complete(self):
        # the empty matching listing itself is pinned in test_matchcolor
        res = enumerate_fulkerson_coverings(self.graph())
        assert res.complete and res.value == []


class TestExactCoverEngine:
    """Node counts, certificate and unknowns of the exact 2-cover.  Any
    change to its branching, child order or budget spending moves them."""

    G5_COVER = [
        [1, 3, 7, 12, 13, 14, 19, 20, 21, 26, 27, 28, 33, 36, 40, 46, 50, 56, 58, 59],
        [1, 3, 8, 10, 13, 15, 17, 20, 22, 24, 27, 29, 31, 36, 42, 46, 52, 56, 58, 59],
        [2, 4, 6, 9, 11, 16, 18, 22, 24, 28, 33, 37, 40, 43, 44, 47, 51, 53, 54, 55],
        [2, 4, 6, 8, 10, 14, 19, 23, 25, 30, 32, 37, 41, 43, 44, 45, 52, 53, 54, 55],
        [0, 5, 7, 12, 15, 17, 23, 25, 30, 32, 34, 35, 38, 39, 41, 47, 48, 49, 50, 57],
        [0, 5, 9, 11, 16, 18, 21, 26, 29, 31, 34, 35, 38, 39, 42, 45, 48, 49, 51, 57],
    ]

    # 8, 8 and 17 cover nodes; the rest are the frontier DP's order search,
    # vertex steps and state blocks.  G5 would take 24 cover nodes and 1,645
    # in all without skipping the matchings that hold a cut of three edges
    # (`TestThreeCuts`).
    @pytest.mark.parametrize("make,spent", [
        (lambda: flower_snark(5), 237),
        (lambda: flower_snark(9), 419),
        (lambda: goldberg(5), 1078),
    ], ids=["J5", "J9", "G5"])
    def test_node_counts(self, make, spent):
        budget = Budget(limit=5_000_000)
        assert find_fulkerson_covering(make(), "exact2cover", budget).found
        assert budget.spent == spent

    def test_goldberg_five_certificate(self):
        res = find_fulkerson_covering(goldberg(5), "exact2cover", Budget(limit=5_000_000))
        assert [sorted(m.members) for m in res.value.matchings] == self.G5_COVER

    def test_small_budget_is_unknown_not_absent(self):
        g = goldberg(5)
        res = find_fulkerson_covering(g, "exact2cover", Budget(limit=3))
        assert res.unknown and not res.definitely_absent
        res_all = enumerate_fulkerson_coverings(g, Budget(limit=3))
        assert res_all.value == [] and not res_all.complete

    def test_node_budget_does_not_cap_the_matchings(self):
        # The node budget caps no matchings: on G5 the search spends its
        # three nodes, in the frontier DP's order search, and runs out,
        # rather than running out of branches among the first three
        # matchings with budget to spare.
        budget = Budget(limit=3)
        res = find_fulkerson_covering(goldberg(5), "exact2cover", budget)
        assert res.unknown
        assert budget.exhausted and budget.spent == 4

    def test_the_search_frees_its_record_without_the_cyclic_collector(self, monkeypatch):
        # the record, and the DP plan and cuts beside it, go as the call
        # returns, not when the cyclic collector runs
        import gc
        import weakref

        import fulkerson_lab.fulkerson as fulkerson

        records = []

        class Record(fulkerson._MatchingRecord):
            def __init__(self, *args):
                super().__init__(*args)
                records.append(weakref.ref(self))

        monkeypatch.setattr(fulkerson, "_MatchingRecord", Record)
        gc.disable()
        try:
            assert find_fulkerson_covering(goldberg(5), "exact2cover").found
            assert len(records) == 1 and records[0]() is None
        finally:
            gc.enable()

    def test_edgeless_graph_is_covered_by_six_empty_matchings(self):
        g = CubicGraph(0, [])
        for strategy in ("exact2cover", "color", "auto"):
            res = find_fulkerson_covering(g, strategy)
            assert [m.members for m in res.value.matchings] == [frozenset()] * 6
            assert verify_covering(g, res.value).ok
        assert find_fulkerson_covering(g, "exact2cover").complete
        res_all = enumerate_fulkerson_coverings(g)
        assert res_all.complete
        assert [[m.members for m in c.matchings] for c in res_all.value] == [[frozenset()] * 6]


class TestThreeCuts:
    """A perfect matching meets a cut of three edges in one or three of
    them, and the six of a covering meet it six times, once each, so the
    exact cover skips the matchings that hold a whole one."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_the_cuts_are_the_brute_force_ones(self, data):
        import fulkerson_lab.fulkerson as fulkerson

        g = random_cubic_multigraph(data, max_order=12, loops=True)
        cuts = fulkerson._three_cuts(g)
        assert len(cuts) == len(set(cuts))
        assert set(cuts) == naive_three_cuts(g)

    def test_the_named_graphs(self):
        import fulkerson_lab.fulkerson as fulkerson

        # J3's central triangle; J5 and J7 are cyclically 4-edge-connected
        assert [len(fulkerson._three_cuts(flower_snark(k))) for k in (3, 5, 7)] == [1, 0, 0]
        assert [len(fulkerson._three_cuts(goldberg(k))) for k in (5, 7)] == [9, 11]
        assert fulkerson._three_cuts(petersen()) == fulkerson._three_cuts(k33()) == []

    # (nodes spent with the skip, and without it)
    @pytest.mark.parametrize("make,spent", [
        (lambda: goldberg(5), (1078, 1645)),
        (lambda: seeded_cubic_multigraph(40, 7, bridgeless=True), (263, 19271)),
        (lambda: seeded_cubic_multigraph(44, 11, bridgeless=True), (287, 27007)),
    ], ids=["G5", "random-40", "random-44"])
    def test_skipping_changes_no_cover(self, monkeypatch, make, spent):
        # a skipped matching lies in no covering, so the first cover is the
        # one found without the skip, which only saves nodes
        import fulkerson_lab.fulkerson as fulkerson

        g = make()
        budget = Budget()
        res = find_fulkerson_covering(g, "exact2cover", budget)
        monkeypatch.setattr(fulkerson, "_three_cuts", lambda g: [])
        unskipped = Budget()
        assert find_fulkerson_covering(g, "exact2cover", unskipped) == res
        assert (budget.spent, unskipped.spent) == spent

    def test_skipping_keeps_every_covering(self, monkeypatch):
        import fulkerson_lab.fulkerson as fulkerson

        g = seeded_cubic_multigraph(18, 4, bridgeless=True)
        budget = Budget()
        every = enumerate_fulkerson_coverings(g, budget)
        assert every.complete and len(every.value) == 10
        monkeypatch.setattr(fulkerson, "_three_cuts", lambda g: [])
        unskipped = Budget()
        assert enumerate_fulkerson_coverings(g, unskipped) == every
        assert (budget.spent, unskipped.spent) == (1263, 1426)

    def test_a_deep_cover_fits_a_small_budget(self, monkeypatch):
        # Without the skip the cover search tries every partner of a first
        # matching that holds a whole cut of three edges, each a dead end
        # that costs a recount, and 20,000 nodes do not reach the cover.
        import fulkerson_lab.fulkerson as fulkerson

        g = seeded_cubic_multigraph(60, 11, bridgeless=True)
        budget = Budget(limit=1000)
        res = find_fulkerson_covering(g, "exact2cover", budget)
        assert res.found and verify_covering(g, res.value).ok and budget.spent == 533
        monkeypatch.setattr(fulkerson, "_three_cuts", lambda g: [])
        assert find_fulkerson_covering(g, "exact2cover", Budget(limit=20_000)).unknown


class TestListingFreeCover:
    """The exact cover counts the perfect matchings by a frontier DP and
    lists none; past the DP's state bound the cover is unknown."""

    @staticmethod
    def first_cover(g, budget):
        """The first cover `_two_covers` yields and the nodes the cover
        search itself spent."""
        import sys

        import fulkerson_lab.fulkerson as fulkerson

        nodes = []
        budget.cancel = lambda: sys._getframe(2).f_code.co_name == "search" and nodes.append(1)
        return next(fulkerson._two_covers(g, budget), None), len(nodes)

    @staticmethod
    def count_listings(monkeypatch):
        from fulkerson_lab import matchcolor

        listings = []
        listing = matchcolor._MatchingRecord.listing
        monkeypatch.setattr(matchcolor._MatchingRecord, "listing",
                            lambda *args: listings.append(args) or listing(*args))
        return listings

    @pytest.mark.parametrize("make,nodes", [
        (petersen, 8), (lambda: flower_snark(5), 8), (lambda: flower_snark(7), 8),
        (lambda: flower_snark(9), 8), (lambda: flower_snark(11), 8),
        (lambda: flower_snark(13), 8), (lambda: goldberg(5), 17), (lambda: goldberg(7), 17),
    ], ids=["petersen", "J5", "J7", "J9", "J11", "J13", "G5", "G7"])
    def test_the_counts_and_the_listing_choose_the_same_six(self, monkeypatch, make, nodes):
        # the DP's counts against counts read off a listing of every
        # perfect matching, which only this test makes
        import fulkerson_lab.fulkerson as fulkerson

        g = make()
        listings = self.count_listings(monkeypatch)
        counted = self.first_cover(g, Budget())
        assert listings == []
        pms = [m.members for m in enumerate_perfect_matchings(g)]

        def listed_counts(g, moves, closed, budget):
            usable = [m for m in pms if not any(closed >> e & 1 for e in m)]
            return [sum(e in m for m in usable) for e in range(g.num_edges)]

        monkeypatch.setattr(fulkerson, "_holder_counts", listed_counts)
        assert self.first_cover(g, Budget()) == counted
        cover, spent = counted
        assert verify_covering(g, FulkersonCovering(tuple(PerfectMatching(g, m)
                                                          for m in cover))).ok
        assert spent == nodes

    def test_past_the_state_bound_the_cover_is_unknown(self, monkeypatch):
        # G5's root pass keeps 2,947 states over its layers, 296 in the
        # widest: at a bound of 2,947 the cover finds its certificate, and
        # AUTO, whose colour refuter gives up at a cap of 2, gives the same;
        # one below it the cover and the covering enumeration are unknown,
        # never absent.  Neither lists.
        g = goldberg(5)
        want = find_fulkerson_covering(g, "exact2cover")
        want_all = enumerate_fulkerson_coverings(k33())
        assert len(want_all.value) == 3
        listings = self.count_listings(monkeypatch)
        monkeypatch.setattr("fulkerson_lab.matchcolor._FRONTIER_CAP", 2)
        monkeypatch.setattr("fulkerson_lab.matchcolor._COUNT_CAP", 2947)
        assert find_fulkerson_covering(g, "exact2cover") == want
        assert find_fulkerson_covering(g, "auto") == want
        assert enumerate_fulkerson_coverings(k33()) == want_all
        monkeypatch.setattr("fulkerson_lab.matchcolor._COUNT_CAP", 2946)
        budget = Budget()
        capped = find_fulkerson_covering(g, "exact2cover", budget)
        assert capped.unknown and not capped.definitely_absent and not budget.exhausted
        every = enumerate_fulkerson_coverings(g)
        assert every.value == [] and not every.complete
        assert listings == []

    # EXACT2COVER's certificates on two random graphs whose counting DP
    # passes the colour refuter's cap, as the `certificate covering` text
    # that the CLI writes; taken from the exact cover that listed every
    # perfect matching past that cap
    SEEDED_COVERING_SHA256 = {
        0: "94fb72376f4487c5da07471214cdccfc7f6e1aa9e40234dbf63770f88482e8d4",
        1: "1e86624ad4d2f5c644519d2ce583e30d8c589fb6e85265b2bdceabdc0cb924a6",
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact2cover_past_the_refuters_cap_lists_nothing(self, monkeypatch, seed):
        import hashlib

        from fulkerson_lab import matchcolor
        from fulkerson_lab.cli import certificate_of_covering, write_certificate

        TestFindCovering.refuse_listings(monkeypatch)
        sizes = []
        step = matchcolor._matching_step
        monkeypatch.setattr(matchcolor, "_matching_step",
                            lambda *args: sizes.append(len(after := step(*args))) or after)
        g = seeded_cubic_multigraph(60, seed, bridgeless=True)
        res = find_fulkerson_covering(g, "exact2cover")
        assert res.found and verify_covering(g, res.value).ok
        # the widest layer comes from the first forward pass, which closes
        # no edge: closed edges only remove states
        assert max(sizes) > matchcolor._FRONTIER_CAP
        out = write_certificate(certificate_of_covering(res.value))
        assert hashlib.sha256(out.encode()).hexdigest() == self.SEEDED_COVERING_SHA256[seed]

    @staticmethod
    def spend_sites(g):
        """For each node that EXACT2COVER spends on g, in order, the search
        that spends it: the cover itself, the order search, or the forward
        or backward pass of the DP."""
        import sys

        sites = []

        def cancel():
            # asked by Budget.spend, or by Budget.stopped for the stream
            if sys._getframe(1).f_code.co_name == "spend":
                name = sys._getframe(2).f_code.co_name
                if name == "_spend_on":
                    # `_holder_counts` binds `finish` as its backward pass starts
                    dp = sys._getframe(3)
                    name = dp.f_code.co_name + (".backward" if "finish" in dp.f_locals
                                                else ".forward")
                sites.append(name)
            return False

        budget = Budget(cancel=cancel)
        assert find_fulkerson_covering(g, "exact2cover", budget).found
        return sites

    @pytest.mark.parametrize("site", ["search", "_frontier_order", "_holder_counts.forward",
                                      "_holder_counts.backward"])
    def test_running_out_of_budget_anywhere_is_unknown(self, site):
        # at the cover's own nodes, as well as inside the DP
        g = goldberg(5)
        sites = self.spend_sites(g)
        assert len(sites) == 1078 and sites.count("search") == 17
        at = [k for k, s in enumerate(sites) if s == site]
        for k in (at[0], at[len(at) // 2], at[-1]):
            budget = Budget(limit=k)
            res = find_fulkerson_covering(g, "exact2cover", budget)
            assert res.unknown and budget.exhausted and budget.spent == k + 1
            budget = Budget(cancel=lambda: budget.spent > k)
            res = find_fulkerson_covering(g, "exact2cover", budget)
            assert res.unknown and budget.exhausted and budget.spent == k + 1

    @pytest.mark.parametrize("make", [lambda: flower_snark(21), lambda: flower_snark(101)],
                             ids=["J21", "J101"])
    def test_auto_past_the_old_listing_cap(self, monkeypatch, make):
        # J21 has 2,097,152 perfect matchings, J101 2^101: more than the
        # matching cap, which only a listing would meet
        g = make()
        listings = self.count_listings(monkeypatch)
        res = find_fulkerson_covering(g)
        assert res.found and verify_covering(g, res.value).ok
        assert listings == []


class TestCoveringOracle:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_exact2cover_and_enumeration_match_brute_force(self, data):
        g = random_cubic_multigraph(data, max_order=10, bridgeless=True)
        res = find_fulkerson_covering(g, "exact2cover")
        assert res.complete
        assert res.found == covering_exists(g)
        if res.found:
            assert verify_covering(g, res.value).ok
        res_all = enumerate_fulkerson_coverings(g)
        assert res_all.complete
        assert bool(res_all.value) == res.found
        assert any(is_proper(c) for c in res_all.value) == proper_covering_exists(g)


class TestProperness:
    def test_petersen_six_matchings_proper(self):
        covering = FulkersonCovering(tuple(enumerate_perfect_matchings(petersen())))
        assert is_proper(covering)

    def test_doubled_classes_not_proper(self):
        for g in (k4(), theta()):
            classes = color_classes_as_matchings(three_edge_coloring(g))
            assert not is_proper(FulkersonCovering(tuple(classes) + tuple(classes)))

    @pytest.mark.parametrize("make", [petersen, lambda: flower_snark(5)])
    def test_class_two_coverings_always_proper(self, make):
        g = make()
        res = find_fulkerson_covering(g)
        assert res.found and is_proper(res.value)


class TestLemmaSuite:
    def test_split_of_t2_always_colorable(self):
        g, triples = petersen_triples()
        for t in triples:
            part = t_partition(g, t)
            s = split_and_suppress(g, part.t2.members, partner=part.t0.members)
            assert three_edge_colorable(s) is not None

    def test_any_three_of_a_covering_form_a_triple(self):
        g = flower_snark(3)
        res = find_fulkerson_covering(g, "exact2cover")
        ms = res.value.matchings
        for i, j, k in combinations(range(6), 3):
            FRTriple(ms[i], ms[j], ms[k])  # constructor asserts empty intersection

    @pytest.mark.parametrize("make", [k4, petersen, lambda: flower_snark(3), theta])
    def test_covering_round_trip_through_compatibility(self, make):
        g = make()
        res = find_fulkerson_covering(g)
        assert res.found
        ms = res.value.matchings
        t1 = FRTriple(ms[0], ms[1], ms[2])
        t2 = FRTriple(ms[3], ms[4], ms[5])
        assert are_compatible(t1, t2)
        assert verify_covering(g, covering_from_compatible(t1, t2)).ok


class TestLiftProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_lift_round_trips_on_matching_differences(self, data):
        # the symmetric difference of two perfect matchings is always a
        # disjoint union of alternating even cycles
        pool = [petersen(), k33(), cube_q3(), flower_snark(3),
                ten_vertex_c5_example()]
        g = data.draw(st.sampled_from(pool))
        pms = enumerate_perfect_matchings(g)
        i = data.draw(st.integers(0, len(pms) - 1))
        j = data.draw(st.integers(0, len(pms) - 1))
        a1 = pms[i].members - pms[j].members
        a2 = pms[j].members - pms[i].members
        try:
            triple = fr_triple_from_matchings(g, a1, a2)
        except LiftError:
            return  # the split need not be colorable; nothing to check
        part = t_partition(g, triple)
        assert part.t2.members == a1
        assert part.t0.members == a2

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_lift_succeeds_exactly_on_triple_partitions(self, data):
        g = random_cubic_multigraph(data, max_order=10)
        partitions = fr_triple_partitions(g)
        pms = brute_force_perfect_matchings(g)
        for m1 in pms:
            for m2 in pms:
                pair = (m1 - m2, m2 - m1)
                try:
                    triple = fr_triple_from_matchings(g, *pair)
                except LiftError:
                    assert pair not in partitions
                    continue
                assert pair in partitions
                part = t_partition(g, triple)
                assert (part.t2.members, part.t0.members) == pair


class TestTripleCharacterization:
    """Equivalence between triples and alternating matching pairs, exhaustively."""

    @staticmethod
    def _all_matchings(g):
        out = [frozenset()]
        edges = sorted(g.edge_ids())

        def rec(idx, used, chosen):
            for pos in range(idx, len(edges)):
                e = edges[pos]
                u, v = g.endpoints(e)
                if u in used or v in used:
                    continue
                nxt = chosen | {e}
                out.append(frozenset(nxt))
                rec(pos + 1, used | {u, v}, nxt)

        rec(0, set(), set())
        return out

    @pytest.mark.parametrize("make", [theta, k4, k33,
                                      lambda: doubled_matching_cycle(4)])
    def test_triple_exists_iff_a_valid_pair_exists(self, make):
        from fulkerson_lab.graph_core import cycle_decomposition

        g = make()
        pair_found = False
        matchings = self._all_matchings(g)
        for a1 in matchings:
            for a2 in matchings:
                if a1 & a2:
                    continue
                try:
                    cycle_decomposition(g, a1 | a2)
                except GraphError:
                    continue
                s = split_and_suppress(g, a1, partner=a2)
                if three_edge_colorable(s) is not None:
                    pair_found = True
                    # the lift must then deliver a triple with this partition
                    triple = fr_triple_from_matchings(g, a1, a2)
                    part = t_partition(g, triple)
                    assert part.t2.members == a1 and part.t0.members == a2
                    break
            if pair_found:
                break
        assert find_fr_triple(g).found == pair_found


class TestBiHamiltonian:
    def test_cube_is_not(self):
        report = is_bi_hamiltonian(cube_q3())
        assert not report.is_bi_hamiltonian
        assert report.witness is not None
        assert len(report.witness.pairs) == 2

    def test_ten_vertex_example_is(self):
        assert is_bi_hamiltonian(ten_vertex_c5_example()).is_bi_hamiltonian

    def test_doubled_matching_cycle_6_regression(self):
        # every coloring has two Hamiltonian pairs (the doubled pairs split)
        assert is_bi_hamiltonian(doubled_matching_cycle(6)).is_bi_hamiltonian

    def test_k33_is(self):
        assert is_bi_hamiltonian(k33()).is_bi_hamiltonian

    def test_class_two_input_is_an_error(self):
        with pytest.raises(GraphError):
            is_bi_hamiltonian(petersen())


class TestWitnessCovering:
    def test_cube_witness_gives_proper_covering(self):
        g = cube_q3()
        report = is_bi_hamiltonian(g)
        covering = proper_covering_from_witness(g, report.witness)
        assert verify_covering(g, covering).ok
        assert is_proper(covering)

    def test_hamiltonian_pair_in_witness_is_an_error(self):
        from fulkerson_lab.fulkerson import ProperCoveringWitness

        g = ten_vertex_c5_example()
        # find a coloring with at least one Hamiltonian pair and claim it
        from fulkerson_lab.matchcolor import enumerate_three_edge_colorings, phi_two_factor

        for coloring in enumerate_three_edge_colorings(g):
            ham = None
            other = None
            for x, y in ((0, 1), (0, 2), (1, 2)):
                cycles = phi_two_factor(coloring, x, y)
                if len(cycles) == 1 and len(cycles.cycles[0]) == g.num_vertices:
                    ham = (x, y)
                else:
                    other = (x, y)
            if ham and other and set(ham) & set(other):
                witness = ProperCoveringWitness(coloring, (ham, other))
                with pytest.raises(GraphError):
                    proper_covering_from_witness(g, witness)
                return
        pytest.skip("no suitable coloring found")

    def test_witness_pairs_must_share_a_color(self):
        from fulkerson_lab.fulkerson import ProperCoveringWitness

        g = cube_q3()
        report = is_bi_hamiltonian(g)
        bad = ProperCoveringWitness(report.witness.coloring, ((0, 1), (0, 1)))
        with pytest.raises(GraphError):
            proper_covering_from_witness(g, bad)


class TestGoldbergCoverings:
    @pytest.mark.parametrize("k", [3, 5])
    def test_covering_found_and_proper(self, k):
        g = goldberg(k)
        res = find_fulkerson_covering(g)
        assert res.found
        assert verify_covering(g, res.value).ok
        # class 2, so Fulkerson coverings are automatically proper
        assert is_proper(res.value)

    @pytest.mark.parametrize("make,spent", [
        (lambda: flower_snark(21), 20), (lambda: goldberg(9), 99), (chain8, 20),
    ], ids=["J21", "G9", "chain8"])
    def test_a1a2_node_counts(self, make, spent):
        # J21 has 2^21 perfect matchings, more than the matching cap, which
        # the walk does not need.
        g = make()
        budget = Budget(limit=5_000_000)
        res = find_fulkerson_covering(g, "a1a2", budget)
        assert res.found
        assert verify_covering(g, res.value).ok
        assert budget.spent == spent

    def test_a1a2_covering_verifies(self):
        # G5's A1A2 covering comes from lift colourings that the matching
        # stream can decide, so it is checked, not pinned.
        g = goldberg(5)
        res = find_fulkerson_covering(g, "a1a2", budget=Budget(limit=2_000_000))
        assert res.found
        assert verify_covering(g, res.value).ok
