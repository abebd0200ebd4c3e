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
from fulkerson_lab.ffamily import DotStep, iterate_dot_sequence
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
    proper_covering_exists,
    random_cubic_multigraph,
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

    @staticmethod
    def refuse_listings(monkeypatch):
        """Makes every capped listing of the perfect matchings fail."""
        def refuse(*args, **kwargs):
            raise AssertionError("listed the perfect matchings")

        monkeypatch.setattr("fulkerson_lab.matchcolor._MatchingRecord.listing", refuse)

    # Out of budget from the first node: AUTO's colour stage draws nothing,
    # then one stream decides whether g has a perfect matching; EXACT2COVER
    # lists; A1A2 draws M_0 before its first pair query.
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
        # the covering is the last two lifts' six matchings
        assert made == [m for t in lifted for m in t.matchings]
        assert list(res.value.matchings) == made[-6:]

    @pytest.mark.parametrize("make,calls", [
        (lambda: flower_snark(5), 1), (lambda: flower_snark(7), 1), (lambda: flower_snark(9), 1),
        (petersen, 1), (lambda: goldberg(5), 1), (lambda: goldberg(7), 1),
    ], ids=["J5", "J7", "J9", "petersen", "G5", "G7"])
    def test_auto_lists_once_unless_the_colour_stream_ended(self, monkeypatch, make, calls):
        # The exact cover lists what the colour stage drew, then the rest of
        # the same stream: the stream refutes the flower snarks' colourings
        # by running to its end, the colouring search refutes the others
        # first.  Either way one stream starts, as for EXACT2COVER.
        counts = SearchCounts(monkeypatch)
        assert find_fulkerson_covering(make()).found
        assert len(counts.starts) == calls
        assert find_fulkerson_covering(make(), "exact2cover").found
        assert len(counts.starts) == 2 * calls

    @pytest.mark.parametrize("k", [5, 7, 9])
    def test_auto_covering_from_the_reused_stream_is_exact2covers(self, k):
        g = flower_snark(k)
        auto = find_fulkerson_covering(g, "auto")
        exact = find_fulkerson_covering(g, "exact2cover")
        assert [m.members for m in auto.value.matchings] == \
            [m.members for m in exact.value.matchings]

    def test_auto_past_the_matching_cap_lists_as_enumerate_does(self, monkeypatch):
        from fulkerson_lab import matchcolor

        g = flower_snark(7)
        assert len(enumerate_perfect_matchings(g)) == 128
        monkeypatch.setattr("fulkerson_lab.matchcolor.DEFAULT_PM_LIMIT", 100)
        listings = []
        listing = matchcolor._MatchingRecord.listing
        monkeypatch.setattr(matchcolor._MatchingRecord, "listing",
                            lambda *args: listings.append(listing(*args)) or listings[-1])
        auto = find_fulkerson_covering(g, "auto")
        exact = find_fulkerson_covering(g, "exact2cover")
        capped = enumerate_perfect_matchings(g)
        assert capped.truncated and len(capped) == 100
        # AUTO, EXACT2COVER and the enumeration read the same canonical prefix
        assert listings == [([m.members for m in capped], True)] * 3
        assert not auto.definitely_absent
        assert auto == exact

    @pytest.mark.parametrize("make,spent", [(petersen, 43), (lambda: flower_snark(5), 294)],
                             ids=["petersen", "J5"])
    def test_auto_falls_through_to_a1a2_past_the_matching_cap(self, monkeypatch, make, spent):
        # with a cap of 3 the exact cover sees too few matchings to decide,
        # so AUTO's last stage, A1A2, finds the covering
        monkeypatch.setattr("fulkerson_lab.matchcolor.DEFAULT_PM_LIMIT", 3)
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
        start = time.perf_counter()
        res = find_fulkerson_covering(flower_snark(17), budget=Budget(limit=1000))
        assert time.perf_counter() - start < 2
        assert res.unknown

    def test_auto_out_of_budget_still_proves_absence_without_a_perfect_matching(self):
        from test_matchcolor import three_bridges

        budget = Budget(limit=0)
        res = find_fulkerson_covering(three_bridges(k4()), budget=budget)
        assert budget.exhausted
        assert res.definitely_absent

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

    @pytest.mark.parametrize("make,spent", [
        (lambda: flower_snark(5), 8),
        (lambda: flower_snark(9), 8),
        (lambda: goldberg(5), 24),
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
        # The enumeration keeps its own cap: over all of G5's matchings the
        # search spends its three nodes and runs out, rather than running out
        # of branches among the first three matchings with budget to spare.
        budget = Budget(limit=3)
        res = find_fulkerson_covering(goldberg(5), "exact2cover", budget)
        assert res.unknown
        assert budget.exhausted and budget.spent == 4

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
        (lambda: flower_snark(21), 4), (lambda: goldberg(9), 1743), (chain8, 4),
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
