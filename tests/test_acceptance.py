"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 10 was first stated with K3,3 among the graphs that admit no proper
covering.  That statement is false: the six perfect matchings of K3,3, one per
permutation of S3, cover every edge exactly twice.  The test therefore asserts
that K3,3 does admit a proper covering, through the brute-force oracle, the
library's enumeration and an explicit certificate, and keeps K3,3 as a control
showing that bi-hamiltonicity does not rule a proper covering out.
"""

import time
from contextlib import contextmanager
from itertools import combinations, permutations

import pytest

from fulkerson_lab.budget import Budget
from fulkerson_lab.cli import (
    certificate_of_covering,
    parse_certificate,
    write_certificate,
)
from fulkerson_lab.generators import (
    DotProductSpec,
    cube_q3,
    dot_product,
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
    Matching,
    cyclic_edge_connectivity_at_least,
    is_bridgeless,
)
from fulkerson_lab.matchcolor import (
    PerfectMatching,
    enumerate_perfect_matchings,
    find_c5_two_factor,
    shrink_to_gstar,
    split_and_suppress,
    three_edge_colorable,
    three_edge_coloring,
    _chordless,
)
from fulkerson_lab.fulkerson import (
    FRTriple,
    FulkersonCovering,
    are_compatible,
    covering_from_compatible,
    enumerate_fulkerson_coverings,
    find_fulkerson_covering,
    fr_triple_from_matchings,
    is_bi_hamiltonian,
    is_proper,
    proper_covering_from_witness,
    t_partition,
    verify_covering,
)
from fulkerson_lab.ffamily import (
    DotStep,
    FFamily,
    covering_from_c5_structure,
    covering_from_ffamily,
    derive_n,
    find_ffamily,
    iterate_dot_sequence,
    petersen_expansion,
    verify_ffamily,
)

from oracles import proper_covering_exists


@contextmanager
def criterion(num, desc, limit):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL ({time.monotonic() - start:.1f}s): {desc}")
        raise
    elapsed = time.monotonic() - start
    verdict = "PASS" if elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num:2d} {verdict} ({elapsed:.1f}s): {desc}")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s time limit"


def _triples_with_stats():
    """FR-triples over distinct matchings of every generated graph with n <= 20."""
    graphs = [theta(), k4(), k33(), cube_q3(), petersen(), ten_vertex_c5_example(),
              doubled_matching_cycle(4), doubled_matching_cycle(6),
              flower_snark(3), flower_snark(5)]
    out = []
    for g in graphs:
        pms = enumerate_perfect_matchings(g)
        found = 0
        for i, j, k in combinations(range(len(pms)), 3):
            if pms[i].members & pms[j].members & pms[k].members:
                continue
            out.append((g, FRTriple(pms[i], pms[j], pms[k])))
            found += 1
            if found >= 12:
                break
    return out


def test_criterion_01_petersen_baseline():
    with criterion(1, "Petersen: six matchings forming a proper covering; "
                      "all 3-subsets are FR-triples", 1.0):
        g = petersen()
        pms = enumerate_perfect_matchings(g)
        assert len(pms) == 6 and not pms.truncated
        from collections import Counter

        counts = Counter()
        for m in pms:
            counts.update(m.members)
        assert all(counts[e] == 2 for e in g.edge_ids())
        covering = FulkersonCovering(tuple(pms))
        assert verify_covering(g, covering).ok
        for i, j, k in combinations(range(6), 3):
            FRTriple(pms[i], pms[j], pms[k])  # constructor asserts emptiness


@pytest.mark.parametrize("k", [3, 5, 7])
def test_criterion_02_flower_snark_coverings(k):
    with criterion(2, f"flower graph J{k}: covering found and certificate re-verifies", 60.0):
        g = flower_snark(k)
        res = find_fulkerson_covering(g)
        assert res.found
        text = write_certificate(certificate_of_covering(res.value))
        cert = parse_certificate(text)
        rebound = FulkersonCovering(tuple(PerfectMatching(g, mem)
                                          for mem in cert.matchings))
        assert verify_covering(g, rebound).ok


def test_criterion_03_goldberg_coverings():
    with criterion(3, "Goldberg graphs G3 and G5: coverings within budget "
                      "(A1A2 must succeed if EXACT2COVER does not)", 600.0):
        for k in (3, 5):
            g = goldberg(k)
            res = find_fulkerson_covering(g, "exact2cover", budget=Budget(limit=2_000_000))
            if not res.found:
                res = find_fulkerson_covering(g, "a1a2", budget=Budget(limit=2_000_000))
            assert res.found, f"no covering found on G{k} within budget"
            assert verify_covering(g, res.value).ok


def test_criterion_04_t_partition_structure():
    with criterion(4, "at least 50 FR-triples across small graphs: "
                      "T0 and T2 are disjoint matchings", 60.0):
        triples = _triples_with_stats()
        assert len(triples) >= 50
        for g, t in triples:
            part = t_partition(g, t)
            Matching(g, part.t0.members)
            Matching(g, part.t2.members)
            assert not part.t0.members & part.t2.members


def test_criterion_05_split_colorability_and_lift():
    with criterion(5, "every found triple: split of T2 is 3-edge-colorable and "
                      "the lift reconstructs the same partition", 60.0):
        for g, t in _triples_with_stats():
            part = t_partition(g, t)
            s = split_and_suppress(g, part.t2.members, partner=part.t0.members)
            assert three_edge_colorable(s) is not None
            lifted = fr_triple_from_matchings(g, part.t2.members, part.t0.members)
            lpart = t_partition(g, lifted)
            assert lpart.t2.members == part.t2.members
            assert lpart.t0.members == part.t0.members


def test_criterion_06_compatibility_round_trip():
    with criterion(6, "every found covering splits into two compatible triples "
                      "that merge back into a verified covering", 10.0):
        coverings = []
        for g in (petersen(), k4(), theta(), flower_snark(3)):
            res = find_fulkerson_covering(g)
            assert res.found
            coverings.append((g, res.value))
        q = cube_q3()
        coverings.append((q, proper_covering_from_witness(q, is_bi_hamiltonian(q).witness)))
        for g, covering in coverings:
            ms = covering.matchings
            t1 = FRTriple(ms[0], ms[1], ms[2])
            t2 = FRTriple(ms[3], ms[4], ms[5])
            assert are_compatible(t1, t2)
            assert verify_covering(g, covering_from_compatible(t1, t2)).ok


def test_criterion_07_family_coverings():
    with criterion(7, "families on Petersen, J5, J7, the ten-vertex example and "
                      "two composites assemble into proper coverings", 300.0):
        cases = []
        for g in (petersen(), flower_snark(5), flower_snark(7)):
            res = find_ffamily(g)
            assert res.found
            cases.append((g, res.value))
        g = ten_vertex_c5_example()
        res = find_ffamily(g)
        assert res.found
        cases.append((g, res.value))
        one = iterate_dot_sequence(petersen(), [DotStep("type1", petersen())])
        two = iterate_dot_sequence(petersen(), [DotStep("type1", petersen()),
                                                DotStep("type2", petersen())])
        cases.append((one.graph, one.family))
        cases.append((two.graph, two.family))
        for g, fam in cases:
            covering = covering_from_ffamily(g, fam)
            assert verify_covering(g, covering).ok
            assert is_proper(covering)


def test_criterion_08_ten_vertex_witness():
    with criterion(8, "the stated ten-vertex family verifies, yields a proper "
                      "covering, and the graph is bi-hamiltonian", 10.0):
        g = ten_vertex_c5_example()
        names = ten_vertex_c5_names()

        def eid(a, b):
            edges = g.edges_between(names[a], names[b])
            assert len(edges) == 1
            return edges[0]

        m = PerfectMatching(g, [eid(*p) for p in
                                (("a", "2"), ("b", "4"), ("c", "3"),
                                 ("d", "5"), ("e", "1"))])
        members = [Matching(g, [eid(*p)])
                   for p in (("a", "2"), ("b", "4"), ("c", "3"), ("d", "5"))]
        n = derive_n(g, m, members)
        fam = FFamily(m, *members, n)
        assert verify_ffamily(g, fam).ok
        covering = covering_from_ffamily(g, fam)
        assert verify_covering(g, covering).ok
        assert is_proper(covering)
        assert is_bi_hamiltonian(g).is_bi_hamiltonian


def test_criterion_09_class_two_coverings_proper():
    with criterion(9, "Petersen and J5: every covering found is proper", 60.0):
        for g in (petersen(), flower_snark(5)):
            for strategy in ("exact2cover", "a1a2", "auto"):
                res = find_fulkerson_covering(g, strategy)
                assert res.found
                assert is_proper(res.value)


def test_criterion_10_proper_covering_constructions():
    with criterion(10, "cube witness gives a proper covering; theta, K4 and the "
                       "doubled 6-cycle admit no proper covering; bi-hamiltonian "
                       "K3,3 admits one", 120.0):
        q = cube_q3()
        report = is_bi_hamiltonian(q)
        assert not report.is_bi_hamiltonian
        covering = proper_covering_from_witness(q, report.witness)
        assert verify_covering(q, covering).ok and is_proper(covering)
        for g, proper_count in ((theta(), 0), (k4(), 0),
                                (doubled_matching_cycle(6), 0), (k33(), 1)):
            coverings = enumerate_fulkerson_coverings(g)
            assert coverings.complete
            assert sum(1 for c in coverings.value if is_proper(c)) == proper_count
        assert not proper_covering_exists(theta())
        assert not proper_covering_exists(k4())
        assert not proper_covering_exists(doubled_matching_cycle(6))
        # The criterion as first stated listed K3,3 among the negative
        # controls, which is false: the six permutation matchings (edge
        # (u, 3+j) has id 3*u + j) cover every edge exactly twice.  K3,3 is
        # bi-hamiltonian, so it shows that bi-hamiltonicity does not rule a
        # proper covering out.
        g = k33()
        assert is_bi_hamiltonian(g).is_bi_hamiltonian
        assert proper_covering_exists(g)
        certificate = FulkersonCovering(tuple(
            PerfectMatching(g, [3 * i + s[i] for i in range(3)])
            for s in permutations(range(3))))
        assert verify_covering(g, certificate).ok and is_proper(certificate)


def test_criterion_11_c5_pipeline_and_expansion():
    with criterion(11, "chordless-C5 pipeline on Petersen and the ten-vertex "
                       "example; the five-Petersen expansion is a 50-vertex snark", 600.0):
        for g in (petersen(), ten_vertex_c5_example()):
            m, cycles = find_c5_two_factor(g)
            shrunk = shrink_to_gstar(g, m, cycles)
            assert shrunk.graph.num_vertices == 2
            result = covering_from_c5_structure(g)
            assert result.found
            assert verify_covering(g, result.covering).ok
        exp = petersen_expansion()
        h = exp.graph
        assert h.num_vertices == 50
        assert is_bridgeless(h)
        assert sorted(len(c) for c in exp.cycles) == [5] * 10
        assert all(_chordless(h, c.vertices) for c in exp.cycles)
        # snark certification
        assert three_edge_coloring(h) is None
        assert cyclic_edge_connectivity_at_least(h, 4)


def test_criterion_12_dot_product_suite():
    with criterion(12, "some Petersen dot product is an 18-vertex snark; "
                       "transported families verify on three composites", 600.0):
        g = petersen()
        snark_found = False
        for e1, e2 in combinations(range(g.num_edges), 2):
            if set(g.endpoints(e1)) & set(g.endpoints(e2)):
                continue
            for e3 in range(g.num_edges):
                res = dot_product(g, g, DotProductSpec(e1=e1, e2=e2, e3=e3))
                if three_edge_coloring(res.graph) is not None:
                    continue
                if cyclic_edge_connectivity_at_least(res.graph, 4):
                    snark_found = True
                    break
            if snark_found:
                break
        assert snark_found
        composites = [
            iterate_dot_sequence(g, [DotStep("type1", petersen())]),
            iterate_dot_sequence(g, [DotStep("type1", petersen()),
                                     DotStep("type2", petersen())]),
            iterate_dot_sequence(g, [DotStep("type1", petersen()),
                                     DotStep("type2", petersen()),
                                     DotStep("type2", petersen())]),
        ]
        sizes = [c.graph.num_vertices for c in composites]
        assert sizes == [18, 26, 34]
        for comp in composites:
            assert verify_ffamily(comp.graph, comp.family).ok
            assert verify_covering(comp.graph, comp.covering).ok
