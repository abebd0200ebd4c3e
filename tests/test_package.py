"""The package's public names: `fulkerson_lab.__all__` exports the library's
classes, functions and constants, and none of its submodules."""

from types import ModuleType

import fulkerson_lab

PUBLIC_NAMES = """
    A1A2 AUTO BiHamiltonianReport Budget BudgetExhausted C5StructureResult COLOR
    CoverageReport CubicGraph Cycle CycleSet DotProductResult DotProductSpec DotStep
    EXACT2COVER EdgeColoring EdgeSet FFamily FFamilyReport FRTriple FulkersonCovering
    GraphError LiftError Matching MultiGraph NamedVertexMap PMEnumeration
    PerfectMatching PetersenExpansion PipelineResult ProperCoveringWitness SearchResult
    ShrinkResult StepOptionError SuppressedGraph TPartition TransportError
    TransportResult are_compatible color_classes_as_matchings covering_from_c5_structure
    covering_from_compatible covering_from_ffamily cube_q3 cycle_decomposition
    cyclic_edge_connectivity_at_least degree derive_n dot_preserve_type1
    dot_preserve_type2 dot_product doubled_matching_cycle enumerate_ffamilies
    enumerate_fr_triples enumerate_fulkerson_coverings enumerate_perfect_matchings
    enumerate_three_edge_colorings find_c5_two_factor find_ffamily find_fr_triple
    find_fulkerson_covering find_perfect_matching five_edge_coloring flower_snark
    flower_snark_names fr_triple_from_matchings goldberg goldberg_names
    is_bi_hamiltonian is_bipartite is_bridgeless is_connected is_m_balanced is_proper
    iterate_dot_sequence k33 k4 kempe_exchange petersen petersen_expansion
    phi_two_factor proper_covering_from_witness shrink_to_gstar split_and_suppress
    t_partition ten_vertex_c5_example ten_vertex_c5_names theta three_edge_colorable
    three_edge_coloring two_factor_cycles verify_covering verify_ffamily
""".split()


def test_all_exports_no_module():
    modules = [name for name in fulkerson_lab.__all__
               if isinstance(getattr(fulkerson_lab, name), ModuleType)]
    assert modules == []


def test_all_keeps_every_public_name():
    assert set(PUBLIC_NAMES) - set(fulkerson_lab.__all__) == set()
    for name in PUBLIC_NAMES:
        assert hasattr(fulkerson_lab, name)
