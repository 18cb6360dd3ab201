import pytest

from barnette.catalog import CatalogError, catalog, catalog_names
from barnette.embedding import embed_planar, euler_check
from barnette.graphs import is_k_connected
from barnette.hamiltonicity import (
    HamiltonicityEngine,
    find_hamiltonian_cycle,
    is_hamiltonian,
    is_pk_hamiltonian,
)
from barnette.io import to_graph6
from barnette.matching import is_brace, is_matching_covered
from barnette.tightcut import is_tight

# properties that can be re-derived within the default oracle bound
_CHECKERS = {
    "cubic": lambda g: g.is_regular(3),
    "planar": lambda g: embed_planar(g) is not None,
    "three_connected": lambda g: is_k_connected(g, 3),
    "hamiltonian": is_hamiltonian,
    "brace": is_brace,
    "p2_hamiltonian": lambda g: bool(is_pk_hamiltonian(g, 2)),
    "p4_hamiltonian": lambda g: bool(is_pk_hamiltonian(g, 4)),
    "p5_hamiltonian": lambda g: bool(is_pk_hamiltonian(g, 5)),
}


def _check_pfaffian(g):
    from barnette.constructions import find_pfaffian_orientation

    return find_pfaffian_orientation(g) is not None


_CHECKERS["pfaffian"] = _check_pfaffian


def test_names_are_stable():
    assert catalog_names() == (
        "cube",
        "c4",
        "k33",
        "heawood",
        "asano",
        "p5_example",
        "b_horton",
        "horton",
    )


def test_unknown_name():
    with pytest.raises(CatalogError):
        catalog("petersen")  # famous, but not bipartite


@pytest.mark.parametrize(
    "name", ["cube", "c4", "k33", "heawood", "asano", "p5_example", "b_horton"]
)
def test_expected_properties_rederived(name):
    entry = catalog(name)
    assert entry.expected_properties, "entry must document some properties"
    for prop, expected in entry.expected_properties.items():
        assert _CHECKERS[prop](entry.graph) == expected, f"{name}: {prop}"


def test_horton_structure_only():
    entry = catalog("horton")
    g = entry.graph
    assert g.n == 96
    for prop, expected in entry.expected_properties.items():
        assert prop != "pfaffian"  # beyond the default oracle bound
        assert _CHECKERS[prop](g) == expected
    assert is_matching_covered(g)


def test_all_entries_bipartite():
    for name in catalog_names():
        assert catalog(name).graph.colour is not None


def test_cube_rotation_is_planar_embedding():
    entry = catalog("cube")
    assert entry.rotation is not None
    assert euler_check(entry.graph, entry.rotation)


def test_asano_marked_cut(asano):
    cut = asano.marked_cut
    assert cut is not None
    assert len(cut.edge_ids) == 3
    assert cut.shore.bit_count() == 9  # one hub plus one gadget
    assert is_tight(asano.graph, cut)


def test_p5_example_marked_structure():
    entry = catalog("p5_example")
    g = entry.graph
    cut = entry.marked_cut
    assert len(cut.edge_ids) == 3
    assert is_tight(g, cut)
    path = entry.marked_path
    assert len(path) == 5
    for a, b in zip(path, path[1:]):
        assert g.has_edge(a, b)
    # the marked path crosses the marked cut more than once ...
    path_ids = [g.edge_id(a, b) for a, b in zip(path, path[1:])]
    assert len(set(path_ids) & cut.edge_ids) >= 2
    # ... which is exactly why no Hamiltonian cycle can contain it
    assert find_hamiltonian_cycle(g, forced=path_ids) is None


def test_p5_example_p4_with_shared_engine():
    g = catalog("p5_example").graph
    engine = HamiltonicityEngine(g)
    assert is_pk_hamiltonian(g, 4, engine)
    assert not is_pk_hamiltonian(g, 5, engine)


def test_horton_splice_shores_are_tight():
    entry = catalog("horton")
    g = entry.graph
    assert entry.splice_shores is not None and len(entry.splice_shores) == 3
    from barnette.graphs import Cut

    for shore in entry.splice_shores:
        assert len(shore) == 31
        cut = Cut.from_shore(g, shore)
        assert len(cut.edge_ids) == 3
        assert is_tight(g, cut)


def test_b_horton_graph6_round_trip():
    g = catalog("b_horton").graph
    assert len(to_graph6(g)) > 4  # serializes cleanly at 32 vertices


def test_provenance_strings_present():
    for name in catalog_names():
        assert catalog(name).provenance
