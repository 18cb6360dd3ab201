import ast
import importlib.util
import json
import pathlib

import pytest

from barnette import bruteforce, matching
from barnette.bruteforce import (
    _matrices_with_line_sums_three,
    _matrix_graph,
    _plane_three_connected,
    _six_four_cycles,
    cubic_bipartite_classes,
    oracle_class_count,
    pfaffian_by_enumeration,
    oracle_is_tight,
)
from barnette.canon import canonical_form
from barnette.catalog import catalog, catalog_names
from barnette.embedding import embed_planar
from barnette.generator import generate
from barnette.graphs import BipartiteGraph, Cut, GraphError, is_connected, is_k_connected
from barnette.matching import OracleBoundError
from conftest import nx_embed_planar, reference_matrices_with_line_sums_three

GOLDEN = pathlib.Path(__file__).parent / "golden" / "class_counts.json"
DERIVE_COUNTS = pathlib.Path(__file__).parents[1] / "scripts" / "derive_golden_counts.py"


def test_connected_cubic_bipartite_counts():
    # published sequence of connected cubic bipartite graphs by order
    assert sum(1 for _ in cubic_bipartite_classes(8)) == 1
    assert sum(1 for _ in cubic_bipartite_classes(10)) == 2
    assert sum(1 for _ in cubic_bipartite_classes(12)) == 5
    assert sum(1 for _ in cubic_bipartite_classes(14)) == 13


def test_doubly_lexical_matrices_give_the_reference_classes():
    # the row-sorted reference reaches every connected matrix up to row and
    # column order, so the same canonical forms mean no class is lost
    for n, matrices in ((8, 1), (10, 5), (12, 25)):
        half = n // 2
        reference = set()
        for rows in reference_matrices_with_line_sums_three(half):
            edges = tuple(
                (r, half + c) for r in range(half) for c in range(half) if rows[r] >> c & 1
            )
            g = BipartiteGraph(n, edges)
            if is_connected(g):
                reference.add(canonical_form(g))
        assert {canonical_form(g) for g in cubic_bipartite_classes(n)} == reference
        assert sum(1 for _ in _matrices_with_line_sums_three(half)) == matrices
    assert sum(1 for _ in _matrices_with_line_sums_three(7)) == 161


def test_eight_vertex_class_is_the_cube(cube):
    (only,) = cubic_bipartite_classes(8)
    assert canonical_form(only) == canonical_form(cube)


def test_class_yields_are_pairwise_nonisomorphic():
    forms = [canonical_form(g) for g in cubic_bipartite_classes(12)]
    assert len(forms) == len(set(forms))


def test_order_validation():
    message = "cubic bipartite graphs need an even order, at least 8"
    for n in (7, 6):
        with pytest.raises(GraphError, match=message):
            list(cubic_bipartite_classes(n))
        with pytest.raises(GraphError, match=message):
            oracle_class_count(n)


def test_oracle_counts_small_orders():
    golden = json.loads(GOLDEN.read_text())["counts"]
    assert oracle_class_count(8) == golden["8"] == 1
    assert oracle_class_count(10) == golden["10"] == 0
    assert oracle_class_count(12) == golden["12"] == 1


def _direct_four_cycles(g):
    # closed walks v0 v1 v2 v3 v0 on four distinct vertices; each 4-cycle is
    # walked from 4 starts in 2 directions
    walks = 0
    for v0 in range(g.n):
        for v1 in g.neighbours[v0]:
            for v2 in g.neighbours[v1]:
                if v2 == v0:
                    continue
                for v3 in g.neighbours[v2]:
                    if v3 not in (v0, v1) and g.has_edge(v3, v0):
                        walks += 1
    return walks // 8


def test_four_cycle_count_matches_a_direct_count(cube, k33, heawood):
    for g, expected in ((cube, 6), (k33, 9), (heawood, 0)):
        rows = tuple(
            sum(1 << c for c, b in enumerate(g.class_b()) if g.has_edge(a, b))
            for a in g.class_a()
        )
        assert _direct_four_cycles(g) == _direct_four_cycles(_matrix_graph(rows)) == expected
        assert _six_four_cycles(rows) == (expected >= 6)
    counts = set()
    for half in (4, 5, 6, 7):
        for rows in _matrices_with_line_sums_three(half):
            direct = _direct_four_cycles(_matrix_graph(rows))
            assert _six_four_cycles(rows) == (direct >= 6), rows
            counts.add(direct)
    assert {5, 6} <= counts  # both sides of the bound are reached


def _class_member_matrices():
    # every connected, planar, 3-connected matrix at n = 8..16, planar by
    # the networkx reference, which shares no code with embed_planar
    for n in (8, 10, 12, 14, 16):
        for rows in _matrices_with_line_sums_three(n // 2):
            g = _matrix_graph(rows)
            if is_connected(g) and nx_embed_planar(g) is not None and is_k_connected(g, 3):
                yield rows


def test_class_members_have_six_four_cycles():
    # the Euler bound that lets the oracle drop a matrix before building it
    members = list(_class_member_matrices())
    assert members
    for rows in members:
        assert _six_four_cycles(rows), rows


def _twins_by_sets(g):
    # two vertices with one neighbour set, in any labelling
    return len({frozenset(g.neighbours[v]) for v in range(g.n)}) < g.n


def test_twin_check(cube, k33):
    # the twin-free enumeration is the full one without the matrices that
    # have twins in any labelling, in the same order
    made = []
    for half in (3, 4, 5, 6, 7, 8, 9):
        full = list(_matrices_with_line_sums_three(half))
        twin_free = list(_matrices_with_line_sums_three(half, twin_free=True))
        assert twin_free == [r for r in full if not _twins_by_sets(_matrix_graph(r))]
        made.append(len(twin_free))
    assert made == [0, 1, 2, 12, 87, 662, 5611]
    assert _twins_by_sets(k33) and not _twins_by_sets(cube)
    assert list(_matrices_with_line_sums_three(3)) == [(0b111,) * 3]  # K3,3, cut
    # a connected doubly lexical matrix whose columns 0 and 1 are its only
    # equal lines
    one_column_twin = (0b000111, 0b001011, 0b010011, 0b101100, 0b110100, 0b111000)
    assert _twins_by_sets(_matrix_graph(one_column_twin))
    assert one_column_twin in _matrices_with_line_sums_three(6)
    assert one_column_twin not in _matrices_with_line_sums_three(6, twin_free=True)


def test_class_members_have_no_twins():
    # the K2,3 argument that lets the oracle enumerate twin-free matrices only
    members = list(_class_member_matrices())
    assert members
    twin_free = {
        rows for half in (4, 5, 6, 7, 8) for rows in _matrices_with_line_sums_three(half, twin_free=True)
    }
    for rows in members:
        assert rows in twin_free, rows
    for rec in generate(24):
        assert not _twins_by_sets(rec.graph), rec.canonical


def test_face_check_agrees_with_three_connectivity():
    # the dual argument: on a connected cubic plane graph, 3-connectivity is
    # no edge with one face on both sides and no two with the same two faces
    verdicts = {True: 0, False: 0}
    for half in (4, 5, 6, 7, 8, 9):
        for rows in _matrices_with_line_sums_three(half):
            g = _matrix_graph(rows)
            emb = embed_planar(g) if is_connected(g) else None
            if emb is not None:
                three = is_k_connected(g, 3)
                assert _plane_three_connected(g, emb) == three, rows
                verdicts[three] += 1
    assert verdicts == {True: 77, False: 23}
    planar = 0
    for name in catalog_names():
        g = catalog(name).graph
        emb = embed_planar(g)
        if emb is not None and all(len(nbrs) == 3 for nbrs in g.neighbours):
            assert _plane_three_connected(g, emb) == is_k_connected(g, 3), name
            planar += 1
    assert planar == 3  # the cube, Asano's graph (2-connected only), p5_example


def test_oracle_tests_planarity_only_on_twin_free_matrices(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return embed_planar(g)

    monkeypatch.setattr(bruteforce, "embed_planar", counted)
    made = []
    for n in (8, 10, 12, 14):
        calls.clear()
        oracle_class_count(n)
        made.append(len(calls))
    assert made == [1, 0, 2, 8]


def test_oracle_matches_the_canonicalise_first_route():
    # planarity by the networkx reference, so the count has a witness that
    # shares no code with embed_planar
    for n in (8, 10, 12, 14, 16):
        first = sum(
            1
            for g in cubic_bipartite_classes(n)
            if is_k_connected(g, 3) and nx_embed_planar(g) is not None
        )
        assert oracle_class_count(n) == first, f"n={n}"


def test_oracle_canonicalises_only_survivors(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return canonical_form(g)

    monkeypatch.setattr(bruteforce, "canonical_form", counted)
    made = []
    for n in (8, 10, 12, 14):
        calls.clear()
        oracle_class_count(n)
        made.append(len(calls))
    assert made == [1, 0, 2, 6]


def test_golden_count_script_covers_the_golden_orders():
    spec = importlib.util.spec_from_file_location("derive_golden_counts", DERIVE_COUNTS)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    golden = json.loads(GOLDEN.read_text())["counts"]
    assert {str(n) for n in script.ORDERS} == set(golden)


def test_pfaffian_enumeration_fixtures(cube, k33, c6):
    assert pfaffian_by_enumeration(c6)
    assert pfaffian_by_enumeration(cube)
    assert not pfaffian_by_enumeration(k33)


def test_oracle_shares_no_kernel_with_the_solvers():
    """The brute-force module imports nothing from ``tightcut`` and reads
    none of the Pfaffian solver's, the K33 search's, the planar code's or
    the cut-label 3-connectivity test's names, so its verdicts are
    independent of the engines it audits."""
    tree = ast.parse(pathlib.Path(bruteforce.__file__).read_text(encoding="utf-8"))
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add((node.module or "").split(".")[-1])
            names |= {alias.name for alias in node.names}
            modules |= {alias.name for alias in node.names if node.module is None}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "constructions" in modules and "conformal_cycles" in names
    assert "tightcut" not in modules
    solver = {"_cycle_constraint", "_eliminate", "find_pfaffian_orientation"}
    assert names & (solver | {"find_conformal_k33_bisubdivision"}) == set()
    # nor the generator's isomorphism kernel or verify_record's 3-connectivity
    kernels = {"planar_code_and_automorphisms", "cut_labels", "cubic_three_connected"}
    assert names & kernels == set()


def test_pfaffian_enumeration_cap(heawood):
    with pytest.raises(GraphError):
        pfaffian_by_enumeration(heawood)  # 21 edges is past the 2^20 cap


def test_oracle_tightness(c6, cube):
    tight = Cut.from_shore(c6, 0b000111)
    loose = Cut.from_shore(c6, 0b001011)
    assert oracle_is_tight(c6, tight)
    assert not oracle_is_tight(c6, loose)
    assert not oracle_is_tight(cube, Cut.from_shore(cube, 0b1111))


def test_oracle_tightness_bound(cube, monkeypatch):
    monkeypatch.setattr(matching, "ORACLE_BOUND", 4)
    with pytest.raises(OracleBoundError):
        oracle_is_tight(cube, Cut.from_shore(cube, 0b1111))
