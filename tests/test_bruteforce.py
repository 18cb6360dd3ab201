import ast
import importlib.util
import json
import pathlib

import pytest

from barnette import bruteforce, matching
from barnette.bruteforce import (
    _four_cycles,
    _has_twins,
    _matrices_with_line_sums_three,
    _matrix_graph,
    cubic_bipartite_classes,
    oracle_class_count,
    pfaffian_by_enumeration,
    oracle_is_tight,
)
from barnette.canon import canonical_form
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
        assert _four_cycles(rows) == _direct_four_cycles(g) == expected
        assert _four_cycles(rows) == _direct_four_cycles(_matrix_graph(rows))


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
        assert _four_cycles(rows) >= 6, rows


def _twins_by_sets(g):
    # two vertices with one neighbour set, in any labelling
    return len({frozenset(g.neighbours[v]) for v in range(g.n)}) < g.n


def test_twin_check(cube, k33):
    for g, twins in ((cube, False), (k33, True)):
        rows = tuple(
            sum(1 << c for c, b in enumerate(g.class_b()) if g.has_edge(a, b))
            for a in g.class_a()
        )
        assert _has_twins(rows) == _twins_by_sets(g) == twins
    # a connected doubly lexical matrix whose columns 0 and 1 are its only
    # equal lines
    one_column_twin = (0b000111, 0b001011, 0b010011, 0b101100, 0b110100, 0b111000)
    assert _has_twins(one_column_twin)
    assert _twins_by_sets(_matrix_graph(one_column_twin))
    for half in (4, 5, 6, 7):
        for rows in _matrices_with_line_sums_three(half):
            assert _has_twins(rows) == _twins_by_sets(_matrix_graph(rows)), rows


def test_class_members_have_no_twins():
    # the K2,3 argument that lets the oracle drop a matrix with twins
    members = list(_class_member_matrices())
    assert members
    for rows in members:
        assert not _has_twins(rows), rows
    for rec in generate(24):
        assert not _twins_by_sets(rec.graph), rec.canonical


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
    none of the Pfaffian solver's or the K33 search's names, so its verdicts
    are independent of the engines it audits."""
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
