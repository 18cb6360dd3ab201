"""Every graph is 2-coloured once, when it is built.

A graph built without colours carries its breadth-first 2-colouring exactly
when it is bipartite, so callers never colour a graph themselves; entry
points that need classes still reject an odd cycle with GraphError.
"""

import ast
import io
import pathlib

import pytest

import barnette
from barnette.catalog import catalog, catalog_names
from barnette.cli import main
from barnette.constructions import (
    braces_pfaffian_consistency,
    conformal_cycles,
    find_conformal_k33_bisubdivision,
    find_pfaffian_orientation,
    splice,
)
from barnette.embedding import facial_c4_expansion_sites
from barnette.expansion import cube_expand
from barnette.generator import generate
from barnette.graphs import (
    BipartiteGraph,
    Cut,
    GraphError,
    shore_colour_balance,
    with_colouring,
)
from barnette.io import to_graph6
from barnette.matching import (
    has_perfect_matching,
    is_brace,
    is_matching_covered,
)
from barnette.tightcut import (
    contract,
    find_nontrivial_tight_cut,
    find_tight_cuts_cubic,
    is_tight,
    tight_cut_decomposition,
)

TRIANGLE = BipartiteGraph(3, ((0, 1), (1, 2), (0, 2)))
C5 = BipartiteGraph(5, tuple((i, (i + 1) % 5) for i in range(5)))
PRISM = BipartiteGraph(
    6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5))
)

ENTRY_POINTS = {
    "has_perfect_matching": has_perfect_matching,
    "is_matching_covered": is_matching_covered,
    "is_brace": is_brace,
    "tight_cut_decomposition": tight_cut_decomposition,
    "find_nontrivial_tight_cut": find_nontrivial_tight_cut,
    "find_tight_cuts_cubic": find_tight_cuts_cubic,
    "is_tight": lambda g: is_tight(g, Cut.from_shore(g, 0b1)),
    "find_pfaffian_orientation": find_pfaffian_orientation,
    "find_conformal_k33_bisubdivision": find_conformal_k33_bisubdivision,
    "braces_pfaffian_consistency": braces_pfaffian_consistency,
    "conformal_cycles": conformal_cycles,
    "shore_colour_balance": lambda g: shore_colour_balance(g, 0b1),
    "class_a": lambda g: g.class_a(),
    "with_colouring": with_colouring,
}


@pytest.mark.parametrize("graph", [TRIANGLE, C5, PRISM], ids=["triangle", "c5", "prism"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_bipartite_input_raises_graph_error(entry, graph):
    assert graph.colour is None
    with pytest.raises(GraphError):
        ENTRY_POINTS[entry](graph)


@pytest.mark.parametrize("command", ["decompose", "pfaffian", "check-properties"])
def test_cli_rejects_non_bipartite_graph6(capsys, monkeypatch, command):
    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(PRISM) + "\n"))
    assert main([command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: graph is not bipartite"


def _twin(g):
    return BipartiteGraph(g.n, g.edges)


def _splices():
    names = ("cube", "k33", "heawood", "b_horton")
    cube, k33, heawood, bh = (catalog(name).graph for name in names)
    once = splice(k33, 3, bh, 0)
    return {
        "cube+cube": splice(cube, 0, cube, 0).graph,
        "heawood+cube": splice(heawood, 0, cube, 0).graph,
        "k33+b_horton": once.graph,
        "k33+2b_horton": splice(once.graph, once.map1[4], bh, 0).graph,
    }


def test_uncoloured_twin_equals_the_graph():
    for name in catalog_names():
        g = catalog(name).graph
        assert _twin(g) == g, name
    for rec in generate(20):
        assert _twin(rec.graph) == rec.graph, rec.canonical
    # a splice is coloured like any graph built without colours
    for name, g in _splices().items():
        assert _twin(g) == g, name


def test_uncoloured_twin_is_accepted_where_colours_are_needed():
    cube = catalog("cube")
    pairs = [(cube.graph, cube.rotation)] + [(rec.graph, rec.embedding) for rec in generate(16)]
    for g, emb in pairs:
        twin = _twin(g)
        cuts = find_tight_cuts_cubic(g)
        assert find_tight_cuts_cubic(twin) == cuts
        for cut in cuts:
            assert is_tight(twin, cut)
            assert contract(twin, cut) == contract(g, cut)
        assert facial_c4_expansion_sites(twin, emb) == facial_c4_expansion_sites(g, emb)
        for v in range(g.n):
            assert cube_expand(twin, emb, v) == cube_expand(g, emb, v)
    asano = catalog("asano")
    twin = _twin(asano.graph)
    assert is_tight(twin, asano.marked_cut)
    assert contract(twin, asano.marked_cut) == contract(asano.graph, asano.marked_cut)


def _colouring_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("with_colouring", "_two_colour"):
                yield f"{path.name}:{node.lineno} {name}"


def test_only_graphs_and_cli_colour_graphs():
    package = pathlib.Path(barnette.__file__).parent
    calls = [
        call
        for path in sorted(package.glob("*.py"))
        if path.name not in ("graphs.py", "cli.py")
        for call in _colouring_calls(path)
    ]
    assert calls == []
