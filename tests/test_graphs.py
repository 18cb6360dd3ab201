import ast
import pathlib
import random

import pytest
from hypothesis import given, strategies as st

import barnette
from barnette.graphs import (
    BipartiteGraph,
    Cut,
    GraphError,
    blocks,
    connected_components,
    is_connected,
    is_k_connected,
    shore_colour_balance,
    with_colouring,
)
from barnette.bruteforce import _matrices_with_line_sums_three, _matrix_graph
from conftest import k_connected_by_subsets, random_graph


def _path(n):
    return BipartiteGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def test_basic_accessors(cube):
    assert cube.n == 8
    assert cube.edge_count == 12
    assert cube.is_regular(3)
    assert cube.degree(0) == 3
    assert set(cube.neighbours[0]) == {1, 3, 4}
    eid = cube.edge_id(0, 1)
    assert cube.edges[eid] == (0, 1)
    assert cube.other_end(eid, 0) == 1


def test_duplicate_edge_rejected():
    with pytest.raises(GraphError):
        BipartiteGraph(3, ((0, 1), (1, 0)))


def test_loop_rejected():
    with pytest.raises(GraphError):
        BipartiteGraph(2, ((1, 1),))


def test_colour_must_be_proper():
    with pytest.raises(GraphError):
        BipartiteGraph(2, ((0, 1),), colour=("A", "A"))
    with pytest.raises(GraphError, match="length differs"):
        BipartiteGraph(2, ((0, 1),), colour=("A",))
    with pytest.raises(GraphError, match="'A' or 'B'"):
        BipartiteGraph(2, ((0, 1),), colour=("A", "C"))


def test_bad_order_vertex_and_permutation_rejected(cube):
    with pytest.raises(GraphError, match="non-negative"):
        BipartiteGraph(-1, ())
    with pytest.raises(GraphError, match="not on edge"):
        cube.other_end(cube.edge_id(0, 1), 2)
    with pytest.raises(GraphError, match="not a permutation"):
        cube.relabel([0, 0, 1, 2, 3, 4, 5, 6])


def test_two_colour_odd_cycle_fails():
    odd = BipartiteGraph(3, ((0, 1), (1, 2), (0, 2)))
    assert odd.colour is None
    with pytest.raises(GraphError):
        with_colouring(odd)


def test_two_colour_classes(cube):
    colour = BipartiteGraph(cube.n, cube.edges).colour
    for u, v in cube.edges:
        assert colour[u] != colour[v]
    assert colour[0] == "A"  # least vertex anchors class A


def test_class_split(k33):
    assert set(k33.class_a()) == {0, 1, 2}
    assert set(k33.class_b()) == {3, 4, 5}


def test_connectivity_ladder(cube, k33, c6):
    assert is_connected(cube)
    for k in (1, 2, 3):
        assert is_k_connected(cube, k)
    with pytest.raises(GraphError):
        is_k_connected(cube, 4)
    with pytest.raises(GraphError, match="at most n - 1"):
        is_k_connected(_path(3), 3)
    assert not is_k_connected(c6, 3)  # refused by the degree check
    assert is_k_connected(k33, 3)
    path = _path(4)
    assert is_k_connected(path, 1)
    assert not is_k_connected(path, 2)


def test_blocks_split_at_cut_vertices_and_bridges(cube):
    # two triangles sharing vertex 2, a pendant edge 4-5, an isolated vertex 6
    g = BipartiteGraph(7, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)))
    assert sorted(sorted(g.edges[e] for e in b) for b in blocks(g)) == [
        [(0, 1), (0, 2), (1, 2)],
        [(2, 3), (2, 4), (3, 4)],
        [(4, 5)],
    ]
    assert sorted(len(b) for b in blocks(g, removed_mask=1 << 2)) == [1, 1, 1]
    assert [sorted(b) for b in blocks(cube)] == [list(range(12))]
    assert blocks(BipartiteGraph(3, ())) == []


def test_k_connectivity_matches_subset_deletion():
    # every matrix graph to n = 14 and seeded random graphs on 2..10 vertices
    graphs = [_matrix_graph(rows) for half in (4, 5, 6, 7) for rows in _matrices_with_line_sums_three(half)]
    rng = random.Random(35)
    graphs += [random_graph(rng, rng.randint(2, 10)) for _ in range(1500)]
    verdicts = set()
    for g in graphs:
        for k in range(1, min(3, g.n - 1) + 1):
            verdict = is_k_connected(g, k)
            assert verdict == k_connected_by_subsets(g, k), (k, g.edges)
            verdicts.add((k, verdict))
    assert verdicts == {(k, v) for k in (1, 2, 3) for v in (False, True)}


def test_components_with_edge_skip(cube):
    whole = connected_components(cube)
    assert len(whole) == 1
    star = frozenset(cube.incident[0])
    parts = connected_components(cube, edge_skip=star)
    assert len(parts) == 2
    assert min(parts, key=lambda m: bin(m).count("1")) == 1  # vertex 0 alone


def test_cut_from_shore(c6):
    cut = Cut.from_shore(c6, frozenset({0, 1, 2}))
    assert len(cut.edge_ids) == 2
    assert not cut.is_trivial
    assert cut.shore == 0b111
    assert cut.complement_mask() == 0b111000
    lone = Cut.from_shore(c6, frozenset({4}))
    assert lone.is_trivial
    with pytest.raises(GraphError):
        Cut.from_shore(c6, frozenset())


def test_shore_colour_balance(c6):
    assert shore_colour_balance(c6, 0b000111) in (-1, 1)
    assert shore_colour_balance(c6, 0b010101 if c6.colour[0] == "A" else 0b101010) in (3, -3)


@given(st.integers(2, 9).flatmap(lambda n: st.tuples(st.just(n), st.sets(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
        lambda p: (min(p), max(p))
    ).filter(lambda p: p[0] != p[1])))))
def test_two_colour_random_bipartite_double_cover(data):
    # the bipartite double cover of any graph admits a proper two-colouring
    n, edges = data
    doubled = tuple(
        (min(u, v + n), max(u, v + n)) for u, v in edges
    ) + tuple((min(v, u + n), max(v, u + n)) for u, v in edges)
    g = BipartiteGraph(2 * n, tuple(sorted(set(doubled))))
    colour = g.colour
    for u, v in g.edges:
        assert colour[u] != colour[v]


def test_with_colouring_idempotent(cube):
    again = with_colouring(cube)
    assert again.colour == cube.colour


def _cut_constructions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Cut":
                yield f"{path.name}:{node.lineno}"


def test_only_graphs_builds_cuts_directly():
    """Every other module builds a cut with ``Cut.from_shore``, so its edge
    ids always match its shore."""
    package = pathlib.Path(barnette.__file__).parent
    calls = [
        call
        for path in sorted(package.glob("*.py"))
        if path.name != "graphs.py"
        for call in _cut_constructions(path)
    ]
    assert calls == []


def test_package_has_no_assert_statements():
    """``python -O`` strips asserts, so with none in the package every check
    it makes runs the same under ``-O``."""
    paths = sorted(pathlib.Path(barnette.__file__).parent.glob("*.py"))
    assert "expansion.py" in [path.name for path in paths]
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_package_has_no_unused_imports():
    """Every name a module imports is read there.  ``__init__.py`` imports
    to re-export, and a ``__future__`` import is a compiler directive."""
    paths = sorted(pathlib.Path(barnette.__file__).parent.glob("*.py"))
    assert "hamiltonicity.py" in [path.name for path in paths]
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}:{name}" for name in names if name not in read]
    assert unused == []


def _reads_files_or_the_environment(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "os" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            return True
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in ("environ", "getenv"):
            return True
    return False


def test_only_the_cli_reads_files_or_the_environment():
    """The package reads files only where the CLI opens them and no
    environment variable anywhere, so every engine takes its input as
    arguments."""
    paths = sorted(pathlib.Path(barnette.__file__).parent.glob("*.py"))
    readers = [
        path.name
        for path in paths
        if _reads_files_or_the_environment(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert readers == ["cli.py"]
