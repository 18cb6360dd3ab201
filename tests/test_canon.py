import random
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from barnette import canon
from barnette.bruteforce import _matrices_with_line_sums_three
from barnette.canon import are_isomorphic, canonical_form
from barnette.catalog import catalog
from barnette.generator import generate
from barnette.graphs import BipartiteGraph, is_connected
from barnette.io import graph6_from_bitstring


# The search as it was before the splitter skip and the automorphism pruning:
# every splitter re-applied after each split, every child of every node
# searched.  Kept verbatim as the reference the pruned search must match.


def _reference_refine(g: BipartiteGraph, cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement: split cells by neighbour counts into other cells."""
    cells = [list(c) for c in cells]
    queue = list(range(len(cells)))
    while queue:
        idx = queue.pop(0)
        if idx >= len(cells):
            continue
        splitter = cells[idx]
        smask = 0
        for v in splitter:
            smask |= 1 << v
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            by_count: dict[int, list[int]] = {}
            for v in cell:
                c = bin(g.adj[v] & smask).count("1")
                by_count.setdefault(c, []).append(v)
            if len(by_count) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for c in sorted(by_count):
                    new_cells.append(by_count[c])
        if changed:
            cells = new_cells
            queue = list(range(len(cells)))
    return cells


def _reference_adjacency_key(g: BipartiteGraph, perm: list[int]) -> bytes:
    """Upper-triangle adjacency bits (graph6 bit order) under labelling perm.

    perm[new_label] = old vertex.
    """
    pos = [0] * g.n
    for new, old in enumerate(perm):
        pos[old] = new
    n = g.n
    nbits = n * (n - 1) // 2
    buf = bytearray((nbits + 7) // 8)
    for u, v in g.edges:
        i, j = pos[u], pos[v]
        if i > j:
            i, j = j, i
        b = j * (j - 1) // 2 + i
        buf[b >> 3] |= 0x80 >> (b & 7)
    return bytes(buf)


def _reference_search(
    g: BipartiteGraph, cells: list[list[int]], best: list[Optional[bytes]]
) -> None:
    target = None
    for cell in cells:
        if len(cell) > 1:
            target = cell
            break
    if target is None:
        perm = [cell[0] for cell in cells]
        key = _reference_adjacency_key(g, perm)
        if best[0] is None or key < best[0]:
            best[0] = key
        return
    for v in sorted(target):
        new_cells = []
        for cell in cells:
            if cell is target:
                new_cells.append([v])
                new_cells.append([w for w in cell if w != v])
            else:
                new_cells.append(cell)
        _reference_search(g, _reference_refine(g, new_cells), best)


def _reference_canonical_form(g: BipartiteGraph) -> str:
    """Canonical graph6 string; equal strings iff isomorphic graphs."""
    if g.n == 0:
        return graph6_from_bitstring(0, b"")
    cells = _reference_refine(g, [list(range(g.n))])
    best: list[Optional[bytes]] = [None]
    _reference_search(g, cells, best)
    assert best[0] is not None
    return graph6_from_bitstring(g.n, best[0])


def _shuffled(g: BipartiteGraph, seed: int) -> BipartiteGraph:
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def test_relabel_invariance_fixtures(cube, k33, heawood):
    for g in (cube, k33, heawood):
        base = canonical_form(g)
        for seed in range(5):
            assert canonical_form(_shuffled(g, seed)) == base


def test_distinguishes_nonisomorphic(cube, k33):
    c8 = BipartiteGraph(8, tuple((i, (i + 1) % 8) for i in range(8)))
    forms = {canonical_form(cube), canonical_form(k33), canonical_form(c8)}
    assert len(forms) == 3


def test_distinguishes_same_degree_sequence():
    # two cubic graphs on 6 vertices: K3,3 versus the prism
    k33 = BipartiteGraph(6, ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)))
    prism = BipartiteGraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)))
    assert not are_isomorphic(k33, prism)


def test_are_isomorphic_cheap_rejects(cube, k33):
    assert not are_isomorphic(cube, k33)  # different n
    assert are_isomorphic(cube, _shuffled(cube, 99))


def test_empty_and_tiny():
    assert canonical_form(BipartiteGraph(0, ())) == canonical_form(BipartiteGraph(0, ()))
    e1 = BipartiteGraph(2, ((0, 1),))
    e2 = BipartiteGraph(2, ((1, 0),))
    assert canonical_form(e1) == canonical_form(e2)


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .map(lambda p: (min(p), max(p)))
                .filter(lambda p: p[0] != p[1])
            ),
            st.permutations(range(n)),
        )
    )
)
def test_relabel_invariance_random(data):
    n, edges, perm = data
    g = BipartiteGraph(n, tuple(sorted(edges)))
    assert canonical_form(g.relabel(perm)) == canonical_form(g)


def test_matches_reference_on_generated_records():
    rng = random.Random(11)
    graphs = []
    for rec in generate(20):
        graphs.append(rec.graph)
        for _ in range(2):
            perm = list(range(rec.n))
            rng.shuffle(perm)
            graphs.append(rec.graph.relabel(perm))
    assert len(graphs) == 45
    for g in graphs:
        assert canonical_form(g) == _reference_canonical_form(g)


@pytest.mark.parametrize(
    "name", ["c4", "cube", "k33", "heawood", "asano", "b_horton", "p5_example"]
)
def test_matches_reference_on_catalog(name):
    g = catalog(name).graph
    assert canonical_form(g) == _reference_canonical_form(g)


def test_matches_reference_on_oracle_matrices():
    count = 0
    for n in (8, 10, 12):
        half = n // 2
        for rows in _matrices_with_line_sums_three(half):
            edges = tuple(
                (r, half + c) for r in range(half) for c in range(half) if rows[r] >> c & 1
            )
            g = BipartiteGraph(n, edges)
            if is_connected(g):
                count += 1
                assert canonical_form(g) == _reference_canonical_form(g)
    assert count == 158


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .map(lambda p: (min(p), max(p)))
                .filter(lambda p: p[0] != p[1])
            ),
        )
    )
)
def test_matches_reference_random(data):
    n, edges = data
    g = BipartiteGraph(n, tuple(sorted(edges)))
    assert canonical_form(g) == _reference_canonical_form(g)


def _star(m: int) -> BipartiteGraph:
    return BipartiteGraph(m + 1, tuple((0, i) for i in range(1, m + 1)))


@pytest.mark.parametrize(
    "name, most",
    # leaves of the unpruned search: cube 48, heawood 336, horton 2,016 and
    # 12! for the star K1,12, whose every leaf is an automorphism's image
    [("cube", 8), ("heawood", 20), ("horton", 40), ("star", 24)],
)
def test_automorphisms_prune_the_search(monkeypatch, name, most):
    leaves = []
    key = canon._adjacency_key

    def counted(g, perm):
        leaves.append(perm)
        return key(g, perm)

    monkeypatch.setattr(canon, "_adjacency_key", counted)
    g = _star(12) if name == "star" else catalog(name).graph
    form = canonical_form(g)
    assert len(leaves) <= most
    assert canonical_form(_shuffled(g, 3)) == form
