import json
import random
import sys
from pathlib import Path
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from barnette import canon
from barnette.canon import _merge, _root, canonical_form
from barnette.catalog import catalog
from barnette.generator import generate
from barnette.graphs import BipartiteGraph, bits, is_connected
from barnette.io import adjacency_bits, from_graph6, graph6_from_bitstring
from conftest import reference_matrices_with_line_sums_three

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "data" / "expected.json"
GOLDEN_FORMS = Path(__file__).resolve().parent / "golden" / "canonical_forms.json"


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
    assert canonical_form(k33) != canonical_form(prism)


def test_are_isomorphic_cheap_rejects(cube, k33):
    assert canonical_form(cube) != canonical_form(k33)  # different n
    assert canonical_form(cube) == canonical_form(_shuffled(cube, 99))


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
        for rows in reference_matrices_with_line_sums_three(half):
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


class _CountedRows(tuple):
    """Adjacency rows that count how often they are read."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return tuple.__getitem__(self, v)


@pytest.mark.parametrize(
    "name, most",
    # a splitter reads one row per vertex; applying the rest of each child's
    # target as well read 46, 131 and 10,389 rows, and applying the last
    # piece of every applied cell split 48, 136 and 12,492
    [("cube", 34), ("heawood", 95), ("horton", 10231)],
)
def test_refinement_leaves_the_last_piece_of_an_applied_cell(name, most):
    g = catalog(name).graph
    counted = BipartiteGraph(g.n, g.edges)
    rows = _CountedRows(counted.adj)
    object.__setattr__(counted, "adj", rows)
    assert canonical_form(counted) == canonical_form(g)
    assert rows.reads <= most


# The pruned search as it was with cells kept as vertex lists, before they
# became vertex masks: refinement restarted at cell 0 after a split and ran
# on once the cells were discrete.  Kept verbatim as the reference the mask
# search must match node by node.

_adjacency_key = adjacency_bits  # the name the copied search looks up

def _list_refine(g: BipartiteGraph, cells: list[list[int]], applied: set[int]):
    """Equitable refinement: split cells by neighbour counts into other cells.

    Applies the cells in order as splitters, pieces in increasing count
    order, and starts again from cell 0 after a split.  Returns the cells and
    a copy of ``applied``, the masks of splitters applied to them or coarser.
    """
    cells, applied = list(cells), set(applied)
    masks = [sum(1 << v for v in cell) for cell in cells]
    i = 0
    while i < len(cells):
        smask, splitter = masks[i], cells[i]
        i += 1
        if smask in applied:
            continue
        applied.add(smask)
        count: dict[int, int] = {}
        touched = 0  # only cells meeting the splitter's neighbours can split
        for v in splitter:
            touched |= g.adj[v]
            for w in g.neighbours[v]:
                count[w] = count.get(w, 0) + 1
        for j in reversed(range(len(cells))):  # a split shifts only later cells
            if masks[j] & touched and len(cells[j]) > 1:
                by_count: dict[int, list[int]] = {}
                for v in cells[j]:
                    by_count.setdefault(count.get(v, 0), []).append(v)
                if len(by_count) > 1:
                    cells[j : j + 1] = pieces = [by_count[c] for c in sorted(by_count)]
                    masks[j : j + 1] = [sum(1 << v for v in p) for p in pieces]
                    i = 0
    return cells, applied


def _list_canonical_form(g: BipartiteGraph) -> str:
    """Canonical graph6 string; equal strings iff isomorphic graphs."""
    if g.n == 0:
        return graph6_from_bitstring(0, b"")
    leaves: dict[bytes, list[int]] = {}  # leaf key -> first labelling giving it
    autos: list[dict[int, int]] = []  # automorphisms found, on the vertices they move
    fixed: list[int] = []  # the current node's individualised vertices
    path: list[list[int]] = []  # per ancestor depth: union-find of its orbits

    def search(cells: list[list[int]], applied: set[int]) -> int:
        """Search below the current node; return the depth where search goes on."""
        t = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if t is None:
            perm = [cell[0] for cell in cells]
            first = leaves.setdefault(_adjacency_key(g, perm), perm)
            if first is perm:
                return len(fixed) - 1
            gamma = {a: b for a, b in zip(first, perm) if a != b}
            autos.append(gamma)
            # gamma maps the searched branch at the first vertex it moves onto this one
            depth = next(d for d, v in enumerate(fixed) if v in gamma)
            for orbits in path[: depth + 1]:
                _merge(orbits, gamma)
            return depth
        orbits = list(range(g.n))
        for gamma in autos:
            if gamma.keys().isdisjoint(fixed):
                _merge(orbits, gamma)
        path.append(orbits)
        depth, target, explored = len(fixed), cells[t], []
        for v in sorted(target):
            if any(_root(orbits, v) == _root(orbits, u) for u in explored):
                continue
            explored.append(v)
            fixed.append(v)
            child = cells[:t] + [[v], [w for w in target if w != v]] + cells[t + 1 :]
            resume = search(*_list_refine(g, child, applied))
            fixed.pop()
            if resume < depth:
                break
        path.pop()
        return min(resume, depth - 1)

    search(*_list_refine(g, [list(range(g.n))], set()))
    return graph6_from_bitstring(g.n, min(leaves))


def _masks(cells: list[list[int]]) -> list[int]:
    return [sum(1 << v for v in cell) for cell in cells]


def _arrays(n: int, cells: list[list[int]]) -> tuple[list[int], list[int]]:
    """The search's arrays for an ordered partition: ``at[p]`` the mask of the
    cell that starts at position p, ``start[v]`` the start of v's cell."""
    at, start, p = [0] * n, [0] * n, 0
    for cell in cells:
        at[p] = sum(1 << v for v in cell)
        for v in cell:
            start[v] = p
        p += len(cell)
    return at, start


def _cells(at: list[int]) -> list[list[int]]:
    return [list(bits(cell)) for cell in at if cell]


def _marked(at: list[int], applied: set[int]) -> int:
    """The starts of the cells to apply: each cell not in ``applied`` but the
    last of a run of them that makes up an applied cell, as the search cuts
    an applied target into a vertex and the rest."""
    todo, run = 0, 0
    for p, cell in enumerate(at):
        if not cell:
            continue
        if cell in applied or (run := run | cell) in applied:
            run = 0
        else:
            todo |= 1 << p
    return todo


def _equitable(g: BipartiteGraph, cells: list[list[int]]) -> bool:
    masks = _masks(cells)
    return all(len({(g.adj[v] & m).bit_count() for v in cell}) == 1 for cell in cells for m in masks)


def _assert_refines_alike(g, cells, applied, reference=_list_refine):
    """Both refinements of one node, the list cells put into the search's
    arrays and read back: equal cells and starts, and equitable cells.  The
    mask refinement keeps no applied set to compare: it marks the cells to
    apply, leaving out the last piece of an applied cell."""
    want_cells, want_applied = reference(g, cells, applied)
    at, start = _arrays(g.n, cells)
    canon._refine(g, at, start, _marked(at, applied))
    assert _cells(at) == want_cells
    assert (at, start) == _arrays(g.n, want_cells)
    assert _equitable(g, want_cells)
    return want_cells, want_applied


def _assert_searches_alike(g: BipartiteGraph) -> None:
    """The list search, each node's refinement checked against the mask one,
    and the mask search key the same leaf labellings in the same order."""
    list_leaves, mask_leaves = [], []

    def recorded(into: list):
        def key(h: BipartiteGraph, perm: list[int]) -> bytes:
            into.append(list(perm))
            return adjacency_bits(h, perm)

        return key

    here = sys.modules[__name__]
    with mock.patch.object(here, "_adjacency_key", recorded(list_leaves)), mock.patch.object(
        here, "_list_refine", _assert_refines_alike
    ):
        want = _list_canonical_form(g)
    with mock.patch.object(canon, "_adjacency_key", recorded(mask_leaves)):
        got = canonical_form(g)
    assert got == want
    assert mask_leaves == list_leaves


@pytest.mark.parametrize(
    "name", ["c4", "cube", "k33", "heawood", "asano", "p5_example", "b_horton", "horton"]
)
def test_mask_search_matches_list_search_on_catalog(name):
    _assert_searches_alike(catalog(name).graph)


def test_mask_search_matches_list_search_on_generated_records():
    rng = random.Random(12)
    count = 0
    for rec in generate(20):
        for perm in [list(range(rec.n))] + [rng.sample(range(rec.n), rec.n) for _ in range(2)]:
            _assert_searches_alike(rec.graph.relabel(perm))
            count += 1
    assert count == 45


def test_mask_search_matches_list_search_on_oracle_matrices():
    count = 0
    for n in (8, 10, 12):
        half = n // 2
        for rows in reference_matrices_with_line_sums_three(half):
            edges = tuple(
                (r, half + c) for r in range(half) for c in range(half) if rows[r] >> c & 1
            )
            g = BipartiteGraph(n, edges)
            if is_connected(g):
                count += 1
                _assert_searches_alike(g)
    assert count == 158


@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .map(lambda p: (min(p), max(p)))
                .filter(lambda p: p[0] != p[1])
            ),
            st.permutations(range(n)),
            st.lists(st.booleans(), min_size=n, max_size=n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
)
def test_mask_refinement_matches_list_refinement_random(data):
    # a random ordered partition, each cell ascending as the search keeps
    # them and nothing applied, so every cell is marked; then its equitable
    # refinement with every cell applied, as at a search node, and some of
    # its cells cut into pieces, as a child cuts its target
    n, edges, order, cuts, split = data
    g = BipartiteGraph(n, tuple(sorted(edges)))
    cells: list[list[int]] = [[]]
    for v, cut in zip(order, cuts):
        if cut and cells[-1]:
            cells.append([])
        cells[-1].append(v)
    settled, _ = _assert_refines_alike(g, [sorted(cell) for cell in cells], set())
    rank = {v: i for i, v in enumerate(order)}
    node: list[list[int]] = []
    for cell, cut_up in zip(settled, split):
        pieces: list[list[int]] = [[]]
        for v in sorted(cell, key=rank.__getitem__):
            if cut_up and cuts[rank[v]] and pieces[-1]:
                pieces.append([])
            pieces[-1].append(v)
        node += [sorted(piece) for piece in pieces]
    _assert_refines_alike(g, node, set(_masks(settled)))
    _assert_searches_alike(g)


def test_forms_match_golden():
    # written by scripts/derive_golden_forms.py: the class to n = 24 as
    # generated and relabelled, the catalog, the matrix graphs to n = 12, a
    # star, an edgeless graph and seeded random graphs
    cases = json.loads(GOLDEN_FORMS.read_text(encoding="ascii"))["forms"]
    assert len(cases) == 406
    for name, graph6, form in cases:
        assert canonical_form(from_graph6(graph6)) == form, name


def test_benchmark_pins_the_catalog_brace_forms():
    # the benchmark's expected outputs key braces by canonical form, so a
    # change of form shows here and not only in the benchmark's check
    graphs = json.loads(EXPECTED.read_text(encoding="ascii"))["graphs"]
    form = {name: canonical_form(catalog(name).graph) for name in ("c4", "cube", "k33", "b_horton")}
    assert form["k33"] == "EFz_"
    assert set(graphs["decompose/horton"]) == {form["k33"], form["b_horton"]}
    assert set(graphs["decompose/asano"]) == {form["c4"], form["cube"]}
    assert set(graphs["pfaffian/b_horton"]["braces"]) == {form["b_horton"]}
