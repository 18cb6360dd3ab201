import dataclasses
import itertools
import random

import pytest

from barnette import constructions, matching
from barnette.bruteforce import cubic_bipartite_classes, pfaffian_by_enumeration
from barnette.canon import canonical_form
from barnette.constructions import (
    CycleSaturationError,
    K33Bisubdivision,
    _eliminate,
    _free_vertex_alive,
    braces_pfaffian_consistency,
    conformal_cycles,
    enumerate_simple_cycles,
    find_conformal_k33_bisubdivision,
    find_pfaffian_orientation,
    is_oddly_oriented,
    splice,
    trisum,
)
from barnette.catalog import catalog
from barnette.embedding import embed_planar
from barnette.graphs import BipartiteGraph, GraphError
from barnette.hamiltonicity import is_hamiltonian
from barnette.matching import OracleBoundError, has_perfect_matching, is_brace, is_matching_covered
from barnette.tightcut import is_tight


def test_splice_two_cubes(cube, heawood, k33):
    s = splice(cube, 0, cube, 0)
    assert s.graph.n == 14
    assert s.graph.is_regular(3)
    assert is_matching_covered(s.graph)
    assert len(s.cut.edge_ids) == 3
    assert is_tight(s.graph, s.cut)
    # maps are injective on survivors and cover the glued vertex range
    survivors = [v for v in s.map1 if v is not None] + [
        v for v in s.map2 if v is not None
    ]
    assert sorted(survivors) == list(range(14))
    assert s.map1[0] is None and s.map2[0] is None
    # balanced inputs give a tight seam, by the colour count splice states
    for other in (splice(heawood, 0, cube, 0), splice(k33, 3, catalog("b_horton").graph, 0)):
        assert len(other.cut.edge_ids) == 3
        assert is_tight(other.graph, other.cut)


def test_splice_of_unbalanced_stars_has_a_loose_seam():
    # K1,3 spliced to itself at the centres is 3K2: a valid splice, but its
    # one perfect matching crosses the seam three times
    star = BipartiteGraph(4, ((0, 1), (0, 2), (0, 3)))
    s = splice(star, 0, star, 0)
    assert s.graph.n == 6 and s.graph.edge_count == 3
    assert len(s.cut.edge_ids) == 3
    assert has_perfect_matching(s.graph)
    assert not is_tight(s.graph, s.cut)


def test_splice_rejects_degree_mismatch(cube, c6):
    with pytest.raises(GraphError):
        splice(cube, 0, c6, 0)  # degree 3 against degree 2


def test_trisum_of_cubes(cube):
    quad = (0, 1, 2, 3)  # a facial square of the cube
    out = trisum([cube, cube, cube], [quad, quad, quad])
    assert out.n == 16  # 4 shared + 3 * 4 private
    assert out.is_regular(3)
    assert not any(out.has_edge(x, (x + 1) % 4) for x in range(4))  # cycle edges gone
    # the one non-planar cubic Pfaffian brace on 16 vertices
    assert is_brace(out)
    assert embed_planar(out) is None
    assert find_pfaffian_orientation(out) is not None
    assert is_hamiltonian(out)


def test_trisum_validation(cube):
    with pytest.raises(GraphError):
        trisum([cube, cube], [(0, 1, 2, 3)] * 2)
    with pytest.raises(GraphError):
        trisum([cube] * 3, [(0, 1, 2, 4)] * 3)  # not a 4-cycle
    # the triangular prism has 4-cycles, and a triangle
    triangles = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
    prism = BipartiteGraph(6, triangles + ((0, 3), (1, 4), (2, 5)))
    with pytest.raises(GraphError, match="not bipartite"):
        trisum([prism, cube, cube], [(0, 1, 4, 3), (0, 1, 2, 3), (0, 1, 2, 3)])
    c4 = catalog("c4").graph
    with pytest.raises(GraphError, match="vertices outside the 4-cycle"):
        trisum([c4, cube, cube], [(0, 1, 2, 3)] * 3)


def test_cycle_enumeration_counts(cube, k33, c6, monkeypatch):
    assert len(enumerate_simple_cycles(c6)) == 1
    assert len(enumerate_simple_cycles(k33)) == 15  # nine 4-cycles, six 6-cycles
    assert len(enumerate_simple_cycles(cube)) == 28  # 6 + 16 + 6 by length
    monkeypatch.setattr(constructions, "CYCLE_CAP", 5)
    with pytest.raises(CycleSaturationError):
        enumerate_simple_cycles(cube)


def _reference_cycles(g):
    """The recursive walk the iterative one replaced, kept to pin its order."""
    out, path = [], []

    def dfs(anchor, here, used):
        for w in sorted(g.neighbours[here]):
            if w == anchor:
                if len(path) >= 3 and path[1] < path[-1]:
                    out.append(tuple(path))
            elif w > anchor and not used >> w & 1:
                path.append(w)
                dfs(anchor, w, used | 1 << w)
                path.pop()

    for anchor in range(g.n):
        path[:] = [anchor]
        dfs(anchor, anchor, 1 << anchor)
    return out


def test_cycle_walk_order_matches_recursive_reference(c6, k33, cube, heawood):
    # the order of the cycles fixes the order of the GF(2) rows, hence the
    # orientation bits that find_pfaffian_orientation returns
    for g in (c6, k33, cube, heawood, catalog("p5_example").graph):
        assert enumerate_simple_cycles(g) == _reference_cycles(g)


def _reference_grow_paths(g, tri_a, tri_b, branch_mask, pair_order):
    """The recursive K33 path growth the shared walker replaced."""
    done = {}

    def reachable_ok(used: int, from_idx: int) -> bool:
        # every remaining pair must still admit a path over unused vertices
        for i, j in pair_order[from_idx:]:
            src, dst = tri_a[i], tri_b[j]
            seen = 1 << src
            stack = [src]
            hit = False
            while stack and not hit:
                x = stack.pop()
                for y in g.neighbours[x]:
                    if y == dst:
                        hit = True
                        break
                    m = 1 << y
                    if not (seen & m or used & m or branch_mask & m):
                        seen |= m
                        stack.append(y)
            if not hit:
                return False
        return True

    def grow(idx: int, used: int) -> bool:
        if idx == len(pair_order):
            return has_perfect_matching(g, used)
        i, j = pair_order[idx]
        src, dst = tri_a[i], tri_b[j]
        path = [src]

        def step(here: int, interior: int) -> bool:
            for w in sorted(g.neighbours[here]):
                if w == dst:
                    path.append(dst)
                    done[i, j] = tuple(path)
                    nxt = used | interior
                    if (
                        _free_vertex_alive(g, nxt, branch_mask)
                        and reachable_ok(nxt, idx + 1)
                        and grow(idx + 1, nxt)
                    ):
                        return True
                    path.pop()
                elif not (interior >> w & 1 or used >> w & 1 or branch_mask >> w & 1):
                    path.append(w)
                    if step(w, interior | 1 << w):
                        return True
                    path.pop()
            return False

        return step(src, 0)

    if not reachable_ok(branch_mask, 0):
        return None
    if grow(0, branch_mask):
        return K33Bisubdivision(
            tuple(tri_a),
            tuple(tri_b),
            tuple(tuple(done[i, j] for j in range(3)) for i in range(3)),
        )
    return None


def _walker_inputs(cube, k33):
    """Catalog graphs, a splice with a K33 piece, and two relabellings of each."""
    rng = random.Random(8)
    names = ("c4", "k33", "cube", "heawood", "p5_example", "b_horton")
    bases = [catalog(name).graph for name in names] + [splice(cube, 0, k33, 0).graph]
    return [
        h for g in bases for h in [g] + [g.relabel(rng.sample(range(g.n), g.n)) for _ in range(2)]
    ]


def test_cycles_match_recursive_reference_on_relabellings(cube, k33):
    for g in _walker_inputs(cube, k33):
        assert enumerate_simple_cycles(g) == _reference_cycles(g)


def test_k33_witnesses_match_recursive_reference(cube, k33, monkeypatch):
    graphs = _walker_inputs(cube, k33)
    got = [find_conformal_k33_bisubdivision(g) for g in graphs]
    monkeypatch.setattr(
        constructions, "_grow_paths", lambda g, nbrs, *rest: _reference_grow_paths(g, *rest)
    )
    assert got == [find_conformal_k33_bisubdivision(g) for g in graphs]
    assert {w is None for w in got} == {True, False}
    # the search returns its witness unchecked, so check every one here
    for g, w in zip(graphs, got):
        if w is not None:
            w.validate(g)


def test_cycle_enumeration_on_long_cycle():
    # the walk is iterative: a cycle far longer than the recursion limit
    n = 3000
    g = BipartiteGraph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))
    assert enumerate_simple_cycles(g) == [tuple(range(n))]


def test_conformal_cycles_cube(cube):
    cycles = conformal_cycles(cube)
    # facial squares, Hamiltonian cycles, and the 6-cycles that omit an
    # adjacent pair (the four omitting an antipodal pair are not conformal)
    by_len = {}
    for c in cycles:
        by_len.setdefault(len(c), 0)
        by_len[len(c)] += 1
    assert by_len == {4: 6, 6: 12, 8: 6}


def test_pfaffian_solver_matches_enumeration(cube, k33, c6):
    # the two connected cubic bipartite classes at n = 10 (15 edges each)
    # contain a conformal K33 bisubdivision, so neither is Pfaffian
    tens = list(cubic_bipartite_classes(10))
    assert [g.edge_count for g in tens] == [15, 15]
    for g, expect in ((c6, True), (cube, True), (k33, False), *((g, False) for g in tens)):
        got = find_pfaffian_orientation(g) is not None
        assert got == expect
        assert pfaffian_by_enumeration(g) == expect


def test_gf2_solver_matches_exhaustive_search():
    rng = random.Random(7)
    outcomes = set()
    for _ in range(400):
        width = rng.randint(0, 8)
        rows = [
            [rng.randrange(width) for _ in range(rng.randint(0, 2 * width))] if width else []
            for _ in range(rng.randint(0, 12))
        ]
        rhs = [rng.randint(0, 1) for _ in rows]

        def satisfies(x):
            return all(sum(x[c] for c in cols) % 2 == b for cols, b in zip(rows, rhs))

        feasible = any(satisfies(x) for x in itertools.product((0, 1), repeat=width))
        got = _eliminate(zip(rows, rhs), width)
        outcomes.add(feasible)
        assert (got is not None) == feasible
        if got is not None:
            assert len(got) == width and satisfies(got)
    assert outcomes == {True, False}


def test_orientation_is_odd_on_all_conformal_cycles(cube, heawood):
    for g in (cube, heawood):
        orientation = find_pfaffian_orientation(g)
        assert orientation is not None
        for cyc in conformal_cycles(g):
            assert is_oddly_oriented(g, orientation, cyc)


def test_bisubdivision_witnesses(cube, k33, heawood):
    assert find_conformal_k33_bisubdivision(cube) is None
    w = find_conformal_k33_bisubdivision(k33)
    assert w is not None
    w.validate(k33)
    assert all(len(path) == 2 for row in w.paths for path in row)  # K33 itself
    assert find_conformal_k33_bisubdivision(heawood) is None  # Heawood is Pfaffian


def test_bisubdivision_validate_rejects_each_broken_witness():
    g = catalog("b_horton").graph
    w = find_conformal_k33_bisubdivision(g)
    w.validate(g)
    a, b = w.branches_a, w.branches_b

    def with_path(i, j, path):
        rows = [list(row) for row in w.paths]
        rows[i][j] = tuple(path)
        return dataclasses.replace(w, paths=tuple(map(tuple, rows)))

    i, j = next((i, j) for i in range(3) for j in range(3) if len(w.paths[i][j]) >= 4)
    p = w.paths[i][j]
    # a path a1 ~ b1 ~ a0 ~ b0 through two other paths and two branches
    detour = w.paths[1][1] + w.paths[0][1][::-1][1:] + w.paths[0][0][1:]
    assert detour[0] == a[1] and detour[-1] == b[0]
    assert len(w.paths[0][1]) > 2  # so the detour shares its inner vertices too
    broken = {
        "not distinct": dataclasses.replace(w, branches_a=(a[0], a[0], a[2])),
        "endpoints disagree": with_path(0, 0, w.paths[0][0][::-1]),
        "even length": with_path(i, j, p[:1] + p[2:]),
        # p[0] and p[2] share a colour, so the first step is no edge
        "is not an edge": with_path(i, j, (p[0], p[2], p[1]) + p[3:]),
        "not internally disjoint": with_path(1, 0, detour),
    }
    for message, witness in broken.items():
        with pytest.raises(GraphError, match=message):
            witness.validate(g)


def test_exact_searches_refuse_graphs_over_the_oracle_bound(cube, monkeypatch):
    monkeypatch.setattr(matching, "ORACLE_BOUND", 6)
    with pytest.raises(OracleBoundError):
        find_conformal_k33_bisubdivision(cube)
    with pytest.raises(OracleBoundError):
        find_pfaffian_orientation(cube)


def test_pfaffian_orientation_needs_a_matching_covered_graph():
    p4 = BipartiteGraph(4, ((0, 1), (1, 2), (2, 3)))
    assert has_perfect_matching(p4) and not is_matching_covered(p4)
    with pytest.raises(GraphError, match="matching covered"):
        find_pfaffian_orientation(p4)


def test_k33_search_needs_a_perfect_matching():
    claw = BipartiteGraph(4, ((0, 1), (0, 2), (0, 3)))
    with pytest.raises(GraphError, match="perfect matching"):
        find_conformal_k33_bisubdivision(claw)


def test_conformal_cycles_without_a_perfect_matching():
    assert conformal_cycles(BipartiteGraph(3, ((0, 1), (1, 2)))) == []


def test_routes_agree_on_fixtures(cube, k33, heawood, c6):
    for g in (c6, cube, k33, heawood):
        by_orientation = find_pfaffian_orientation(g) is not None
        by_structure = find_conformal_k33_bisubdivision(g) is None
        assert by_orientation == by_structure


def test_braces_consistency_asano(asano):
    report = braces_pfaffian_consistency(asano.graph)
    assert report["pfaffian"] is True
    assert report["direct"] is True
    assert report["consistent"] is True
    assert set(report["braces"].values()) == {True}


def test_braces_consistency_detects_k33_piece(k33, cube):
    s = splice(cube, 0, k33, 0)
    report = braces_pfaffian_consistency(s.graph)
    assert report["pfaffian"] is False
    assert report["direct"] is False
    assert report["consistent"] is True
    assert report["braces"][canonical_form(k33)] is False


def _batch_orientation(g):
    """The route before streaming: every conformal row first, then one solve."""
    rows, rhs = zip(*(constructions._cycle_constraint(g, c) for c in conformal_cycles(g)))
    return _eliminate(zip(rows, rhs), g.edge_count)


def test_streaming_orientation_matches_batch_solve(cube, k33):
    rng = random.Random(5)
    for name in ("c4", "cube", "heawood", "p5_example", "asano"):
        g = catalog(name).graph
        perms = [rng.sample(range(g.n), g.n) for _ in range(2)]
        for h in [g] + [g.relabel(p) for p in perms]:
            orientation = find_pfaffian_orientation(h)
            assert orientation is not None
            assert list(orientation) == _batch_orientation(h)
    for g in (k33, catalog("b_horton").graph, splice(cube, 0, k33, 0).graph):
        assert find_pfaffian_orientation(g) is None
        assert _batch_orientation(g) is None


def test_pfaffian_verdict_stops_at_first_contradiction(monkeypatch):
    calls = []

    def counting(g, removed=0):
        calls.append(1)
        return has_perfect_matching(g, removed)

    monkeypatch.setattr(constructions, "has_perfect_matching", counting)
    assert find_pfaffian_orientation(catalog("b_horton").graph) is None
    # the whole route tests all 63,928 cycles of B-Horton; the first
    # contradiction comes at its 63rd
    assert 0 < len(calls) < 1000
