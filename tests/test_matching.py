import random
from itertools import combinations

import pytest

from barnette.graphs import BipartiteGraph, GraphError, vertex_mask, with_colouring
from barnette.matching import (
    OracleBoundError,
    _matching,
    allowed_edges,
    cover_graph,
    enumerate_perfect_matchings,
    hall_set,
    has_perfect_matching,
    is_brace,
    is_k_extendable,
    is_matching_covered,
    oracle_bound,
    perfect_matching,
)
from barnette.tightcut import contract, find_nontrivial_tight_cut


def test_perfect_matching_on_fixtures(cube, k33, heawood):
    for g in (cube, k33, heawood):
        pm = perfect_matching(g)
        assert pm is not None
        pm.validate(g)


def test_no_perfect_matching_on_star():
    star = with_colouring(BipartiteGraph(4, ((0, 1), (0, 2), (0, 3))))
    assert perfect_matching(star) is None
    assert not has_perfect_matching(star)
    assert allowed_edges(star) == frozenset()


def test_has_perfect_matching_with_deletions(cube):
    assert has_perfect_matching(cube)
    # deleting one vertex from each class keeps a perfect matching (cube is 1-extendable)
    assert has_perfect_matching(cube, removed_mask=(1 << 0) | (1 << 1))
    # odd remainder can never be matched
    assert not has_perfect_matching(cube, removed_mask=1 << 0)


def test_allowed_edges_full_on_fixtures(cube, k33, heawood):
    for g in (cube, k33, heawood):
        assert allowed_edges(g) == frozenset(range(g.edge_count))
        assert is_matching_covered(g)


def test_allowed_edges_partial():
    # path on 4 vertices: only the end edges lie in the unique perfect matching
    p4 = with_colouring(BipartiteGraph(4, ((0, 1), (1, 2), (2, 3))))
    assert allowed_edges(p4) == frozenset({0, 2})
    assert not is_matching_covered(p4)
    sub, emap = cover_graph(p4)
    assert sub.edge_count == 2
    assert emap == {0: 0, 2: 1}
    assert sub.edges == ((0, 1), (2, 3))


def test_chorded_six_cycle_chord_is_allowed():
    # the antipodal chord completes {chord, 1-2, 4-5} to a perfect matching,
    # so it is allowed even though it lies on no matching of the plain cycle
    g = with_colouring(
        BipartiteGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)))
    )
    chord = g.edge_id(0, 3)
    assert chord in allowed_edges(g)
    witness = frozenset({chord, g.edge_id(1, 2), g.edge_id(4, 5)})
    assert witness in {pm.edge_ids for pm in enumerate_perfect_matchings(g)}


def test_matching_covered_rejects_disconnected():
    two_edges = BipartiteGraph(4, ((0, 1), (2, 3)))
    assert not is_matching_covered(two_edges)


def test_extendability_ladder(cube, k33, heawood, c6):
    assert is_k_extendable(c6, 1)
    assert not is_k_extendable(c6, 2)  # C6 has only two perfect matchings
    for g in (cube, k33, heawood):
        assert is_k_extendable(g, 1)
        assert is_k_extendable(g, 2)
    from barnette.graphs import GraphError

    with pytest.raises(GraphError):
        is_k_extendable(cube, 3)


def test_brace_fixtures(cube, k33, heawood, c6):
    c4 = BipartiteGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert is_brace(c4)  # special case below the 2-extendability threshold
    assert is_brace(cube) and is_brace(k33) and is_brace(heawood)
    assert not is_brace(c6)


def test_asano_not_brace(asano):
    g = asano.graph
    assert is_matching_covered(g)
    assert not is_brace(g)


def test_enumeration_counts(cube, k33, c6):
    assert len(enumerate_perfect_matchings(c6)) == 2
    assert len(enumerate_perfect_matchings(cube)) == 9
    assert len(enumerate_perfect_matchings(k33)) == 6  # 3! matchings of K3,3
    for pm in enumerate_perfect_matchings(cube):
        pm.validate(cube)


def test_enumeration_respects_bound(cube, monkeypatch):
    with pytest.raises(OracleBoundError):
        enumerate_perfect_matchings(cube, bound=6)
    monkeypatch.setenv("BARNETTE_ORACLE_BOUND", "7")
    assert oracle_bound() == 7
    with pytest.raises(OracleBoundError):
        enumerate_perfect_matchings(cube)
    monkeypatch.setenv("BARNETTE_ORACLE_BOUND", "8")
    assert len(enumerate_perfect_matchings(cube)) == 9


def test_oracle_bound_default(monkeypatch):
    monkeypatch.delenv("BARNETTE_ORACLE_BOUND", raising=False)
    assert oracle_bound() == 40


def test_allowed_edges_matches_enumeration(cube, heawood, c6):
    for g in (cube, heawood, c6):
        by_enum = set()
        for pm in enumerate_perfect_matchings(g):
            by_enum |= pm.edge_ids
        assert allowed_edges(g) == frozenset(by_enum)


def test_has_perfect_matching_on_long_path():
    # augmenting from vertex 2k first walks the alternating path back to 0,
    # so the search runs about n/2 levels deep
    n = 3000
    path = BipartiteGraph(n, tuple((i, i + 1) for i in range(n - 1)))
    assert has_perfect_matching(path)
    assert not has_perfect_matching(path, removed_mask=0b110)  # strands vertex 0
    assert has_perfect_matching(path, removed_mask=0b1001)


def _reference_hall_set(g, removed_mask):
    """The BFS hall_set ran before it read the failed augmenting search."""
    _, partner = _matching(g, removed_mask)
    alive = g.full_mask & ~removed_mask
    start = next((a for a in g.class_a() if alive >> a & 1 and partner[a] == -1), -1)
    if start < 0:
        raise GraphError("matching saturates class A")
    t_set = {start}
    reached: set[int] = set()
    queue = [start]
    while queue:
        a = queue.pop()
        for b in g.neighbours[a]:
            if not (alive >> b & 1) or b in reached:
                continue
            reached.add(b)
            nxt = partner[b]
            if nxt != -1 and nxt not in t_set:
                t_set.add(nxt)
                queue.append(nxt)
    full_n = {b for a in t_set for b in g.neighbours[a]}
    if len(full_n) != len(t_set) + 1:
        raise GraphError("graph is not matching covered")
    return vertex_mask(t_set | full_n)


def test_hall_set_matches_bfs_reference(asano):
    # every blocking quartet of every piece of Asano's decomposition and of
    # seeded random matching covered graphs
    graphs, work = [], [asano.graph]
    while work:
        h = work.pop()
        graphs.append(h)
        cut = find_nontrivial_tight_cut(h)
        if cut is not None:
            work += [contract(h, cut, side).graph for side in ("complement", "shore")]
    rng = random.Random(4)
    while len(graphs) < 30:
        half = rng.choice((4, 5, 6))
        edges = tuple(
            (a, b) for a in range(half) for b in range(half, 2 * half) if rng.random() < 0.5
        )
        g = BipartiteGraph(2 * half, edges, ("A",) * half + ("B",) * half)
        if is_matching_covered(g):
            graphs.append(g)
    compared = 0
    for g in graphs:
        for a_pair in combinations(g.class_a(), 2):
            for b_pair in combinations(g.class_b(), 2):
                removed = vertex_mask(a_pair + b_pair)
                if not has_perfect_matching(g, removed):
                    assert hall_set(g, removed) == _reference_hall_set(g, removed)
                    compared += 1
    assert compared > 1000, compared
