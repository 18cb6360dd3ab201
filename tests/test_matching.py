import random
from collections import Counter
from itertools import combinations

import pytest

from barnette import matching, tightcut
from barnette.bruteforce import oracle_is_tight
from barnette.catalog import catalog, catalog_names
from barnette.generator import generate
from barnette.graphs import (
    BipartiteGraph,
    Cut,
    GraphError,
    is_connected,
    shore_colour_balance,
    vertex_mask,
    with_colouring,
)
from barnette.matching import (
    OracleBoundError,
    PerfectMatching,
    _matching,
    enumerate_perfect_matchings,
    has_perfect_matching,
    is_brace,
    is_matching_covered,
)
from barnette.tightcut import (
    contract,
    cubic_three_connected,
    find_nontrivial_tight_cut,
    is_tight,
    tight_cut_decomposition,
)


def _allowed(g):
    """Which edges lie in a perfect matching, asked as `is_tight` asks:
    edge uv does iff g - u - v has one."""
    return [has_perfect_matching(g, 1 << u | 1 << v) for u, v in g.edges]


def _allowed_by_enumeration(g):
    found = set()
    for pm in enumerate_perfect_matchings(g):
        found |= pm.edge_ids
    return [eid in found for eid in range(g.edge_count)]


def test_no_perfect_matching_on_star():
    star = with_colouring(BipartiteGraph(4, ((0, 1), (0, 2), (0, 3))))
    assert not has_perfect_matching(star)
    assert _allowed(star) == [False] * 3
    assert not is_matching_covered(star)


def test_has_perfect_matching_with_deletions(cube):
    assert has_perfect_matching(cube)
    # deleting one vertex from each class keeps a perfect matching (cube is 1-extendable)
    assert has_perfect_matching(cube, removed_mask=(1 << 0) | (1 << 1))
    # odd remainder can never be matched
    assert not has_perfect_matching(cube, removed_mask=1 << 0)


def test_allowed_edges_full_on_fixtures(cube, k33, heawood):
    for g in (cube, k33, heawood):
        assert all(_allowed(g))
        assert is_matching_covered(g)


def test_allowed_edges_partial():
    # path on 4 vertices: only the end edges lie in the unique perfect matching
    p4 = with_colouring(BipartiteGraph(4, ((0, 1), (1, 2), (2, 3))))
    assert _allowed(p4) == [True, False, True]
    assert not is_matching_covered(p4)


def test_chorded_six_cycle_chord_is_allowed():
    # the antipodal chord completes {chord, 1-2, 4-5} to a perfect matching,
    # so it is allowed even though it lies on no matching of the plain cycle
    g = with_colouring(
        BipartiteGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)))
    )
    chord = g.edge_id(0, 3)
    assert _allowed(g)[chord] and is_matching_covered(g)
    witness = frozenset({chord, g.edge_id(1, 2), g.edge_id(4, 5)})
    assert witness in {pm.edge_ids for pm in enumerate_perfect_matchings(g)}


def test_matching_covered_rejects_disconnected():
    two_edges = BipartiteGraph(4, ((0, 1), (2, 3)))
    assert not is_matching_covered(two_edges)


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


def test_validate_rejects_edge_ids_out_of_range(cube):
    last = cube.edge_count - 1
    pm = next(pm for pm in enumerate_perfect_matchings(cube) if last in pm.edge_ids)
    pm.validate(cube)
    for eid in (-1, cube.edge_count):
        with pytest.raises(GraphError, match="out of range"):
            PerfectMatching(pm.edge_ids - {last} | {eid}).validate(cube)


def test_validate_rejects_a_shared_vertex_and_an_uncovered_vertex(cube):
    pm = enumerate_perfect_matchings(cube)[0]
    extra = next(eid for eid in range(cube.edge_count) if eid not in pm.edge_ids)
    with pytest.raises(GraphError, match="share a vertex"):
        PerfectMatching(pm.edge_ids | {extra}).validate(cube)
    with pytest.raises(GraphError, match="does not cover"):
        PerfectMatching(pm.edge_ids - {min(pm.edge_ids)}).validate(cube)


def test_enumeration_respects_bound(cube, monkeypatch):
    monkeypatch.setattr(matching, "ORACLE_BOUND", 7)
    with pytest.raises(OracleBoundError):
        enumerate_perfect_matchings(cube)
    monkeypatch.setattr(matching, "ORACLE_BOUND", 8)
    assert len(enumerate_perfect_matchings(cube)) == 9


def test_allowed_edges_matches_enumeration(cube, heawood, c6):
    for g in (cube, heawood, c6):
        assert _allowed(g) == _allowed_by_enumeration(g)


def test_matching_covered_matches_definition(cube, k33, heawood, c6):
    # connected, with every edge in some perfect matching that a plain
    # backtrack lists (it shares no code with _matching or the digraph
    # search), and at least one edge; 1-extendability also needs n >= 4
    c4 = ((0, 1), (1, 2), (2, 3), (0, 3))
    graphs = [
        BipartiteGraph(2, ((0, 1),)),  # K2: matching covered, not 1-extendable
        BipartiteGraph(4, c4),
        BipartiteGraph(5, c4),  # an isolated vertex
        BipartiteGraph(4, ((0, 1), (2, 3))),  # disconnected, perfectly matched
        BipartiteGraph(4, ((0, 1), (1, 2), (2, 3))),  # P4
        BipartiteGraph(6, ((0, 1), (1, 2), (1, 4), (3, 4), (4, 5))),  # no perfect matching
        BipartiteGraph(4, ((0, 1), (0, 2), (0, 3))),  # unbalanced sides
        c6, cube, k33, heawood,
    ]
    rng = random.Random(24)
    while len(graphs) < 400:
        half_a = rng.randint(1, 6)
        half_b = min(6, max(1, half_a + rng.choice((-1, 0, 0, 0, 1))))
        g = _random_bipartite(rng, half_a, half_b, rng.choice((0.3, 0.5, 0.7, 0.9)))
        graphs.append(g.relabel(rng.sample(range(g.n), g.n)))
    verdicts = []
    for g in graphs:
        covered = g.edge_count > 0 and is_connected(g) and all(_allowed_by_enumeration(g))
        assert is_matching_covered(g) == covered
        verdicts.append(covered)
    assert verdicts[:7] == [True, True, False, False, False, False, False]
    assert all(verdicts[7:11])
    assert 50 <= sum(verdicts) <= len(verdicts) - 50
    assert sum(len(g.class_a()) != len(g.class_b()) for g in graphs) >= 50
    assert sum(not is_connected(g) for g in graphs) >= 20
    connected = [g for g in graphs if is_connected(g) and len(g.class_a()) == len(g.class_b())]
    matched = [has_perfect_matching(g) for g in connected]
    assert matched.count(False) >= 3
    assert sum(m and not c for m, c in zip(matched, map(is_matching_covered, connected))) >= 20


def test_has_perfect_matching_on_long_path():
    # augmenting from vertex 2k first walks the alternating path back to 0,
    # so the search runs about n/2 levels deep
    n = 3000
    path = BipartiteGraph(n, tuple((i, i + 1) for i in range(n - 1)))
    assert has_perfect_matching(path)
    assert not has_perfect_matching(path, removed_mask=0b110)  # strands vertex 0
    assert has_perfect_matching(path, removed_mask=0b1001)


def _decomposition_steps(g):
    """Each piece of g's decomposition, with the cut found on it and its two
    contractions (inner, outer); a brace has neither."""
    steps, work = [], [g]
    while work:
        h = work.pop()
        cut = find_nontrivial_tight_cut(h)
        quotients = () if cut is None else contract(h, cut)
        steps.append((h, cut, quotients))
        work += quotients
    return steps


def _decomposition_pieces(g):
    return [h for h, _, _ in _decomposition_steps(g)]


def _random_bipartite(rng, half_a, half_b, p):
    n = half_a + half_b
    edges = tuple((a, b) for a in range(half_a) for b in range(half_a, n) if rng.random() < p)
    return BipartiteGraph(n, edges, ("A",) * half_a + ("B",) * half_b)


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


def _reference_blocking_quartet(g):
    """The quartet scan blocking_quartet ran before it read spared B-pairs
    from one matching per A-pair."""
    for a1, a2 in combinations(g.class_a(), 2):
        for b1, b2 in combinations(g.class_b(), 2):
            removed = 1 << a1 | 1 << a2 | 1 << b1 | 1 << b2
            if not has_perfect_matching(g, removed):
                return removed
    return None


def _reference_tight_cut(g):
    """The route find_nontrivial_tight_cut took before it read the cut off
    the failed digraph search: the first blocking quartet's Hall set
    T ∪ N(T) is the complement of the shore, which is the A-excess side.
    Braces leave at once, as the old route left through the digraph test
    before scanning."""
    if not has_perfect_matching(g):
        raise GraphError("graph has no perfect matching")
    if matching._digraph_failure(g) is None:
        return None
    removed = _reference_blocking_quartet(g)
    if removed is None:
        return None
    return Cut.from_shore(g, g.full_mask & ~_reference_hall_set(g, removed))


def _random_matching_covered(seed, count):
    """`count` seeded random matching covered graphs that are not cubic."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        half = rng.choice((4, 5, 6))
        g = _random_bipartite(rng, half, half, rng.choice((0.4, 0.5, 0.6)))
        if is_matching_covered(g) and not g.is_regular(3):
            graphs.append(g)
    return graphs


def _cycle_plus_chords(k, seed):
    """A 2k-cycle plus k seeded random chords between opposite colours.

    Each chord cuts the cycle into two paths with an even number of inner
    vertices, so it extends to a perfect matching: the graph is matching
    covered, and its vertices of degree two keep it from being a brace.
    """
    rng = random.Random(seed)
    n = 2 * k
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    while len(edges) < n + k:
        i = rng.randrange(n)
        j = (i + rng.randrange(3, n - 2, 2)) % n
        edges.add((min(i, j), max(i, j)))
    return with_colouring(BipartiteGraph(n, tuple(sorted(edges))))


def _relabellings(g, seed, count):
    """`count` seeded permutations of g's vertices, the identity first."""
    rng = random.Random(seed)
    return [list(range(g.n))] + [rng.sample(range(g.n), g.n) for _ in range(count - 1)]


def test_general_route_cuts_are_tight_nontrivial_a_excess(asano):
    # find_nontrivial_tight_cut answers for four vertices or fewer itself
    graphs = [h for h in _decomposition_pieces(asano.graph) if h.n > 4]
    graphs += _random_matching_covered(16, 150)
    cuts = 0
    varied = 0  # graphs whose cut depends on the labelling
    for i, g in enumerate(graphs):
        shores = set()
        for perm in _relabellings(g, i, 4):
            h = g.relabel(perm)
            cut = find_nontrivial_tight_cut(h)
            if cut is None:
                assert is_brace(h)
                continue
            assert is_tight(h, cut) and oracle_is_tight(h, cut)
            assert not cut.is_trivial
            assert shore_colour_balance(h, cut.shore) == 1
            shores.add(vertex_mask(v for v in range(g.n) if cut.shore >> perm[v] & 1))
            cuts += 1
        varied += len(shores) > 1
    assert cuts >= 400 and varied >= 50, (cuts, varied)


def test_contractions_keep_tightness_and_both_classes():
    # contract trusts its cut and its input; the theorems it rests on
    # (Lovász & Plummer) are checked here instead, on every contraction
    graphs = [catalog("horton").graph, catalog("asano").graph]
    graphs += [rec.graph for rec in generate(24) if not rec.is_brace]
    graphs += [_cycle_plus_chords(30, seed) for seed in (1, 2, 3)]
    routes = Counter()
    for g in graphs:
        for h, cut, quotients in _decomposition_steps(g):
            if cut is None:
                continue
            assert is_tight(h, cut)
            assert all(is_matching_covered(q) for q in quotients)
            cubic = h.is_regular(3) and cubic_three_connected(h)
            if cubic:
                assert all(q.is_regular(3) and cubic_three_connected(q) for q in quotients)
            routes[cubic] += 1
    # one contraction per brace beyond the first, whatever cuts are picked
    assert routes == {True: 42, False: 56}


def test_general_route_without_matching_coverage_raises_or_stays_tight():
    # a Hall set with one neighbour too many gives a tight cut in any graph
    # with a perfect matching; the route refuses the searches that end in
    # anything else
    rng = random.Random(21)
    verdicts = Counter()
    while sum(verdicts.values()) < 100:
        half = rng.choice((3, 4, 5, 6))
        g = _random_bipartite(rng, half, half, rng.choice((0.4, 0.5, 0.6)))
        if not has_perfect_matching(g) or is_matching_covered(g):
            continue
        try:
            cut = find_nontrivial_tight_cut(g)
        except GraphError:
            verdicts["raised"] += 1
            continue
        assert is_tight(g, cut) and oracle_is_tight(g, cut) and not cut.is_trivial
        verdicts["tight"] += 1
    assert verdicts["raised"] >= 20 and verdicts["tight"] >= 20, verdicts


def test_general_route_braces_match_quartet_route(asano, monkeypatch):
    # brace multisets do not depend on the cuts picked (Lovász 1987), so
    # the old route must give the same ones while the traces may differ
    graphs = [asano.graph, catalog("p5_example").graph, _cycle_plus_chords(30, 3)]
    graphs += _random_matching_covered(16, 150)
    runs = [g.relabel(perm) for i, g in enumerate(graphs) for perm in _relabellings(g, i, 4)]

    def decompose():
        return [tight_cut_decomposition(g) for g in runs]

    ours = decompose()
    monkeypatch.setattr(tightcut, "find_nontrivial_tight_cut", _reference_tight_cut)
    ref = decompose()
    assert [r.braces for r in ours] == [r.braces for r in ref]
    assert sum(len(r.trace) for r in ours) >= 300
    assert any(a.trace != b.trace for a, b in zip(ours, ref))


def test_decomposition_order_invariance_at_200_vertices():
    g = _cycle_plus_chords(100, 3)
    assert g.n == 200 and is_matching_covered(g) and not g.is_regular(3)
    base = tight_cut_decomposition(g)
    assert len(base.trace) >= 10
    traces = set()
    for perm in _relabellings(g, 1, 4):
        result = tight_cut_decomposition(g.relabel(perm))
        assert result.braces == base.braces
        traces.add(tuple((s.shore_size, s.piece_sizes) for s in result.trace))
    assert len(traces) > 1


def _small_connected_bipartite():
    """Every connected bipartite graph on at most 4 labelled vertices."""
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = BipartiteGraph(n, tuple(p for i, p in enumerate(pairs) if bits >> i & 1))
            if g.colour is not None and is_connected(g):
                yield g


def test_brace_matches_edge_pair_definition(c6, cube, k33, heawood):
    # enumerate_perfect_matchings is a plain backtrack that shares no code
    # with _matching or _augment
    small = list(_small_connected_bipartite())
    assert {(g.n, g.edge_count) for g in small} >= {(2, 1), (4, 3), (4, 4)}
    graphs = small + [c6, k33, cube, heawood]
    rng = random.Random(6)
    while len(graphs) < len(small) + 80:
        half = rng.choice((3, 4, 5))
        g = _random_bipartite(rng, half, half, rng.choice((0.5, 0.7, 0.85)))
        if is_connected(g) and has_perfect_matching(g):
            graphs.append(g)
    verdicts = []
    for g in graphs:
        matchings = [pm.edge_ids for pm in enumerate_perfect_matchings(g)]
        extends = bool(matchings) and all(
            any(e in pm and f in pm for pm in matchings)
            for e, f in combinations(range(g.edge_count), 2)
            if not set(g.edges[e]) & set(g.edges[f])
        )
        # the path of length three meets the definition but is no brace
        p4 = g.n == 4 and g.edge_count == 3 and bool(matchings)
        assert is_brace(g) == (extends and not p4)
        verdicts.append(extends)
    assert 10 <= sum(verdicts) <= len(verdicts) - 10
    assert is_brace(BipartiteGraph(2, ((0, 1),)))


def test_digraph_test_matches_quartet_scan():
    # the scan removes two vertices of each class, which leaves nothing to
    # match in a graph with two per class: 2-extendability needs three
    rng = random.Random(14)
    randoms = []
    while len(randoms) < 200:
        half_a = rng.randint(2, 7)
        half_b = min(7, max(2, half_a + rng.choice((-1, 0, 0, 0, 1))))
        randoms.append(_random_bipartite(rng, half_a, half_b, rng.choice((0.3, 0.5, 0.7, 0.9))))
    assert sum(len(g.class_a()) != len(g.class_b()) for g in randoms) >= 20
    assert sum(not has_perfect_matching(g) for g in randoms) >= 40
    assert sum(not is_connected(g) for g in randoms) >= 10
    verdicts = []
    for g in randoms:
        ours = matching._digraph_failure(g) is None
        assert ours == (_reference_blocking_quartet(g) is None and len(g.class_a()) >= 3)
        verdicts.append(ours)
    assert 10 <= sum(verdicts) <= len(verdicts) - 10


def test_brace_test_matches_cut_labels_and_decomposition(asano):
    # a class member's family comes from cut labels, which share no code
    # with the alternating digraph
    for rec in generate(24):
        assert is_brace(rec.graph) == rec.is_brace
    graphs = [catalog(name).graph for name in catalog_names()]
    graphs = [g for g in graphs if is_matching_covered(g)]
    graphs += _decomposition_pieces(asano.graph)
    verdicts = {is_brace(g) for g in graphs}
    for g in graphs:
        assert is_brace(g) == (tight_cut_decomposition(g).trace == ())
    assert verdicts == {True, False}


def test_brace_test_takes_one_matching_and_no_scan(monkeypatch, asano):
    # the brace test and the cut route each search one digraph
    piece = next(
        h
        for h in _decomposition_pieces(asano.graph)
        if not h.is_regular(3) and not is_brace(h)
    )
    real = matching._matching
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(matching, "_matching", counting)
    assert is_brace(catalog("b_horton").graph)
    assert len(calls) == 1
    assert find_nontrivial_tight_cut(piece) is not None
    assert len(calls) == 2
