import random

import networkx as nx
import pytest

from barnette import generator
from barnette.bruteforce import _matrices_with_line_sums_three, _matrix_graph
from barnette.canon import canonical_form
from barnette.catalog import catalog, catalog_names
from barnette.expansion import c4_expand, cube_expand
from barnette.generator import generate
from barnette.graphs import BipartiteGraph, GraphError, is_connected, is_k_connected, with_colouring
from barnette.embedding import (
    RotationEmbedding,
    embed_planar,
    euler_check,
    face_vertices,
    faces,
    facial_c4_expansion_sites,
    next_dart,
    planar_code_and_automorphisms,
)
from barnette.io import adjacency_bits, graph6_from_bitstring
from conftest import nx_embed_planar, random_graph


def test_cube_rotation_is_planar(cube, cube_rotation):
    cube_rotation.validate(cube)
    assert euler_check(cube, cube_rotation)
    fs = faces(cube, cube_rotation)
    assert len(fs) == 6
    assert all(len(f) == 4 for f in fs)  # all faces quadrilateral
    # darts partition: every edge is traversed once in each direction
    assert sum(len(f) for f in fs) == 2 * cube.edge_count


def test_validate_rejects_foreign_rotation(cube, cube_rotation):
    bad = RotationEmbedding(((0, 1, 2),) * 8)
    with pytest.raises(GraphError):
        bad.validate(cube)
    with pytest.raises(GraphError, match="wrong number of vertices"):
        euler_check(cube, RotationEmbedding(cube_rotation.rotation[:-1]))


def test_next_dart_walks_a_face(cube, cube_rotation):
    start = (0, cube.incident[0][0])
    dart = start
    steps = 0
    while True:
        dart = next_dart(cube, cube_rotation, dart)
        steps += 1
        if dart == start:
            break
    assert steps == 4


def test_embed_planar_fixtures(cube, k33, heawood, c6):
    emb = embed_planar(cube)
    assert emb is not None
    assert euler_check(cube, emb)
    assert embed_planar(k33) is None
    assert embed_planar(heawood) is None  # girth-6 but non-planar
    assert euler_check(c6, embed_planar(c6))
    # an isolated vertex gets an empty rotation, as every vertex's is built
    with_isolated = BipartiteGraph(5, ((0, 1), (1, 2), (2, 3), (0, 3)))
    emb = embed_planar(with_isolated)
    emb.validate(with_isolated)
    assert [len(r) for r in emb.rotation] == [2, 2, 2, 2, 0]


def test_embed_planar_passes_the_euler_check_on_the_class():
    # embed_planar returns the faces its path addition built unchecked, so
    # check every record to n = 24 under a seeded relabelling
    rng = random.Random(33)
    records = list(generate(24))
    for rec in records:
        h = rec.graph.relabel(rng.sample(range(rec.n), rec.n))
        assert euler_check(h, embed_planar(h)), rec.canonical
    assert len(records) == 55


def _agreement_inputs():
    rng = random.Random(35)
    yield from (catalog(name).graph for name in catalog_names())
    for half in (4, 5, 6, 7, 8):
        for rows in _matrices_with_line_sums_three(half):
            g = _matrix_graph(rows)
            if is_connected(g):
                yield g
    for rec in generate(24):
        yield rec.graph.relabel(rng.sample(range(rec.n), rec.n))
    connected = 0
    while connected < 1500:
        g = random_graph(rng, rng.randint(1, 11))
        if is_connected(g):
            connected += 1
            yield g
    for n in range(1, 12):  # random trees, then forests with isolated vertices
        yield BipartiteGraph(n, tuple((rng.randrange(v), v) for v in range(1, n)))
        yield BipartiteGraph(n + 3, tuple((rng.randrange(v), v) for v in range(1, n)))
    for _ in range(300):  # disconnected: two random graphs side by side
        a, b = random_graph(rng, rng.randint(1, 7)), random_graph(rng, rng.randint(1, 7))
        yield BipartiteGraph(a.n + b.n, a.edges + tuple((u + a.n, v + a.n) for u, v in b.edges))


def test_embed_planar_agrees_with_networkx():
    verdicts = {True: 0, False: 0}
    for g in _agreement_inputs():
        emb = embed_planar(g)
        assert (emb is not None) == (nx_embed_planar(g) is not None), g.edges
        verdicts[emb is not None] += 1
        if emb is not None:
            emb.validate(g)
            if is_connected(g):
                assert euler_check(g, emb), g.edges
    assert min(verdicts.values()) > 500, verdicts


def test_euler_check_true_on_k1():
    # K1 is connected and has one face, though no dart traces it
    k1 = BipartiteGraph(1, ())
    assert euler_check(k1, embed_planar(k1))
    assert euler_check(k1, RotationEmbedding(((),)))


def test_deep_input_raises_no_recursion_error():
    # far past the default recursion limit: the block search keeps its own stack
    path = BipartiteGraph(5000, tuple((v, v + 1) for v in range(4999)))
    cycle = BipartiteGraph(3000, tuple((v, (v + 1) % 3000) for v in range(3000)))
    for g, two_connected in ((path, False), (cycle, True)):
        emb = embed_planar(g)
        emb.validate(g)
        assert euler_check(g, emb)
        assert is_k_connected(g, 2) == two_connected


def test_euler_check_false_on_disconnected():
    g = BipartiteGraph(4, ((0, 1), (2, 3)))
    emb = RotationEmbedding(((0,), (0,), (1,), (1,)))
    assert not euler_check(g, emb)


def test_expansion_sites_cube(cube, cube_rotation):
    sites = facial_c4_expansion_sites(cube, cube_rotation)
    assert len(sites) == 12  # two opposite-edge pairs per quadrilateral face
    for s in sites:
        assert cube.colour[s.u] == "A" and cube.colour[s.y] == "A"
        assert cube.colour[s.v] == "B" and cube.colour[s.x] == "B"
        assert set(cube.edges[s.eid_uv]) == {s.u, s.v}
        assert set(cube.edges[s.eid_xy]) == {s.x, s.y}
        assert s.eid_uv != s.eid_xy
        assert len({s.u, s.v, s.x, s.y}) == 4


def test_expansion_sites_hexagonal_faces(c6):
    emb = embed_planar(c6)
    sites = facial_c4_expansion_sites(c6, emb)
    # each hexagonal face contributes C(3,2) pairs per parity class, twice
    assert len(sites) == 12
    fv = face_vertices(faces(c6, emb)[0])
    assert sorted(fv) == [0, 1, 2, 3, 4, 5]


def test_expansion_sites_reject_non_simple_face():
    p3 = with_colouring(BipartiteGraph(3, ((0, 1), (1, 2))))
    emb = embed_planar(p3)
    with pytest.raises(GraphError):
        facial_c4_expansion_sites(p3, emb)


def _all_expansions(rec):
    g, emb = rec.graph, rec.embedding
    out = [cube_expand(g, emb, v)[:2] for v in range(g.n)]
    out += [c4_expand(g, emb, s) for s in facial_c4_expansion_sites(g, emb)]
    return out


def test_generator_skips_only_candidates_an_earlier_one_repeats(monkeypatch):
    # every skipped candidate of a parent with at most 20 vertices has the
    # planar code of a candidate the generator built earlier from that parent
    built = set()
    cube, c4 = generator.cube_expand, generator.c4_expand

    def cube_spy(g, emb, v):
        built.add((g.edges, v))
        return cube(g, emb, v)

    def c4_spy(g, emb, s):
        built.add((g.edges, s))
        return c4(g, emb, s)

    monkeypatch.setattr(generator, "cube_expand", cube_spy)
    monkeypatch.setattr(generator, "c4_expand", c4_spy)
    parents = [rec for rec in generate(26) if rec.n <= 20]
    assert len(parents) == 15
    skipped = 0
    for rec in parents:
        g, emb = rec.graph, rec.embedding
        keys = list(range(g.n)) + facial_c4_expansion_sites(g, emb)
        codes = [planar_code_and_automorphisms(*cand)[0] for cand in _all_expansions(rec)]
        kept = set()
        for key, code in zip(keys, codes):
            if (g.edges, key) in built:
                kept.add(code)
            else:
                assert code in kept, (rec.canonical, key)
                skipped += 1
    assert skipped > 0


def _graph_automorphism_count(g):
    G = nx.Graph(g.edges)
    return sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(G, G).isomorphisms_iter())


def test_planar_code_ties_give_the_automorphism_group(cube, cube_rotation):
    # VF2 counts the automorphisms of the abstract graph, independently of
    # any embedding; the ties must give exactly that many distinct maps
    assert len(planar_code_and_automorphisms(cube, cube_rotation)[2]) == 48
    for g, emb in [(cube, cube_rotation)] + [(r.graph, r.embedding) for r in generate(20)]:
        _, order, maps = planar_code_and_automorphisms(g, emb)
        assert sorted(order) == list(range(g.n))
        assert maps[0] == tuple(range(g.n))
        assert len(set(maps)) == len(maps) == _graph_automorphism_count(g)
        edges = set(g.edges)
        for gamma in maps:
            assert sorted(gamma) == list(range(g.n))
            for a, b in g.edges:
                assert (min(gamma[a], gamma[b]), max(gamma[a], gamma[b])) in edges


def _relabelled(g, emb, perm):
    """g with vertex v renamed perm[v]; the rotation follows the new edge ids."""
    h = g.relabel(perm)
    new_id = [h.edge_id(perm[u], perm[v]) for u, v in g.edges]
    rot = [()] * g.n
    for v in range(g.n):
        rot[perm[v]] = tuple(new_id[e] for e in emb.rotation[v])
    return h, RotationEmbedding(tuple(rot))


def test_planar_code_partitions_candidates_like_canonical_form():
    # every expansion of every record with at most 20 vertices: 898
    # candidates up to 26 vertices, all candidates of at most 24 among them
    cands = [c for rec in generate(20) for c in _all_expansions(rec)]
    assert len(cands) == 898
    codes = [planar_code_and_automorphisms(g, emb)[0] for g, emb in cands]
    forms = [canonical_form(g) for g, _emb in cands]
    pairs = set(zip(codes, forms))
    assert len(pairs) == len(set(codes)) == len(set(forms)) == 84


def test_planar_code_ignores_labels_and_mirroring():
    rng = random.Random(4)
    for rec in generate(20):
        g, emb = rec.graph, rec.embedding
        code = planar_code_and_automorphisms(g, emb)[0]
        assert len(code) == g.n + 2 * g.edge_count
        mirror = RotationEmbedding(tuple(r[::-1] for r in emb.rotation))
        assert planar_code_and_automorphisms(g, mirror)[0] == code
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert planar_code_and_automorphisms(*_relabelled(g, emb, perm))[0] == code


def test_first_tie_order_names_records_canonically():
    # relabelled and mirrored copies of a record get the record's own name
    rng = random.Random(5)
    for rec in generate(20):
        g, emb = rec.graph, rec.embedding
        copies = [(g, RotationEmbedding(tuple(r[::-1] for r in emb.rotation)))]
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            copies.append(_relabelled(g, emb, perm))
        for h, h_emb in copies:
            order = planar_code_and_automorphisms(h, h_emb)[1]
            assert graph6_from_bitstring(h.n, adjacency_bits(h, order)) == rec.canonical


def test_planar_code_separates_the_first_members():
    codes = {
        rec.n: planar_code_and_automorphisms(rec.graph, rec.embedding)[0] for rec in generate(14)
    }
    assert sorted(codes) == [8, 12, 14]
    assert len(set(codes.values())) == 3


def test_planar_code_needs_a_connected_graph():
    g = BipartiteGraph(4, ((0, 1), (2, 3)))
    emb = RotationEmbedding(((0,), (0,), (1,), (1,)))
    with pytest.raises(GraphError):
        planar_code_and_automorphisms(g, emb)
