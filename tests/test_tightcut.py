import importlib.util
import itertools
import json
import pathlib
import random
from collections import Counter

import pytest

from barnette import tightcut
from barnette.bruteforce import cubic_bipartite_classes, oracle_is_tight
from barnette.canon import canonical_form
from barnette.catalog import catalog
from barnette.generator import generate
from barnette.graphs import BipartiteGraph, Cut, GraphError, connected_components, with_colouring
from barnette.matching import has_perfect_matching, is_matching_covered
from barnette.tightcut import (
    contract,
    contract_family,
    cubic_three_connected,
    cut_labels,
    cut_from_edge_ids,
    family_is_laminar,
    find_nontrivial_tight_cut,
    find_tight_cuts_cubic,
    is_cyclically_4_connected,
    is_tight,
    tight_cut_decomposition,
)


def _all_nontrivial_cuts(g):
    full = g.full_mask
    for shore in range(1, full):
        if bin(shore).count("1") < 2 or bin(full & ~shore).count("1") < 2:
            continue
        if shore > (full & ~shore):  # one representative per complement pair
            continue
        yield Cut.from_shore(g, shore)


def test_c6_tightness_matches_oracle(c6):
    verdicts = {}
    for cut in _all_nontrivial_cuts(c6):
        verdicts[cut.shore] = is_tight(c6, cut)
        assert verdicts[cut.shore] == oracle_is_tight(c6, cut)
    # the three consecutive-vertex shores give tight cuts, nothing else does
    tight_shores = {s for s, v in verdicts.items() if v}
    consecutive = set()
    for i in range(6):
        m = (1 << i) | (1 << ((i + 1) % 6)) | (1 << ((i + 2) % 6))
        consecutive.add(min(m, c6.full_mask & ~m))
    assert tight_shores == consecutive


def test_tightness_matches_oracle_when_not_matching_covered():
    # with a perfect matching but some edge in none, a cut edge can be one
    # that no perfect matching uses; every shore of every graph is checked
    rng = random.Random(11)
    graphs = [with_colouring(BipartiteGraph(6, tuple((i, i + 1) for i in range(5))))]
    while len(graphs) < 10:
        half = rng.choice((3, 4))
        edges = tuple(
            (a, b) for a in range(half) for b in range(half, 2 * half) if rng.random() < 0.45
        )
        g = BipartiteGraph(2 * half, edges, ("A",) * half + ("B",) * half)
        if has_perfect_matching(g) and not is_matching_covered(g):
            graphs.append(g)
    verdicts = Counter()
    for g in graphs:
        for shore in range(1, g.full_mask):
            cut = Cut.from_shore(g, shore)
            verdict = is_tight(g, cut)
            assert verdict == oracle_is_tight(g, cut), (g.edges, shore)
            verdicts[verdict] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_is_tight_requires_colour_and_matching():
    triangle = BipartiteGraph(3, ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(GraphError):
        is_tight(triangle, Cut.from_shore(triangle, 0b001))
    star = BipartiteGraph(4, ((0, 1), (0, 2), (0, 3)), ("A", "B", "B", "B"))
    with pytest.raises(GraphError):
        is_tight(star, Cut.from_shore(star, 0b0011))
    star = with_colouring(BipartiteGraph(6, tuple((0, v) for v in range(1, 6))))
    with pytest.raises(GraphError):
        find_nontrivial_tight_cut(star)


def test_cube_is_a_brace_with_no_cuts(cube):
    assert find_tight_cuts_cubic(cube) == []
    assert find_nontrivial_tight_cut(cube) is None
    assert is_cyclically_4_connected(cube)


def test_cubic_three_connected(cube, c6):
    assert cubic_three_connected(cube)
    assert not cubic_three_connected(_two_cubes_bridged())
    with pytest.raises(GraphError):
        cubic_three_connected(c6)  # not cubic


def _two_cubes_bridged():
    # cubic but only 2-edge-connected: two blocks joined by a 2-edge cut
    edges = [
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
        (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
        (0, 4), (3, 7),
    ]
    return BipartiteGraph(8, tuple(edges))


def test_general_route_on_asano(asano):
    g = asano.graph
    cut = find_nontrivial_tight_cut(g)
    assert cut is not None
    assert not cut.is_trivial
    assert is_tight(g, cut)
    assert oracle_is_tight(g, cut)


def test_asano_decomposition(asano):
    g = asano.graph
    res = tight_cut_decomposition(g)
    c4 = canonical_form(BipartiteGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3))))
    cube = canonical_form(_catalog_cube())
    assert res.braces == Counter({c4: 3, cube: 3})
    assert len(res.trace) == 5  # 5 contractions yield 6 leaves
    for step in res.trace:
        assert len(step.cut_edge_ids) >= 3
        assert sum(step.piece_sizes) == step.n + 2  # each shore collapses to one vertex


def _catalog_cube():
    from barnette.catalog import catalog

    return catalog("cube").graph


def test_decomposition_order_invariance(asano):
    g = asano.graph
    base = tight_cut_decomposition(g).braces
    rng = random.Random(4)
    for _ in range(4):
        assert tight_cut_decomposition(g.relabel(rng.sample(range(g.n), g.n))).braces == base


def test_brace_decomposes_to_itself(heawood):
    res = tight_cut_decomposition(heawood)
    assert res.braces == Counter({canonical_form(heawood): 1})
    assert res.trace == ()


def test_contract_pieces_on_asano(asano):
    g = asano.graph
    cut = find_nontrivial_tight_cut(g)
    inner, outer = contract(g, cut)
    # each keeps one side and collapses the other to its last vertex
    assert inner.n == cut.shore.bit_count() + 1
    assert inner.n + outer.n == g.n + 2
    # the cut edges survive in both pieces, joining the collapsed vertex to
    # the kept ends (kept vertices keep their order)
    for q, kept in ((inner, cut.shore), (outer, cut.complement_mask())):
        index = {v: i for i, v in enumerate(v for v in range(g.n) if kept >> v & 1)}
        ends = set()
        for eid in cut.edge_ids:
            u, v = g.edges[eid]
            ends.add(index[u if kept >> u & 1 else v])
        assert set(q.neighbours[q.n - 1]) == ends


def test_contract_family_of_one_cut_is_contract_on_each_side():
    cases = 0
    for rec in generate(24):
        g = rec.graph
        for cut in rec.family:
            # the first region is the side away from vertex 0, the other collapsed
            inner, outer = contract(g, cut)
            quotients = [(outer, cut.shore), (inner, cut.complement_mask())]
            if not cut.shore & 1:
                quotients.reverse()
            leaf, root = contract_family(g, [cut])
            assert (leaf.parent, leaf.kids, root.parent, root.up) == (1, (), -1, ())
            assert [kid for kid, _slot in root.kids] == [0]
            for piece, (quotient, collapsed) in zip((leaf, root), quotients):
                assert piece.graph == quotient
                # _quotient keeps the kept vertices in order, the collapsed one last
                kept = [v for v in range(g.n) if not collapsed >> v & 1]
                vertex = {v: i for i, v in enumerate(kept)}
                for e, eid in enumerate(piece.edge_of):
                    u, v = g.edges[eid]
                    ends = {vertex.get(u, len(kept)), vertex.get(v, len(kept))}
                    assert ends == set(piece.graph.edges[e])
                assert len(piece.edge_of) == piece.graph.edge_count
                # the cut's slot lists its edges in sorted g-edge order
                slot = piece.up or root.kids[0][1]
                assert [piece.edge_of[e] for e in slot] == sorted(cut.edge_ids)
            cases += 1
    assert cases == 39


def test_contract_rejects_loose_cut(cube):
    cut = Cut.from_shore(cube, 0b0011)  # 4-edge cut, not tight
    with pytest.raises(GraphError):
        contract(cube, cut)


def test_contract_colour_count_agrees_with_is_tight(cube, k33, c6):
    # on matching covered input the colour count is is_tight's own test
    twelve = next(rec.graph for rec in generate(12) if rec.n == 12)
    tight = []
    for g in (cube, k33, c6, twelve):
        tight.append(0)
        for shore in range(1, g.full_mask):
            cut = Cut.from_shore(g, shore)
            expected = is_tight(g, cut)
            try:
                contract(g, cut)
            except GraphError:
                assert not expected
            else:
                assert expected
            tight[-1] += expected
    # the braces have only their 2n trivial shores; C6 adds its six 3-paths
    assert tight == [16, 12, 18, 24]


def test_cut_from_edge_ids_round_trip(asano):
    g = asano.graph
    cut = find_nontrivial_tight_cut(g)
    again = cut_from_edge_ids(g, sorted(cut.edge_ids))
    assert again.edge_ids == cut.edge_ids
    assert again.shore in (cut.shore, cut.complement_mask())


def test_cyclic_connectivity_fixtures(cube, heawood, asano):
    assert is_cyclically_4_connected(cube)
    assert is_cyclically_4_connected(heawood)
    assert not is_cyclically_4_connected(asano.graph)
    assert not is_cyclically_4_connected(_two_cubes_bridged())


def _small_edge_cuts(g):
    """Edge sets of size 1..3 whose removal disconnects g, with their components."""
    for size in (1, 2, 3):
        for combo in itertools.combinations(range(g.edge_count), size):
            comps = connected_components(g, edge_skip=frozenset(combo))
            if len(comps) > 1:
                yield frozenset(combo), comps


def _has_cycle(g, comp, removed):
    internal = sum(
        1
        for eid, (u, v) in enumerate(g.edges)
        if eid not in removed and comp >> u & 1 and comp >> v & 1
    )
    return internal >= bin(comp).count("1")


def test_small_cuts_match_edge_subset_enumeration():
    rng = random.Random(3)
    graphs = [g for n in (8, 10, 12) for g in cubic_bipartite_classes(n)]
    assert len(graphs) == 8
    verdicts = Counter()
    for base in graphs:
        for _ in range(3):
            perm = list(range(base.n))
            rng.shuffle(perm)
            g = with_colouring(base.relabel(perm))
            cuts = list(_small_edge_cuts(g))
            three_connected = all(len(edges) == 3 for edges, _ in cuts)
            cyclic4 = not any(
                sum(_has_cycle(g, comp, edges) for comp in comps) >= 2 for edges, comps in cuts
            )
            assert cubic_three_connected(g) == three_connected
            assert is_cyclically_4_connected(g) == cyclic4
            verdicts[three_connected, cyclic4] += 1
            if not three_connected:
                with pytest.raises(GraphError):
                    find_tight_cuts_cubic(g)
                continue
            nontrivial = {
                edges for edges, comps in cuts if all(bin(c).count("1") > 1 for c in comps)
            }
            assert {c.edge_ids for c in find_tight_cuts_cubic(g)} == nontrivial
    assert verdicts == {(True, True): 15, (True, False): 6, (False, False): 3}


def test_unseeded_triples_come_in_the_order_of_their_first_pair():
    graphs = [rec.graph for rec in generate(24)] + [catalog("horton").graph]
    for g in graphs:
        labels = tightcut._three_connected_labels(g)
        edge_of = {label: eid for eid, label in enumerate(labels)}
        want = []
        for e, f in itertools.combinations(range(g.edge_count), 2):
            b = edge_of.get(labels[e] ^ labels[f])
            if b is not None and not set(g.edges[e]) & set(g.edges[f]):
                if frozenset((e, f, b)) not in want:
                    want.append(frozenset((e, f, b)))
        assert list(tightcut._disconnecting_triples(g, labels)) == want


def test_cut_labels_disconnected(cube):
    two_cubes = BipartiteGraph(16, cube.edges + tuple((u + 8, v + 8) for u, v in cube.edges))
    assert cut_labels(two_cubes) is None
    assert not cubic_three_connected(two_cubes)


def test_cut_labels_are_computed_once_per_graph(monkeypatch):
    calls = []
    monkeypatch.setattr(tightcut, "cut_labels", lambda g: calls.append(g) or cut_labels(g))
    covered = []
    real_covered = tightcut.is_matching_covered
    monkeypatch.setattr(
        tightcut, "is_matching_covered", lambda g: covered.append(g) or real_covered(g)
    )
    # fresh copies: labels are cached on the graph, and catalog graphs are shared
    horton = catalog("horton").graph
    result = tight_cut_decomposition(BipartiteGraph(horton.n, horton.edges, horton.colour))
    assert (len(result.trace), sum(result.braces.values())) == (3, 4)
    # the decomposition reads its cuts off the brace test, not off labels,
    # and its entry check is the only matching coveredness test
    assert calls == [] and len(covered) == 1
    tight_cut_decomposition(catalog("asano").graph)
    assert calls == [] and len(covered) == 2
    # the check and the scan share one labelling
    fresh = BipartiteGraph(horton.n, horton.edges, horton.colour)
    assert cubic_three_connected(fresh) and len(find_tight_cuts_cubic(fresh)) == 3
    assert calls == [fresh]


def test_laminar_utilities(c6):
    a = Cut.from_shore(c6, 0b000111)
    b = Cut.from_shore(c6, 0b000011)
    c = Cut.from_shore(c6, 0b001110)
    assert family_is_laminar([a, b])  # nested
    assert not family_is_laminar([a, c])  # crossing
    assert not family_is_laminar([a, b, c])
    # a shore and its complement name one cut
    assert family_is_laminar([a, Cut.from_shore(c6, a.complement_mask()), b])


def test_heawood_has_no_tight_cuts(heawood):
    assert find_tight_cuts_cubic(heawood) == []


def test_brace_test_cut_is_one_of_the_scan_cuts():
    # the digraph search and the cut labels share no code
    graphs = [rec.graph for rec in generate(24)]
    graphs += [catalog(name).graph for name in ("horton", "p5_example", "b_horton", "heawood")]
    cuts = 0
    for g in graphs:
        cut = find_nontrivial_tight_cut(g)
        triples = [sorted(c.edge_ids) for c in find_tight_cuts_cubic(g)]
        # the scan's own order, which its docstring promises, each triple once
        assert all(a < b for a, b in zip(triples, triples[1:]))
        scan = {frozenset(t) for t in triples}
        assert (cut is None) == (not scan)
        if cut is not None:
            assert cut.edge_ids in scan
            cuts += 1
    assert (len(graphs), cuts) == (59, 26)


GOLDEN_TRACES = pathlib.Path(__file__).parent / "golden" / "decomposition_traces.json"
DERIVE_TRACES = pathlib.Path(__file__).parents[1] / "scripts" / "derive_golden_traces.py"


def _trace_script():
    spec = importlib.util.spec_from_file_location("derive_golden_traces", DERIVE_TRACES)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_decomposition_traces_match_golden():
    """The cut the decomposition picks, frozen by scripts/derive_golden_traces.py."""
    script = _trace_script()
    for case in json.loads(GOLDEN_TRACES.read_text())["cases"]:
        assert script.run_case(case["graph"], case["relabel_seed"]) == case, case


def test_golden_trace_script_covers_the_golden_cases():
    script = _trace_script()
    golden = json.loads(GOLDEN_TRACES.read_text())["cases"]
    assert list(script.cases()) == [(case["graph"], case["relabel_seed"]) for case in golden]
