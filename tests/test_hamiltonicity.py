import inspect
import random
import sys
from collections import Counter
from typing import Iterable, Optional

import pytest

from barnette import hamiltonicity
from barnette.canon import canonical_form
from barnette.catalog import catalog
from barnette.constructions import splice
from barnette.embedding import faces
from barnette.generator import generate
from barnette.graphs import BipartiteGraph, GraphError, with_colouring
from barnette.hamiltonicity import (
    _IN,
    _UNDECIDED,
    HamiltonianCycle,
    HamiltonicityEngine,
    PropertyResult,
    _State,
    find_hamiltonian_cycle,
    has_h_minus,
    has_h_plus_minus,
    is_hamiltonian,
    is_pk_hamiltonian,
    property_profile,
)
from barnette.tightcut import (
    cubic_three_connected,
    family_is_laminar,
    find_tight_cuts_cubic,
    tight_cut_decomposition,
)


def test_cube_profile(cube):
    profile = property_profile(cube)
    assert profile == {
        "hamiltonian": True,
        "p2": True,
        "p3": True,
        "p4": True,
        "p5": False,
        "h_minus": True,
        "h_plus_minus": True,
    }


def test_cube_p5_counterexample_is_a_path(cube):
    res = is_pk_hamiltonian(cube, 5)
    assert not res
    path = res.counterexample
    assert len(path) == 5 and len(set(path)) == 5
    for a, b in zip(path, path[1:]):
        assert cube.has_edge(a, b)
    # and indeed no Hamiltonian cycle uses all four of its edges
    eids = [cube.edge_id(a, b) for a, b in zip(path, path[1:])]
    assert find_hamiltonian_cycle(cube, forced=eids) is None


def test_k33_everything_holds(k33):
    profile = property_profile(k33)
    assert all(profile.values())


def test_heawood_strong_properties(heawood):
    profile = property_profile(heawood)
    assert profile["hamiltonian"] and profile["p4"] and profile["h_plus_minus"]


def test_non_hamiltonian_detected(asano):
    assert not is_hamiltonian(asano.graph)
    profile = property_profile(asano.graph)
    assert not any(profile.values())


def test_forced_and_forbidden_semantics(c6):
    # C6 has exactly one Hamiltonian cycle: forbidding any edge kills it
    cyc = find_hamiltonian_cycle(c6)
    assert cyc is not None
    cyc.validate(c6)
    assert find_hamiltonian_cycle(c6, forbidden=(0,)) is None
    full = find_hamiltonian_cycle(c6, forced=range(6))
    assert full is not None and full.edge_ids == frozenset(range(6))


def test_forced_input_validation(cube):
    with pytest.raises(GraphError):
        find_hamiltonian_cycle(cube, forced=(0,), forbidden=(0,))
    with pytest.raises(GraphError):
        find_hamiltonian_cycle(cube, forced=(99,))
    star_edges = tuple(cube.incident[0])  # three edges at one vertex
    with pytest.raises(GraphError):
        find_hamiltonian_cycle(cube, forced=star_edges)


def test_unsatisfiable_but_wellformed_returns_none(cube):
    # forbid all three edges at a vertex: no cycle can pass through it
    assert find_hamiltonian_cycle(cube, forbidden=cube.incident[0]) is None


def test_graphs_with_no_hamiltonian_cycle_return_none():
    k2 = BipartiteGraph(2, ((0, 1),))  # fewer than three vertices
    p4 = BipartiteGraph(4, ((0, 1), (1, 2), (2, 3)))
    c4_pendant = BipartiteGraph(5, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4)))
    # the degree-1 vertices fail the root propagation's avail < 2 rule
    for g in (k2, p4, c4_pendant):
        assert find_hamiltonian_cycle(g) is None


def test_engine_caches_positive_and_negative(cube):
    engine = HamiltonicityEngine(cube)
    first = engine.cycle_with()
    assert first is not None
    assert engine.cycle_with() is first  # served from the cycle cache
    assert engine.cycle_with(avoids=(0,)) is not None
    eids = tuple(cube.incident[0])
    assert engine.cycle_with(avoids=eids) is None


def test_engine_rejects_bad_ids_on_a_fresh_and_a_warm_engine(cube):
    # a brace, searched whole, and a non-brace, folded over its two pieces
    for g in (cube, splice(cube, 0, cube, 0).graph):
        for warm in (False, True):
            engine = HamiltonicityEngine(g)
            if warm:
                assert engine.cycle_with() is not None
            for bad in (g.edge_count, 999, -1):
                with pytest.raises(GraphError):
                    engine.cycle_with(avoids=(bad,))
                with pytest.raises(GraphError):
                    engine.cycle_with(contains=(bad,))
            assert len(engine.cycles) == warm


def test_pk_walk_is_not_bounded_by_the_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        k = sys.getrecursionlimit() + 10
        n = k + k % 2 + 50
        g = BipartiteGraph(n, tuple((i, (i + 1) % n) for i in range(n)))
        res = is_pk_hamiltonian(g, k)
    finally:
        sys.setrecursionlimit(limit)
    assert res


def test_pk_range_validation(cube):
    with pytest.raises(GraphError):
        is_pk_hamiltonian(cube, 1)
    with pytest.raises(GraphError):
        is_pk_hamiltonian(cube, 9)


def test_h_minus_counterexample_shape(c6):
    # C6 is Hamiltonian but its single cycle uses every edge
    res = has_h_minus(c6)
    assert not res and res.counterexample == (0,)
    res2 = has_h_plus_minus(c6)
    assert not res2 and len(res2.counterexample) == 2


def test_shared_engine_consistency(heawood):
    engine = HamiltonicityEngine(heawood)
    a = is_pk_hamiltonian(heawood, 2, engine)
    b = has_h_minus(heawood, engine)
    assert a and b
    # the shared cache should have accumulated genuinely distinct cycles
    assert len({c.edge_ids for c in engine.cycles}) == len(engine.cycles)


def test_forced_cycle_that_closes_early_is_rejected(cube, cube_rotation):
    face = faces(cube, cube_rotation)[0]
    assert len(face) == 4
    with pytest.raises(GraphError):
        find_hamiltonian_cycle(cube, forced=[eid for _v, eid in face])


def test_validate_rejects_edge_sets_that_are_not_one_spanning_cycle(cube, cube_rotation):
    last = cube.edge_count - 1
    cycle = find_hamiltonian_cycle(cube, forced=[last]).edge_ids
    HamiltonianCycle(cycle).validate(cube)
    # two opposite 4-faces: 8 edges and degree 2 everywhere, but two components
    face_ids = [frozenset(eid for _v, eid in face) for face in faces(cube, cube_rotation)]
    ends = [{v for eid in ids for v in cube.edges[eid]} for ids in face_ids]
    opposite = next(i for i in range(len(ends)) if not ends[i] & ends[0])
    chord = min(set(range(cube.edge_count)) - cycle)
    bad = [
        face_ids[0] | face_ids[opposite],
        cycle | {chord},
        cycle - {min(cycle)},
        cycle - {last} | {-1},  # -1 would index the last edge
        cycle | {cube.edge_count},
    ]
    for edge_ids in bad:
        with pytest.raises(GraphError):
            HamiltonianCycle(frozenset(edge_ids)).validate(cube)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # the circular ladder C1200 x K2: 2,400 vertices, one branch level per rung
    k = 1200
    rims = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    g = with_colouring(BipartiteGraph(2 * k, tuple(rims + [(i, k + i) for i in range(k)])))
    cycle = find_hamiltonian_cycle(g)
    assert cycle is not None
    cycle.validate(g)


# The search as it was before the forced edges were checked by _State.set_in:
# a union-find on the forced edges, forbidden edges applied first, a
# recursive _solve, and a propagator that sweeps every vertex until a sweep
# changes nothing.  Kept verbatim as the reference for the current route,
# which propagates from a queue of changed vertices.


def _reference_propagate(self) -> bool:
    """Apply the two degree rules until nothing changes."""
    g = self.g
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if self.deg_in[v] == 2:
                for eid in g.incident[v]:
                    if self.status[eid] == _UNDECIDED:
                        if not self.set_out(eid):
                            return False
                        changed = True
            elif self.avail[v] < 2:
                return False
            elif self.avail[v] == 2:
                for eid in g.incident[v]:
                    if self.status[eid] == _UNDECIDED:
                        if not self.set_in(eid):
                            return False
                        changed = True
    return True


class _ReferenceState(_State):
    """The live state with the rescanning propagator; its queue is never read."""

    __slots__ = ()
    propagate = _reference_propagate


def _forced_edges_are_paths(g: BipartiteGraph, forced: Iterable[int]) -> bool:
    """Disjoint union of paths; a single spanning cycle is also accepted."""
    forced = set(forced)
    deg = [0] * g.n
    for eid in forced:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
        if deg[u] > 2 or deg[v] > 2:
            return False
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    closures = 0
    for eid in forced:
        u, v = g.edges[eid]
        ru, rv = find(u), find(v)
        if ru == rv:
            closures += 1
        else:
            parent[ru] = rv
    if closures == 0:
        return True
    return closures == 1 and len(forced) == g.n


def _reference_find_hamiltonian_cycle(
    g: BipartiteGraph,
    forced: Iterable[int] = (),
    forbidden: Iterable[int] = (),
) -> Optional[HamiltonianCycle]:
    forced = frozenset(forced)
    forbidden = frozenset(forbidden)
    if forced & forbidden:
        raise GraphError("an edge is both forced and forbidden")
    for eid in forced | forbidden:
        if not 0 <= eid < g.edge_count:
            raise GraphError(f"edge id {eid} out of range")
    if g.n < 3:
        return None
    if not _forced_edges_are_paths(g, forced):
        raise GraphError("forced edges must form a disjoint union of paths")

    st = _ReferenceState(g)
    for eid in forbidden:
        if not st.set_out(eid):
            return None
    for eid in sorted(forced):
        if not st.set_in(eid):
            return None
    if not st.propagate():
        return None
    if _reference_solve(st):
        return HamiltonianCycle(frozenset(e for e, s in enumerate(st.status) if s == _IN))
    return None


def _reference_branch_edge(st: _State) -> int:
    g = st.g
    best_v = -1
    best_avail = 10 ** 9
    for v in range(g.n):
        if st.deg_in[v] < 2 and st.avail[v] < best_avail:
            for eid in g.incident[v]:
                if st.status[eid] == _UNDECIDED:
                    best_v = v
                    best_avail = st.avail[v]
                    break
    if best_v < 0:
        return -1
    for eid in g.incident[best_v]:
        if st.status[eid] == _UNDECIDED:
            return eid
    raise AssertionError("unreachable")


def _reference_solve(st: _State) -> bool:
    if st.in_count == st.g.n:
        return True
    eid = _reference_branch_edge(st)
    if eid < 0:
        return False
    mark = st.mark()
    if st.set_in(eid) and st.propagate() and _reference_solve(st):
        return True
    st.undo(mark)
    if st.set_out(eid) and st.propagate() and _reference_solve(st):
        return True
    st.undo(mark)
    return False


def _outcome(search, g, forced, forbidden):
    try:
        cycle = search(g, forced, forbidden)
    except GraphError:
        return "raise"
    return None if cycle is None else cycle.edge_ids


_CATALOG_NAMES = ("c4", "cube", "k33", "heawood", "p5_example", "asano", "b_horton")


def _random_query(rng: random.Random, graphs: list[BipartiteGraph]):
    g = rng.choice(graphs)
    edges = list(range(g.edge_count))
    rng.shuffle(edges)
    n_forced = rng.randrange(min(g.n, 9) + 1)
    return g, edges[:n_forced], edges[n_forced:n_forced + rng.randrange(5)]


def test_matches_reference_on_random_queries(generated_16):
    graphs = [catalog(name).graph for name in _CATALOG_NAMES]
    graphs += [rec.graph for rec in generated_16]
    rng = random.Random(20221)
    kinds = {"raise": 0, "none": 0, "cycle": 0}
    for _ in range(2400):
        g, forced, forbidden = _random_query(rng, graphs)
        got = _outcome(find_hamiltonian_cycle, g, forced, forbidden)
        assert got == _outcome(_reference_find_hamiltonian_cycle, g, forced, forbidden)
        kinds["raise" if got == "raise" else "none" if got is None else "cycle"] += 1
    assert min(kinds.values()) >= 300, kinds


def test_same_search_tree_as_reference(monkeypatch):
    # one branch-edge call per search node on both routes
    calls = {"live": 0, "reference": 0}

    def counted(key, branch):
        def wrapper(st):
            calls[key] += 1
            return branch(st)

        return wrapper

    monkeypatch.setattr(
        hamiltonicity, "_branch_edge", counted("live", hamiltonicity._branch_edge)
    )
    monkeypatch.setitem(
        globals(), "_reference_branch_edge", counted("reference", _reference_branch_edge)
    )
    graphs = [catalog(name).graph for name in _CATALOG_NAMES]
    rng = random.Random(1500)
    searched = 0
    for _ in range(1500):
        g, forced, forbidden = _random_query(rng, graphs)
        calls.update(live=0, reference=0)
        got = _outcome(find_hamiltonian_cycle, g, forced, forbidden)
        assert got == _outcome(_reference_find_hamiltonian_cycle, g, forced, forbidden)
        assert calls["live"] == calls["reference"], (g.n, forced, forbidden)
        searched += calls["live"] > 0
    assert searched >= 300


def _relabelled(g: BipartiteGraph, rng: random.Random) -> BipartiteGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


# The cycle cache and the three predicates as they were before the per-edge
# cycle index: one engine query per path, edge or ordered edge pair, each
# scanning every kept cycle.  Kept verbatim as the reference for the current
# predicates, which read the index and query the engine only on a miss.


class _ReferenceEngine:
    """Cycle-query engine over one graph with a cache of found cycles.

    Every found cycle is kept; a query first scans the cache for a cycle
    containing all required edges and avoiding all excluded ones, and only
    then calls the solver.  Failed queries are not kept: each predicate
    stops at its first failure, and no two predicates ask the same query.
    """

    def __init__(self, g: BipartiteGraph):
        self.g = g
        self.cycles: list[HamiltonianCycle] = []

    def cycle_with(
        self,
        contains: Iterable[int] = (),
        avoids: Iterable[int] = (),
    ) -> Optional[HamiltonianCycle]:
        contains = frozenset(contains)
        avoids = frozenset(avoids)
        for c in self.cycles:
            if contains <= c.edge_ids and not (avoids & c.edge_ids):
                return c
        cycle = find_hamiltonian_cycle(self.g, contains, avoids)
        if cycle is not None:
            self.cycles.append(cycle)
        return cycle


def _reference_paths_on_k_vertices(g: BipartiteGraph, k: int) -> Iterable[tuple[int, ...]]:
    """All simple paths with k vertices, one orientation per path."""
    if k == 1:
        yield from ((v,) for v in range(g.n))
        return

    path = [0] * k

    def extend(depth: int, used: int):
        if depth == k:
            if path[0] < path[-1]:
                yield tuple(path)
            return
        for w in g.neighbours[path[depth - 1]]:
            if not used >> w & 1:
                path[depth] = w
                yield from extend(depth + 1, used | 1 << w)

    for v in range(g.n):
        path[0] = v
        yield from extend(1, 1 << v)


def _reference_path_edge_ids(g: BipartiteGraph, path: tuple[int, ...]) -> list[int]:
    return [g.edge_id(a, b) for a, b in zip(path, path[1:])]


def _reference_is_pk_hamiltonian(
    g: BipartiteGraph, k: int, engine: Optional[_ReferenceEngine] = None
) -> PropertyResult:
    """Does every path on k vertices extend to a Hamiltonian cycle?

    Vacuously false on a non-Hamiltonian graph only if a path exists at all;
    by convention the empty-path edge case requires k >= 2.
    """
    if not 2 <= k <= g.n:
        raise GraphError(f"k={k} out of range for n={g.n}")
    engine = engine or _ReferenceEngine(g)
    for path in _reference_paths_on_k_vertices(g, k):
        if engine.cycle_with(contains=_reference_path_edge_ids(g, path)) is None:
            return PropertyResult(False, path)
    return PropertyResult(True)


def _reference_has_h_minus(
    g: BipartiteGraph, engine: Optional[_ReferenceEngine] = None
) -> PropertyResult:
    """Does every edge have a Hamiltonian cycle avoiding it?"""
    engine = engine or _ReferenceEngine(g)
    for eid in range(g.edge_count):
        if engine.cycle_with(avoids=(eid,)) is None:
            return PropertyResult(False, (eid,))
    return PropertyResult(True)


def _reference_has_h_plus_minus(
    g: BipartiteGraph, engine: Optional[_ReferenceEngine] = None
) -> PropertyResult:
    """For every ordered pair (e, f) of distinct edges, is there a
    Hamiltonian cycle through e avoiding f?"""
    engine = engine or _ReferenceEngine(g)
    for e in range(g.edge_count):
        for f in range(g.edge_count):
            if e == f:
                continue
            if engine.cycle_with(contains=(e,), avoids=(f,)) is None:
                return PropertyResult(False, (e, f))
    return PropertyResult(True)


def _profile_results(g, engine, pk, h_minus, h_plus_minus) -> dict:
    """`property_profile`'s sequence of predicates, keeping each PropertyResult."""
    results = {"hamiltonian": engine.cycle_with() is not None}
    for k in (2, 3, 4, 5):
        if g.n >= k:
            results[f"p{k}"] = pk(g, k, engine)
    results["h_minus"] = h_minus(g, engine)
    results["h_plus_minus"] = h_plus_minus(g, engine)
    return results


def _reference_property_profile(g: BipartiteGraph) -> tuple[dict, _ReferenceEngine]:
    engine = _ReferenceEngine(g)
    predicates = (
        _reference_is_pk_hamiltonian,
        _reference_has_h_minus,
        _reference_has_h_plus_minus,
    )
    return _profile_results(g, engine, *predicates), engine


def _ladder_splices() -> list[BipartiteGraph]:
    """The four spliced graphs of the benchmark's ``ladder`` workload."""
    cube, k33, heawood, bh = (
        catalog(name).graph for name in ("cube", "k33", "heawood", "b_horton")
    )
    once = splice(k33, 3, bh, 0)  # vertices 3 and 4 share a colour class
    return [
        splice(cube, 0, cube, 0).graph,
        splice(heawood, 0, cube, 0).graph,
        once.graph,
        splice(once.graph, once.map1[4], bh, 0).graph,
    ]


def test_matches_reference_on_property_profile_queries_of_splices(monkeypatch):
    # every query of the reference engine, including those its cache serves
    rng = random.Random(12)
    cycle_with = _ReferenceEngine.cycle_with
    queries = []

    def recorded(engine, contains=(), avoids=()):
        queries.append((contains, avoids))
        return cycle_with(engine, contains, avoids)

    monkeypatch.setattr(_ReferenceEngine, "cycle_with", recorded)
    for g in _ladder_splices()[:3]:
        for h in (g, _relabelled(g, rng), _relabelled(g, rng)):
            queries.clear()
            _reference_property_profile(h)
            assert len(queries) >= 50
            for forced, forbidden in queries:
                assert _outcome(find_hamiltonian_cycle, h, forced, forbidden) == _outcome(
                    _reference_find_hamiltonian_cycle, h, forced, forbidden
                )


def test_indexed_predicates_ask_the_solver_what_the_cache_scan_asked(monkeypatch):
    # Braces, searched whole: same verdicts, counterexamples, kept cycles and
    # ordered solver calls as the cache scan, and the same answers to random
    # queries.  Non-braces, whose misses are folded over their pieces and so
    # keep other cycles: same verdicts and counterexamples, and a random miss
    # has the reference's verdict and a cycle that validates and serves it.
    # Either way the predicates query the engine only on a miss, and a hit
    # returns the first kept cycle that serves.
    log = []
    search = hamiltonicity.find_hamiltonian_cycle

    def logged(g, forced=(), forbidden=()):
        cycle = search(g, forced, forbidden)
        log.append((frozenset(forced), frozenset(forbidden), cycle))
        return cycle

    monkeypatch.setattr(hamiltonicity, "find_hamiltonian_cycle", logged)
    monkeypatch.setitem(globals(), "find_hamiltonian_cycle", logged)
    queries = []
    cycle_with = HamiltonicityEngine.cycle_with

    def counted(engine, contains=(), avoids=()):
        queries.append(contains)
        return cycle_with(engine, contains, avoids)

    monkeypatch.setattr(HamiltonicityEngine, "cycle_with", counted)
    graphs = [rec.graph for rec in generate(20)]
    graphs += [catalog(name).graph for name in ("cube", "c4", "k33", "heawood", "b_horton")]
    graphs += _ladder_splices()
    rng = random.Random(15)
    cases = graphs + [_relabelled(g, rng) for g in graphs[:-1] for _ in range(2)]
    failures = solver_calls = folded = 0
    for h in cases:
        log.clear()
        expected, ref_engine = _reference_property_profile(h)
        ref_log = log[:]
        log.clear()
        queries.clear()
        engine = HamiltonicityEngine(h)
        got = _profile_results(h, engine, is_pk_hamiltonian, has_h_minus, has_h_plus_minus)
        assert got == expected
        failed = sum(not value for value in got.values())
        assert len(queries) == len(engine.cycles) + failed
        if engine.tree is None:
            assert engine.cycles == ref_engine.cycles
            assert log == ref_log
        folded += engine.tree is not None
        for _ in range(4):
            e, f = rng.sample(range(h.edge_count), 2)
            serving = [c for c in engine.cycles if e in c.edge_ids and f not in c.edge_ids]
            cycle = engine.cycle_with((e,), (f,))
            expected_cycle = ref_engine.cycle_with((e,), (f,))
            if serving:
                assert cycle is serving[0]
            if engine.tree is None:
                assert cycle == expected_cycle
            elif not serving:
                assert (cycle is None) == (expected_cycle is None)
                if cycle is not None:
                    cycle.validate(h)
                    assert e in cycle.edge_ids and f not in cycle.edge_ids
        if engine.tree is None:
            assert engine.cycles == ref_engine.cycles
        assert property_profile(h) == {key: bool(value) for key, value in got.items()}
        failures += failed
        solver_calls += len(log)
    assert len(cases) == 70 and folded >= 20
    assert failures >= 50 and solver_calls >= 1000, (failures, solver_calls)


def _random_degree_two_three_graph(rng: random.Random, k: int) -> BipartiteGraph:
    """An alternating Hamiltonian cycle on k A- and k B-vertices plus random
    A-B chords, at most one per vertex: every degree is 2 or 3."""
    a, b = list(range(k)), list(range(k, 2 * k))
    rng.shuffle(a)
    rng.shuffle(b)
    ring = [v for pair in zip(a, b) for v in pair]
    edges = {frozenset((ring[i], ring[i - 1])) for i in range(2 * k)}
    rng.shuffle(a)
    rng.shuffle(b)
    density = rng.choice((0.5, 0.8, 1.0))
    for u, v in zip(a, b):
        if rng.random() < density and frozenset((u, v)) not in edges:
            edges.add(frozenset((u, v)))
    return BipartiteGraph(2 * k, tuple(tuple(sorted(e)) for e in edges))


def test_worklist_reaches_the_reference_fixed_point(c6):
    # random decisions, each batch propagated by both routes from the same
    # state; undo goes back to a mark taken at an earlier fixed point
    rng = random.Random(4)
    graphs = [catalog("c4").graph, c6]
    graphs += [_random_degree_two_three_graph(rng, rng.randrange(2, 13)) for _ in range(60)]
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        g = rng.choice(graphs)
        live, ref = _State(g), _ReferenceState(g)
        ok = live.propagate()
        assert ok == ref.propagate()
        marks = []
        for _round in range(8):
            if not ok:
                if not marks:
                    break
                mark = rng.choice(marks)
                live.undo(mark)
                ref.undo(mark)
                marks = [m for m in marks if m < mark]
            assert (live.status, live.deg_in, live.avail) == (ref.status, ref.deg_in, ref.avail)
            assert live.mark() == ref.mark()
            marks.append(live.mark())
            undecided = [e for e in range(g.edge_count) if live.status[e] == _UNDECIDED]
            if not undecided:
                break
            for eid in rng.sample(undecided, min(len(undecided), rng.randrange(1, 4))):
                decide = "set_in" if rng.random() < 0.5 else "set_out"
                ok = getattr(live, decide)(eid)
                assert ok == getattr(ref, decide)(eid)
                if not ok:
                    break
            if ok:
                ok = live.propagate()
                assert ok == ref.propagate()
                verdicts[ok] += 1
    assert min(verdicts.values()) >= 300, verdicts


def _b_horton_chain(copies: int, rng: random.Random) -> BipartiteGraph:
    """B-Horton with copies - 1 more spliced in, each at a seeded random vertex."""
    bh = catalog("b_horton").graph
    g = bh
    for _ in range(copies - 1):
        g = splice(g, rng.randrange(g.n), bh, 0).graph
    return g


def _fold_cases() -> Iterable[tuple[BipartiteGraph, BipartiteGraph, list[int]]]:
    """(g, h, back) for the non-braces of the class to 24, the ladder splices
    and B-Horton chains on 62 and 92 vertices: h is g or one of two
    relabellings of it, and back[e] is g's id of h's edge e."""
    rng = random.Random(20)
    graphs = [rec.graph for rec in generate(24) if rec.family]
    graphs += _ladder_splices() + [_b_horton_chain(copies, rng) for copies in (2, 3)]
    for g in graphs:
        yield g, g, list(range(g.edge_count))
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            back = [0] * g.edge_count
            for eid, (u, v) in enumerate(g.edges):
                back[h.edge_id(perm[u], perm[v])] = eid
            yield g, h, back


def test_fold_matches_the_raw_search_on_random_queries():
    # The raw search answers each query on g, pulled back from h: on the
    # relabelled 92-vertex chains it can take seconds a query, which is
    # what the fold is for.
    rng = random.Random(2020)
    kinds = {"raise": 0, "none": 0, "cycle": 0}
    for g, h, back in _fold_cases():
        engine = HamiltonicityEngine(h)
        assert engine.tree is not None
        for piece in engine.tree.pieces[:-1]:  # the root, last, has no parent cut
            # all three edges of a cut: well-formed on G, closed early at the
            # contraction vertex in both pieces, and crossed an odd number of times
            assert engine.cycle_with([piece.edge_of[e] for e in piece.up]) is None
        for _ in range(30):
            edges = rng.sample(range(h.edge_count), 9)
            n_forced = rng.randrange(7)
            contains, avoids = edges[:n_forced], edges[n_forced:n_forced + rng.randrange(4)]
            if rng.random() < 0.1:
                contains = list(h.incident[rng.randrange(h.n)])
            elif rng.random() < 0.1:
                avoids += contains[:1]
            expected = _outcome(
                find_hamiltonian_cycle, g, [back[e] for e in contains], [back[e] for e in avoids]
            )
            if expected == "raise":
                with pytest.raises(GraphError):
                    engine.cycle_with(contains, avoids)
                kinds["raise"] += 1
                continue
            cycle = engine.cycle_with(contains, avoids)
            assert (cycle is None) == (expected is None), (h.n, contains, avoids)
            if cycle is not None:
                cycle.validate(h)
                assert set(contains) <= cycle.edge_ids and not set(avoids) & cycle.edge_ids
            kinds["none" if cycle is None else "cycle"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_piece_tree_is_the_brace_decomposition():
    # a second route to the braces: one cut scan, every cut contracted, as
    # the 3-edge cuts of a cubic 3-connected graph never cross
    rng = random.Random(21)
    graphs = [rec.graph for rec in generate(24) if rec.family]
    graphs += _ladder_splices() + [catalog("horton").graph, _b_horton_chain(3, rng)]
    for g in graphs:
        assert family_is_laminar(find_tight_cuts_cubic(g))
        tree = HamiltonicityEngine(g).tree
        pieces = [piece.graph for piece in tree.pieces]
        assert Counter(canonical_form(p) for p in pieces) == tight_cut_decomposition(g).braces
        for p in pieces:
            assert p.is_regular(3) and cubic_three_connected(p)
            assert find_tight_cuts_cubic(p) == []
    for name in ("cube", "heawood", "b_horton"):
        assert HamiltonicityEngine(catalog(name).graph).tree is None


def test_deep_splice_chain_folds_with_one_cut_scan(monkeypatch):
    # 200 copies of K3,3 spliced in a chain: 806 vertices, 201 pieces
    k33 = catalog("k33").graph
    g = k33
    for _ in range(200):
        g = splice(g, g.n - 1, k33, 0).graph
    assert g.n == 806
    scans = []
    scan = hamiltonicity.find_tight_cuts_cubic
    monkeypatch.setattr(
        hamiltonicity, "find_tight_cuts_cubic", lambda h: scans.append(h) or scan(h)
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        engine = HamiltonicityEngine(g)
        cycle = engine.cycle_with()
        avoided = engine.cycle_with(avoids=sorted(cycle.edge_ids)[::50])
    finally:
        sys.setrecursionlimit(limit)
    assert scans == [g] and len(engine.tree.pieces) == 201
    for found in (cycle, avoided):
        found.validate(g)
    assert not set(sorted(cycle.edge_ids)[::50]) & avoided.edge_ids
