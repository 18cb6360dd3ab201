"""Exact Hamiltonian cycle search with forced and forbidden edges.

The solver keeps one in/out/undecided status per edge and propagates two local
rules to a fixed point: a vertex with two chosen edges excludes its remaining
edges, and a vertex with only two usable edges must use both.  Chosen edges
form path fragments whose endpoints are linked; an edge closing a fragment is
rejected unless it completes a spanning cycle.  Branching picks an undecided
edge at a vertex with the fewest usable edges (ties by vertex id) and tries
"in" before "out", so the search is deterministic.

Propagation works from a queue of vertices: every decided edge queues its
two ends, and only queued vertices are re-examined, so a search node costs
what it changes rather than a sweep of all n vertices.  The order in which
the rules fire does not matter.  Each rule, and each failure (a third chosen
edge at a vertex, a fragment closing before it spans, a vertex left with
fewer than two usable edges), is monotone in the set of decided edges, so
every order reaches the same fixed point or fails.  The branch edges, the
search tree and every returned cycle are those of a full rescan.

Derived predicates: a graph is Pk-Hamiltonian when every path on k vertices
extends to a Hamiltonian cycle; H-minus when every single edge can be avoided;
H-plus-minus when for every ordered pair of distinct edges some Hamiltonian
cycle contains the first and avoids the second.  The engine indexes found
cycles by edge, and the predicates read that index in their own loops, so only
the queries no kept cycle serves reach the solver, in a cache scan's order.

Across 3-edge cuts the engine does not search the whole graph.  A cycle
crosses every edge cut an even number of times, and a spanning one at least
once, so a Hamiltonian cycle of G crosses each 3-edge cut exactly twice and
avoids exactly one of its edges.  Collapsing either side of the cut to one
vertex turns it into a Hamiltonian cycle of that contraction; conversely,
two cycles of the contractions that avoid the same cut edge glue into one of
G.  For a coloured, cubic, 3-connected G with a non-trivial 3-edge cut, the
engine contracts all of them once (`_PieceTree`, over `contract_family`'s
tree): two crossing minimum edge cuts force an even cut size (see
`tightcut`), so 3-edge cuts never cross, and the pieces are G's braces,
joined in a tree by the cuts.  A query is answered bottom-up: for each
piece, the set of edges of its parent cut that some cycle of its subtree,
obeying the query, avoids becomes one constraint at the parent's contraction
vertex, whose cycle avoids exactly one of the three edges.  An empty set
makes the query infeasible, one edge must be avoided, two leave the third to
contain, three constrain nothing.  So no piece is searched for all 3^k
patterns of its k contraction vertices.  G's cycle is then glued top-down
from one cycle per piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import BipartiteGraph, Cut, GraphError, connected_components
from .tightcut import contract_family, cubic_three_connected, find_tight_cuts_cubic

_UNDECIDED, _IN, _OUT = 0, 1, 2


@dataclass(frozen=True)
class HamiltonianCycle:
    """A spanning cycle as a frozenset of edge ids of its host graph."""

    edge_ids: frozenset[int]

    def validate(self, g: BipartiteGraph) -> None:
        degree = [0] * g.n
        for eid in self.edge_ids:
            if not 0 <= eid < g.edge_count:
                raise GraphError(f"edge id {eid} out of range")
            for v in g.edges[eid]:
                degree[v] += 1
        if any(d != 2 for d in degree):
            raise GraphError("cycle does not have degree 2 at every vertex")
        skip = set(range(g.edge_count)) - self.edge_ids
        if len(connected_components(g, edge_skip=skip)) != 1:
            raise GraphError("cycle does not span the vertex set")


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of a universally quantified Hamiltonicity predicate.

    ``counterexample`` carries the failing object: a vertex path for the Pk
    properties, an edge id for H-minus, an (edge id, edge id) pair for
    H-plus-minus.  Truthiness follows ``holds``.
    """

    holds: bool
    counterexample: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.holds


class _State:
    """Search state with an undo trail and a propagation queue.

    ``queue`` holds the vertices whose rules may fire: it starts as every
    vertex, so degree-2 vertices are forced at the root, and `set_in` and
    `set_out` push the two ends of the edge they decide.  A vertex's rules
    read only its own ``deg_in``, ``avail`` and incident statuses, which
    change only through those two calls, so an empty queue is a fixed point.
    `undo` clears the queue: marks are taken only at fixed points, and undo
    restores one.

    ``link[v]`` is meaningful only while v is a fragment endpoint (fewer than
    two chosen edges): it names the opposite endpoint, itself for an isolated
    vertex.  Interior vertices keep stale links that are never read.  A trail
    entry is (edge id, eu, ev): eu = -1 for "out", else the ends' old links,
    which the closing edge leaves as they were (eu == v and ev == u).
    """

    __slots__ = ("g", "status", "deg_in", "avail", "link", "in_count", "trail", "queue")

    def __init__(self, g: BipartiteGraph):
        self.g = g
        self.status = [_UNDECIDED] * g.edge_count
        self.deg_in = [0] * g.n
        self.avail = list(map(len, g.neighbours))
        self.link = list(range(g.n))
        self.in_count = 0
        self.trail: list[tuple[int, int, int]] = []
        self.queue = list(range(g.n))

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        self.queue.clear()
        while len(self.trail) > mark:
            eid, eu, ev = self.trail.pop()
            u, v = self.g.edges[eid]
            self.status[eid] = _UNDECIDED
            if eu < 0:
                self.avail[u] += 1
                self.avail[v] += 1
                continue
            self.in_count -= 1
            self.deg_in[u] -= 1
            self.deg_in[v] -= 1
            self.link[eu] = u
            self.link[ev] = v

    def set_out(self, eid: int) -> bool:
        """Decide ``eid`` out; False if an end keeps under two available edges.
        ``eid`` is undecided, as in `set_in`; `find_hamiltonian_cycle` also sets
        the distinct forbidden edges, disjoint from the forced, on a fresh state."""
        u, v = self.g.edges[eid]
        self.status[eid] = _OUT
        self.trail.append((eid, -1, -1))
        self.avail[u] -= 1
        self.avail[v] -= 1
        self.queue += (u, v)
        return self.avail[u] >= 2 and self.avail[v] >= 2

    def set_in(self, eid: int) -> bool:
        """Decide ``eid`` in; False if an end has two chosen edges or it closes a
        short cycle.  ``eid`` is undecided: `propagate` checks, `_branch_edge`
        picks an undecided edge and `undo` restores it, and `_forced_state`
        sets distinct edges of a fresh state."""
        u, v = self.g.edges[eid]
        if self.deg_in[u] >= 2 or self.deg_in[v] >= 2:
            return False
        eu, ev = self.link[u], self.link[v]
        if eu == v and self.in_count + 1 != self.g.n:
            return False  # closes the fragment through u and v before it spans
        self.trail.append((eid, eu, ev))
        self.link[eu] = ev
        self.link[ev] = eu
        self.status[eid] = _IN
        self.in_count += 1
        self.deg_in[u] += 1
        self.deg_in[v] += 1
        self.queue += (u, v)
        return True

    def propagate(self) -> bool:
        """Apply the two degree rules at queued vertices until none is left.

        A failure may leave vertices queued; the caller undoes to a mark or
        drops the state.
        """
        incident, queue = self.g.incident, self.queue
        status, deg_in, avail = self.status, self.deg_in, self.avail
        while queue:
            v = queue.pop()
            if deg_in[v] == 2:
                for eid in incident[v]:
                    if status[eid] == _UNDECIDED and not self.set_out(eid):
                        return False
            elif avail[v] < 2:
                return False
            elif avail[v] == 2:
                for eid in incident[v]:
                    if status[eid] == _UNDECIDED and not self.set_in(eid):
                        return False
        return True


def find_hamiltonian_cycle(
    g: BipartiteGraph,
    forced: Iterable[int] = (),
    forbidden: Iterable[int] = (),
) -> Optional[HamiltonianCycle]:
    """Search for a Hamiltonian cycle using every forced edge and no forbidden one.

    Returns None when no such cycle exists.  Overlapping constraint sets and
    forced sets that are not disjoint unions of paths raise GraphError; an
    unsatisfiable but well-formed query simply returns None.
    """
    forced = frozenset(forced)
    forbidden = frozenset(forbidden)
    st = _forced_state(g, forced, forbidden)
    if g.n < 3:
        return None
    for eid in forbidden:
        if not st.set_out(eid):
            return None
    if not st.propagate():
        return None
    if _solve(st):
        return HamiltonianCycle(frozenset(e for e, s in enumerate(st.status) if s == _IN))
    return None


def _forced_state(g: BipartiteGraph, forced: frozenset[int], forbidden: frozenset[int]) -> _State:
    """A fresh search state with the forced edges in; GraphError on a
    malformed query.  Forced edges go in through ``_State.set_in``, which
    refuses a third edge at a vertex and a cycle that closes before it spans.
    """
    if forced & forbidden:
        raise GraphError("an edge is both forced and forbidden")
    for eid in forced | forbidden:
        if not 0 <= eid < g.edge_count:
            raise GraphError(f"edge id {eid} out of range")
    st = _State(g)
    for eid in sorted(forced):
        if not st.set_in(eid):
            raise GraphError("forced edges must form a disjoint union of paths")
    return st


def _branch_edge(st: _State) -> int:
    """First undecided edge at the most constrained vertex; -1 when none remain."""
    g = st.g
    best_eid = -1
    best_avail = 10 ** 9
    for v in range(g.n):
        if st.deg_in[v] < 2 and st.avail[v] < best_avail:
            for eid in g.incident[v]:
                if st.status[eid] == _UNDECIDED:
                    best_eid = eid
                    best_avail = st.avail[v]
                    break
    return best_eid


def _solve(st: _State) -> bool:
    """Depth-first search on an explicit stack of (branch edge, trail mark).

    Each branch tries "in" before "out"; its entry stays on the stack while
    the "in" side is searched, and is popped when the "out" side is tried.
    """
    stack: list[tuple[int, int]] = []
    while st.in_count < st.g.n:
        eid = _branch_edge(st)
        if eid >= 0:
            stack.append((eid, st.mark()))
            if st.set_in(eid) and st.propagate():
                continue
        while True:
            if not stack:
                return False
            eid, mark = stack.pop()
            st.undo(mark)
            if st.set_out(eid) and st.propagate():
                break
    return True


def is_hamiltonian(g: BipartiteGraph) -> bool:
    return HamiltonicityEngine(g).cycle_with() is not None


class _CycleIndex:
    """Cycle queries over one graph, with a per-edge index of found cycles.

    Kept cycle i sets bit i of ``every`` and of ``holding[e]`` for each of its
    edges e, so the cycles serving a query are the mask ``every &
    AND(holding[contains]) & ~OR(holding[avoids])``; its lowest bit names the
    first kept, which a scan would return, and the search runs only when it
    is 0.  Failed queries are not kept: each predicate stops at its first
    failure, and no two predicates ask the same query.
    """

    def __init__(self, g: BipartiteGraph):
        self.g = g
        self.cycles: list[HamiltonianCycle] = []
        self.holding = [0] * g.edge_count
        self.every = 0

    def cycle_with(
        self,
        contains: Iterable[int] = (),
        avoids: Iterable[int] = (),
    ) -> Optional[HamiltonianCycle]:
        contains, avoids = tuple(contains), tuple(avoids)
        m = self.g.edge_count
        for eid in contains + avoids:
            if not 0 <= eid < m:
                raise GraphError(f"edge id {eid} out of range")
        mask = self.every
        for eid in contains:
            mask &= self.holding[eid]
        for eid in avoids:
            mask &= ~self.holding[eid]
        if mask:
            return self.cycles[(mask & -mask).bit_length() - 1]
        cycle = self._search(contains, avoids)
        if cycle is not None:
            bit = 1 << len(self.cycles)
            self.cycles.append(cycle)
            self.every |= bit
            for eid in cycle.edge_ids:
                self.holding[eid] |= bit
        return cycle

    def _search(self, contains: tuple, avoids: tuple) -> Optional[HamiltonianCycle]:
        return find_hamiltonian_cycle(self.g, contains, avoids)


class HamiltonicityEngine(_CycleIndex):
    """The per-edge index of `_CycleIndex`, with misses folded over g's
    `_PieceTree` when it has one; other graphs, braces included, send them
    to `find_hamiltonian_cycle` on the whole graph."""

    def __init__(self, g: BipartiteGraph):
        super().__init__(g)
        self.tree = _PieceTree.of(g)

    def _search(self, contains: tuple, avoids: tuple) -> Optional[HamiltonianCycle]:
        if self.tree is None:
            return super()._search(contains, avoids)
        return self.tree.cycle_with(contains, avoids)


class _PieceTree:
    """The fold of G's cycle queries over the piece tree `contract_family`
    builds from G's non-trivial 3-edge cuts, with a cycle index per piece.
    Each piece comes before its parent and the root is last.  ``free`` and
    ``chosen`` hold the fold and the cycles of the query with no constraint.
    """

    def __init__(self, g: BipartiteGraph, cuts: list[Cut]):
        self.g = g
        self.pieces = contract_family(g, cuts)
        self.indexes = [_CycleIndex(piece.graph) for piece in self.pieces]
        self.places: list[list[tuple[int, int]]] = [[] for _ in range(g.edge_count)]
        for p, piece in enumerate(self.pieces):
            for e, eid in enumerate(piece.edge_of):
                self.places[eid].append((p, e))
        self.free = self._fold({}, set(range(len(self.pieces))), [()] * len(self.pieces))
        self.chosen = self._choose(self.free)

    @classmethod
    def of(cls, g: BipartiteGraph) -> Optional["_PieceTree"]:
        """The piece tree of a coloured, cubic, 3-connected g with a
        non-trivial 3-edge cut; None for any other g."""
        if g.colour is None or not g.is_regular(3) or not cubic_three_connected(g):
            return None
        cuts = find_tight_cuts_cubic(g)
        return cls(g, cuts) if cuts else None

    def cycle_with(self, contains: tuple, avoids: tuple) -> Optional[HamiltonianCycle]:
        """G's cycle for the query, glued from one cycle per piece, or None.

        The query is checked on G first, so it raises where
        `find_hamiltonian_cycle` would.  A G-edge constraint holds in every
        piece that has the edge; only those pieces, and those above them
        whose children's feasible sets moved, are refolded from ``free``.
        """
        if contains:  # with none forced, in-range ids make a well-formed query
            _forced_state(self.g, frozenset(contains), frozenset(avoids))
        if self.chosen is None:
            return None
        asks: dict[int, tuple[set[int], set[int]]] = {}
        for side, eids in enumerate((contains, avoids)):
            for eid in eids:
                for p, e in self.places[eid]:
                    asks.setdefault(p, (set(), set()))[side].add(e)
        chosen = self._choose(self._fold(asks, set(asks), list(self.free))) if asks else self.chosen
        if chosen is None:
            return None
        edges = set()
        for piece, cycle in zip(self.pieces, chosen):
            edges.update(piece.edge_of[e] for e in cycle.edge_ids)
        return HamiltonianCycle(frozenset(edges))

    def _cycle(
        self, p: int, contains: frozenset[int], avoids: frozenset[int]
    ) -> Optional[HamiltonianCycle]:
        """A cycle of piece p for the query, None when none serves it.

        Constraints that overlap, or forced edges that meet three times or
        close early at a contraction vertex, are a pattern no cycle of the
        piece has, not a malformed query: G's query was checked whole.
        """
        if contains & avoids:
            return None
        try:
            return self.indexes[p].cycle_with(contains, avoids)
        except GraphError:
            return None

    def _choose(self, found: list[tuple]) -> Optional[list[HamiltonianCycle]]:
        """One cycle per piece, top-down, each avoiding at its parent cut the
        edge its parent's cycle avoids there; None when the root has none."""
        if found[-1][0] is None:
            return None
        chosen = [found[-1][0]] * len(self.pieces)
        for p in range(len(self.pieces) - 1, -1, -1):
            cycle = chosen[p]
            for kid, slot in self.pieces[p].kids:
                chosen[kid] = next(c for e, c in zip(slot, found[kid]) if e not in cycle.edge_ids)
        return chosen

    def _fold(self, asks: dict, pending: set[int], found: list[tuple]) -> list[tuple]:
        """found with the pending pieces refolded bottom-up, and a piece's
        parent too when its entries moved; found[-1] = (None,) when some
        piece has no cycle left.

        found[p] holds, for each edge of p's cut to its parent, a cycle of
        piece p that avoids it and that p's subtree extends, or None; the
        root holds one cycle.  A child's entries become one constraint at its
        contraction vertex, as the module docstring says.
        """
        for p, piece in enumerate(self.pieces):
            if p not in pending:
                continue
            contains, avoids = (set(s) for s in asks.get(p, ((), ())))
            for kid, slot in piece.kids:
                open_ = [e for e, c in zip(slot, found[kid]) if c is not None]
                if len(open_) == 1:
                    avoids.add(open_[0])
                elif len(open_) == 2:
                    contains.update(e for e in slot if e not in open_)
            contains = frozenset(contains)
            asked = [frozenset((*avoids, e)) for e in piece.up] or [frozenset(avoids)]
            cycles = tuple(self._cycle(p, contains, a) for a in asked)
            if all(c is None for c in cycles):
                found[-1] = (None,)
                return found
            if piece.up and [c is None for c in cycles] != [c is None for c in found[p]]:
                pending.add(piece.parent)
            found[p] = cycles
        return found


def is_pk_hamiltonian(
    g: BipartiteGraph, k: int, engine: Optional[HamiltonicityEngine] = None
) -> PropertyResult:
    """Does every path on k vertices extend to a Hamiltonian cycle?

    Paths are walked depth-first without recursion, in ``g.incident`` order,
    and checked from their lower end.  ``masks[i]`` holds the kept cycles
    through the path's first i edges, so only paths with mask 0 are queried.
    A cycle found then contains every prefix, so its bit joins every mask.

    Vacuously false on a non-Hamiltonian graph only if a path exists at all;
    by convention the empty-path edge case requires k >= 2.
    """
    if not 2 <= k <= g.n:
        raise GraphError(f"k={k} out of range for n={g.n}")
    engine = engine or HamiltonicityEngine(g)
    holding, edges, incident = engine.holding, g.edges, g.incident
    for start in range(g.n):
        path, eids, masks = [start], [], [engine.every]
        used = 1 << start
        stack = [iter(incident[start])]
        while stack:
            for eid in stack[-1]:
                u, v = edges[eid]
                w = u ^ v ^ path[-1]
                if used >> w & 1:
                    continue
                mask = masks[-1] & holding[eid]
                if len(path) + 1 < k:
                    path.append(w)
                    eids.append(eid)
                    masks.append(mask)
                    used |= 1 << w
                    stack.append(iter(incident[w]))
                    break
                if start < w and not mask:
                    if engine.cycle_with(contains=(*eids, eid)) is None:
                        return PropertyResult(False, (*path, w))
                    bit = 1 << len(engine.cycles) - 1
                    masks[:] = [m | bit for m in masks]
            else:
                stack.pop()
                used ^= 1 << path.pop()
                masks.pop()
                if eids:
                    eids.pop()
    return PropertyResult(True)


def has_h_minus(
    g: BipartiteGraph, engine: Optional[HamiltonicityEngine] = None
) -> PropertyResult:
    """Does every edge have a Hamiltonian cycle avoiding it?"""
    engine = engine or HamiltonicityEngine(g)
    for eid in range(g.edge_count):
        if not engine.every & ~engine.holding[eid] and engine.cycle_with(avoids=(eid,)) is None:
            return PropertyResult(False, (eid,))
    return PropertyResult(True)


def has_h_plus_minus(
    g: BipartiteGraph, engine: Optional[HamiltonicityEngine] = None
) -> PropertyResult:
    """For every ordered pair (e, f) of distinct edges, is there a
    Hamiltonian cycle through e avoiding f?

    Pairs are walked in increasing order; only those no kept cycle serves,
    ``every & holding[e] & ~holding[f] == 0``, reach the solver.
    """
    engine = engine or HamiltonicityEngine(g)
    holding = engine.holding
    for e in range(g.edge_count):
        for f in range(g.edge_count):
            if f != e and not engine.every & holding[e] & ~holding[f]:
                if engine.cycle_with(contains=(e,), avoids=(f,)) is None:
                    return PropertyResult(False, (e, f))
    return PropertyResult(True)


def property_profile(g: BipartiteGraph) -> dict[str, bool]:
    """All strengthened-Hamiltonicity verdicts for one graph, sharing a cache."""
    engine = HamiltonicityEngine(g)
    profile = {"hamiltonian": engine.cycle_with() is not None}
    for k in (2, 3, 4, 5):
        if g.n >= k:
            profile[f"p{k}"] = bool(is_pk_hamiltonian(g, k, engine))
    profile["h_minus"] = bool(has_h_minus(g, engine))
    profile["h_plus_minus"] = bool(has_h_plus_minus(g, engine))
    return profile
