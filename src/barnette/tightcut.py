"""Tight cuts in matching covered bipartite graphs.

A cut is tight when every perfect matching crosses it exactly once.  The
recognition test asks the matching kernel about the cut edges: the shore
must carry a colour imbalance of exactly one, and no cut edge that leaves it
from its minority class may lie in a perfect matching, i.e. g minus its two
ends must have none.  (With imbalance +1 every perfect matching crosses once
more from class A than from class B, so it crosses exactly once iff it uses
no cut edge at a B-vertex of the shore; this is the bipartite tight-cut
characterisation of Lovász & Plummer, *Matching Theory*.)

There is one route to a single cut, and it works on every matching covered
graph: the brace test.  The first D(g, M) - v that the matching kernel finds
not strongly connected yields a Hall set, a set X on one side with
|N(X)| = |X| + 1, and X ∪ N(X) is a shore of a non-trivial tight cut.

For cubic 3-connected bipartite graphs the non-trivial tight cuts are exactly
the non-trivial 3-edge cuts, and those are automatically 3-matchings, so the
family questions (all cuts at once, cyclic 4-connectivity) enumerate them
combinatorially.  One primitive answers every small-cut question here:
``cut_labels`` gives each edge the set of fundamental cycles through it, and
an edge set is a cut exactly when its labels XOR to zero.

Contracting either shore to a single vertex (parallel edges merged) preserves
matching coveredness, and iterating until no non-trivial tight cut remains
produces the brace decomposition, whose multiset of leaves is independent of
all choices made along the way.  The decomposition checks matching
coveredness once, on its input; `contract` trusts it and the tests check it.

In a cubic, 3-connected graph the non-trivial 3-edge cuts never cross, so
`contract_family` contracts all of them at once, with `contract`'s rule
(`_quotient`), into the tree of the graph's braces that the Hamiltonicity
engine folds its queries over.  If two minimum edge cuts X and Y of size λ
crossed, each of the four corners X∩Y, X−Y, Y−X and the rest would be
bounded by at least λ edges; counting the edges of X and Y then leaves no
edge between opposite corners and the same number e between any two adjacent
ones, so λ = 2e is even (Nagamochi & Ibaraki, *Algorithmic Aspects of Graph
Connectivity*, 2008).  Here λ = 3.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .canon import canonical_form
from .graphs import (
    BipartiteGraph,
    Cut,
    GraphError,
    bits,
    connected_components,
    shore_colour_balance,
)
from .matching import _digraph_failure, has_perfect_matching, is_matching_covered


def is_tight(g: BipartiteGraph, cut: Cut) -> bool:
    """Does every perfect matching cross the cut exactly once?

    Exactly when the shore's colour imbalance is ±1 and no cut edge uv that
    leaves the shore from its minority class lies in a perfect matching,
    that is, g - u - v has none; the graph must be bipartite and have a
    perfect matching.  A cut whose edges all leave from the majority class,
    as every 3-edge cut of a class member does, asks no further question.
    """
    g._require_colour()
    if not has_perfect_matching(g):
        raise GraphError("tightness is only meaningful with a perfect matching")
    balance = shore_colour_balance(g, cut.shore)
    if abs(balance) != 1:
        return False
    minority = "B" if balance == 1 else "A"
    for eid in cut.edge_ids:
        u, v = g.edges[eid]
        inside = u if cut.shore >> u & 1 else v
        if g.colour[inside] == minority and has_perfect_matching(g, 1 << u | 1 << v):
            return False
    return True


def cut_labels(g: BipartiteGraph) -> Optional[list[int]]:
    """Cycle-space label of every edge id, or None when g is disconnected.

    Each non-tree edge of a spanning tree gets its own bit; a tree edge gets
    the XOR of the bits of the non-tree edges that leave the subtree below it.
    A label is thus the set of fundamental cycles through the edge, and an
    edge set is an edge cut exactly when its labels XOR to zero: a zero label
    is a bridge, two equal labels are a 2-edge cut (Pritchard & Thurimella,
    "Fast computation of small cuts via cycle space sampling", TALG 2011, in
    its exact form).
    """
    n = g.n
    parent_edge = [-1] * n
    order = [0] if n else []  # breadth-first, so every vertex after its parent
    reached = 1
    for v in order:
        for eid in g.incident[v]:
            w = g.other_end(eid, v)
            if not reached >> w & 1:
                reached |= 1 << w
                parent_edge[w] = eid
                order.append(w)
    if len(order) != n:
        return None
    labels = [0] * g.edge_count
    leaving = [0] * n  # XOR of the non-tree bits at each vertex, then its subtree
    bit = 1
    for eid, (u, v) in enumerate(g.edges):
        if parent_edge[u] != eid and parent_edge[v] != eid:
            labels[eid] = bit
            leaving[u] ^= bit
            leaving[v] ^= bit
            bit <<= 1
    for v in reversed(order):
        eid = parent_edge[v]
        if eid >= 0:
            labels[eid] = leaving[v]
            leaving[g.other_end(eid, v)] ^= leaving[v]
    return labels


def cubic_three_connected(g: BipartiteGraph) -> bool:
    """3-connectivity for cubic graphs via edge cuts.

    For simple cubic graphs vertex and edge connectivity coincide, so it
    suffices to rule out bridges and 2-edge cuts: g must be connected with
    no zero cut label and no two equal ones.
    """
    return _three_connected_labels(g) is not None


def _three_connected_labels(g: BipartiteGraph) -> Optional[tuple[int, ...]]:
    """The cut labels of a cubic g when it is 3-connected, else None;
    cached on g (``()`` for None), so its check and its scan share them."""
    if not g.is_regular(3):
        raise GraphError("cubic graph expected")
    cached = getattr(g, "_three_connected_labels_cache", None)
    if cached is None:
        labels = cut_labels(g) if g.n >= 4 else None
        ok = labels is not None and 0 not in labels and len(set(labels)) == len(labels)
        cached = tuple(labels) if ok else ()
        object.__setattr__(g, "_three_connected_labels_cache", cached)
    return cached or None


def _disconnecting_triples(g: BipartiteGraph, labels: tuple[int, ...]) -> Iterator[frozenset[int]]:
    """3-matchings whose removal disconnects g, each once, at its least pair,
    in sorted order; lazily, so a caller that needs one stops there.

    Needs a 3-edge-connected g and its cut labels, non-zero and distinct:
    the third edge of a disconnecting triple through disjoint e and f is
    then the one edge labelled label[e] ^ label[f].  It is disjoint from
    both, since a cut edge sharing a vertex w with another would leave a
    2-edge cut once w changes sides.  A triple x < y < z is met at each of
    its three pairs, and only at (x, y) is the third edge the largest, so
    the scan yields when b > f and keeps no memory of what it has yielded.
    """
    m = g.edge_count
    ends = [1 << u | 1 << v for u, v in g.edges]
    edge_of = {label: eid for eid, label in enumerate(labels)}
    for e in range(m):
        for f in range(e + 1, m):
            b = edge_of.get(labels[e] ^ labels[f])
            if b is not None and b > f and not ends[e] & ends[f]:
                yield frozenset((e, f, b))


def cut_from_edge_ids(g: BipartiteGraph, edge_ids: Iterable[int]) -> Cut:
    """Cut of edge ids that split g in two, shore on the A-excess side."""
    g._require_colour()
    ids = frozenset(edge_ids)
    comps = connected_components(g, edge_skip=ids)
    if len(comps) != 2:
        raise GraphError("triple does not split the graph in two")
    shore = comps[0]
    if shore_colour_balance(g, shore) < 0:
        shore = comps[1]
    cut = Cut.from_shore(g, shore)
    if cut.edge_ids != ids:
        raise GraphError("component boundary disagrees with the triple")
    return cut


def find_tight_cuts_cubic(g: BipartiteGraph) -> list[Cut]:
    """All non-trivial tight cuts of a cubic 3-connected bipartite graph.

    These are exactly the non-trivial 3-edge cuts, which in this class are
    3-matchings, so the cut-label enumeration is exhaustive.  Results come
    sorted by edge-id triple: the scan meets a triple x < y < z first at its
    pair (x, y), as any two of its labels XOR to the third's.
    """
    g._require_colour()
    labels = _three_connected_labels(g)
    if labels is None:
        raise GraphError("graph is not 3-connected")
    return [cut_from_edge_ids(g, t) for t in _disconnecting_triples(g, labels)]


def find_nontrivial_tight_cut(g: BipartiteGraph) -> Optional[Cut]:
    """Some non-trivial tight cut of a matching covered bipartite g, or None
    when g is 2-extendable, i.e. a brace.

    The cut is read off the failed brace test, `_digraph_failure`: a search
    of D - v from its root, in D = D(g, M), that misses some node, and the
    set R of A-nodes it reached (Lovász & Plummer, *Matching Theory*, for
    the Hall-set form of a tight cut):

    - Along the arcs, every arc out of R ends in R or at v.  An arc a -> M(b)
      stands for an edge ab, so N(R) = M(R) ∪ {M(v)}.  g is matching
      covered, so |N(R)| ≥ |R| + 1, and equality holds.  Every perfect
      matching matches R into N(R) and sends exactly one edge from the
      remaining vertex of N(R) across, so R ∪ N(R) is a tight shore.
    - Against the arcs, every arc into R starts in R or at v, so T = M(R)
      has N(T) = R ∪ {v}, and T ∪ N(T) is a tight shore by the same count.
    - R contains the root and misses a node other than v, so each side of
      the cut has at least three vertices: the cut is non-trivial.

    The shore is kept on the A-excess side, as `cut_from_edge_ids` does: the
    complement of R ∪ N(R), or T ∪ N(T) itself.  The same route serves
    cubic 3-connected input; `find_tight_cuts_cubic` answers for the whole
    family at once.
    """
    g._require_colour()
    if g.n <= 4:
        # shores of a tight cut have odd size, so one of them would be trivial
        return None
    failure = _digraph_failure(g)
    if failure is None:
        return None
    reached, mates, along = failure
    hall = reached if along else mates
    neighbours = 0
    for x in bits(hall):
        neighbours |= g.adj[x]
    if neighbours.bit_count() != hall.bit_count() + 1:
        raise GraphError("graph is not matching covered")
    shore = hall | neighbours
    return Cut.from_shore(g, g.full_mask & ~shore if along else shore)


def contract(g: BipartiteGraph, cut: Cut) -> tuple[BipartiteGraph, BipartiteGraph]:
    """Tight cut contraction: the quotients (inner, outer), ``inner`` keeping
    the shore and ``outer`` the complement, the other side collapsed to one
    vertex, the last.  g must be matching covered; then so is each quotient,
    which is cubic and 3-connected when g is (Lovász & Plummer), as the tests
    check.
    """
    g._require_colour()
    shore, rest = cut.shore, cut.complement_mask()
    return (
        _quotient(g, shore, [(rest, cut.edge_ids)])[0],
        _quotient(g, rest, [(shore, cut.edge_ids)])[0],
    )


def _quotient(
    g: BipartiteGraph, own: int, far: list[tuple[int, Iterable[int]]]
) -> tuple[BipartiteGraph, dict[int, int]]:
    """g with the vertices of ``own`` kept in order and each far side, given
    with its cut's edge ids, collapsed to one new vertex after them;
    parallel edges merge onto the first.  Also returns the map from the
    edge ids of g that the quotient keeps to its own.

    The cut is tight iff the collapsed side has colour balance ±1 and every
    cut edge leaves it from its majority colour, the colour its new vertex
    takes.  This suffices in any bipartite graph, as each minority vertex is
    matched inside the side, and is `is_tight`'s test when every edge lies
    in a perfect matching.
    """
    vertex = {v: i for i, v in enumerate(bits(own))}
    colour = [g.colour[v] for v in vertex]
    kept = {eid for v in vertex for eid in g.incident[v]}
    for side, edge_ids in far:
        balance = shore_colour_balance(g, side)
        c_colour = "A" if balance == 1 else "B"
        if abs(balance) != 1:
            raise GraphError("cut is not tight")
        for eid in edge_ids:
            u, v = g.edges[eid]
            inner = u if side >> u & 1 else v
            if g.colour[inner] != c_colour:
                raise GraphError("cut is not tight")
            vertex[inner] = len(colour)
            kept.add(eid)
        colour.append(c_colour)
    edge: dict[int, int] = {}
    new_edge: dict[tuple[int, int], int] = {}
    for eid in sorted(kept):
        u, v = g.edges[eid]
        pair = (vertex[u], vertex[v])
        edge[eid] = new_edge.setdefault(pair if pair[0] < pair[1] else pair[::-1], len(new_edge))
    return BipartiteGraph(len(colour), tuple(new_edge), tuple(colour)), edge


@dataclass(frozen=True)
class Piece:
    """One region of a laminar family of tight cuts (a set of vertices no
    cut separates), with the far side of every cut bounding it collapsed.

    ``edge_of[e]`` is g's id of piece edge e.  The pieces form a tree whose
    edges are the cuts: ``parent`` is the index of the piece across the cut
    that bounds this region from the side of vertex 0, -1 at the root.
    ``up`` holds the piece edge ids at that cut's new vertex, empty at the
    root, and ``kids`` pairs each child's index with the piece edge ids at
    its cut's new vertex here.  Each slot lists its cut's edges in the
    order of their sorted g-edge ids, so the two pieces a cut joins list
    them alike.
    """

    graph: BipartiteGraph
    edge_of: tuple[int, ...]
    parent: int
    up: tuple[int, ...]
    kids: tuple[tuple[int, tuple[int, ...]], ...]


def contract_family(g: BipartiteGraph, family: list[Cut]) -> list[Piece]:
    """The piece tree of g along a laminar family of tight cuts, collapsing
    each far side as `contract` collapses one.  For the non-trivial 3-edge
    cuts of a cubic, 3-connected g the pieces are g's braces.

    Regions come in the order of the cut sides away from vertex 0, smallest
    first, so each piece comes before its parent; the region holding
    vertex 0 is last, the root.
    """
    full = g.full_mask
    sides = [full ^ cut.shore if cut.shore & 1 else cut.shore for cut in family]
    order = sorted(range(len(family)), key=lambda c: (sides[c].bit_count(), sides[c]))
    # Nested or disjoint sides: region j, inside side j and outside every
    # smaller side, meets region outer[j], of the least side containing it.
    nested = [sides[c] for c in order] + [full]
    k = len(order)
    outer = [next(i for i in range(j + 1, k + 1) if not nested[j] & ~nested[i]) for j in range(k)]
    outer.append(-1)
    children: list[list[int]] = [[] for _ in nested]
    for j in range(k):
        children[outer[j]].append(j)
    pieces, taken = [], 0
    for j, side in enumerate(nested):
        around = children[j] + [j] if j < k else children[j]
        bounds = [(full ^ side if c == j else nested[c], family[order[c]].edge_ids) for c in around]
        graph, edge = _quotient(g, side & ~taken, bounds)
        taken |= side
        slots = {c: tuple(edge[eid] for eid in sorted(family[order[c]].edge_ids)) for c in around}
        edge_of: dict[int, int] = {}
        for eid, e in edge.items():
            edge_of.setdefault(e, eid)
        kids = tuple((c, slots[c]) for c in children[j])
        pieces.append(Piece(graph, tuple(edge_of.values()), outer[j], slots.get(j, ()), kids))
    return pieces


@dataclass(frozen=True)
class DecompositionStep:
    """One contraction event: the piece's order and the cut used on it."""

    n: int
    cut_edge_ids: tuple[int, ...]
    shore_size: int
    piece_sizes: tuple[int, int]


@dataclass(frozen=True)
class DecompositionResult:
    braces: Counter  # canonical graph6 form -> multiplicity
    trace: tuple[DecompositionStep, ...]


def tight_cut_decomposition(g: BipartiteGraph) -> DecompositionResult:
    """Brace decomposition of a matching covered bipartite graph.

    Contracts non-trivial tight cuts (both shores) until only braces remain
    and returns their canonical forms with multiplicity.  The multiset does
    not depend on the order of contractions or on which cuts are picked
    (Lovász 1987); the trace records the choices made.
    """
    if not is_matching_covered(g):
        raise GraphError("decomposition needs a matching covered graph")
    braces: Counter = Counter()
    trace: list[DecompositionStep] = []
    work = [g]
    while work:
        h = work.pop()
        cut = find_nontrivial_tight_cut(h)
        if cut is None:
            braces[canonical_form(h)] += 1
            continue
        inner, outer = contract(h, cut)
        trace.append(
            DecompositionStep(
                h.n,
                tuple(sorted(cut.edge_ids)),
                cut.shore.bit_count(),
                (inner.n, outer.n),
            )
        )
        work.append(inner)
        work.append(outer)
    return DecompositionResult(braces, tuple(trace))


def is_cyclically_4_connected(g: BipartiteGraph) -> bool:
    """No edge cut of order < 4 leaves two components that contain cycles.

    A side of a 1- or 2-edge cut of a simple connected cubic graph has at
    least as many internal edges as vertices, so both sides contain a cycle
    and g must be 3-connected.  Then only non-trivial 3-edge cuts remain to
    rule out (a tree side of a 3-cut must be a single vertex, because a
    k-vertex tree side emits k+2 edges).
    """
    labels = _three_connected_labels(g)
    return labels is not None and next(_disconnecting_triples(g, labels), None) is None


# ---------------------------------------------------------------------------
# laminar families


def family_is_laminar(cuts: Iterable[Cut]) -> bool:
    """Every two cuts are laminar up to complementation: a shore of one is
    disjoint from a shore of the other."""
    return all(
        any(
            a & b == 0
            for a in (c1.shore, c1.complement_mask())
            for b in (c2.shore, c2.complement_mask())
        )
        for c1, c2 in itertools.combinations(cuts, 2)
    )
