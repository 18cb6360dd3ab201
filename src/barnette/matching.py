"""Perfect matchings and the brace test.

This module alone handles partner arrays.  Every graph gets one
deterministic maximum matching, computed on first use and cached on the
graph object; each further matching question (``has_perfect_matching`` with
vertices removed) starts from it.  One perfect matching M of g answers the
extendability questions through the alternating digraph D(g, M), with a node
per A-vertex and an arc a -> M(b) per edge ab outside M.  One reachability
search, `_reach`, decides both questions the package asks.  Matching
covered is D strongly connected: a search from one node along the arcs and
one against them must reach every node.  `is_brace` is the one
2-extendability entry: `_digraph_failure` runs the same two searches in
each D - v and, for a graph that is not 2-extendable, returns the first
that misses a node.  The set of nodes it reached is the Hall set from which
`tightcut` reads a non-trivial tight cut.  No strongly connected components
and no set of allowed edges are computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import (
    BipartiteGraph,
    GraphError,
    is_connected,
    vertex_mask,
)

ORACLE_BOUND = 40  # vertex cap of the exact oracles, read at call time, so a test can lower it


class OracleBoundError(GraphError):
    """Raised when an enumeration oracle is asked to exceed its vertex bound."""


def check_oracle_bound(g: BipartiteGraph) -> None:
    """Raise OracleBoundError when g has more vertices than `ORACLE_BOUND`."""
    if g.n > ORACLE_BOUND:
        raise OracleBoundError(f"{g.n} vertices exceed the exact-search bound {ORACLE_BOUND}")


@dataclass(frozen=True)
class PerfectMatching:
    """A perfect matching as a frozenset of edge ids of its host graph."""

    edge_ids: frozenset[int]

    def validate(self, g: BipartiteGraph) -> None:
        covered = 0
        for eid in self.edge_ids:
            if not 0 <= eid < g.edge_count:
                raise GraphError(f"edge id {eid} out of range")
            u, v = g.edges[eid]
            if covered >> u & 1 or covered >> v & 1:
                raise GraphError("matching edges share a vertex")
            covered |= (1 << u) | (1 << v)
        if covered != g.full_mask:
            raise GraphError("matching does not cover every vertex")


# ----- matching kernel -----


def _warm_start(g: BipartiteGraph) -> tuple[int, ...]:
    """One maximum matching of g as a partner array, computed once per graph.

    Cached on the graph object like its edge index, so the cache lives exactly
    as long as the graph does.  The matching is the deterministic one built
    from nothing: A-vertices in increasing order, neighbours in stored order.
    """
    cached = getattr(g, "_warm_start_cache", None)
    if cached is None:
        partner = [-1] * g.n
        for a in g.class_a():
            _augment(g, a, partner, g.full_mask, set())
        cached = tuple(partner)
        object.__setattr__(g, "_warm_start_cache", cached)
    return cached


def _matching(g: BipartiteGraph, removed_mask: int = 0) -> tuple[int, list[int]]:
    """Maximum matching of g minus removed_mask: (size, partner array, -1 unmatched).

    Starts from g's cached matching with the pairs of removed vertices undone
    and augments the A-vertices left free, in increasing order.
    """
    a_class = g.class_a()
    alive = g.full_mask & ~removed_mask
    partner = list(_warm_start(g))
    for a in a_class:
        b = partner[a]
        if b >= 0 and (removed_mask >> a | removed_mask >> b) & 1:
            partner[a] = partner[b] = -1
    size = 0
    for a in a_class:
        if alive >> a & 1 and (partner[a] != -1 or _augment(g, a, partner, alive, set())):
            size += 1
    return size, partner


def _augment(g: BipartiteGraph, a: int, partner: list[int], alive: int, visited: set[int]) -> bool:
    """Depth-first augmenting path from the free vertex a; flips it if found.

    a is usually in class A; the search is the same from a free B-vertex
    with the classes swapped.  Iterative, so path length is not bounded by
    the recursion limit.  Each stack entry is (vertex of a's class, its
    unscanned neighbours, the vertex that led to it); neighbours are tried
    in stored order, as a recursive search would.  After a failed search,
    `visited` holds exactly the vertices of the other class (all matched)
    that alternating paths from a reach.
    """
    stack = [(a, iter(g.neighbours[a]), -1)]
    while stack:
        x, todo, _ = stack[-1]
        for b in todo:
            if not (alive >> b & 1) or b in visited:
                continue
            visited.add(b)
            if partner[b] == -1:
                for x, _, via in reversed(stack):
                    partner[b] = x
                    partner[x] = b
                    b = via
                return True
            stack.append((partner[b], iter(g.neighbours[partner[b]]), b))
            break
        else:
            stack.pop()
    return False


def has_perfect_matching(g: BipartiteGraph, removed_mask: int = 0) -> bool:
    """Does g minus the vertices in removed_mask have a perfect matching?"""
    alive = g.full_mask & ~removed_mask
    count = alive.bit_count()
    if 2 * (alive & g.colour_mask("A")).bit_count() != count:
        return False
    size, _ = _matching(g, removed_mask)
    return 2 * size == count


# ----- the alternating digraph -----


def _alternating_digraph(
    g: BipartiteGraph,
) -> Optional[tuple[list[int], list[list[int]], list[list[int]]]]:
    """D(g, M) for g's cached matching M, or None when M is not perfect.

    Returns the partner array and, indexed by vertex, the out- and in-lists
    of the A-nodes: one arc a -> M(b) per edge ab of g outside M, the
    out-lists in edge-id order.
    """
    size, partner = _matching(g)
    if 2 * size != g.n:
        return None
    out: list[list[int]] = [[] for _ in range(g.n)]
    into: list[list[int]] = [[] for _ in range(g.n)]
    for (u, v) in g.edges:
        a, b = (u, v) if g.colour[u] == "A" else (v, u)
        if partner[a] != b:
            out[a].append(partner[b])
            into[partner[b]].append(a)
    return partner, out, into


def _reach(arcs: list[list[int]], root: int, seen: set[int]) -> set[int]:
    """Adds to ``seen``, which holds root, every node that a search from root
    along ``arcs`` reaches without passing through a node already in it."""
    stack = [root]
    while stack:
        for w in arcs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_matching_covered(g: BipartiteGraph) -> bool:
    """Connected, at least one edge, and every edge lies in a perfect matching.

    For a perfect matching M, an edge ab outside M lies in another one iff
    its arc a -> M(b) lies on a directed cycle of D(g, M).  D is connected
    when g is, so every arc lies on a cycle iff D is strongly connected: a
    search from one node reaches every node along the arcs and against them.
    """
    if g.n < 2 or g.edge_count == 0 or not is_connected(g):
        return False
    digraph = _alternating_digraph(g)
    if digraph is None:
        return False
    _, out, into = digraph
    root = g.class_a()[0]
    return all(len(_reach(arcs, root, {root})) == g.n // 2 for arcs in (out, into))


# ----- the brace test -----


def _digraph_failure(g: BipartiteGraph) -> Optional[tuple[int, int, bool]]:
    """The first search that shows D(g, M) is not strongly 2-connected, or None.

    D - v is strongly connected iff `_reach` from one root reaches every
    other node both along the arcs and against them: O(n·m) over all nodes v.
    The nodes v are taken in increasing order, and the root is the least
    other node.  The first search that misses a node gives (R, M(R), along):
    the masks of the A-nodes R it reached, root included and v not, and of
    their partners, and whether it went along the arcs.  A g without a
    perfect matching, or with fewer than three nodes, fails at once with R
    empty.  None means every D - v is strongly connected, i.e. g is
    2-extendable.
    """
    digraph = _alternating_digraph(g)
    if digraph is None or g.n < 6:
        return 0, 0, True
    partner, out, into = digraph
    nodes = g.class_a()
    for v in nodes:
        root = nodes[1] if v == nodes[0] else nodes[0]
        for along, arcs in ((True, out), (False, into)):
            seen = _reach(arcs, root, {v, root})
            if len(seen) < len(nodes):
                seen.discard(v)
                return vertex_mask(seen), vertex_mask(partner[a] for a in seen), along
    return None


def is_brace(g: BipartiteGraph) -> bool:
    """A brace is K2, C4 or a 2-extendable graph: any two disjoint edges lie
    in a perfect matching, which needs six vertices or more.

    For a perfect matching M of a connected g, that holds iff D(g, M) is
    strongly 2-connected (Lakhal & Litzler, Inform. Process. Lett. 65, 1998),
    i.e. D minus any one node stays strongly connected (Robertson, Seymour &
    Thomas, Ann. Math. 150, 1999), which `_digraph_failure` tests in O(n·m).
    The same search hands `tightcut` its cut when g is not a brace.
    """
    g._require_colour()
    if g.n in (2, 4) and g.is_regular(g.n // 2) and is_connected(g):
        return True
    return _digraph_failure(g) is None


# ----- enumeration oracle -----


def enumerate_perfect_matchings(g: BipartiteGraph) -> list[PerfectMatching]:
    """All perfect matchings, deterministically ordered; oracle-bounded.

    Raises OracleBoundError when the graph has more vertices than
    `ORACLE_BOUND`.
    """
    check_oracle_bound(g)
    if g.n % 2:
        return []
    if len(g.class_a()) != len(g.class_b()):
        return []
    order = sorted(g.class_a())
    out: list[PerfectMatching] = []
    chosen: list[int] = []

    def rec(i: int, used: int) -> None:
        if i == len(order):
            out.append(PerfectMatching(frozenset(chosen)))
            return
        a = order[i]
        for eid in g.incident[a]:
            b = g.other_end(eid, a)
            if used >> b & 1:
                continue
            chosen.append(eid)
            rec(i + 1, used | 1 << b)
            chosen.pop()

    rec(0, 0)
    return out
