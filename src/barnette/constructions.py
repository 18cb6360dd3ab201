"""Splices, trisums, conformal subgraph machinery, and Pfaffian recognition.

A splice glues two graphs at deleted vertices of equal degree by joining
their neighbourhoods in ascending order; in the bipartite matching covered
setting the seam is a tight cut.  A trisum glues three graphs along a common
4-cycle and deletes its four edges, so cubic inputs give a cubic result.

Pfaffian recognition here is desk-scale and exact, twice over: an orientation
solver that turns every conformal cycle into a parity constraint over GF(2),
and a search for a conformal bisubdivision of K33, whose absence is
equivalent to being Pfaffian for bipartite graphs with a perfect matching.
The two answers are cross-checked in tests rather than merged.
Cycles and K33 paths both come from one iterative walker, `_simple_paths`,
so no search here depends on the recursion limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .graphs import (
    BipartiteGraph,
    Cut,
    GraphError,
    bits,
    vertex_mask,
)
from . import matching
from .io import from_graph6
from .matching import has_perfect_matching, is_matching_covered
from .tightcut import tight_cut_decomposition


# ---------------------------------------------------------------------------
# splice


@dataclass(frozen=True)
class Splice:
    """Result of gluing g1 - u to g2 - v.

    map1/map2 send old vertex ids to ids in the glued graph (None for the
    deleted vertices); cut is the splicing cut around the image of g1 - u.
    """

    graph: BipartiteGraph
    cut: Cut
    map1: tuple[Optional[int], ...]
    map2: tuple[Optional[int], ...]


def splice(g1: BipartiteGraph, u: int, g2: BipartiteGraph, v: int) -> Splice:
    """Splice g1 and g2 at u and v.

    The deleted vertices must have equal degree; the i-th least vertex of
    N(u) is joined to the i-th least of N(v).  The glued graph is coloured
    when it is built, as every graph built without colours is: the least
    vertex of each component gets 'A'.  The seam is tight when both inputs
    are bipartite with colour classes of equal size: the shore g1 - u then
    has colour balance ±1, and every seam edge leaves it from N(u), its
    majority colour, which is `contract`'s colour count.  Otherwise it need
    not be: splicing two copies of K1,3 at their centres gives 3K2, whose
    one perfect matching crosses three times.
    """
    nu = sorted(g1.neighbours[u])
    nv = sorted(g2.neighbours[v])
    if len(nu) != len(nv):
        raise GraphError("spliced vertices must have equal degree")

    map1: list[Optional[int]] = [None] * g1.n
    nxt = 0
    for w in range(g1.n):
        if w != u:
            map1[w] = nxt
            nxt += 1
    map2: list[Optional[int]] = [None] * g2.n
    for w in range(g2.n):
        if w != v:
            map2[w] = nxt
            nxt += 1

    edges: list[tuple[int, int]] = []
    for a, b in g1.edges:
        if u not in (a, b):
            x, y = map1[a], map1[b]
            edges.append((min(x, y), max(x, y)))
    for a, b in g2.edges:
        if v not in (a, b):
            x, y = map2[a], map2[b]
            edges.append((min(x, y), max(x, y)))
    for x, y in zip(nu, nv):
        a, b = map1[x], map2[y]
        edges.append((min(a, b), max(a, b)))

    glued = BipartiteGraph(g1.n + g2.n - 2, tuple(edges))
    cut = Cut.from_shore(glued, vertex_mask(w for w in map1 if w is not None))
    return Splice(glued, cut, tuple(map1), tuple(map2))


# ---------------------------------------------------------------------------
# trisum


def _check_c4(g: BipartiteGraph, quad: Sequence[int]) -> None:
    if len(quad) != 4 or len(set(quad)) != 4:
        raise GraphError("4-cycle must list four distinct vertices")
    a, b, c, d = quad
    for x, y in ((a, b), (b, c), (c, d), (d, a)):
        if not g.has_edge(x, y):
            raise GraphError(f"vertices {x},{y} not adjacent: not a 4-cycle")


def trisum(
    graphs: Sequence[BipartiteGraph], quads: Sequence[Sequence[int]]
) -> BipartiteGraph:
    """Glue three bipartite graphs along a common 4-cycle and delete its edges.

    `quads` gives the cycle in each graph as four vertices in cyclic order;
    position k of each quad is identified across the three graphs and becomes
    vertex k of the result.  Each summand's other vertices follow in turn,
    and its edges in its edge order.

    All four cycle edges go, as in every cubic trisum of braces (Robertson,
    Seymour & Thomas 1999; McCuaig 2004), by a degree count: a brace on 6
    or more vertices has minimum degree 3, so each shared vertex takes at
    least one edge from each summand, and a cubic one then has no room for
    a cycle edge.  Cubic summands give a cubic result.  Positions 0 and 2
    take one colour in every summand, and 1 and 3 the other, so no summand
    has an edge between two quad vertices besides the cycle edges: the
    summands share no edge, their colourings agree on the shared vertices,
    and the glued graph is bipartite.
    """
    if len(graphs) != 3 or len(quads) != 3:
        raise GraphError("trisum needs exactly three graphs and three 4-cycles")
    for g, quad in zip(graphs, quads):
        g._require_colour()
        _check_c4(g, quad)
        if g.n <= 4:
            raise GraphError("each summand needs vertices outside the 4-cycle")

    edges: list[tuple[int, int]] = []
    nxt = 4
    for g, quad in zip(graphs, quads):
        m = [-1] * g.n
        for pos, w in enumerate(quad):
            m[w] = pos
        for w in range(g.n):
            if m[w] < 0:
                m[w] = nxt
                nxt += 1
        edges.extend((m[a], m[b]) for a, b in g.edges if max(m[a], m[b]) >= 4)
    return BipartiteGraph(nxt, tuple(edges))


def _simple_paths(
    nbrs: Sequence[Sequence[int]], src: int, dst: int, seen: bytearray
) -> Iterator[tuple[int, ...]]:
    """Simple paths src -> dst, lazily, depth-first in `nbrs` order on a stack.

    `seen` is the caller's, marking the blocked vertices.  A path is yielded
    when dst comes up, before its mark is read; other vertices are entered
    only if unmarked.  The walk marks src and its path, so at a yield `seen`
    marks the blocked set and the path, ready for a nested walk; run out, it
    leaves `seen` as it found it, with src marked.  With src == dst the
    yields are closed walks, both directions and back-and-forth.
    """
    seen[src] = 1
    path, stack = [src], [iter(nbrs[src])]
    while stack:
        for w in stack[-1]:
            if w == dst:
                yield (*path, dst)
            elif not seen[w]:
                path.append(w)
                seen[w] = 1
                stack.append(iter(nbrs[w]))
                break
        else:
            stack.pop()
            seen[path.pop()] = 0
    seen[src] = 1


# ---------------------------------------------------------------------------
# K33 bisubdivisions


@dataclass(frozen=True)
class K33Bisubdivision:
    """Branch vertices (3 per colour class) and the nine connecting paths.

    paths[i][j] runs from branches_a[i] to branches_b[j]; in a bipartite host
    every such path has odd length, as a bisubdivision requires.
    """

    branches_a: tuple[int, int, int]
    branches_b: tuple[int, int, int]
    paths: tuple[tuple[tuple[int, ...], ...], ...]

    def validate(self, g: BipartiteGraph) -> None:
        seen: set[int] = set(self.branches_a) | set(self.branches_b)
        if len(seen) != 6:
            raise GraphError("branch vertices are not distinct")
        for i in range(3):
            for j in range(3):
                path = self.paths[i][j]
                if path[0] != self.branches_a[i] or path[-1] != self.branches_b[j]:
                    raise GraphError("path endpoints disagree with branches")
                if len(path) % 2:
                    raise GraphError("bisubdivision path of even length")
                for x, y in zip(path, path[1:]):
                    if not g.has_edge(x, y):
                        raise GraphError(f"path step {x}-{y} is not an edge")
                inner = set(path[1:-1])
                if inner & seen:
                    raise GraphError("paths are not internally disjoint")
                seen |= inner
        if not has_perfect_matching(g, vertex_mask(seen)):
            raise GraphError("bisubdivision is not conformal")


def find_conformal_k33_bisubdivision(g: BipartiteGraph) -> Optional[K33Bisubdivision]:
    """Exact search for a conformal bisubdivision of K33.

    Branch triples are drawn one per colour class in ascending order; the
    nine paths come in row-major order from `_simple_paths` over unused
    vertices, and the system is kept only if its complement has a perfect
    matching.  Returns None exactly when no witness exists, which for
    bipartite graphs with a perfect matching means the graph is Pfaffian.
    A witness is not re-checked: the walker enters only unused vertices, an
    A-B path in a bipartite graph is odd, and ``grow`` ends with the
    conformality test that ``K33Bisubdivision.validate`` runs.
    """
    matching.check_oracle_bound(g)
    if not has_perfect_matching(g):
        raise GraphError("host graph needs a perfect matching")
    side_a = g.class_a()
    side_b = g.class_b()
    if len(side_a) < 3 or len(side_b) < 3:
        return None

    pair_order = [(i, j) for i in range(3) for j in range(3)]
    nbrs = [sorted(g.neighbours[v]) for v in range(g.n)]

    for tri_a in itertools.combinations(side_a, 3):
        for tri_b in itertools.combinations(side_b, 3):
            branch_mask = vertex_mask(tri_a) | vertex_mask(tri_b)
            witness = _grow_paths(g, nbrs, tri_a, tri_b, branch_mask, pair_order)
            if witness is not None:
                return witness
    return None


def _free_vertex_alive(g: BipartiteGraph, used: int, branch_mask: int) -> bool:
    """No free vertex may be walled in: it must keep a free neighbour to be
    matched in the complement or traversed by a later path."""
    free = g.full_mask & ~used
    for v in bits(free & ~branch_mask):
        if g.adj[v] & free == 0:
            return False
    return True


def _grow_paths(
    g: BipartiteGraph,
    nbrs: list[list[int]],
    tri_a: tuple[int, ...],
    tri_b: tuple[int, ...],
    branch_mask: int,
    pair_order: list[tuple[int, int]],
) -> Optional[K33Bisubdivision]:
    done: dict[tuple[int, int], tuple[int, ...]] = {}
    seen = bytearray(g.n)  # marks `used` in `grow`: the branches, then each path
    for v in (*tri_a, *tri_b):
        seen[v] = 1

    def grow(idx: int, used: int) -> bool:
        if idx == len(pair_order):
            return has_perfect_matching(g, used)
        i, j = pair_order[idx]
        for path in _simple_paths(nbrs, tri_a[i], tri_b[j], seen):
            nxt = used | vertex_mask(path)
            if _free_vertex_alive(g, nxt, branch_mask) and grow(idx + 1, nxt):
                done[i, j] = path
                return True
        return False

    if grow(0, branch_mask):
        return K33Bisubdivision(
            tuple(tri_a),
            tuple(tri_b),
            tuple(tuple(done[i, j] for j in range(3)) for i in range(3)),
        )
    return None


# ---------------------------------------------------------------------------
# Pfaffian orientations


class CycleSaturationError(GraphError):
    """Cycle enumeration hit its cap; results would be incomplete."""


CYCLE_CAP = 10 ** 6  # read at call time, so a test can lower it


def _simple_cycles(g: BipartiteGraph) -> Iterator[tuple[int, ...]]:
    """Simple cycles, lazily: `_simple_paths` walks of 4+ entries from the least
    vertex back to itself over larger ones, each kept in one direction only."""
    nbrs = [sorted(g.neighbours[v]) for v in range(g.n)]
    seen = bytearray(g.n)  # marks the anchors so far
    found = 0
    for anchor in range(g.n):
        seen[anchor] = 1
        if len(nbrs[anchor]) < 2 or nbrs[anchor][-2] < anchor:
            continue  # a cycle leaves its least vertex by two larger neighbours
        for walk in _simple_paths(nbrs, anchor, anchor, seen):
            if len(walk) >= 4 and walk[1] < walk[-2]:
                if found >= CYCLE_CAP:
                    raise CycleSaturationError(f"more than {CYCLE_CAP} simple cycles")
                found += 1
                yield walk[:-1]


def enumerate_simple_cycles(g: BipartiteGraph) -> list[tuple[int, ...]]:
    """All simple cycles, each reported once, anchored at its least vertex.

    Lists an iterative, lazy walk that `find_pfaffian_orientation` may stop
    early; raises CycleSaturationError beyond `CYCLE_CAP` cycles, never
    truncates.
    """
    return list(_simple_cycles(g))


def conformal_cycles(g: BipartiteGraph) -> list[tuple[int, ...]]:
    """Simple cycles whose vertex-complement has a perfect matching."""
    if not has_perfect_matching(g):
        return []
    return [cyc for cyc in _simple_cycles(g) if has_perfect_matching(g, vertex_mask(cyc))]


def _cycle_constraint(
    g: BipartiteGraph, cycle: tuple[int, ...]
) -> tuple[list[int], int]:
    """Edge ids on the cycle and the parity its direction bits must have.

    Oddly oriented means an odd number of edges agree with a traversal; for
    even cycles the requirement is independent of the traversal direction.
    """
    ids = []
    rhs = 1
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        eid = g.edge_id(x, y)
        ids.append(eid)
        if g.edges[eid] != (x, y):
            rhs ^= 1
    return ids, rhs


def _eliminate(rows: Iterable[tuple[list[int], int]], width: int) -> Optional[list[int]]:
    """Solve (columns, right-hand side) rows read one at a time, or None.

    Each row is an int bitset holding its right-hand side at bit ``width``
    and is reduced against the pivot rows keyed by their highest column; a
    row left with the right-hand side bit alone is a contradiction, and no
    later row is read.
    """
    rhs_bit = 1 << width
    pivots: dict[int, int] = {}
    for cols, b in rows:
        row = rhs_bit if b else 0
        for c in cols:
            row ^= 1 << c
        while row & (rhs_bit - 1):
            col = (row & (rhs_bit - 1)).bit_length() - 1
            if col not in pivots:
                pivots[col] = row
                break
            row ^= pivots[col]
        else:
            if row:
                return None
    x = [0] * width
    for col in sorted(pivots):
        row = pivots[col]
        value = row >> width & 1
        for c in bits(row & ((1 << col) - 1)):
            value ^= x[c]
        x[col] = value
    return x


def find_pfaffian_orientation(g: BipartiteGraph) -> Optional[tuple[int, ...]]:
    """Orientation making every conformal cycle oddly oriented, or None.

    The orientation is one direction bit per edge id: bit e = 0 keeps edge
    e's stored order (u, v) as u -> v, 1 reverses it.  Each conformal cycle
    contributes one GF(2) parity constraint on these bits.  The route is
    lazy: cycles are walked, tested and reduced one at a time, so None (not
    Pfaffian) comes at the first contradiction, possibly long before the
    cycle cap.  A Pfaffian verdict sees every cycle.
    """
    matching.check_oracle_bound(g)
    if not is_matching_covered(g):
        raise GraphError("Pfaffian test expects a matching covered graph")
    # g is bipartite, so every cycle is even
    rows = (
        _cycle_constraint(g, cyc)
        for cyc in _simple_cycles(g)
        if has_perfect_matching(g, vertex_mask(cyc))
    )
    solution = _eliminate(rows, g.edge_count)
    return None if solution is None else tuple(solution)


def is_oddly_oriented(
    g: BipartiteGraph, orientation: tuple[int, ...], cycle: tuple[int, ...]
) -> bool:
    """Does the cycle have an odd number of co-directed edges for a fixed
    (hence, as the cycle is even, for either) traversal?"""
    agree = 0
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        eid = g.edge_id(x, y)
        traversed_reverse = g.edges[eid] != (x, y)
        if int(traversed_reverse) == orientation[eid]:
            agree += 1
    return agree % 2 == 1


def braces_pfaffian_consistency(g: BipartiteGraph) -> dict:
    """Compare the direct Pfaffian verdict with the one through the braces.

    A matching covered graph is Pfaffian exactly when all its braces are, so
    the brace route also covers graphs beyond the direct solver's bound; in
    that case the direct entry is None and no comparison is made.
    """
    decomposition = tight_cut_decomposition(g)
    pieces = [(from_graph6(form), form) for form in decomposition.braces]
    # smallest braces first: one non-Pfaffian brace settles the verdict, and
    # the expensive cycle enumeration on big braces is then never reached
    pieces.sort(key=lambda pf: (pf[0].n, pf[1]))
    brace_verdicts: dict[str, bool] = {}
    via_braces = True
    for piece, form in pieces:
        verdict = find_pfaffian_orientation(piece) is not None
        brace_verdicts[form] = verdict
        if not verdict:
            via_braces = False
            break
    direct: Optional[bool] = None
    if g.n <= matching.ORACLE_BOUND:
        direct = find_pfaffian_orientation(g) is not None
    return {
        "pfaffian": via_braces,
        "direct": direct,
        "braces": brace_verdicts,
        "consistent": None if direct is None else direct == via_braces,
    }
