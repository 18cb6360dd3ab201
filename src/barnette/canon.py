"""Canonical forms for small graphs via refinement and individualization.

The canonical form of a graph is the lexicographically smallest graph6 string
over the leaves of a search tree: equitable refinement, then each vertex of the
first non-singleton cell individualised in turn.  Colourings are ignored, so
isomorphism is plain graph isomorphism.  The ordered partition is kept by
position, as in nauty and Traces: ``at[p]`` is the vertex mask of the cell
that starts at position p (0 inside a cell) and ``start[v]`` the start of
v's cell, so a discrete partition's labelling is the bit positions of
``at``.  Refinement counts neighbours in a splitter by bit slices, ``ge[k]``
holding the vertices with more than k, and splits a cell in place: its
parts between consecutive slices, in count order, take consecutive starts
where the cell was.  Exact shortcuts and pruning keep the work to what can
still split:

- Refinement applies the cells marked in a bit mask of starts, lowest first,
  and marks a split cell's pieces, so it resumes at the first start split:
  the cells before it are unchanged and applied.  An applied cell stays
  unmarked: cells only get finer, so every cell stays uniform against it.
  So does the last piece split off an applied cell: when its turn comes,
  every cell is uniform against that cell and the pieces before it, so
  against it too.  This is Hopcroft's "all but one" (1971), leaving out the
  last piece rather than the largest so that every split happens as before.
  A splitter reaches the cells it can split, the non-singleton ones its
  neighbours meet, through ``start``.  Refinement stops once the cells are
  discrete, as no splitter splits a singleton.
- Leaves with equal keys give an automorphism (McKay & Piperno, JSC 2014).  A
  node skips, or leaves, a child in the orbit of a searched one under the
  automorphisms found that fix the node's individualised vertices; refinement
  is label-equivariant, so these map searched subtrees onto skipped ones with
  equal leaf keys.

Horton (96 vertices), one Xeon core: 27 leaves, 0.015 s (0.025 s with a list
of cell masks, 0.05 s with list cells); 2,016 unpruned.

This is the general route: it names braces, the oracle's classes and the
records ``barnette verify`` reads.  The generator rejects duplicates and
names its records by their planar code alone
(``embedding.planar_code_and_automorphisms``), so this form is an
independent witness for it.
"""

from __future__ import annotations

from .graphs import BipartiteGraph, GraphError, bits
from .io import adjacency_bits as _adjacency_key, graph6_from_bitstring

SEARCH_DEPTH_CAP = 256  # vertices one search path individualises, one frame each; read at call time


def _refine(g: BipartiteGraph, at: list[int], start: list[int], todo: int) -> None:
    """Equitable refinement: split cells by neighbour counts into other cells.

    Applies the cells whose starts are marked in ``todo``, lowest first, and
    splits ``at`` and ``start`` in place.  An unmarked cell must be applied
    already, or be the last piece of an applied cell whose other pieces are
    marked.
    """
    adj = g.adj
    multi = sum(cell for cell in at if cell & (cell - 1))  # non-singleton cells
    while multi and todo:
        first = todo & -todo
        todo ^= first
        splitter = at[first.bit_length() - 1]
        # ge[k]: the vertices of non-singleton cells, the only ones that can
        # split, with more than k neighbours in the splitter; the last level,
        # 0, closes the last piece
        ge, rest = [0], splitter
        while rest:
            v = rest & -rest
            rest ^= v
            a = adj[v.bit_length() - 1] & multi
            for k, level in enumerate(ge):
                ge[k] = level | a
                a &= level
                if not a:
                    break
            else:
                ge.append(a)
        touched = ge[0]
        ge.append(0)
        while touched:
            s = start[(touched & -touched).bit_length() - 1]
            rest = cell = at[s]
            touched &= ~cell
            p, marked = s, todo >> s & 1
            for level in ge:  # the pieces in count order from s
                piece = rest & ~level
                if not piece:
                    continue
                if piece == cell:  # one piece: no split
                    break
                rest &= level
                at[p] = piece
                # the last piece of an applied cell stays unmarked
                todo |= (1 if rest else marked) << p
                if not piece & (piece - 1):
                    multi ^= piece
                if p != s:
                    q = piece
                    while q:
                        v = q & -q
                        start[v.bit_length() - 1] = p
                        q ^= v
                if not rest:
                    break
                p += piece.bit_count()


def _root(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _merge(parent: list[int], gamma: dict[int, int]) -> None:
    """Join the orbits in union-find ``parent`` along the cycles of gamma."""
    for v, w in gamma.items():
        parent[_root(parent, v)] = _root(parent, w)


def canonical_form(g: BipartiteGraph) -> str:
    """Canonical graph6 string; equal strings iff isomorphic graphs.

    Raises GraphError when a search path would individualise more than
    `SEARCH_DEPTH_CAP` vertices; class members to n = 24 need 3, the catalog 6.
    """
    if g.n == 0:
        return graph6_from_bitstring(0, b"")
    leaves: dict[bytes, list[int]] = {}  # leaf key -> first labelling giving it
    autos: list[dict[int, int]] = []  # automorphisms found, on the vertices they move
    fixed: list[int] = []  # the current node's individualised vertices
    path: list[list[int]] = []  # per ancestor depth: union-find of its orbits

    def search(at: list[int], start: list[int], t: int) -> int:
        """Search below the current node, whose cells before ``t`` are
        singletons; return the depth where search goes on."""
        t = next((p for p in range(t, g.n) if at[p] & (at[p] - 1)), None)
        if t is None:
            perm = [cell.bit_length() - 1 for cell in at]
            first = leaves.setdefault(_adjacency_key(g, perm), perm)
            if first is perm:
                return len(fixed) - 1
            gamma = {a: b for a, b in zip(first, perm) if a != b}
            autos.append(gamma)
            # gamma maps the searched branch at the first vertex it moves onto this one
            depth = next(d for d, v in enumerate(fixed) if v in gamma)
            for orbits in path[: depth + 1]:
                _merge(orbits, gamma)
            return depth
        if len(fixed) >= SEARCH_DEPTH_CAP:
            raise GraphError(f"canonical form would individualise more than {SEARCH_DEPTH_CAP} vertices")
        orbits = list(range(g.n))
        for gamma in autos:
            if gamma.keys().isdisjoint(fixed):
                _merge(orbits, gamma)
        path.append(orbits)
        depth, target, explored = len(fixed), at[t], []
        for v in bits(target):
            root = _root(orbits, v)
            if any(_root(orbits, u) == root for u in explored):
                continue
            explored.append(v)
            fixed.append(v)
            child_at, child_start = at[:], start[:]  # v's cell, then the rest of target
            child_at[t], child_at[t + 1] = 1 << v, target ^ 1 << v
            for w in bits(target ^ 1 << v):
                child_start[w] = t + 1
            _refine(g, child_at, child_start, 1 << t)  # target was applied: its last piece stays unmarked
            resume = search(child_at, child_start, t + 1)
            fixed.pop()
            if resume < depth:
                break
        path.pop()
        return min(resume, depth - 1)

    at, start = [g.full_mask] + [0] * (g.n - 1), [0] * g.n
    _refine(g, at, start, 1)
    search(at, start, 0)
    return graph6_from_bitstring(g.n, min(leaves))
