"""Canonical forms for small graphs via refinement and individualization.

The canonical form of a graph is the lexicographically smallest graph6 string
over the leaves of a search tree: equitable refinement, then each vertex of the
first non-singleton cell individualised in turn.  Colourings are ignored, so
isomorphism is plain graph isomorphism.  Two exact prunings cut the search:

- Refinement skips a splitter cell applied before: cells only get finer, so
  every cell stays uniform against it.
- Leaves with equal keys give an automorphism (McKay & Piperno, JSC 2014).  A
  node skips, or leaves, a child in the orbit of a searched one under the
  automorphisms found that fix the node's individualised vertices; refinement
  is label-equivariant, so these map searched subtrees onto skipped ones with
  equal leaf keys.

Horton (96 vertices), one x86-64 core: 27 leaves, under 0.1 s; 2,016 and 24 s unpruned.

This is the general route: it serves non-planar input (braces, the oracles)
and verification (``generator.verify_record``).  The generator rejects its
duplicates by ``embedding.planar_code`` instead and asks for this form only
once per admitted class.
"""

from __future__ import annotations

from .graphs import BipartiteGraph
from .io import adjacency_bits as _adjacency_key, graph6_from_bitstring


def _refine(g: BipartiteGraph, cells: list[list[int]], applied: set[int]):
    """Equitable refinement: split cells by neighbour counts into other cells.

    Applies the cells in order as splitters, pieces in increasing count
    order, and starts again from cell 0 after a split.  Returns the cells and
    a copy of ``applied``, the masks of splitters applied to them or coarser.
    """
    cells, applied = list(cells), set(applied)
    masks = [sum(1 << v for v in cell) for cell in cells]
    i = 0
    while i < len(cells):
        smask, splitter = masks[i], cells[i]
        i += 1
        if smask in applied:
            continue
        applied.add(smask)
        count: dict[int, int] = {}
        touched = 0  # only cells meeting the splitter's neighbours can split
        for v in splitter:
            touched |= g.adj[v]
            for w in g.neighbours[v]:
                count[w] = count.get(w, 0) + 1
        for j in reversed(range(len(cells))):  # a split shifts only later cells
            if masks[j] & touched and len(cells[j]) > 1:
                by_count: dict[int, list[int]] = {}
                for v in cells[j]:
                    by_count.setdefault(count.get(v, 0), []).append(v)
                if len(by_count) > 1:
                    cells[j : j + 1] = pieces = [by_count[c] for c in sorted(by_count)]
                    masks[j : j + 1] = [sum(1 << v for v in p) for p in pieces]
                    i = 0
    return cells, applied


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
    """Canonical graph6 string; equal strings iff isomorphic graphs."""
    if g.n == 0:
        return graph6_from_bitstring(0, b"")
    leaves: dict[bytes, list[int]] = {}  # leaf key -> first labelling giving it
    autos: list[dict[int, int]] = []  # automorphisms found, on the vertices they move
    fixed: list[int] = []  # the current node's individualised vertices
    path: list[list[int]] = []  # per ancestor depth: union-find of its orbits

    def search(cells: list[list[int]], applied: set[int]) -> int:
        """Search below the current node; return the depth where search goes on."""
        t = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if t is None:
            perm = [cell[0] for cell in cells]
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
        orbits = list(range(g.n))
        for gamma in autos:
            if gamma.keys().isdisjoint(fixed):
                _merge(orbits, gamma)
        path.append(orbits)
        depth, target, explored = len(fixed), cells[t], []
        for v in sorted(target):
            if any(_root(orbits, v) == _root(orbits, u) for u in explored):
                continue
            explored.append(v)
            fixed.append(v)
            child = cells[:t] + [[v], [w for w in target if w != v]] + cells[t + 1 :]
            resume = search(*_refine(g, child, applied))
            fixed.pop()
            if resume < depth:
                break
        path.pop()
        return min(resume, depth - 1)

    search(*_refine(g, [list(range(g.n))], set()))
    return graph6_from_bitstring(g.n, min(leaves))


def are_isomorphic(g: BipartiteGraph, h: BipartiteGraph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return canonical_form(g) == canonical_form(h)
