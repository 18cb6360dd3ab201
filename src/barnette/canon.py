"""Canonical forms for small graphs via refinement and individualization.

The canonical form of a graph is the lexicographically smallest graph6 string
over all vertex labellings, computed by equitable partition refinement with
backtracking over the refined orbits.  Colourings are deliberately ignored so
that isomorphism is plain graph isomorphism.  Intended for n up to roughly 64.

This is the general route: it serves non-planar input (braces, the oracles)
and verification (``generator.verify_record``).  The generator rejects its
duplicates by ``embedding.planar_code`` instead and asks for this form only
once per admitted class.
"""

from __future__ import annotations

from typing import Optional

from .graphs import BipartiteGraph
from .io import graph6_from_bitstring


def _refine(g: BipartiteGraph, cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement: split cells by neighbour counts into other cells."""
    cells = [list(c) for c in cells]
    queue = list(range(len(cells)))
    while queue:
        idx = queue.pop(0)
        if idx >= len(cells):
            continue
        splitter = cells[idx]
        smask = 0
        for v in splitter:
            smask |= 1 << v
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            by_count: dict[int, list[int]] = {}
            for v in cell:
                c = bin(g.adj[v] & smask).count("1")
                by_count.setdefault(c, []).append(v)
            if len(by_count) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for c in sorted(by_count):
                    new_cells.append(by_count[c])
        if changed:
            cells = new_cells
            queue = list(range(len(cells)))
    return cells


def _adjacency_key(g: BipartiteGraph, perm: list[int]) -> bytes:
    """Upper-triangle adjacency bits (graph6 bit order) under labelling perm.

    perm[new_label] = old vertex.
    """
    pos = [0] * g.n
    for new, old in enumerate(perm):
        pos[old] = new
    n = g.n
    nbits = n * (n - 1) // 2
    buf = bytearray((nbits + 7) // 8)
    for u, v in g.edges:
        i, j = pos[u], pos[v]
        if i > j:
            i, j = j, i
        b = j * (j - 1) // 2 + i
        buf[b >> 3] |= 0x80 >> (b & 7)
    return bytes(buf)


def _search(g: BipartiteGraph, cells: list[list[int]], best: list[Optional[bytes]]) -> None:
    target = None
    for cell in cells:
        if len(cell) > 1:
            target = cell
            break
    if target is None:
        perm = [cell[0] for cell in cells]
        key = _adjacency_key(g, perm)
        if best[0] is None or key < best[0]:
            best[0] = key
        return
    for v in sorted(target):
        new_cells = []
        for cell in cells:
            if cell is target:
                new_cells.append([v])
                new_cells.append([w for w in cell if w != v])
            else:
                new_cells.append(cell)
        _search(g, _refine(g, new_cells), best)


def canonical_form(g: BipartiteGraph) -> str:
    """Canonical graph6 string; equal strings iff isomorphic graphs."""
    if g.n == 0:
        return graph6_from_bitstring(0, b"")
    cells = _refine(g, [list(range(g.n))])
    best: list[Optional[bytes]] = [None]
    _search(g, cells, best)
    assert best[0] is not None
    return graph6_from_bitstring(g.n, best[0])


def are_isomorphic(g: BipartiteGraph, h: BipartiteGraph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return canonical_form(g) == canonical_form(h)
