"""Brute-force oracles used to audit the main engines.

The class counts enumerate biadjacency matrices in doubly lexical order
(Lubiw, SIAM J. Comput. 1987) and de-duplicate through
``canon.canonical_form``, a kernel the generator does not use.  The class
count drops a matrix with fewer than six 4-cycles or with twins (two equal
rows or two equal columns), then a graph that is disconnected, non-planar
or not 3-connected, before any canonical form.  Both matrix filters are
exact.  A 2-connected plane cubic graph on n vertices has n/2 + 2 faces, so
Euler's formula gives sum(6 - |f|) = 12 over its faces, and as its faces
are distinct even cycles, at least six are 4-cycles.  Twins u, u' with
N(u) = N(u') = {c1, c2, c3} span a K2,3, whose plane embedding has three
faces u ci u' cj; for n >= 8 the other n - 5 vertices lie inside them, and
each face is entered only by the third edges of its two ci, so a part of
the graph is cut off by at most 2 edges: a graph with twins is non-planar
or not 3-connected.
The small Pfaffian verdict tries every orientation against the definition,
``constructions.is_oddly_oriented`` on every conformal cycle, and shares no
solver kernel with ``find_pfaffian_orientation``; the tightness verdict
lists every perfect matching.  Slow and bounded on purpose.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from .canon import canonical_form
from .constructions import conformal_cycles, is_oddly_oriented
from .embedding import embed_planar
from .graphs import BipartiteGraph, Cut, GraphError, is_connected, is_k_connected
from .matching import enumerate_perfect_matchings


def _matrices_with_line_sums_three(half: int) -> Iterator[tuple[int, ...]]:
    """Row bitmasks of half x half 0-1 matrices, all line sums 3, whose rows
    (column 0 most significant) and columns (row 0 most significant) are
    both non-increasing; bit c of a row is column c.

    Every real matrix has such a doubly lexical ordering (Lubiw, SIAM J.
    Comput. 16, 1987; reversing both orders or negating the entries carries
    one convention into another), and row and column permutations are
    isomorphisms, so every cubic bipartite graph has a matrix here.  A class
    may have several, so callers de-duplicate through ``canonical_form``.
    Column prefixes are non-increasing too: bit c of ``tied`` says columns
    c and c + 1 agree so far, so the next row may not put 0 in c and 1 in
    c + 1.  ``sums`` holds the columns whose sums have reached 1, 2 and 3.
    """
    candidates = [  # the 3-subsets of columns, as rows in non-increasing order
        sum(1 << c for c in cols) for cols in itertools.combinations(range(half), 3)
    ]
    every = (1 << half) - 1
    rows: list[int] = []

    def extend(start: int, tied: int, sums: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        left = half - len(rows)
        if not left:
            yield tuple(rows)
            return
        ones, twos, full = sums
        for k in range(start, len(candidates)):
            mask = candidates[k]
            if mask & full or mask >> 1 & ~mask & tied:
                continue
            placed = (ones | mask, twos | ones & mask, full | twos & mask)
            if left > 3 or placed[3 - left] == every:  # every sum can reach 3
                rows.append(mask)
                yield from extend(k, tied & ~(mask ^ mask >> 1), placed)
                rows.pop()

    yield from extend(0, every >> 1, (0, 0, 0))


def _check_order(n: int) -> None:
    if n % 2 != 0 or n < 8:
        raise GraphError("cubic bipartite graphs need an even order, at least 8")


def _matrix_graph(rows: tuple[int, ...]) -> BipartiteGraph:
    """The graph of a square 0-1 matrix: rows are vertices 0..h-1, columns h..2h-1."""
    half = len(rows)
    edges = tuple(
        (r, half + c) for r in range(half) for c in range(half) if rows[r] >> c & 1
    )
    return BipartiteGraph(2 * half, edges)


def _four_cycles(rows: tuple[int, ...]) -> int:
    """4-cycles of a matrix's graph: each is a row pair and two common columns."""
    return sum(math.comb((a & b).bit_count(), 2) for a, b in itertools.combinations(rows, 2))


def _has_twins(rows: tuple[int, ...]) -> bool:
    """Does a doubly lexical matrix have two equal rows or two equal columns?

    Equal lines are adjacent in that order, and columns c and c + 1 are
    equal when no row sets bit c of r ^ r >> 1, the enumerator's ``tied``
    test.
    """
    if any(a == b for a, b in zip(rows, rows[1:])):
        return True
    tied = (1 << len(rows) - 1) - 1
    split = 0
    for r in rows:
        split |= r ^ r >> 1
    return split & tied != tied


def cubic_bipartite_classes(n: int) -> Iterator[BipartiteGraph]:
    """All connected cubic bipartite graphs on n vertices, up to isomorphism.

    Vertices 0..n/2-1 are the rows, the rest the columns.
    """
    _check_order(n)
    seen: set[str] = set()
    for rows in _matrices_with_line_sums_three(n // 2):
        g = _matrix_graph(rows)
        if not is_connected(g):
            continue
        form = canonical_form(g)
        if form in seen:
            continue
        seen.add(form)
        yield g


def oracle_class_count(n: int) -> int:
    """Number of cubic, 3-connected, planar, bipartite graphs on n vertices.

    A matrix is dropped before its graph is built when it has fewer than
    six 4-cycles (a class member has at least six quadrilateral faces, by
    Euler's formula) or twins (two vertices with the same three neighbours
    span a K2,3 whose faces leave a cut of at most 2 edges, so the graph is
    non-planar or not 3-connected).  Connectivity, planarity and
    3-connectivity follow, and ``canonical_form`` de-duplicates only the
    survivors.
    """
    _check_order(n)
    forms: set[str] = set()
    for rows in _matrices_with_line_sums_three(n // 2):
        if _four_cycles(rows) < 6 or _has_twins(rows):
            continue
        g = _matrix_graph(rows)
        if is_connected(g) and embed_planar(g) is not None and is_k_connected(g, 3):
            forms.add(canonical_form(g))
    return len(forms)


_MAX_ORIENTED_EDGES = 20


def pfaffian_by_enumeration(g: BipartiteGraph) -> bool:
    """Try all 2^m orientations; exponential, for cross-checking tiny graphs."""
    if g.edge_count > _MAX_ORIENTED_EDGES:
        raise GraphError(f"orientation enumeration is capped at 2^{_MAX_ORIENTED_EDGES}")
    cycles = conformal_cycles(g)
    return any(
        all(is_oddly_oriented(g, o, c) for c in cycles)
        for o in itertools.product((0, 1), repeat=g.edge_count)
    )


def oracle_is_tight(g: BipartiteGraph, cut: Cut) -> bool:
    """Tightness by listing every perfect matching and counting crossings."""
    found = False
    for matching in enumerate_perfect_matchings(g):
        found = True
        if len(matching.edge_ids & cut.edge_ids) != 1:
            return False
    return found
