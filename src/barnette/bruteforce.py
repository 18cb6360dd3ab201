"""Brute-force oracles used to audit the main engines.

The class counts enumerate biadjacency matrices in doubly lexical order
(Lubiw, SIAM J. Comput. 1987) and de-duplicate through
``canon.canonical_form``, a kernel the generator does not use.  The class
count enumerates only matrices without twins (two equal rows or two equal
columns), drops one with fewer than six 4-cycles, then a graph that is
disconnected, non-planar or not 3-connected, before any canonical form.
Both matrix filters are exact.  A 2-connected plane cubic graph on n
vertices has n/2 + 2 faces, so Euler's formula gives sum(6 - |f|) = 12 over
its faces, and as its faces are distinct even cycles, at least six are
4-cycles.  Twins u, u' with N(u) = N(u') = {c1, c2, c3} span a K2,3, whose
plane embedding has three faces u ci u' cj; for n >= 8 the other n - 5
vertices lie inside them, and each face is entered only by the third edges
of its two ci, so a part of the graph is cut off by at most 2 edges: a
graph with twins is non-planar or not 3-connected.  3-connectivity is read
off the plane embedding's faces through its dual.
The small Pfaffian verdict tries every orientation against the definition,
``constructions.is_oddly_oriented`` on every conformal cycle, and shares no
solver kernel with ``find_pfaffian_orientation``; the tightness verdict
lists every perfect matching.  Slow and bounded on purpose.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .canon import canonical_form
from .constructions import conformal_cycles, is_oddly_oriented
from .embedding import RotationEmbedding, embed_planar, faces
from .graphs import BipartiteGraph, Cut, GraphError, is_connected
from .matching import enumerate_perfect_matchings


def _matrices_with_line_sums_three(half: int, twin_free: bool = False) -> Iterator[tuple[int, ...]]:
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

    With ``twin_free``, no two rows and no two columns are equal.  Equal
    lines are adjacent here, so each row comes strictly after its
    predecessor, and a row that fills a tied column pair is cut: full tied
    columns get no further 1, and so stay equal.
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
            now_tied = tied & ~(mask ^ mask >> 1)
            if twin_free and now_tied & placed[2]:
                continue
            if left > 3 or placed[3 - left] == every:  # every sum can reach 3
                rows.append(mask)
                yield from extend(k + 1 if twin_free else k, now_tied, placed)
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


def _six_four_cycles(rows: tuple[int, ...]) -> bool:
    """Does a matrix's graph have at least six 4-cycles?  Each is a row pair
    and two common columns, so two rows sharing k columns lie on
    comb(k, 2) = (0, 0, 1, 3)[k] of them; the count stops at the sixth."""
    count = 0
    for a, b in itertools.combinations(rows, 2):
        count += (0, 0, 1, 3)[(a & b).bit_count()]
        if count >= 6:
            return True
    return False


def _plane_three_connected(g: BipartiteGraph, emb: RotationEmbedding) -> bool:
    """Is a connected cubic graph with plane embedding ``emb`` 3-connected?

    The minimal edge cuts of a connected plane graph are the cycles of its
    dual: a bridge has one face on both sides (a dual loop), and a 2-edge
    cut is two edges with the same two faces (a dual 2-cycle).  A cubic
    graph's vertex and edge connectivity agree.
    """
    face_of = {dart: i for i, face in enumerate(faces(g, emb)) for dart in face}
    sides = {frozenset((face_of[u, e], face_of[v, e])) for e, (u, v) in enumerate(g.edges)}
    return len(sides) == g.edge_count and all(len(s) == 2 for s in sides)


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

    Only twin-free matrices are enumerated (twins span a K2,3 that leaves a
    cut of at most 2 edges or a non-planar graph), and one with fewer than
    six 4-cycles is dropped before its graph is built (Euler's formula).
    Connectivity and planarity follow.  3-connectivity is read off the faces
    of the embedding the planarity test returned: an edge cut is a cycle of
    the dual, so no edge may have one face twice and no two the same two.
    ``canonical_form`` de-duplicates only the survivors.
    """
    _check_order(n)
    forms: set[str] = set()
    for rows in _matrices_with_line_sums_three(n // 2, twin_free=True):
        if not _six_four_cycles(rows):
            continue
        g = _matrix_graph(rows)
        emb = embed_planar(g) if is_connected(g) else None
        if emb is not None and _plane_three_connected(g, emb):
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
