"""Brute-force oracles used to audit the main engines.

The class counts enumerate biadjacency matrices row by row and de-duplicate
through ``canon.canonical_form``, a kernel the generator does not use.
The small Pfaffian and tightness verdicts try every orientation or perfect
matching and share no logic with the solver.  Slow and bounded on purpose.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .canon import canonical_form
from .embedding import embed_planar
from .graphs import BipartiteGraph, Cut, GraphError, is_connected, is_k_connected
from .matching import enumerate_perfect_matchings


def _matrices_with_line_sums_three(half: int) -> Iterator[tuple[int, ...]]:
    """Row bitmasks of half x half 0-1 matrices, all row and column sums 3.

    Symmetry reduction: the first row is fixed to columns {0,1,2} and rows
    are non-decreasing as integers; every matrix can be brought into this
    shape by row and column permutations, which are graph isomorphisms.
    """
    candidates = [
        sum(1 << c for c in cols) for cols in itertools.combinations(range(half), 3)
    ]
    colsum = [0] * half
    rows = [7]  # columns {0,1,2}
    for c in range(3):
        colsum[c] = 1

    def extend() -> Iterator[tuple[int, ...]]:
        i = len(rows)
        if i == half:
            if all(s == 3 for s in colsum):
                yield tuple(rows)
            return
        remaining = half - i
        for mask in candidates:
            if mask < rows[-1]:
                continue
            cols = [c for c in range(half) if mask >> c & 1]
            if any(colsum[c] >= 3 for c in cols):
                continue
            for c in cols:
                colsum[c] += 1
            if all(3 - colsum[c] <= remaining - 1 for c in range(half)):
                rows.append(mask)
                yield from extend()
                rows.pop()
            for c in cols:
                colsum[c] -= 1

    yield from extend()


def cubic_bipartite_classes(n: int) -> Iterator[BipartiteGraph]:
    """All connected cubic bipartite graphs on n vertices, up to isomorphism.

    Vertices 0..n/2-1 are the rows, the rest the columns.
    """
    if n % 2 != 0 or n < 8:
        raise GraphError("cubic bipartite graphs need an even order, at least 8")
    half = n // 2
    seen: set[str] = set()
    for rows in _matrices_with_line_sums_three(half):
        edges = tuple(
            (r, half + c)
            for r in range(half)
            for c in range(half)
            if rows[r] >> c & 1
        )
        g = BipartiteGraph(n, edges)
        if not is_connected(g):
            continue
        form = canonical_form(g)
        if form in seen:
            continue
        seen.add(form)
        yield g


def oracle_class_count(n: int) -> int:
    """Number of cubic, 3-connected, planar, bipartite graphs on n vertices."""
    count = 0
    for g in cubic_bipartite_classes(n):
        if not is_k_connected(g, 3):
            continue
        if embed_planar(g) is None:
            continue
        count += 1
    return count


def _orientation_is_pfaffian(
    g: BipartiteGraph, bits: int, cycles: list[tuple[int, ...]]
) -> bool:
    for cycle in cycles:
        co_directed = 0
        k = len(cycle)
        for i in range(k):
            a, b = cycle[i], cycle[(i + 1) % k]
            eid = g.edge_id(a, b)
            stored_forward = g.edges[eid] == (a, b)
            direction_forward = not (bits >> eid & 1)
            if stored_forward == direction_forward:
                co_directed += 1
        if co_directed % 2 == 0:
            return False
    return True


def pfaffian_by_enumeration(g: BipartiteGraph, max_edges: int = 20) -> bool:
    """Try all 2^m orientations; exponential, for cross-checking tiny graphs."""
    from .constructions import conformal_cycles

    if g.edge_count > max_edges:
        raise GraphError("orientation enumeration is capped at 2^20")
    cycles = [tuple(c) for c in conformal_cycles(g)]
    return any(
        _orientation_is_pfaffian(g, bits, cycles) for bits in range(1 << g.edge_count)
    )


def oracle_is_tight(g: BipartiteGraph, cut: Cut) -> bool:
    """Tightness by listing every perfect matching and counting crossings."""
    found = False
    for matching in enumerate_perfect_matchings(g):
        found = True
        if len(matching.edge_ids & cut.edge_ids) != 1:
            return False
    return found
