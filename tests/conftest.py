import itertools
import random
from typing import Iterator, Optional

import pytest
from hypothesis import settings

from barnette.catalog import catalog
from barnette.embedding import RotationEmbedding
from barnette.graphs import BipartiteGraph, is_connected, vertex_mask, with_colouring

settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture(scope="session")
def cube():
    return catalog("cube").graph


@pytest.fixture(scope="session")
def cube_rotation():
    return catalog("cube").rotation


@pytest.fixture(scope="session")
def k33():
    return catalog("k33").graph


@pytest.fixture(scope="session")
def heawood():
    return catalog("heawood").graph


@pytest.fixture(scope="session")
def asano():
    return catalog("asano")


@pytest.fixture(scope="session")
def c6():
    return with_colouring(
        BipartiteGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
    )


@pytest.fixture(scope="session")
def generated_16():
    from barnette.generator import generate

    return list(generate(16))


def random_graph(rng: random.Random, n: int) -> BipartiteGraph:
    """A G(n, p) graph with p itself drawn uniformly."""
    p = rng.random()
    return BipartiteGraph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p))


def random_edge_pair(g: BipartiteGraph, rng: random.Random):
    """Two edges with four distinct endpoints, for the general expansion."""
    while True:
        e = rng.randrange(g.edge_count)
        f = rng.randrange(g.edge_count)
        if e != f and not set(g.edges[e]) & set(g.edges[f]):
            return e, f


# The enumerator the oracle used before its doubly lexical one: rows sorted,
# columns free.  Kept verbatim as the reference the new one must match.
def reference_matrices_with_line_sums_three(half: int) -> Iterator[tuple[int, ...]]:
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


# The planarity test embed_planar ran before its path-addition embedder:
# networkx's left-right test.  Kept as the reference that shares no code
# with the package's embedder.
def nx_embed_planar(g: BipartiteGraph) -> Optional[RotationEmbedding]:
    """A planar rotation system, or None for non-planar input."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    ok, cert = nx.check_planarity(G)
    if not ok:
        return None
    return RotationEmbedding(
        tuple(tuple(g.edge_id(v, w) for w in cert.neighbors_cw_order(v)) for v in range(g.n))
    )


def k_connected_by_subsets(g: BipartiteGraph, k: int) -> bool:
    """k-connectivity for k in 1..3, by deleting every vertex subset of
    size below k: the reference for ``graphs.is_k_connected``."""
    if not is_connected(g) or any(g.degree(v) < k for v in range(g.n)):
        return False
    return all(
        is_connected(g, vertex_mask(sub))
        for size in range(1, k)
        for sub in itertools.combinations(range(g.n), size)
    )
