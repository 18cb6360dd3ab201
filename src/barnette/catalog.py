"""Named reference graphs with their documented properties.

Each entry carries a graph, a provenance note, and the properties the entry
is expected to satisfy; the test suite re-derives every recorded property
with the corresponding engine, so the catalog is self-validating.  Some
entries also carry marked structure: the cube ships a planar rotation system
(the generator's seed), the 26-vertex and 14-vertex examples ship the tight
cut and obstructed path they are known for, and the Horton graph records the
shores of its three splicing cuts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

from .constructions import splice
from .embedding import RotationEmbedding
from .graphs import BipartiteGraph, Cut, GraphError


class CatalogError(GraphError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    graph: BipartiteGraph
    provenance: str
    expected_properties: dict[str, bool] = field(default_factory=dict)
    rotation: Optional[RotationEmbedding] = None
    marked_cut: Optional[Cut] = None
    marked_path: Optional[tuple[int, ...]] = None
    splice_shores: Optional[tuple[frozenset[int], ...]] = None


def _cube_graph() -> BipartiteGraph:
    edges = (
        (0, 1), (1, 2), (2, 3), (0, 3),
        (4, 5), (5, 6), (6, 7), (4, 7),
        (0, 4), (1, 5), (2, 6), (3, 7),
    )
    return BipartiteGraph(8, edges)


def _cube_rotation(g: BipartiteGraph) -> RotationEmbedding:
    # counterclockwise neighbour orders for the nested-squares drawing
    neighbour_rotation = {
        0: (1, 4, 3),
        1: (2, 5, 0),
        2: (3, 6, 1),
        3: (2, 0, 7),
        4: (5, 7, 0),
        5: (6, 4, 1),
        6: (2, 7, 5),
        7: (6, 3, 4),
    }
    rotation = tuple(
        tuple(g.edge_id(v, w) for w in neighbour_rotation[v]) for v in range(g.n)
    )
    return RotationEmbedding(rotation)


def _cube() -> CatalogEntry:
    g = _cube_graph()
    return CatalogEntry(
        name="cube",
        graph=g,
        provenance="the 3-dimensional hypercube; smallest cubic 3-connected "
        "planar bipartite graph",
        expected_properties={
            "cubic": True,
            "planar": True,
            "three_connected": True,
            "hamiltonian": True,
            "brace": True,
            "pfaffian": True,
            "p4_hamiltonian": True,
            "p5_hamiltonian": False,
        },
        rotation=_cube_rotation(g),
    )


def _c4() -> CatalogEntry:
    g = BipartiteGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    return CatalogEntry(
        name="c4",
        graph=g,
        provenance="the 4-cycle, the degenerate brace",
        expected_properties={
            "planar": True,
            "hamiltonian": True,
            "brace": True,
            "pfaffian": True,
        },
    )


def _k33() -> CatalogEntry:
    g = BipartiteGraph(6, tuple((a, b) for a in range(3) for b in range(3, 6)))
    return CatalogEntry(
        name="k33",
        graph=g,
        provenance="complete bipartite K3,3, the canonical non-Pfaffian brace",
        expected_properties={
            "cubic": True,
            "planar": False,
            "hamiltonian": True,
            "brace": True,
            "pfaffian": False,
            "p5_hamiltonian": True,
        },
    )


def _heawood() -> CatalogEntry:
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(0, 5), (1, 10), (2, 7), (3, 12), (4, 9), (6, 11), (8, 13)]
    g = BipartiteGraph(14, tuple((min(a, b), max(a, b)) for a, b in edges))
    return CatalogEntry(
        name="heawood",
        graph=g,
        provenance="the Heawood graph, the unique non-planar Pfaffian brace "
        "not arising from trisums (McCuaig; Robertson, Seymour, Thomas)",
        expected_properties={
            "cubic": True,
            "planar": False,
            "three_connected": True,
            "hamiltonian": True,
            "brace": True,
            "pfaffian": True,
        },
    )


_GADGET_EDGES = (
    (0, 1), (0, 2), (1, 3), (1, 5), (2, 3), (2, 6),
    (3, 4), (4, 5), (4, 6), (5, 7), (6, 7),
)


def _asano() -> CatalogEntry:
    # hubs 0 and 1; gadget i occupies 2+8i .. 9+8i, attached at its first
    # vertex to hub 0 and at its last to hub 1
    a, b = 0, 1
    edges: list[tuple[int, int]] = []
    for i in range(3):
        base = 2 + 8 * i
        edges += [(base + x, base + y) for x, y in _GADGET_EDGES]
        edges.append((a, base))
        edges.append((base + 7, b))
    g = BipartiteGraph(26, tuple((min(x, y), max(x, y)) for x, y in edges))
    shore = frozenset({a} | set(range(2, 10)))
    return CatalogEntry(
        name="asano",
        graph=g,
        provenance="the 26-vertex graph of Asano, Exoo, Harary and Saito: "
        "smallest non-Hamiltonian cubic 2-connected planar bipartite graph",
        expected_properties={
            "cubic": True,
            "planar": True,
            "three_connected": False,
            "hamiltonian": False,
            "brace": False,
            "pfaffian": True,
        },
        marked_cut=Cut.from_shore(g, shore),
    )


def _p5_example() -> CatalogEntry:
    # vertex ids: V1 V2 V4 = 0 1 2, U1..U4 = 3..6, W1 W2 W4 = 7 8 9,
    # A1..A4 = 10..13
    edges = (
        (0, 1), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6),
        (0, 3), (1, 4), (2, 6),
        (7, 8), (7, 13), (8, 9), (11, 12), (12, 13), (10, 13),
        (10, 11), (8, 10), (9, 11),
        (1, 9), (2, 7), (5, 12),
    )
    g = BipartiteGraph(14, edges)
    return CatalogEntry(
        name="p5_example",
        graph=g,
        provenance="a 14-vertex cubic 3-connected planar bipartite graph "
        "that is not P5-Hamiltonian: its marked tight cut blocks the marked "
        "5-vertex path from lying on any Hamiltonian cycle",
        expected_properties={
            "cubic": True,
            "planar": True,
            "three_connected": True,
            "hamiltonian": True,
            "brace": False,
            "p4_hamiltonian": True,
            "p5_hamiltonian": False,
        },
        marked_cut=Cut.from_shore(g, frozenset(range(7))),
        marked_path=(5, 12, 13, 7, 2),
    )


def _b_horton_graph() -> BipartiteGraph:
    edges: list[tuple[int, int]] = []
    for off in (0, 16):
        edges += [(off + i, off + i + 1) for i in range(7)]
        edges += [(off + i, off + i + 1) for i in range(8, 15)]
        edges += [
            (off + a, off + b)
            for a, b in (
                (0, 5), (1, 12), (2, 7), (3, 14),
                (4, 9), (6, 11), (8, 13), (10, 15),
            )
        ]
    edges += [(8, 23), (0, 31), (7, 16), (15, 24)]
    return BipartiteGraph(32, tuple((min(a, b), max(a, b)) for a, b in edges))


def _b_horton() -> CatalogEntry:
    return CatalogEntry(
        name="b_horton",
        graph=_b_horton_graph(),
        provenance="the 32-vertex brace from Horton's construction: two "
        "chorded-path pieces joined by four cross edges",
        expected_properties={
            "cubic": True,
            "planar": False,
            "three_connected": True,
            "hamiltonian": True,
            "brace": True,
            "p2_hamiltonian": True,
            "pfaffian": False,
        },
    )


def _horton() -> CatalogEntry:
    k33 = _k33().graph
    bh = _b_horton_graph()
    g = k33
    targets = [3, 4, 5]  # one full colour class of K3,3
    shores: list[frozenset[int]] = []
    for t in range(3):
        s = splice(g, targets[t], bh, 0)
        shores = [frozenset(s.map1[x] for x in sh) for sh in shores]
        for t2 in range(t + 1, 3):
            targets[t2] = s.map1[targets[t2]]
        shores.append(frozenset(s.map2[w] for w in range(bh.n) if w != 0))
        g = s.graph
    return CatalogEntry(
        name="horton",
        graph=g,
        provenance="the Horton graph on 96 vertices: K3,3 with a copy of "
        "the 32-vertex brace spliced into each vertex of one colour class",
        expected_properties={
            "cubic": True,
            "planar": False,
            "three_connected": True,
        },
        splice_shores=tuple(shores),
    )


_BUILDERS = {
    "cube": _cube,
    "c4": _c4,
    "k33": _k33,
    "heawood": _heawood,
    "asano": _asano,
    "p5_example": _p5_example,
    "b_horton": _b_horton,
    "horton": _horton,
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


@functools.lru_cache(maxsize=None)
def catalog(name: str) -> CatalogEntry:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise CatalogError(
            f"unknown catalog entry {name!r}; available: {', '.join(_BUILDERS)}"
        ) from None
    return builder()
