"""Core graph types: simple graphs with bitset adjacency, stable edge ids, 2-colourings.

Vertices are 0..n-1.  Every graph is 2-coloured once, when it is built: its
``colour`` is present exactly when it is bipartite.  Edges are stored as a
tuple of (u, v) pairs with u < v; the index of an edge in that tuple is its
edge id.  Edge ids are dense and stable: every operation that derives a new
graph documents how ids map.  Vertex subsets are passed around as int
bitmasks throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Optional, Sequence


class GraphError(ValueError):
    """Raised for malformed graph data or violated preconditions."""


def bits(mask: int) -> Iterable[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable simple graph with its proper 2-colouring when it is bipartite.

    The type admits any simple graph.  ``colour`` holds values 'A' and 'B'
    and is present exactly when the graph is bipartite: explicit colours are
    validated, and a graph built without them gets the breadth-first one
    that `_two_colour` gives, the least vertex of each component 'A'.
    Operations that need the colouring raise GraphError on an odd cycle.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    colour: Optional[tuple[str, ...]] = None
    # Derived structures, computed once at construction.
    adj: tuple[int, ...] = field(init=False, repr=False, compare=False)
    neighbours: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    incident: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("vertex count must be non-negative")
        edges = tuple((min(u, v), max(u, v)) for u, v in self.edges)
        adj = [0] * self.n
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(edges):
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={self.n}")
            if adj[u] >> v & 1:
                raise GraphError(f"parallel edge ({u}, {v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            nbrs[u].append(v)
            nbrs[v].append(u)
            inc[u].append(eid)
            inc[v].append(eid)
        if self.colour is None:
            colour = _two_colour(nbrs)
        else:
            colour = tuple(self.colour)
            if len(colour) != self.n:
                raise GraphError("colour tuple length differs from vertex count")
            if any(c not in ("A", "B") for c in colour):
                raise GraphError("colours must be 'A' or 'B'")
            for u, v in edges:
                if colour[u] == colour[v]:
                    raise GraphError(f"edge ({u}, {v}) joins equal colours")
        object.__setattr__(self, "colour", colour)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "neighbours", tuple(tuple(x) for x in nbrs))
        object.__setattr__(self, "incident", tuple(tuple(x) for x in inc))

    # ----- basic accessors -----

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return len(self.neighbours[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edge_id(self, u: int, v: int) -> int:
        """Id of edge {u, v}; raises GraphError if absent."""
        key = (min(u, v), max(u, v))
        eid = self._edge_index().get(key)
        if eid is None:
            raise GraphError(f"no edge {key}")
        return eid

    def _edge_index(self) -> dict[tuple[int, int], int]:
        idx = getattr(self, "_edge_index_cache", None)
        if idx is None:
            idx = {e: i for i, e in enumerate(self.edges)}
            object.__setattr__(self, "_edge_index_cache", idx)
        return idx

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.edges[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"vertex {v} not on edge {eid}")

    def is_regular(self, d: int) -> bool:
        return all(len(nb) == d for nb in self.neighbours)

    def _classes(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """Class A, class B and the mask of class A, computed once per graph."""
        cached = getattr(self, "_classes_cache", None)
        if cached is None:
            self._require_colour()
            a_class = tuple(v for v in range(self.n) if self.colour[v] == "A")
            b_class = tuple(v for v in range(self.n) if self.colour[v] == "B")
            cached = (a_class, b_class, vertex_mask(a_class))
            object.__setattr__(self, "_classes_cache", cached)
        return cached

    def class_a(self) -> tuple[int, ...]:
        return self._classes()[0]

    def class_b(self) -> tuple[int, ...]:
        return self._classes()[1]

    def _require_colour(self) -> None:
        if self.colour is None:
            raise GraphError("graph is not bipartite")

    def colour_mask(self, c: str) -> int:
        """Mask of colour class c, 'A' or 'B'."""
        a_mask = self._classes()[2]
        return a_mask if c == "A" else self.full_mask ^ a_mask

    def relabel(self, perm: Sequence[int]) -> "BipartiteGraph":
        """Graph with vertex v renamed to perm[v]; edge ids follow sorted order of new pairs."""
        if sorted(perm) != list(range(self.n)):
            raise GraphError("perm is not a permutation of the vertices")
        new_edges = sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in self.edges
        )
        new_colour = None
        if self.colour is not None:
            nc = [""] * self.n
            for v in range(self.n):
                nc[perm[v]] = self.colour[v]
            new_colour = tuple(nc)
        return BipartiteGraph(self.n, tuple(new_edges), new_colour)


@dataclass(frozen=True)
class Cut:
    """An edge cut delta(X) given by its shore X (bitmask) and its edge ids.

    ``edge_ids`` is always exactly the set of edges with one endpoint in the
    shore: every cut is built by ``from_shore``, which computes it, and no
    other module calls the constructor (a test checks this).  A cut carried
    to a new graph is rebuilt from its shore.
    """

    shore: int
    edge_ids: frozenset[int]
    n: int

    @classmethod
    def from_shore(cls, g: BipartiteGraph, shore: int | Iterable[int]) -> "Cut":
        mask = shore if isinstance(shore, int) else vertex_mask(shore)
        if mask <= 0 or mask >= g.full_mask:
            raise GraphError("cut shore must be a proper non-empty vertex subset")
        ids = frozenset(
            eid for eid, (u, v) in enumerate(g.edges) if (mask >> u & 1) != (mask >> v & 1)
        )
        return cls(mask, ids, g.n)

    def complement_mask(self) -> int:
        return ((1 << self.n) - 1) ^ self.shore

    @property
    def is_trivial(self) -> bool:
        return self.shore.bit_count() == 1 or self.complement_mask().bit_count() == 1


def vertex_mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# ----- connectivity -----


def connected_components(
    g: BipartiteGraph,
    removed_mask: int = 0,
    edge_skip: Container[int] = (),
) -> list[int]:
    """Component bitmasks of g with vertices in ``removed_mask`` and edges in
    ``edge_skip`` deleted."""
    alive = g.full_mask & ~removed_mask
    comps = []
    todo = alive
    while todo:
        start = (todo & -todo).bit_length() - 1
        comp = 1 << start
        frontier = [start]
        while frontier:
            v = frontier.pop()
            if edge_skip:
                fresh = 0
                for eid in g.incident[v]:
                    if eid not in edge_skip:
                        fresh |= 1 << g.other_end(eid, v)
                fresh &= alive & ~comp
            else:
                fresh = g.adj[v] & alive & ~comp
            comp |= fresh
            frontier.extend(bits(fresh))
        comps.append(comp)
        todo &= ~comp
    return comps


def is_connected(g: BipartiteGraph, removed_mask: int = 0) -> bool:
    return len(connected_components(g, removed_mask)) <= 1


def blocks(g: BipartiteGraph, removed_mask: int = 0) -> list[list[int]]:
    """The blocks of g with the vertices in ``removed_mask`` deleted, each as
    its edge ids (Hopcroft & Tarjan, CACM 1973).

    One depth-first search keeps its tree edges and back edges on a stack
    and each vertex's lowpoint, the least discovery time reachable from its
    subtree by one back edge.  When a child w of v finishes with lowpoint at
    least v's discovery time, v separates w's subtree, and the stack down to
    the edge vw is one block.  The search keeps its own stack of frames, so
    deep input raises no RecursionError.  A bridge is a block of one edge;
    an isolated vertex lies in no block.
    """
    disc = [0] * g.n  # discovery time from 1; 0 means unvisited
    low = [0] * g.n
    out: list[list[int]] = []
    edges: list[int] = []
    clock = 0
    for root in range(g.n):
        if disc[root] or removed_mask >> root & 1:
            continue
        clock += 1
        disc[root] = low[root] = clock
        # (vertex, its tree edge, that edge's index in ``edges``, its unscanned edges)
        frames = [(root, -1, 0, iter(g.incident[root]))]
        while frames:
            v, parent_edge, at, todo = frames[-1]
            for e in todo:
                w = g.other_end(e, v)
                if e == parent_edge or removed_mask >> w & 1:
                    continue
                if not disc[w]:
                    clock += 1
                    disc[w] = low[w] = clock
                    frames.append((w, e, len(edges), iter(g.incident[w])))
                    edges.append(e)
                    break
                if disc[w] < disc[v]:  # a back edge to an ancestor
                    edges.append(e)
                    low[v] = min(low[v], disc[w])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        out.append(edges[at:])
                        del edges[at:]
    return out


def is_k_connected(g: BipartiteGraph, k: int) -> bool:
    """k-connectivity for k in 1..3, from ``blocks``.

    Past the connectivity and degree checks no vertex is isolated, so for
    k = 2 g is 2-connected iff it has one block, and for k = 3 iff g - v has
    one block for every vertex v.
    """
    if k not in (1, 2, 3):
        raise GraphError("k must be between 1 and 3")
    if k > g.n - 1:
        raise GraphError("k must be at most n - 1")
    if not is_connected(g):
        return False
    if any(g.degree(v) < k for v in range(g.n)):
        return False
    if k == 1:
        return True
    removals = (0,) if k == 2 else (1 << v for v in range(g.n))
    return all(len(blocks(g, mask)) == 1 for mask in removals)


# ----- 2-colouring -----


def _two_colour(nbrs: Sequence[Sequence[int]]) -> Optional[tuple[str, ...]]:
    """Breadth-first 2-colouring from neighbour lists, or None on an odd cycle.

    Components are coloured independently, the least vertex of each getting 'A'.
    """
    colour: list[Optional[str]] = [None] * len(nbrs)
    for start in range(len(nbrs)):
        if colour[start] is not None:
            continue
        colour[start] = "A"
        queue = [start]
        for v in queue:  # grows while it is read
            want = "B" if colour[v] == "A" else "A"
            for w in nbrs[v]:
                if colour[w] is None:
                    colour[w] = want
                    queue.append(w)
                elif colour[w] != want:
                    return None
    return tuple(colour)  # type: ignore[arg-type]


def with_colouring(g: BipartiteGraph) -> BipartiteGraph:
    """g itself, which carries its 2-colouring; raises if g is not bipartite."""
    g._require_colour()
    return g


def shore_colour_balance(g: BipartiteGraph, mask: int) -> int:
    """|X inter A| - |X inter B| for the vertex set given by ``mask``."""
    return (mask & g.colour_mask("A")).bit_count() - (mask & g.colour_mask("B")).bit_count()
