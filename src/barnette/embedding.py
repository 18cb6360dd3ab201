"""Combinatorial embeddings as rotation systems, face tracing, expansion sites.

A rotation system stores, for every vertex, the cyclic order of its incident
edge ids.  Faces are orbits of the dart successor rule: after traversing edge
e into vertex w, the walk leaves w along the successor of e in the rotation at
w.  A connected rotation system is planar iff V - E + F = 2.  The expansions
keep that equality by construction, and ``embed_planar`` returns the faces
its path addition built, unchecked; ``generator.verify_record`` (behind
``barnette verify``) and the tests check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import BipartiteGraph, GraphError, blocks, is_connected, vertex_mask

Dart = tuple[int, int]  # (vertex, edge id): leave vertex along edge


@dataclass(frozen=True)
class RotationEmbedding:
    """Cyclic edge-id order around each vertex."""

    rotation: tuple[tuple[int, ...], ...]

    def validate(self, g: BipartiteGraph) -> None:
        if len(self.rotation) != g.n:
            raise GraphError("rotation has wrong number of vertices")
        for v in range(g.n):
            if sorted(self.rotation[v]) != sorted(g.incident[v]):
                raise GraphError(f"rotation at vertex {v} is not its incident edges")

    def successor(self, v: int, eid: int) -> int:
        rot = self.rotation[v]
        return rot[(rot.index(eid) + 1) % len(rot)]


def next_dart(g: BipartiteGraph, emb: RotationEmbedding, dart: Dart) -> Dart:
    v, eid = dart
    w = g.other_end(eid, v)
    return (w, emb.successor(w, eid))


def faces(g: BipartiteGraph, emb: RotationEmbedding) -> list[tuple[Dart, ...]]:
    """All facial walks, each a tuple of darts, in deterministic order."""
    seen: set[Dart] = set()
    out: list[tuple[Dart, ...]] = []
    for eid, (u, v) in enumerate(g.edges):
        for start in ((u, eid), (v, eid)):
            if start in seen:
                continue
            walk = []
            dart = start
            while True:
                walk.append(dart)
                seen.add(dart)
                dart = next_dart(g, emb, dart)
                if dart == start:
                    break
            out.append(tuple(walk))
    return out


def face_vertices(face: tuple[Dart, ...]) -> tuple[int, ...]:
    return tuple(v for v, _ in face)


def euler_check(g: BipartiteGraph, emb: RotationEmbedding) -> bool:
    """V - E + F = 2 for a connected graph: the embedding is planar."""
    if g.n == 0 or not is_connected(g):
        return False
    emb.validate(g)
    f = len(faces(g, emb))
    return g.n - g.edge_count + f == 2


def planar_code_and_automorphisms(
    g: BipartiteGraph, emb: RotationEmbedding
) -> tuple[tuple[int, ...], list[int], list[tuple[int, ...]]]:
    """The planar code, the first tie's BFS order, and the automorphisms the
    ties give, from one scan.

    The code is the lexicographic minimum, over every dart (v, e) and both
    senses of the rotation, of a BFS code: v gets label 0; vertices are taken
    in label order, each walking its rotation from the edge it was first
    reached by (e for v), giving each new neighbour the next label and
    emitting every neighbour's label, then -1.  The code rebuilds the
    embedding, so equal codes mean isomorphic embeddings; a 3-connected
    planar graph has one embedding up to mirror image (Whitney), so there it
    decides graph isomorphism (Weinberg 1966; plantri's planar_code).  The
    code fixes every adjacency by label, so g relabelled by a minimal tie's
    BFS order (order[k] becomes k) is there a canonical form.

    Each (sense, dart) attaining the minimum is a tie.  With O1 the BFS
    order of the first tie and Oi that of tie i, O1[k] -> Oi[k] carries one
    labelling of the minimal code onto another, so it is an automorphism of
    the map (a mirror when the senses differ), and every automorphism sends
    the first tie to a tie.  On a 3-connected planar graph, where Whitney
    makes every automorphism one of these and distinct ties differ at a
    degree-3 rotation, the maps are the whole automorphism group, identity
    first; map[v] is the image of v.  ``generator.generate`` expands the
    first site of each orbit only: an orbit mate's candidate has the same
    code, so skipping it drops a duplicate and changes no record.
    """
    best: Optional[list[int]] = None
    orders: list[list[int]] = []
    for rot in (emb.rotation, tuple(r[::-1] for r in emb.rotation)):
        # walk[v, e]: (neighbour, edge) around v in rotation order from e
        walk = {}
        for v, r in enumerate(rot):
            ring = [(g.other_end(f, v), f) for f in r]
            for k, e in enumerate(r):
                walk[v, e] = ring[k:] + ring[:k]
        for v0, e0 in walk:
            found = _bfs_code(g.n, walk, v0, e0, best)
            if found is None:
                continue
            code, order = found
            if code == best:
                orders.append(order)
            else:
                best, orders = code, [order]
    # pairs (O1[k], Oi[k]) sorted by vertex list the images of 0, 1, ..., n-1
    maps = [tuple(w for _, w in sorted(zip(orders[0], order))) for order in orders]
    return tuple(best or ()), orders[0] if orders else [], maps


def _bfs_code(n: int, walk: dict, v0: int, e0: int, best: Optional[list[int]]) -> Optional[tuple[list, list]]:
    """The BFS code from dart (v0, e0) and its vertex order, or None as soon as the code exceeds best."""
    label = [-1] * n
    label[v0] = 0
    order, entry, code = [v0], [e0], []
    smaller = best is None
    i = 0
    while i < len(order):
        start = len(code)
        for w, f in walk[order[i], entry[i]]:
            if label[w] < 0:
                label[w] = len(order)
                order.append(w)
                entry.append(f)
            code.append(label[w])
        code.append(-1)
        if not smaller:
            chunk, ref = code[start:], best[start : len(code)]
            if chunk > ref:
                return None
            smaller = chunk < ref
        i += 1
    if len(order) < n:
        raise GraphError("planar code needs a connected graph")
    return code, order


def embed_planar(g: BipartiteGraph) -> Optional[RotationEmbedding]:
    """A planar rotation system, or None for non-planar input, for any simple graph.

    A graph is planar iff each of its blocks is, as blocks meet at most in
    a cut vertex (the block lemma).  Each block of three or more vertices is
    embedded by ``_block_faces``, and each vertex's rotation is read off the
    oriented faces: after u -> v -> w, the successor of edge vu at v is vw.
    A cut vertex's per-block cycles are concatenated, which puts each block
    into one corner of the others; a bridge's ends get the bridge edge, and
    an isolated vertex gets ().  Path addition costs O(n m) per added
    path; the one caller in the package is the class oracle, at n <= 20,
    and a linear-time test (left-right, Boyer-Myrvold) pays only on large
    graphs, which the package never gives it.
    """
    rotation: list[list[int]] = [[] for _ in range(g.n)]
    for block in blocks(g):
        if len(block) == 1:
            for v in g.edges[block[0]]:
                rotation[v].append(block[0])
            continue
        block_faces = _block_faces(g, block)
        if block_faces is None:
            return None
        after: dict[int, dict[int, int]] = {}  # after[v][u] = w: vw follows vu at v
        for face in block_faces:
            for i, v in enumerate(face):
                after.setdefault(v, {})[face[i - 1]] = face[(i + 1) % len(face)]
        for v, succ in after.items():
            u = start = next(iter(succ))
            while True:
                rotation[v].append(g.edge_id(v, u))
                u = succ[u]
                if u == start:
                    break
    return RotationEmbedding(tuple(map(tuple, rotation)))


def _block_faces(g: BipartiteGraph, block: list[int]) -> Optional[list[list[int]]]:
    """The faces of a plane embedding of a 2-connected block, as oriented
    vertex cycles, or None if the block is non-planar.

    Path addition (Demoucron, Malgrange & Pertuiset, Rev. Fr. Rech. Oper.
    1964): the embedded subgraph H starts as one cycle with its two faces,
    the cycle and its reverse.  A fragment is an edge off H with both ends
    in H, or a component of the vertices off H with its edges to H; its
    attachments are its vertices in H, at least two in a 2-connected block,
    and a face admits it if the face holds all of them.  Each step takes a
    fragment with the fewest admissible faces.  If it has none, the block
    is non-planar; otherwise one of its paths between two attachments
    splits the first admissible face into two, each path edge run once in
    each sense.  DMP prove that a planar block never runs out of faces.
    """
    nbrs: dict[int, list[int]] = {}
    for e in block:
        u, w = g.edges[e]
        nbrs.setdefault(u, []).append(w)
        nbrs.setdefault(w, []).append(u)
    ends = vertex_mask(g.edges[block[0]])
    cycle = _attachment_path(nbrs, ends, vertex_mask(nbrs) & ~ends, ends)  # closed by the edge
    on_h = vertex_mask(cycle)
    faces, masks = [cycle, cycle[::-1]], [on_h, on_h]
    rest = set(block) - {g.edge_id(v, cycle[i - 1]) for i, v in enumerate(cycle)}
    while rest:
        fragments = []  # (attachment mask, its vertices off H as a mask, a path when it is an edge)
        for e in rest:
            u, w = g.edges[e]
            if on_h >> u & on_h >> w & 1:
                fragments.append((1 << u | 1 << w, 0, [u, w]))
        seen = on_h
        for v in nbrs:
            if seen >> v & 1:
                continue
            seen |= 1 << v
            part, attached = [v], 0
            for x in part:  # grows while it is read
                for y in nbrs[x]:
                    if on_h >> y & 1:
                        attached |= 1 << y
                    elif not seen >> y & 1:
                        seen |= 1 << y
                        part.append(y)
            fragments.append((attached, vertex_mask(part), None))
        fits = [[i for i, m in enumerate(masks) if not attached & ~m] for attached, _, _ in fragments]
        k = min(range(len(fits)), key=lambda k: len(fits[k]))
        if not fits[k]:
            return None
        attached, part, path = fragments[k]
        if path is None:
            path = _attachment_path(nbrs, on_h, part, attached)
        fit = fits[k][0]
        face = faces[fit]
        i = face.index(path[0])
        ring = face[i:] + face[:i]
        j = ring.index(path[-1])
        faces[fit] = ring[: j + 1] + path[-2:0:-1]
        faces.append(ring[j:] + path[:-1])
        masks[fit] = vertex_mask(faces[fit])
        masks.append(vertex_mask(faces[-1]))
        on_h |= vertex_mask(path)
        rest -= {g.edge_id(u, w) for u, w in zip(path, path[1:])}
    return faces


def _attachment_path(nbrs: dict[int, list[int]], on_h: int, part: int, attached: int) -> list[int]:
    """A path from the least vertex of ``attached`` through ``part`` to
    another vertex of H, as a vertex list.  In a 2-connected block one
    exists when ``part`` is a fragment with attachments ``attached``, and
    when H is one edge's ends and ``part`` every other vertex."""
    a = (attached & -attached).bit_length() - 1
    x = next(y for y in nbrs[a] if part >> y & 1)
    parent = {x: a}
    queue = [x]
    for v in queue:  # grows while it is read
        for w in nbrs[v]:
            if w != a and on_h >> w & 1:
                path = [w, v]
                while path[-1] != a:
                    path.append(parent[path[-1]])
                return path
            if part >> w & 1 and w not in parent:
                parent[w] = v
                queue.append(w)


@dataclass(frozen=True)
class C4Site:
    """A valid site for the planar 4-cycle expansion on a facial cycle.

    Roles: u, y in class A; v, x in class B; uv and xy are edges of a common
    facial cycle whose two arcs between them (after removing both edges) have
    odd length.  ``forward`` says whether that facial walk runs from u to v.
    """

    u: int
    v: int
    x: int
    y: int
    eid_uv: int
    eid_xy: int
    forward: bool


def facial_c4_expansion_sites(g: BipartiteGraph, emb: RotationEmbedding) -> list[C4Site]:
    """All valid edge pairs for the planar 4-cycle expansion, per face.

    A face of length 2L contributes every pair of edge positions of equal
    parity; for a quadrilateral face these are exactly its two opposite-edge
    pairs.
    """
    g._require_colour()
    sites: list[C4Site] = []
    for face in faces(g, emb):
        verts = face_vertices(face)
        if len(set(verts)) != len(verts):
            raise GraphError("facial walk is not a simple cycle")
        length = len(face)
        for i in range(length):
            for j in range(i + 2, length, 2):
                ei = face[i][1]
                ej = face[j][1]
                wi, wi1 = verts[i], verts[(i + 1) % length]
                wj, wj1 = verts[j], verts[(j + 1) % length]
                if g.colour[wi] == "A":
                    u, v = wi, wi1
                    y, x = wj, wj1
                else:
                    u, v = wi1, wi
                    y, x = wj1, wj
                sites.append(C4Site(u=u, v=v, x=x, y=y, eid_uv=ei, eid_xy=ej, forward=u == wi))
    return sites
