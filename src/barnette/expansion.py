"""Growth operations and tight-cut-family bookkeeping.

Two surgeries generate the whole class from the cube: replacing a vertex by
a seven-vertex cube gadget, and replacing two edges of a common face by a
new quadrilateral.  Both reuse the edge ids of the edges they modify and
give the new vertices the top ids.  A family of tight cuts is carried through
either surgery as shores: a shore grows by the new vertices when it holds
the vertices they replace, and each cut's edge ids are read off the new
graph by ``Cut.from_shore``.  The quadrilateral expansion drops exactly the
cuts that separate its two edges, read off the shore membership of the four
site vertices.

Neither surgery re-checks that its result is cubic, 3-connected, plane and
bipartite: its docstring gives why, and ``verify_record`` and the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .embedding import C4Site, RotationEmbedding
from .graphs import BipartiteGraph, Cut, GraphError

TightCutFamily = tuple[Cut, ...]


@dataclass(frozen=True)
class ExpansionSite:
    """Where an expansion was applied: a vertex, or a facial edge pair."""

    kind: str  # "cube" | "c4"
    vertex: Optional[int] = None
    c4: Optional[C4Site] = None

    def describe(self) -> str:
        if self.kind == "cube":
            return f"cube@{self.vertex}"
        s = self.c4
        return f"c4@({s.u},{s.v})+({s.x},{s.y})"


def _opp(colour: str) -> str:
    return "B" if colour == "A" else "A"


def cube_expand(
    g: BipartiteGraph, emb: RotationEmbedding, v: int
) -> tuple[BipartiteGraph, RotationEmbedding, Cut]:
    """Replace v by a hexagon u1..u6 with centre w, attached at u2, u4, u6.

    The attachments follow the rotation at v, so the gadget is drawn in a
    disc around v; the attachment edges keep their ids and form the new
    tight cut.  w reuses v's vertex id, so shores that contained v still
    contain the gadget core.  The result is 3-connected: the gadget plus one
    contracted outside vertex is the cube, so a cut of g2 with fewer than 3
    edges, uncrossed with the gadget cut, would be one of the cube or of g.

    The cut is tight by a colour count, so no matching test is run.  Its
    shore {w, u1..u6} holds w, u2, u4, u6 of w's colour and u1, u3, u5 of
    the other, and the three cut edges leave from u2, u4 and u6.  In a
    perfect matching, u1, u3 and u5 are matched inside the shore to three of
    its four vertices of w's colour, so exactly one cut edge is used.
    ``verify_record`` still tests every family cut.
    """
    g._require_colour()
    if g.degree(v) != 3:
        raise GraphError("cube expansion needs a degree-3 vertex")
    e1, e2, e3 = emb.rotation[v]
    nbs = tuple(g.other_end(e, v) for e in (e1, e2, e3))
    n0, m0 = g.n, g.edge_count
    # u1..u6 get ids n0..n0+5; w reuses v's id
    u = tuple(n0 + k for k in range(6))
    edges = list(g.edges)
    for eid, nb, uk in zip((e1, e2, e3), nbs, (u[1], u[3], u[5])):
        edges[eid] = (min(nb, uk), max(nb, uk))
    hexagon = [(u[0], u[1]), (u[1], u[2]), (u[2], u[3]), (u[3], u[4]),
               (u[4], u[5]), (u[0], u[5])]
    spokes = [(min(v, u[k]), max(v, u[k])) for k in (0, 2, 4)]
    edges += hexagon + spokes
    h = tuple(range(m0, m0 + 6))  # hexagon edge ids, h[k] joins u[k], u[k+1]
    s1, s3, s5 = m0 + 6, m0 + 7, m0 + 8

    c = g.colour[v]
    colour = g.colour + (_opp(c), c, _opp(c), c, _opp(c), c)

    rot = [list(r) for r in emb.rotation]
    rot[v] = [s1, s3, s5]
    gadget_rot = [
        [h[0], s1, h[5]],        # u1: u2, w, u6
        [h[0], e1, h[1]],        # u2: u1, n1, u3
        [h[2], s3, h[1]],        # u3: u4, w, u2
        [h[2], e2, h[3]],        # u4: u3, n2, u5
        [h[4], s5, h[3]],        # u5: u6, w, u4
        [h[4], e3, h[5]],        # u6: u5, n3, u1
    ]
    rot += gadget_rot

    g2 = BipartiteGraph(n0 + 6, tuple(edges), colour=colour)
    emb2 = RotationEmbedding(tuple(tuple(r) for r in rot))
    return g2, emb2, Cut.from_shore(g2, frozenset({v, *u}))


def c4_expand(
    g: BipartiteGraph, emb: RotationEmbedding, site: C4Site
) -> tuple[BipartiteGraph, RotationEmbedding]:
    """Insert a quadrilateral across two opposite-parity edges of one face.

    The edges come from ``general_c4_expand``: uv keeps its edge id and
    becomes uu'; xy becomes xx'.  The new 4-cycle u'v'y'x' bounds a face
    inside the old one, oriented by the direction in which the facial walk
    traverses uv (``site.forward``).

    The quadrilateral is two edge insertions between disjoint edges of one
    face (u'x' across uv and xy, then v'y' across u'v and x'y), each drawn
    inside its face; an edge cut of fewer than 3 edges would restrict to one
    of the graph before, so both keep the graph plane and 3-connected.
    """
    g._require_colour()
    u, v, x, y = site.u, site.v, site.x, site.y
    if g.colour[u] != "A" or g.colour[y] != "A" or g.colour[v] != "B" or g.colour[x] != "B":
        raise GraphError("site colour roles are wrong")
    if g.edges[site.eid_uv] != (min(u, v), max(u, v)) or g.edges[site.eid_xy] != (
        min(x, y),
        max(x, y),
    ):
        raise GraphError("site edge ids do not match its vertices")

    g2 = general_c4_expand(g, site.eid_uv, site.eid_xy)
    e_vv, e_yy, e_uv_new, e_xy_new, e_ux, e_vy = range(g.edge_count, g.edge_count + 6)
    rot = [list(r) for r in emb.rotation]
    rot[v][rot[v].index(site.eid_uv)] = e_vv
    rot[y][rot[y].index(site.eid_xy)] = e_yy
    new_rot = [
        [site.eid_uv, e_uv_new, e_ux],  # u': u, v', x'
        [e_vv, e_vy, e_uv_new],         # v': v, y', u'
        [site.eid_xy, e_ux, e_xy_new],  # x': x, u', y'
        [e_yy, e_xy_new, e_vy],         # y': y, x', v'
    ]
    rot += [r[::-1] if site.forward else r for r in new_rot]

    return g2, RotationEmbedding(tuple(tuple(r) for r in rot))


def general_c4_expand(g: BipartiteGraph, eid_uv: int, eid_xy: int) -> BipartiteGraph:
    """Replace edges uv and xy by a quadrilateral u'v'y'x', with no planarity
    or facial requirement; ``c4_expand`` adds the rotation to it.

    Roles are read off the colouring: u and y are the A-ends of the two
    edges.  uv keeps its id as uu' and xy as xx'.  The new vertices u', v',
    x', y' get ids n..n+3 and the new edges ids m..m+5 in the order vv',
    yy', u'v', x'y', u'x', v'y'; ``c4_expand``'s rotation relies on both
    orders, ``update_family_c4`` only on the vertex ids.  Keeps the input
    matching covered, and 2-extendable inputs stay 2-extendable; both are
    asserted by tests, not here.
    """
    g._require_colour()
    if eid_uv == eid_xy:
        raise GraphError("the two expansion edges must differ")
    u, v = g.edges[eid_uv]
    y, x = g.edges[eid_xy]
    if g.colour[u] != "A":
        u, v = v, u
    if g.colour[y] != "A":
        y, x = x, y
    if len({u, v, x, y}) != 4:
        raise GraphError("expansion edges must not share a vertex")

    n0 = g.n
    nu, nv, nx, ny = n0, n0 + 1, n0 + 2, n0 + 3
    edges = list(g.edges)
    edges[eid_uv] = (u, nu)
    edges[eid_xy] = (x, nx)
    edges += [(v, nv), (y, ny), (nu, nv), (nx, ny), (nu, nx), (nv, ny)]
    colour = g.colour + ("B", "A", "A", "B")
    return BipartiteGraph(n0 + 4, tuple(edges), colour=colour)


def update_family_cube(
    fam: TightCutFamily, g2: BipartiteGraph, v: int, new_cut: Cut
) -> TightCutFamily:
    """Carry a family through the cube expansion at v that built g2, and
    append its new cut.

    A shore that held v grows by the six gadget vertices (v's id stays on
    it, as the centre); each cut's edge ids are read off g2.
    """
    gadget = ((1 << 6) - 1) << (g2.n - 6)
    shores = (c.shore | gadget if c.shore >> v & 1 else c.shore for c in fam)
    return tuple(Cut.from_shore(g2, s) for s in shores) + (new_cut,)


def update_family_c4(
    fam: TightCutFamily, g2: BipartiteGraph, site: C4Site
) -> TightCutFamily:
    """Carry a family through the quadrilateral expansion at site that
    built g2.

    A cut is dropped exactly when its shore holds two of u, v, x, y: it
    separates {u,v} from {x,y}.  A shore holding three or four of them grows
    by the four new vertices, and each kept cut's edge ids are read off g2.
    A kept cut keeps 3 edges: at a count of 1 or 3 it swaps the site edge it
    holds for that edge's new half, and at 0 or 4 nothing changes.
    """
    quad = ((1 << 4) - 1) << (g2.n - 4)
    out = []
    for cut in fam:
        count = sum(cut.shore >> w & 1 for w in (site.u, site.v, site.x, site.y))
        if count == 2:
            continue
        out.append(Cut.from_shore(g2, cut.shore | quad if count >= 3 else cut.shore))
    return tuple(out)
