import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import barnette
from barnette import expansion
from barnette.embedding import facial_c4_expansion_sites
from barnette.expansion import (
    ExpansionSite,
    c4_expand,
    cube_expand,
    general_c4_expand,
    update_family_c4,
    update_family_cube,
)
from barnette.graphs import Cut, GraphError
from barnette.matching import is_k_extendable, is_matching_covered
from barnette.tightcut import family_is_laminar, find_tight_cuts_cubic, is_tight
from conftest import random_edge_pair


def _triples(cuts):
    return {frozenset(c.edge_ids) for c in cuts}


def test_cube_expand_every_vertex(cube, cube_rotation):
    for v in range(cube.n):
        g2, emb2, cut = cube_expand(cube, cube_rotation, v)
        assert g2.n == 14 and g2.is_regular(3)
        assert len(g2.class_a()) == len(g2.class_b()) == 7
        fam = update_family_cube((), g2, v, cut)
        assert fam == (cut,)
        # the new cut is the only non-trivial tight cut of the result
        scratch = find_tight_cuts_cubic(g2)
        assert len(scratch) == 1
        assert _triples(fam) == _triples(scratch)
        assert scratch[0].shore in (cut.shore, cut.complement_mask())


def test_cube_expand_gadget_cut_is_tight_on_every_candidate(generated_16):
    # cube_expand trusts a colour count for tightness; check it by matching
    # on every cube candidate up to n = 20, duplicates the generator discards
    # included
    candidates = 0
    for rec in generated_16:
        if rec.n + 6 > 20:
            continue
        for v in range(rec.n):
            g2, _, cut = cube_expand(rec.graph, rec.embedding, v)
            assert is_tight(g2, cut), (rec.canonical, v)
            candidates += 1
    assert candidates == 8 + 12 + 14  # the records of 8, 12 and 14 vertices


def test_cube_expand_needs_degree_three(c6):
    from barnette.embedding import embed_planar

    with pytest.raises(GraphError):
        cube_expand(c6, embed_planar(c6), 0)


def test_c4_expand_every_cube_site(cube, cube_rotation):
    sites = facial_c4_expansion_sites(cube, cube_rotation)
    assert len(sites) == 12
    for site in sites:
        g2, emb2 = c4_expand(cube, cube_rotation, site)
        assert g2.n == 12 and g2.is_regular(3)
        # edge id reuse: the stored pairs under the old ids now end at u and x
        assert site.u in g2.edges[site.eid_uv]
        assert site.x in g2.edges[site.eid_xy]
        assert find_tight_cuts_cubic(g2) == []  # the 12-vertex member is a brace


def test_c4_expand_family_matches_scratch(cube, cube_rotation):
    g14, emb14, cut14 = cube_expand(cube, cube_rotation, 0)
    fam14 = update_family_cube((), g14, 0, cut14)
    sites = facial_c4_expansion_sites(g14, emb14)
    assert len(sites) == 30
    partition = Counter()
    for site in sites:
        count = sum((cut14.shore >> w) & 1 for w in (site.u, site.v, site.x, site.y))
        partition[count] += 1
        g18, _ = c4_expand(g14, emb14, site)
        fam18 = update_family_c4(fam14, g18, site)
        scratch = find_tight_cuts_cubic(g18)
        assert _triples(fam18) == _triples(scratch)
        assert family_is_laminar(fam18, g18.full_mask)
        for cut in fam18:
            assert is_tight(g18, cut)
            assert site.eid_uv not in cut.edge_ids or site.eid_xy not in cut.edge_ids
    # every membership pattern of the gadget shore occurs among the sites,
    # so dropping (count 2), keeping (0, 1) and growing (3, 4) are exercised
    assert partition == Counter({0: 6, 1: 6, 2: 6, 3: 6, 4: 6})


def test_family_bound_is_sharp_after_cube_expansion(cube, cube_rotation):
    g14, _, cut14 = cube_expand(cube, cube_rotation, 0)
    fam = update_family_cube((), g14, 0, cut14)
    assert 6 * len(fam) == g14.n - 8  # bound met with equality


def test_c4_expand_is_the_general_surgery_on_every_site(generated_16):
    checked = 0
    for rec in generated_16:
        g = rec.graph
        for site in facial_c4_expansion_sites(g, rec.embedding):
            g2, _emb2 = c4_expand(g, rec.embedding, site)
            general = general_c4_expand(g, site.eid_uv, site.eid_xy)
            assert (g2.edges, g2.colour) == (general.edges, general.colour)
            # the documented id order: u', v', x', y' = n..n+3, then new
            # edges vv', yy', u'v', x'y', u'x', v'y'; uv becomes uu', xy xx'
            nu, nv, nx, ny = range(g.n, g.n + 4)
            pairs = [(site.v, nv), (site.y, ny), (nu, nv), (nx, ny), (nu, nx), (nv, ny)]
            assert g2.edges[g.edge_count:] == tuple(pairs)
            assert g2.edges[site.eid_uv] == (site.u, nu)
            assert g2.edges[site.eid_xy] == (site.x, nx)
            checked += 1
    assert checked == 142  # the facial sites of generate(16)'s five records


def test_general_expansion_on_nonplanar_hosts(k33, heawood):
    rng = random.Random(7)
    for g in (k33, heawood):
        for _ in range(10):
            e, f = random_edge_pair(g, rng)
            g2 = general_c4_expand(g, e, f)
            assert g2.n == g.n + 4
            assert is_matching_covered(g2)
            assert is_k_extendable(g2, 2)


def test_general_expansion_preserves_matching_covered_only(asano):
    g = asano.graph  # matching covered but not 2-extendable
    rng = random.Random(11)
    for _ in range(10):
        e, f = random_edge_pair(g, rng)
        g2 = general_c4_expand(g, e, f)
        assert is_matching_covered(g2)


def test_general_expansion_rejects_bad_pairs(cube):
    with pytest.raises(GraphError):
        general_c4_expand(cube, 0, 0)
    # two edges at one vertex share an endpoint
    e, f = cube.incident[0][0], cube.incident[0][1]
    with pytest.raises(GraphError):
        general_c4_expand(cube, e, f)


def test_site_description(cube, cube_rotation):
    assert ExpansionSite(kind="cube", vertex=3).describe() == "cube@3"
    site = facial_c4_expansion_sites(cube, cube_rotation)[0]
    text = ExpansionSite(kind="c4", c4=site).describe()
    assert text.startswith("c4@(") and str(site.u) in text


def test_surgery_checks_raise(cube, cube_rotation, monkeypatch):
    monkeypatch.setattr(expansion, "cubic_three_connected", lambda g: False)
    with pytest.raises(GraphError):
        cube_expand(cube, cube_rotation, 0)
    site = facial_c4_expansion_sites(cube, cube_rotation)[0]
    with pytest.raises(GraphError):
        c4_expand(cube, cube_rotation, site)


def test_surgery_checks_survive_optimised_mode():
    src = str(Path(barnette.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = (
        "from barnette import catalog, expansion\n"
        "from barnette.graphs import GraphError\n"
        "expansion.cubic_three_connected = lambda g: False\n"
        "cube = catalog('cube')\n"
        "try:\n"
        "    expansion.cube_expand(cube.graph, cube.rotation, 0)\n"
        "    print(__debug__, 'returned')\n"
        "except GraphError:\n"
        "    print(__debug__, 'raised')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "raised"]


def _corrupted_c4_families(cube, cube_rotation):
    """A cube site, the graph its expansion builds, and four one-cut
    families whose cut is not a 3-edge cut; the shores hold 0, 1, 3 and 4
    of the site vertices, so the cut is kept in each case."""
    site = facial_c4_expansion_sites(cube, cube_rotation)[0]
    g2, _ = c4_expand(cube, cube_rotation, site)
    quad = (site.u, site.v, site.x, site.y)
    w = next(w for w in range(cube.n) if w not in quad)

    def off_site(a):
        return next(b for b in cube.neighbours[a] if b not in quad)

    shores = ({w, off_site(w)}, {site.u, off_site(site.u)}, {site.u, site.v, site.x}, set(quad))
    return site, g2, [(Cut.from_shore(cube, shore),) for shore in shores]


def test_family_c4_bookkeeping_raises(cube, cube_rotation):
    site, g2, families = _corrupted_c4_families(cube, cube_rotation)
    assert [fam[0].order for fam in families] == [4, 4, 5, 4]
    for fam in families:
        with pytest.raises(GraphError, match="not a 3-edge cut"):
            update_family_c4(fam, g2, site)


def test_family_c4_checks_survive_optimised_mode():
    src = str(Path(barnette.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, (src, tests, os.environ.get("PYTHONPATH"))))
    probe = (
        "from barnette import catalog\n"
        "from barnette.expansion import update_family_c4\n"
        "from barnette.graphs import GraphError\n"
        "from test_expansion import _corrupted_c4_families\n"
        "cube = catalog('cube')\n"
        "site, g2, families = _corrupted_c4_families(cube.graph, cube.rotation)\n"
        "print(__debug__)\n"
        "for fam in families:\n"
        "    try:\n"
        "        update_family_c4(fam, g2, site)\n"
        "        print('returned')\n"
        "    except GraphError:\n"
        "        print('raised')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["False", "raised", "raised", "raised", "raised"]
