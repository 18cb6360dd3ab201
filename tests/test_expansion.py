import dataclasses
import random
from collections import Counter

import pytest

from barnette.embedding import euler_check, facial_c4_expansion_sites
from barnette.expansion import (
    ExpansionSite,
    c4_expand,
    cube_expand,
    general_c4_expand,
    update_family_c4,
    update_family_cube,
)
from barnette.generator import _family_bound_ok, generate
from barnette.graphs import GraphError
from barnette.matching import is_brace, is_matching_covered
from barnette.tightcut import (
    cubic_three_connected,
    family_is_laminar,
    find_tight_cuts_cubic,
    is_tight,
)
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


def _assert_in_class_with_family(where, g2, emb2, fam):
    assert euler_check(g2, emb2), where
    assert g2.is_regular(3) and cubic_three_connected(g2), where
    assert _triples(fam) == _triples(find_tight_cuts_cubic(g2)), where
    assert _family_bound_ok(fam, g2.n), where


def test_every_candidate_to_24_is_in_the_class_with_its_family():
    # the expansions check nothing on their results, so check every candidate
    # up to n = 24, duplicates the generator discards or never builds
    # included: plane, cubic, 3-connected, the gadget cut its attachment
    # edges and tight by matching (cube_expand trusts a colour count), and
    # the carried family exactly the 3-edge-cut scan's, within its bound
    counts = Counter()
    for rec in generate(20):
        g, emb = rec.graph, rec.embedding
        for v in range(rec.n) if rec.n + 6 <= 24 else ():
            g2, emb2, cut = cube_expand(g, emb, v)
            where = (rec.canonical, v)
            assert cut.edge_ids == frozenset(emb.rotation[v]), where
            assert is_tight(g2, cut), where
            _assert_in_class_with_family(
                where, g2, emb2, update_family_cube(rec.family, g2, v, cut)
            )
            counts["cube"] += 1
        for site in facial_c4_expansion_sites(g, emb):
            g2, emb2 = c4_expand(g, emb, site)
            _assert_in_class_with_family(
                (rec.canonical, site), g2, emb2, update_family_c4(rec.family, g2, site)
            )
            counts["c4"] += 1
    # every vertex and every facial site of the records to 20, the 738
    # candidates test_orbit_pruning_cuts_the_expansions counts
    assert counts == {"cube": 102, "c4": 636}


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


def test_c4_expand_rejects_a_malformed_site(cube, cube_rotation):
    site = facial_c4_expansion_sites(cube, cube_rotation)[0]
    swapped = dataclasses.replace(site, u=site.v, v=site.u)
    with pytest.raises(GraphError, match="site colour roles are wrong"):
        c4_expand(cube, cube_rotation, swapped)
    moved = dataclasses.replace(site, eid_uv=site.eid_xy)
    with pytest.raises(GraphError, match="site edge ids do not match its vertices"):
        c4_expand(cube, cube_rotation, moved)


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
        assert family_is_laminar(fam18)
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
            assert is_brace(g2)


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
