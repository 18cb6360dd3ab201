import gc
import importlib.util
import json
import pathlib
import sys
import weakref

import pytest

from barnette import canon, generator, tightcut
from barnette.canon import canonical_form
from barnette.catalog import catalog
from barnette.embedding import (
    RotationEmbedding,
    facial_c4_expansion_sites,
    planar_code_and_automorphisms,
)
from barnette.expansion import (
    ExpansionSite,
    c4_expand,
    cube_expand,
    update_family_c4,
    update_family_cube,
)
from barnette.generator import (
    GenerationRecord,
    _family_bound_ok,
    class_counts,
    generate,
    survey,
    verify_record,
)
from barnette.graphs import GraphError
from barnette.io import adjacency_bits, from_bgf, graph6_from_bitstring, to_bgf
from barnette.tightcut import contract, cut_from_edge_ids, cut_labels

GOLDEN = pathlib.Path(__file__).parent / "golden" / "class_counts.json"
GOLDEN_RECORDS = pathlib.Path(__file__).parent / "golden" / "generation_records.json"
DERIVE_GENERATION = pathlib.Path(__file__).parents[1] / "scripts" / "derive_golden_generation.py"


def test_counts_match_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert golden["schema"] == 1
    expected = {int(k): v for k, v in golden["counts"].items()}
    got = class_counts(max(expected))
    for n, count in expected.items():
        assert got.get(n, 0) == count


def test_counts_through_twenty():
    # every order here is also in the golden counts from the independent
    # enumeration; this pins the whole dict, with no entry at n = 10
    assert class_counts(20) == {8: 1, 12: 1, 14: 1, 16: 2, 18: 2, 20: 8}


def test_generation_matches_golden():
    # frozen by scripts/derive_golden_generation.py; the digest covers edge
    # ids, rotation and family, so a different representative shows up
    spec = importlib.util.spec_from_file_location("derive_golden_generation", DERIVE_GENERATION)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    golden = json.loads(GOLDEN_RECORDS.read_text())
    assert golden["schema"] == 1
    assert [script.record_entry(rec) for rec in generate(golden["n_max"])] == golden["records"]


def test_canonical_forms_of_records_are_distinct():
    # the planar code admits one record per class: canon's independent
    # kernel must find no two of them isomorphic
    forms = [canonical_form(rec.graph) for rec in generate(24)]
    assert len(forms) == len(set(forms)) == 55


def test_generation_makes_no_canonical_form_call(monkeypatch):
    # every canonical_form call refines, whichever module holds the function
    assert not any(
        getattr(v, "__module__", None) == canon.__name__ for v in vars(generator).values()
    )
    calls = []
    refine = canon._refine
    monkeypatch.setattr(canon, "_refine", lambda *a: calls.append(a) or refine(*a))
    canonical_form(catalog("cube").graph)
    assert calls
    calls.clear()
    assert len(list(generate(24))) == 55
    assert calls == []


def test_verify_record_computes_cut_labels_once(monkeypatch):
    # records rebuilt from their bgf text, as barnette verify reads them
    records = []
    for rec in generate(24):
        cuts = [(i, sorted(c.edge_ids)) for i, c in enumerate(rec.family)]
        text = to_bgf(rec.graph, rotation=rec.embedding.rotation, cuts=cuts)
        g, rotation, triples = from_bgf(text)
        family = tuple(cut_from_edge_ids(g, ids) for _label, ids in triples)
        records.append(
            GenerationRecord(g, RotationEmbedding(rotation), family, rec.canonical)
        )
    calls = []
    monkeypatch.setattr(tightcut, "cut_labels", lambda g: calls.append(g) or cut_labels(g))
    assert all(verify_record(rec)["ok"] for rec in records)
    assert len(calls) == len(records) == 55


def test_generation_bound_validation():
    with pytest.raises(GraphError):
        list(generate(7))
    with pytest.raises(GraphError):
        list(generate(10 + 1))


def test_records_verify(generated_16):
    assert len(generated_16) == 5
    for rec in generated_16:
        report = verify_record(rec)
        assert report["ok"], (rec.n, report)


def test_record_lineage(generated_16):
    by_canonical = {rec.canonical: rec for rec in generated_16}
    for rec in generated_16:
        if rec.n == 8:
            assert rec.parent_canonical is None and rec.site is None
        else:
            assert rec.site is not None
            parent = by_canonical[rec.parent_canonical]
            grown = {"cube": 6, "c4": 4}[rec.site.kind]
            assert parent.n + grown == rec.n


def test_only_nonbrace_at_fourteen(generated_16):
    families = {rec.n: rec for rec in generated_16 if rec.family}
    assert set(families) == {14}
    assert len(families[14].family) == 1


def test_braces_only_filter():
    braces = list(generate(16, braces_only=True))
    assert [rec.n for rec in braces] == [8, 12, 16, 16]
    assert all(rec.is_brace for rec in braces)


def test_generation_is_deterministic():
    first = [rec.canonical for rec in generate(16)]
    second = [rec.canonical for rec in generate(16)]
    assert first == second
    assert first == sorted(set(first), key=first.index)  # no duplicates


def test_generation_drops_each_finished_order():
    # candidates only ever land two or three orders up, so an order is
    # dropped once its records have been yielded and expanded
    stream = generate(24)
    ref = weakref.ref(next(rec for rec in stream if rec.n == 14))
    next(rec for rec in stream if rec.n >= 18)
    gc.collect()
    assert ref() is None


def test_contracting_the_family_cut_recovers_cubes(generated_16, cube):
    rec = next(r for r in generated_16 if r.family)
    cut = rec.family[0]
    inner, outer = contract(rec.graph, cut)
    target = canonical_form(cube)
    assert canonical_form(inner) == target
    assert canonical_form(outer) == target


def test_survey_rows():
    rows = survey(14, with_p2=True, with_h_plus_minus=True)
    assert [row["n"] for row in rows] == [8, 12, 14]
    for row in rows:
        assert row["hamiltonian"] == row["graphs"]
        assert row["p2"] == row["graphs"]
        assert row["h_plus_minus"] == row["graphs"]
    assert rows[0] == {
        "n": 8,
        "graphs": 1,
        "braces": 1,
        "hamiltonian": 1,
        "p2": 1,
        "h_plus_minus": 1,
    }


def _reference_generate(n_max: int, braces_only: bool = False):
    """The generator before orbit pruning: every vertex and every site."""
    if n_max < 8 or n_max % 2 != 0:
        raise GraphError("generation bound must be an even number, at least 8")
    seed = catalog("cube")
    code, order, _group = planar_code_and_automorphisms(seed.graph, seed.rotation)
    root = GenerationRecord(
        graph=seed.graph,
        embedding=seed.rotation,
        family=(),
        canonical=graph6_from_bitstring(8, adjacency_bits(seed.graph, order)),
    )
    buckets: dict[int, dict[tuple[int, ...], GenerationRecord]] = {8: {code: root}}

    def admit(parent, site, g2, emb2, update_family, *args) -> None:
        """Keep a candidate whose planar code is new, with its updated family."""
        code, order, _group = planar_code_and_automorphisms(g2, emb2)
        level = buckets.setdefault(g2.n, {})
        if code in level:
            return
        fam = update_family(parent.family, g2, *args)
        if not _family_bound_ok(fam, g2.n):
            raise GraphError("family outgrew its bound")
        level[code] = GenerationRecord(
            graph=g2,
            embedding=emb2,
            family=fam,
            canonical=graph6_from_bitstring(g2.n, adjacency_bits(g2, order)),
            parent_canonical=parent.canonical,
            site=site,
        )

    for n in range(8, n_max + 1, 2):
        bucket = buckets.get(n)
        if not bucket:
            continue
        for code in sorted(bucket):
            rec = bucket[code]
            if not braces_only or rec.is_brace:
                yield rec
            g, emb = rec.graph, rec.embedding
            if n + 6 <= n_max:
                for v in range(n):
                    g2, emb2, cut = cube_expand(g, emb, v)
                    site = ExpansionSite(kind="cube", vertex=v)
                    admit(rec, site, g2, emb2, update_family_cube, v, cut)
            if n + 4 <= n_max:
                for s in facial_c4_expansion_sites(g, emb):
                    g2, emb2 = c4_expand(g, emb, s)
                    site = ExpansionSite(kind="c4", c4=s)
                    admit(rec, site, g2, emb2, update_family_c4, s)


def _record_fields(rec):
    return (
        rec.graph.n,
        rec.graph.edges,
        rec.embedding.rotation,
        tuple(sorted(c.edge_ids) for c in rec.family),
        rec.canonical,
        rec.parent_canonical,
        rec.site,
    )


@pytest.mark.parametrize("n_max", range(8, 24, 2))
def test_orbit_pruning_keeps_every_record(n_max):
    # expanding one site per automorphism orbit only skips candidates whose
    # planar code an earlier candidate of the same parent already had
    got = [_record_fields(rec) for rec in generate(n_max)]
    want = [_record_fields(rec) for rec in _reference_generate(n_max)]
    assert got == want


def _count_expansions(monkeypatch, module):
    calls = {"cube": 0, "c4": 0}
    for kind, name in (("cube", "cube_expand"), ("c4", "c4_expand")):
        surgery = getattr(module, name)

        def counted(*args, surgery=surgery, kind=kind):
            calls[kind] += 1
            return surgery(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_orbit_pruning_cuts_the_expansions(monkeypatch):
    pruned = _count_expansions(monkeypatch, generator)
    full = _count_expansions(monkeypatch, sys.modules[__name__])
    assert len(list(generate(24))) == 55
    assert len(list(_reference_generate(24))) == 55
    assert full == {"cube": 102, "c4": 636}  # 738 candidates
    assert pruned == {"cube": 22, "c4": 145}  # 167 candidates
