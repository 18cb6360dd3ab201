import hashlib
import json
import pathlib

import pytest

from barnette.canon import canonical_form
from barnette.generator import class_counts, generate, survey, verify_record
from barnette.graphs import GraphError
from barnette.io import to_bgf
from barnette.tightcut import contract

GOLDEN = pathlib.Path(__file__).parent / "golden" / "class_counts.json"
GOLDEN_RECORDS = pathlib.Path(__file__).parent / "golden" / "generation_records.json"


def test_counts_match_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert golden["schema"] == 1
    expected = {int(k): v for k, v in golden["counts"].items()}
    got = class_counts(max(expected))
    for n, count in expected.items():
        assert got.get(n, 0) == count


def test_counts_through_twenty():
    # snapshots from this generator; the orders at 14 and below are cross
    # checked against the independent enumeration in the oracle tests
    assert class_counts(20) == {8: 1, 12: 1, 14: 1, 16: 2, 18: 2, 20: 8}


def test_generation_matches_golden():
    # frozen by scripts/derive_golden_generation.py; the digest covers edge
    # ids, rotation and family, so a different representative shows up
    golden = json.loads(GOLDEN_RECORDS.read_text())
    assert golden["schema"] == 1
    got = []
    for rec in generate(golden["n_max"]):
        cuts = [(i, sorted(c.edge_ids)) for i, c in enumerate(rec.family)]
        text = to_bgf(rec.graph, rotation=rec.embedding.rotation, cuts=cuts)
        got.append(
            {
                "canonical": rec.canonical,
                "parent_canonical": rec.parent_canonical,
                "site": None if rec.site is None else rec.site.describe(),
                "bgf_sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
        )
    assert got == golden["records"]


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


def test_contracting_the_family_cut_recovers_cubes(generated_16, cube):
    rec = next(r for r in generated_16 if r.family)
    cut = rec.family[0]
    inner = contract(rec.graph, cut, "complement")
    outer = contract(rec.graph, cut, "shore")
    target = canonical_form(cube)
    assert canonical_form(inner.graph) == target
    assert canonical_form(outer.graph) == target


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
