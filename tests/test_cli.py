import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import barnette
from barnette.canon import canonical_form
from barnette.cli import main
from barnette.graphs import BipartiteGraph
from barnette.io import from_bgf, split_records, to_bgf, to_graph6


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "--list")
    assert code == 0
    names = out.split()
    assert "cube" in names and "horton" in names


def test_catalog_graph6(capsys, k33):
    code, out, _ = run(capsys, "catalog", "k33", "--format", "graph6")
    assert code == 0
    assert out.strip() == "EFz_"


def test_catalog_bgf_carries_markers(capsys, asano):
    code, out, _ = run(capsys, "catalog", "asano")
    assert code == 0
    g, rot, cuts = from_bgf(out)
    assert g.edges == asano.graph.edges
    assert rot is None
    assert len(cuts) == 1
    assert set(cuts[0][1]) == asano.marked_cut.edge_ids


def test_catalog_requires_name(capsys):
    code, _, err = run(capsys, "catalog")
    assert code == 2
    assert "name" in err


def test_catalog_unknown_name(capsys):
    code, _, err = run(capsys, "catalog", "petersen")
    assert code == 2
    assert "unknown catalog entry" in err


def test_generate_counts(capsys):
    code, out, _ = run(capsys, "generate", "--max-n", "16", "--format", "graph6")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_generate_bgf_with_family_round_trips(capsys):
    code, out, _ = run(capsys, "generate", "--max-n", "14", "--with-family")
    assert code == 0
    blocks = split_records(out)
    assert len(blocks) == 3
    cut_counts = []
    for block in blocks:
        g, rot, cuts = from_bgf(block)
        assert rot is not None
        cut_counts.append(len(cuts))
    assert cut_counts == [0, 0, 1]  # only the 14-vertex graph carries a cut


def test_generate_rejects_family_over_graph6(capsys):
    code, _, err = run(
        capsys, "generate", "--max-n", "12", "--format", "graph6", "--with-family"
    )
    assert code == 2
    assert "famil" in err


def test_generate_usage_error(capsys):
    code, _, err = run(capsys, "generate", "--max-n", "7")
    assert code == 2
    assert "error:" in err


def test_catalog_decompose_pipeline(capsys, monkeypatch, cube):
    _, bgf, _ = run(capsys, "catalog", "asano")
    code, out, _ = run(capsys, "decompose", stdin=bgf, monkeypatch=monkeypatch)
    assert code == 0
    lines = out.split()
    from barnette.graphs import BipartiteGraph

    c4 = canonical_form(BipartiteGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3))))
    assert lines == sorted([c4, canonical_form(cube)])


def test_decompose_json(capsys, monkeypatch, cube):
    _, bgf, _ = run(capsys, "catalog", "asano")
    code, out, _ = run(capsys, "decompose", "--json", stdin=bgf, monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["n"] == 26
    assert payload["braces"][canonical_form(cube)] == 3
    assert len(payload["trace"]) == 5


def test_check_properties_json(capsys, monkeypatch):
    _, bgf, _ = run(capsys, "catalog", "heawood")
    code, out, _ = run(
        capsys, "check-properties", "--json", stdin=bgf, monkeypatch=monkeypatch
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    for key in ("hamiltonian", "p2", "p3", "p4", "p5", "h_minus", "h_plus_minus"):
        assert payload[key] is True


def test_check_properties_text(capsys, monkeypatch):
    _, bgf, _ = run(capsys, "catalog", "cube")
    code, out, _ = run(capsys, "check-properties", stdin=bgf, monkeypatch=monkeypatch)
    assert code == 0
    assert "p5: false" in out
    assert "p4: true" in out


def test_check_properties_decides_horton(capsys, monkeypatch):
    # the raw search takes hours here; the piece tree takes a fraction of a second
    _, g6, _ = run(capsys, "catalog", "horton", "--format", "graph6")
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "check-properties", stdin=g6, monkeypatch=monkeypatch)
    assert code == 0
    assert "hamiltonian: false" in out.splitlines()
    assert time.perf_counter() - t0 < 30


def test_pfaffian_json_with_witness(capsys, monkeypatch):
    _, g6, _ = run(capsys, "catalog", "k33", "--format", "graph6")
    code, out, _ = run(capsys, "pfaffian", "--json", stdin=g6, monkeypatch=monkeypatch)
    assert code == 0  # non-Pfaffian is not a failure; inconsistency would be
    payload = json.loads(out)
    assert payload["pfaffian"] is False
    assert payload["consistent"] is True
    assert payload["witness"] is not None
    assert len(payload["witness"]["paths"]) == 3


def test_pfaffian_text(capsys, monkeypatch):
    _, bgf, _ = run(capsys, "catalog", "cube")
    code, out, _ = run(capsys, "pfaffian", stdin=bgf, monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == "pfaffian: true"


def test_generate_verify_round_trip(capsys, monkeypatch, tmp_path):
    path = tmp_path / "out.bgf"
    code, _, _ = run(
        capsys, "generate", "--max-n", "14", "--with-family", "--out", str(path)
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 3
    assert all(ln.endswith(": ok") for ln in lines)


def test_verify_flags_corrupted_family(capsys, monkeypatch, tmp_path):
    _, text, _ = run(capsys, "generate", "--max-n", "14", "--with-family")
    # drop the cut line from the 14-vertex record: the family is now incomplete
    lines = [ln for ln in text.splitlines() if not ln.startswith("cut ")]
    path = tmp_path / "tampered.bgf"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out
    assert "family_complete" in out


def test_verify_requires_rotation(capsys, monkeypatch):
    _, g6, _ = run(capsys, "catalog", "cube", "--format", "graph6")
    code, _, err = run(capsys, "verify", stdin=g6, monkeypatch=monkeypatch)
    assert code == 2
    assert "rotation" in err


@pytest.mark.parametrize("line", ["rot", "cut"])
def test_bgf_line_without_label_is_an_input_error(capsys, monkeypatch, line):
    text = f"4 4\nABAB\n0 1\n1 2\n2 3\n0 3\n{line}\n"
    code, out, err = run(capsys, "verify", stdin=text, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize(
    "ids, message",
    [("0 1 2", "does not split"), ("0 3 8 5", "boundary disagrees")],
)
def test_verify_rejects_a_cut_line_that_is_not_a_cut(capsys, monkeypatch, ids, message):
    _, bgf, _ = run(capsys, "catalog", "cube")
    text = bgf + f"cut 0: {ids}\n"
    code, out, err = run(capsys, "verify", stdin=text, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and message in err


@pytest.mark.parametrize("name", ["asano", "c6"])
def test_verify_reports_a_graph_outside_the_class(capsys, monkeypatch, asano, c6, name):
    from barnette.embedding import embed_planar

    g = asano.graph if name == "asano" else c6
    text = to_bgf(g, rotation=embed_planar(g).rotation)
    code, out, _ = run(capsys, "verify", stdin=text, monkeypatch=monkeypatch)
    assert code == 1
    failed = out.split(": FAIL ")[1].split()
    assert "three_connected" in failed and "family_complete" in failed
    assert ("cubic" in failed) == (name == "c6")
    code, out, _ = run(capsys, "verify", "--json", stdin=text, monkeypatch=monkeypatch)
    assert code == 1
    payload = json.loads(out)
    assert payload["three_connected"] is False and payload["ok"] is False
    assert payload["cubic"] is (name == "asano")


def test_verify_reports_a_graph_that_is_not_bipartite(capsys, monkeypatch):
    from barnette.embedding import embed_planar

    k4 = BipartiteGraph(4, tuple(itertools.combinations(range(4), 2)))
    text = to_bgf(k4, rotation=embed_planar(k4).rotation)
    code, out, _ = run(capsys, "verify", stdin=text, monkeypatch=monkeypatch)
    assert code == 1
    failed = out.split(": FAIL ")[1].split()
    assert {"bipartite", "family_tight", "family_complete", "brace_flag"} <= set(failed)
    assert "three_connected" not in failed and "planar" not in failed


def test_verify_json_carries_the_record_name(capsys, monkeypatch):
    _, text, _ = run(capsys, "generate", "--max-n", "14", "--with-family")
    code, out, _ = run(capsys, "verify", "--json", stdin=text, monkeypatch=monkeypatch)
    assert code == 0
    payloads = [json.loads(ln) for ln in out.splitlines()]
    records = [from_bgf(block)[0] for block in split_records(text)]
    assert len(payloads) == len(records) == 3
    for payload, g in zip(payloads, records):
        assert payload["canonical"] == canonical_form(g)
        assert payload["ok"] is True


def test_survey_table(capsys):
    code, out, _ = run(capsys, "survey", "--max-n", "12", "--p2")
    assert code == 0
    header, *rows = [ln for ln in out.splitlines() if ln.strip()]
    assert "graphs" in header and "p2" in header
    assert len(rows) == 2  # orders 8 and 12; order 10 is empty


def test_survey_table_with_h_plus_minus(capsys):
    code, out, _ = run(capsys, "survey", "--max-n", "12", "--h-plus-minus")
    assert code == 0
    header, *rows = [ln for ln in out.splitlines() if ln.strip()]
    assert "h_plus_minus" in header.split()
    assert len(rows) == 2


def test_survey_json(capsys):
    code, out, _ = run(capsys, "survey", "--max-n", "12", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert [row["n"] for row in payload["rows"]] == [8, 12]


def test_missing_subcommand(capsys):
    code, _, _ = run(capsys, "definitely-not-a-command")
    assert code == 2


def test_empty_stdin(capsys, monkeypatch):
    code, _, err = run(capsys, "decompose", stdin="", monkeypatch=monkeypatch)
    assert code == 2
    assert "error:" in err


def test_decompose_long_path_is_a_clean_error(capsys, tmp_path):
    n = 3000
    path = BipartiteGraph(n, tuple((i, i + 1) for i in range(n - 1)))
    g6 = tmp_path / "path.g6"
    g6.write_text(to_graph6(path) + "\n", encoding="ascii")
    code, out, err = run(capsys, "decompose", str(g6))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


def test_verify_refuses_a_record_too_deep_for_the_canonical_search(capsys, tmp_path):
    # an edgeless graph individualises every vertex but the last
    n = 1100
    bgf = tmp_path / "edgeless.bgf"
    bgf.write_text(f"{n} 0\n{'?' * n}\n" + "".join(f"rot {v}:\n" for v in range(n)), encoding="ascii")
    code, out, err = run(capsys, "verify", str(bgf))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 1\n", "truncated bgf record"),
        ("2 1\nAB\n", "bgf record missing edge lines"),
        ("2 1\nAB\n0 1\n\n3 x y\nABA\n", "bgf header must be 'n m'"),
    ],
)
def test_decompose_rejects_a_malformed_bgf_record(capsys, monkeypatch, text, message):
    code, out, err = run(capsys, "decompose", stdin=text, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in err


@pytest.mark.parametrize(
    "text, message",
    [("é\n", "invalid graph6 bytes"), ("~??\n", "truncated graph6 size")],
)
def test_decompose_rejects_a_malformed_graph6_line(capsys, monkeypatch, text, message):
    code, out, err = run(capsys, "decompose", stdin=text, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_decompose_separates_records_by_one_blank_line(capsys, monkeypatch, cube, k33):
    stdin = to_graph6(cube) + "\n" + to_graph6(k33) + "\n"
    code, out, _ = run(capsys, "decompose", stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    assert out == f"{canonical_form(cube)}\n\n{canonical_form(k33)}\n"


def test_package_import_loads_neither_numpy_nor_networkx():
    src = str(Path(barnette.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = "import sys, barnette; print(sorted({'numpy', 'networkx'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_oracle_and_embedder_load_no_networkx():
    src = str(Path(barnette.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = (
        "import sys\n"
        "from barnette.bruteforce import oracle_class_count\n"
        "from barnette.catalog import catalog\n"
        "from barnette.embedding import embed_planar\n"
        "assert oracle_class_count(12) == 1 and embed_planar(catalog('cube').graph) is not None\n"
        "print('networkx' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


_FUZZ_CHARS = "0123456789 :-\n?ABrotcu@_~"


def _mutate(text, edits):
    lines = text.split("\n")
    for kind, pos, ch in edits:
        i = pos % (len(lines) or 1)
        if kind == "dup_line" and lines:
            lines.insert(i, lines[i])
        elif kind == "drop_line" and lines:
            del lines[i]
        elif lines:
            chars = list(lines[i])
            j = pos % (len(chars) + 1)
            if kind == "insert":
                chars.insert(j, ch)
            elif chars:
                j %= len(chars)
                if kind == "delete":
                    del chars[j]
                else:
                    chars[j] = ch
            lines[i] = "".join(chars)
    return "\n".join(lines)


@settings(max_examples=120, derandomize=True)
@given(data=st.data())
def test_mutated_input_never_escapes_main(generated_16, data):
    # records with rot and cut lines, and graph6 lines, each edited a few
    # times and fed on stdin: every outcome is an exit code, never a traceback
    seeds = [
        to_bgf(
            rec.graph,
            rotation=rec.embedding.rotation,
            cuts=[(i, sorted(c.edge_ids)) for i, c in enumerate(rec.family)],
        )
        for rec in generated_16
    ]
    seeds += [to_graph6(rec.graph) + "\n" for rec in generated_16]
    assert any("rot 0:" in s and "cut 0:" in s for s in seeds)
    text = _mutate(
        data.draw(st.sampled_from(seeds)),
        data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(("insert", "delete", "replace", "dup_line", "drop_line")),
                    st.integers(0, 10_000),
                    st.sampled_from(_FUZZ_CHARS),
                ),
                min_size=1,
                max_size=4,
            )
        ),
    )
    argv = data.draw(st.sampled_from((["verify"], ["verify", "--json"], ["decompose"], ["pfaffian"])))
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    assert code in (0, 1, 2)
