"""End-to-end acceptance checks: eleven numbered criteria with time budgets.

Each criterion prints one summary line directly to the terminal (past any
output capture) and fails on a wrong result or a blown budget.  Everything
here goes through public entry points only, apart from c06's whole-graph
reference, `hamiltonicity._CycleIndex`, the engine's index without the fold;
per-module behaviour is covered by the neighbouring test files.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

from barnette.bruteforce import oracle_class_count
from barnette.canon import canonical_form
from barnette.catalog import catalog
from barnette.constructions import (
    find_conformal_k33_bisubdivision,
    find_pfaffian_orientation,
)
from barnette.expansion import general_c4_expand
from barnette.generator import generate
from barnette.graphs import is_k_connected
from barnette.hamiltonicity import (
    HamiltonicityEngine,
    _CycleIndex,
    has_h_minus,
    has_h_plus_minus,
    is_hamiltonian,
    is_pk_hamiltonian,
)
from barnette.matching import is_brace, is_matching_covered
from barnette.tightcut import (
    contract,
    find_tight_cuts_cubic,
    is_cyclically_4_connected,
    is_tight,
    tight_cut_decomposition,
)
from conftest import random_edge_pair


@contextmanager
def budget(num: int, seconds: float, capsys):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        over = elapsed >= seconds
        status = "PASS" if ok and not over else "FAIL"
        with capsys.disabled():
            print(
                f"criterion {num:02d}: {status}"
                f" ({elapsed:.1f}s / budget {seconds:.0f}s)",
                flush=True,
            )
    if over:
        raise AssertionError(f"criterion {num} exceeded its {seconds:.0f}s budget")


def test_c01_asano_decomposition(capsys):
    with budget(1, 5, capsys):
        asano = catalog("asano").graph
        braces = tight_cut_decomposition(asano).braces
        c4 = catalog("c4").graph
        cube = catalog("cube").graph
        assert set(braces) == {canonical_form(c4), canonical_form(cube)}
        assert not is_hamiltonian(asano)
        assert is_hamiltonian(c4) and is_hamiltonian(cube)


def test_c02_generation_base_and_sharp_bound(capsys):
    with budget(2, 10, capsys):
        base = list(generate(8))
        assert len(base) == 1
        assert canonical_form(base[0].graph) == canonical_form(catalog("cube").graph)
        assert base[0].family == ()
        fourteen = [rec for rec in generate(14) if rec.n == 14]
        assert len(fourteen) == 1
        rec = fourteen[0]
        assert rec.site is not None and rec.site.kind == "cube"
        assert rec.parent_canonical == base[0].canonical
        assert len(rec.family) == 1 == (rec.n - 8) // 6


def test_c03_oracle_count_agreement(capsys):
    with budget(3, 30 * 60, capsys):
        import json
        import pathlib

        golden = json.loads(
            (pathlib.Path(__file__).parent / "golden" / "class_counts.json").read_text()
        )["counts"]
        generated = Counter(rec.n for rec in generate(20))
        for n in (8, 10, 12, 14, 16, 18, 20):
            live = oracle_class_count(n)
            assert live == golden[str(n)], f"n={n}: oracle drifted from golden"
            assert generated.get(n, 0) == live, f"n={n}: generation disagrees"


def test_c04_family_correctness(generated_16, capsys):
    with budget(4, 15 * 60, capsys):
        for rec in generated_16:
            g = rec.graph
            scratch = find_tight_cuts_cubic(g)
            assert {c.edge_ids for c in rec.family} == {c.edge_ids for c in scratch}
            flags = {rec.is_brace, is_brace(g), is_cyclically_4_connected(g)}
            assert len(flags) == 1, f"brace notions disagree at n={g.n}"


def test_c05_hamiltonicity_milestones(generated_16, capsys):
    with budget(5, 60 * 60, capsys):
        for rec in generated_16:
            engine = HamiltonicityEngine(rec.graph)
            assert engine.cycle_with() is not None, f"n={rec.n} not Hamiltonian"
            assert is_pk_hamiltonian(rec.graph, 2, engine), f"n={rec.n} not P2"
            if rec.n <= 14:
                assert has_h_plus_minus(rec.graph, engine), f"n={rec.n} lacks H+-"


def test_c06_contraction_transfer_suite(generated_16, capsys):
    with budget(6, 60 * 60, capsys):
        nonbraces = [rec for rec in generated_16 if rec.family]
        assert nonbraces, "suite expects at least one non-brace"
        for rec in nonbraces:
            g = rec.graph
            engine = _CycleIndex(g)  # searched whole, not folded over its pieces
            for cut in rec.family:
                pieces = contract(g, cut)
                piece_engines = [HamiltonicityEngine(p) for p in pieces]
                checks = (
                    ("h_minus", has_h_minus),
                    ("p3", lambda h, e: is_pk_hamiltonian(h, 3, e)),
                    ("h_plus_minus", has_h_plus_minus),
                )
                for label, prop in checks:
                    whole = bool(prop(g, engine))
                    parts = [bool(prop(p, e)) for p, e in zip(pieces, piece_engines)]
                    assert whole == all(parts), f"{label} transfer broken at n={g.n}"
                if all(
                    bool(is_pk_hamiltonian(p, 4, e))
                    for p, e in zip(pieces, piece_engines)
                ):
                    assert is_pk_hamiltonian(g, 4, engine), f"P4 backward broken"


def test_c07_marked_path_obstruction(capsys):
    with budget(7, 60, capsys):
        entry = catalog("p5_example")
        g = entry.graph
        class_forms = {canonical_form(rec.graph) for rec in generate(14)}
        assert canonical_form(g) in class_forms  # membership in the class
        assert is_tight(g, entry.marked_cut)
        engine = HamiltonicityEngine(g)
        verdict = is_pk_hamiltonian(g, 5, engine)
        assert not verdict
        path_ids = [
            g.edge_id(a, b)
            for a, b in zip(entry.marked_path, entry.marked_path[1:])
        ]
        assert engine.cycle_with(contains=path_ids) is None  # the marked path fails
        assert is_pk_hamiltonian(g, 4, engine)


def test_c08_pfaffian_route_coherence(capsys):
    with budget(8, 10 * 60, capsys):
        small = {
            name: catalog(name).graph
            for name in ("c4", "k33", "cube", "heawood", "p5_example")
        }
        verdicts = {}
        for name, g in small.items():
            by_orientation = find_pfaffian_orientation(g) is not None
            by_structure = find_conformal_k33_bisubdivision(g) is None
            assert by_orientation == by_structure, f"routes disagree on {name}"
            verdicts[name] = by_orientation
        assert verdicts["heawood"] is True
        assert verdicts["k33"] is False
        assert verdicts["cube"] is True
        assert find_pfaffian_orientation(catalog("asano").graph) is not None
        bh = catalog("b_horton").graph
        assert find_pfaffian_orientation(bh) is None
        witness = find_conformal_k33_bisubdivision(bh)
        assert witness is not None
        witness.validate(bh)


def test_c09_horton_construction(capsys):
    with budget(9, 10 * 60, capsys):
        entry = catalog("horton")
        g = entry.graph
        assert g.n == 96
        assert g.is_regular(3)
        assert g.colour is not None
        assert is_k_connected(g, 3)
        braces = tight_cut_decomposition(g).braces
        k33_form = canonical_form(catalog("k33").graph)
        bh = catalog("b_horton").graph
        assert braces[k33_form] == 1  # hence non-Pfaffian via its braces
        assert braces == Counter({canonical_form(bh): 3, k33_form: 1})
        assert is_pk_hamiltonian(bh, 2)
        # not Hamiltonian: folded over its four pieces, under three labellings
        rng = random.Random(9)
        relabelled = [g.relabel(rng.sample(range(g.n), g.n)) for _ in range(2)]
        for h in [g] + relabelled:
            assert HamiltonicityEngine(h).cycle_with() is None


def test_c10_random_expansion_properties(capsys):
    with budget(10, 10 * 60, capsys):
        rng = random.Random(2024)
        covered_pool = (
            ("cube", 30), ("c4", 10), ("k33", 30),
            ("heawood", 30), ("asano", 30), ("b_horton", 20),
        )
        extendable_pool = (("cube", 30), ("k33", 30), ("heawood", 30))
        total = 0
        for name, reps in covered_pool:
            g = catalog(name).graph
            for _ in range(reps):
                e, f = random_edge_pair(g, rng)
                assert is_matching_covered(general_c4_expand(g, e, f))
                total += 1
        for name, reps in extendable_pool:
            g = catalog(name).graph
            for _ in range(reps):
                e, f = random_edge_pair(g, rng)
                expanded = general_c4_expand(g, e, f)
                assert is_brace(expanded)
                assert is_matching_covered(expanded)
                total += 1
        assert total >= 200


def test_c11_decomposition_order_invariance(generated_16, capsys):
    with budget(11, 10 * 60, capsys):
        subjects = [catalog("asano").graph, catalog("horton").graph]
        subjects += [rec.graph for rec in generated_16 if rec.family]
        rng = random.Random(11)
        for g in subjects:
            base = tight_cut_decomposition(g).braces
            for _ in range(10):
                relabelled = g.relabel(rng.sample(range(g.n), g.n))
                assert tight_cut_decomposition(relabelled).braces == base, (
                    f"order-dependent result at n={g.n}"
                )
