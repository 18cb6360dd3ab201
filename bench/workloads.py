"""The benchmark's four workloads: inputs from a seed, one timed pass, exact checks.

Every call into the package goes through the ``barnette`` module objects at
call time (``B.generate``, ``bruteforce.oracle_class_count``), so that the
tracer's wrappers see it.  A pass returns one ``Item`` per unit of work with
its latency and its output; an item that raises keeps the exception as its
output and the pass goes on.
"""

from __future__ import annotations

import io
import json
import random
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable

import barnette as B
from barnette import bruteforce
from barnette.io import split_records

DATA = Path(__file__).resolve().parent / "data"
CLASS_FILE = DATA / "class24.bgf"  # generate --max-n 24 --with-family
EXPECTED_FILE = DATA / "expected.json"

CATALOG_BRACES = ("cube", "c4", "k33", "heawood", "b_horton")
# catalog property name -> property_profile key
CATALOG_PROPERTY_KEYS = {
    "hamiltonian": "hamiltonian",
    "p2_hamiltonian": "p2",
    "p4_hamiltonian": "p4",
    "p5_hamiltonian": "p5",
}


@dataclass
class Item:
    label: str
    start: float  # perf_counter() at the start and at the end of the item
    end: float
    value: object  # the output, or the exception the call raised


def timed_calls(calls: Iterable[tuple[str, Callable[[], object]]]) -> list[Item]:
    items = []
    for label, fn in calls:
        t0 = perf_counter()
        try:
            value = fn()
        except Exception as exc:  # the item fails; the pass goes on
            traceback.print_exc()
            value = exc
        items.append(Item(label, t0, perf_counter(), value))
    return items


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text(encoding="ascii"))


def permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabelled(g: B.BipartiteGraph, rng: random.Random) -> B.BipartiteGraph:
    return g.relabel(permutation(g.n, rng))


# Graphs whose analysis time swings with their labels keep the labels their
# catalog construction gives them: Horton's decomposition took 0.8-2.6 s and
# the 66-vertex splice's profile 1.0-5.3 s over six random labellings, which
# would make run_s depend on the seed by more than its bound.
KEEP_LABELS = frozenset({"decompose/horton", "splice/k33+2b_horton"})


def seeded(label: str, g: B.BipartiteGraph, rng: random.Random) -> B.BipartiteGraph:
    return g if label in KEEP_LABELS else relabelled(g, rng)


def relabelled_record(block: str, rng: random.Random) -> str:
    """A bgf record with its vertices permuted; rotation and cuts follow."""
    g, rotation, cuts = B.from_bgf(block)
    perm = permutation(g.n, rng)
    h = g.relabel(perm)
    new_id = [h.edge_id(perm[u], perm[v]) for u, v in g.edges]
    rot: list[tuple[int, ...]] = [()] * g.n
    for v in range(g.n):
        rot[perm[v]] = tuple(new_id[e] for e in rotation[v])
    new_cuts = [(label, [new_id[e] for e in ids]) for label, ids in cuts]
    return B.to_bgf(h, rotation=rot, cuts=new_cuts)


def record_signature(block: str) -> str:
    """Order, number of family cuts and face lengths of one bgf record.

    None of these depends on vertex labels or on the order of records, so
    the check survives any change to how the generator names or sorts.
    """
    g, rotation, cuts = B.from_bgf(block)
    lengths = Counter(len(f) for f in B.faces(g, B.RotationEmbedding(rotation)))
    faces = ",".join(f"{k}x{lengths[k]}" for k in sorted(lengths))
    return f"n={g.n} cuts={len(cuts)} faces={faces}"


def wrong(it: Item, expected: dict[str, object]) -> bool:
    return isinstance(it.value, Exception) or it.value != expected.get(it.label)


class Enumerate:
    """``generate --max-n 24 --with-family``: stream the class, write bgf to memory."""

    n_max = 24

    def setup(self, seed: int) -> None:
        B.catalog.cache_clear()
        B.catalog("cube")  # the generator's only input

    def run_pass(self, inputs: None) -> list[Item]:
        out = io.StringIO()
        items: list[Item] = []
        t0 = perf_counter()
        try:
            for rec in B.generate(self.n_max):
                cuts = [(i, sorted(c.edge_ids)) for i, c in enumerate(rec.family)]
                text = B.to_bgf(rec.graph, rotation=rec.embedding.rotation, cuts=cuts)
                if items:
                    out.write("\n")
                out.write(text)
                t1 = perf_counter()
                items.append(Item(f"record/{len(items)}", t0, t1, text))
                t0 = t1
        except Exception as exc:
            traceback.print_exc()
            items.append(Item("raised", t0, perf_counter(), exc))
        return items

    def check(self, inputs: None, items: list[Item], expected: dict) -> tuple[int, int]:
        want = Counter(
            sig
            for n, sigs in expected["class_signatures"].items()
            if int(n) <= self.n_max
            for sig in sigs
        )
        got: Counter = Counter()
        raised = 0
        for it in items:
            if isinstance(it.value, Exception):
                raised += 1
            else:
                got[record_signature(it.value)] += 1
        unexpected = sum((got - want).values())
        missing = sum((want - got).values())
        return len(items) + missing, raised + unexpected + missing


class Oracle:
    """``bruteforce.oracle_class_count(n)`` for n = 8, 10, 12: the c03 test's work.

    c03 also runs n = 14, which alone takes 22-30 s on a 2-core machine: more
    than a whole run, so it would leave one sample per run.
    """

    orders = (8, 10, 12)

    def setup(self, seed: int) -> None:
        return None

    def run_pass(self, inputs: None) -> list[Item]:
        return timed_calls(
            (f"n{n}", lambda n=n: bruteforce.oracle_class_count(n)) for n in self.orders
        )

    def check(self, inputs: None, items: list[Item], expected: dict) -> tuple[int, int]:
        want = {f"n{n}": c for n, c in expected["oracle_counts"].items()}
        return len(items), sum(wrong(it, want) for it in items)


def verify_bgf(text: str) -> dict:
    """The ``barnette verify`` path for one record."""
    g, rotation, cut_triples = B.from_bgf(text)
    g = g if g.colour is not None else B.with_colouring(g)
    rec = B.GenerationRecord(
        graph=g,
        embedding=B.RotationEmbedding(rotation),
        family=tuple(B.cut_from_edge_ids(g, ids) for _label, ids in cut_triples),
        canonical=B.canonical_form(g),
    )
    return B.verify_record(rec)


def brace_counts(g: B.BipartiteGraph) -> dict[str, int]:
    return dict(B.tight_cut_decomposition(g).braces)


def pfaffian_report(g: B.BipartiteGraph) -> dict:
    report = B.braces_pfaffian_consistency(g)
    return {k: report[k] for k in ("pfaffian", "direct", "consistent", "braces")}


BRACES_GRAPHS = (
    ("decompose/horton", "horton", brace_counts),
    ("decompose/asano", "asano", brace_counts),
    ("pfaffian/b_horton", "b_horton", pfaffian_report),
)


class Braces:
    """Read side: ``barnette verify`` on the class to 24, ``decompose`` on Horton
    and Asano, ``pfaffian`` on B-Horton."""

    def setup(self, seed: int) -> tuple[list[str], dict[str, B.BipartiteGraph]]:
        rng = random.Random(seed)
        text = CLASS_FILE.read_text(encoding="ascii")
        records = [relabelled_record(block, rng) for block in split_records(text)]
        B.catalog.cache_clear()
        graphs = {
            label: seeded(label, B.catalog(name).graph, rng)
            for label, name, _analyse in BRACES_GRAPHS
        }
        return records, graphs

    def run_pass(self, inputs) -> list[Item]:
        records, graphs = inputs
        calls = [(f"verify/{i}", lambda t=t: verify_bgf(t)) for i, t in enumerate(records)]
        calls += [
            (label, lambda f=analyse, g=graphs[label]: f(g))
            for label, _name, analyse in BRACES_GRAPHS
        ]
        return timed_calls(calls)

    def check(self, inputs, items: list[Item], expected: dict) -> tuple[int, int]:
        failed = 0
        for it in items:
            if it.label.startswith("verify/"):
                # every check in the report must hold, not only its summary
                failed += not (isinstance(it.value, dict) and all(it.value.values()))
            else:
                failed += wrong(it, expected["graphs"])
        return len(items), failed


def spliced_graphs() -> Iterable[tuple[str, B.BipartiteGraph]]:
    cube, k33, heawood, bh = (
        B.catalog(name).graph for name in ("cube", "k33", "heawood", "b_horton")
    )
    yield "cube+cube", B.splice(cube, 0, cube, 0).graph
    yield "heawood+cube", B.splice(heawood, 0, cube, 0).graph
    once = B.splice(k33, 3, bh, 0)  # vertices 3 and 4 share a colour class
    yield "k33+b_horton", once.graph
    yield "k33+2b_horton", B.splice(once.graph, once.map1[4], bh, 0).graph


def ladder_graphs(class_text: str) -> Iterable[tuple[str, B.BipartiteGraph]]:
    for i, block in enumerate(split_records(class_text)):
        yield f"class/{i}", B.from_bgf(block)[0]
    for name in CATALOG_BRACES:
        yield f"catalog/{name}", B.catalog(name).graph
    for name, g in spliced_graphs():
        yield f"splice/{name}", g


class Ladder:
    """``property_profile`` on the class to 24, the catalog braces and spliced graphs."""

    def setup(self, seed: int) -> list[tuple[str, B.BipartiteGraph]]:
        rng = random.Random(seed)
        text = CLASS_FILE.read_text(encoding="ascii")
        B.catalog.cache_clear()
        return [(label, seeded(label, g, rng)) for label, g in ladder_graphs(text)]

    def run_pass(self, inputs) -> list[Item]:
        return timed_calls(
            (label, lambda g=g: B.property_profile(g)) for label, g in inputs
        )

    def check(self, inputs, items: list[Item], expected: dict) -> tuple[int, int]:
        failed = 0
        for it in items:
            ok = not wrong(it, expected["ladder"])
            if ok and it.label.startswith("catalog/"):
                props = B.catalog(it.label.split("/", 1)[1]).expected_properties
                ok = all(
                    it.value[key] == props[name]
                    for name, key in CATALOG_PROPERTY_KEYS.items()
                    if name in props
                )
            failed += not ok
        return len(items), failed


WORKLOADS = {
    "enumerate": Enumerate(),
    "oracle": Oracle(),
    "braces": Braces(),
    "ladder": Ladder(),
}
