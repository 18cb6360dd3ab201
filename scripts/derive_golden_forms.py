#!/usr/bin/env python3
"""Record canonical forms and freeze them under tests/golden/.

Each case is one labelled input graph, stored as graph6, with the
canonical form ``canon.canonical_form`` gives it:

- the class to n = 24, as generated and under two seeded relabellings;
- every catalog entry;
- the connected cubic bipartite matrix graphs to n = 12, in the order of
  ``bruteforce._matrices_with_line_sums_three``;
- the star K1,12, the edgeless graph on 20 vertices and 200 seeded random
  graphs on at most 10 vertices.

The forms are the strings users see (brace names, ``barnette verify``
records), so a change to the canonical search that alters any of them shows
as a diff against this file.  Run from the repository root; the test suite
compares a fresh form of every case against it.
"""

import json
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from barnette.bruteforce import _matrices_with_line_sums_three, _matrix_graph  # noqa: E402
from barnette.canon import canonical_form  # noqa: E402
from barnette.catalog import catalog, catalog_names  # noqa: E402
from barnette.generator import generate  # noqa: E402
from barnette.graphs import BipartiteGraph, is_connected  # noqa: E402
from barnette.io import to_graph6  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "canonical_forms.json"
CLASS_MAX_N = 24
RELABEL_SEEDS = (0, 1)
MATRIX_MAX_N = 12
RANDOM_SEED, RANDOM_COUNT, RANDOM_MAX_N = 37, 200, 10


def relabelled(g: BipartiteGraph, seed: int) -> BipartiteGraph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


def cases():
    """(case name, labelled graph) for every frozen case."""
    for i, rec in enumerate(generate(CLASS_MAX_N)):
        yield f"class/{rec.n}/{i}", rec.graph
        for seed in RELABEL_SEEDS:
            yield f"class/{rec.n}/{i}/relabel{seed}", relabelled(rec.graph, seed)
    for name in catalog_names():
        yield f"catalog/{name}", catalog(name).graph
    for half in range(3, MATRIX_MAX_N // 2 + 1):
        for i, rows in enumerate(_matrices_with_line_sums_three(half)):
            g = _matrix_graph(rows)
            if is_connected(g):
                yield f"matrix/{2 * half}/{i}", g
    yield "star/12", BipartiteGraph(13, tuple((0, i) for i in range(1, 13)))
    yield "edgeless/20", BipartiteGraph(20, ())
    rng = random.Random(RANDOM_SEED)
    for i in range(RANDOM_COUNT):
        n = rng.randint(1, RANDOM_MAX_N)
        p = rng.random()
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
        yield f"random/{i}", BipartiteGraph(n, edges)


def main() -> None:
    t0 = time.time()
    forms = [[name, to_graph6(g), canonical_form(g)] for name, g in cases()]
    OUT.parent.mkdir(parents=True, exist_ok=True)
    rows = ",\n".join(json.dumps(case) for case in forms)  # one case a line
    OUT.write_text(f'{{"schema": 1, "forms": [\n{rows}\n]}}\n')
    print(f"{len(forms)} forms ({time.time() - t0:.1f}s); wrote {OUT}")


if __name__ == "__main__":
    main()
