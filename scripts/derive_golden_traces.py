#!/usr/bin/env python3
"""Record tight-cut decomposition traces and freeze them under tests/golden/.

Each case decomposes one catalog graph, optionally relabelled, with a given
rng (or none) and stores the full trace: for every contraction the piece
order, the cut's edge ids, the shore size and the two piece orders.  The
trace pins which cut each route picks, so a change to the cubic 3-edge-cut
scan or to the matching digraph search that alters the cut chosen shows up
as a diff against this file.  The brace multisets must never change.  Asano's
traces under rng seeds 1, 5 and 9 must not all agree, so that the frozen
cases pin how an rng steers the choice of cuts.  Run from the repository
root; the test suite compares a fresh decomposition of every case against it.
"""

import json
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from barnette.catalog import catalog  # noqa: E402
from barnette.graphs import with_colouring  # noqa: E402
from barnette.tightcut import tight_cut_decomposition  # noqa: E402

OUT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "tests"
    / "golden"
    / "decomposition_traces.json"
)
GRAPHS = ("horton", "asano", "p5_example")
RNG_SEEDS = (None, 1, 5, 9)
RELABEL_SEEDS = (0, 1, 2)  # permutation seeds for extra Asano cases


def case_graph(name: str, relabel_seed):
    g = catalog(name).graph
    if relabel_seed is None:
        return g
    perm = list(range(g.n))
    random.Random(relabel_seed).shuffle(perm)
    return with_colouring(g.relabel(perm))


def cases():
    """(graph name, relabel seed, rng seed) for every frozen case."""
    for name in GRAPHS:
        for seed in RNG_SEEDS:
            yield name, None, seed
    for perm_seed in RELABEL_SEEDS:
        yield "asano", perm_seed, None


def run_case(name: str, relabel_seed, rng_seed) -> dict:
    g = case_graph(name, relabel_seed)
    rng = None if rng_seed is None else random.Random(rng_seed)
    result = tight_cut_decomposition(g, rng)
    return {
        "graph": name,
        "relabel_seed": relabel_seed,
        "rng_seed": rng_seed,
        "trace": [
            [s.n, list(s.cut_edge_ids), s.shore_size, list(s.piece_sizes)]
            for s in result.trace
        ],
        "braces": dict(sorted(result.braces.items())),
    }


def main() -> None:
    out = []
    for name, relabel_seed, rng_seed in cases():
        t0 = time.time()
        out.append(run_case(name, relabel_seed, rng_seed))
        print(
            f"{name} relabel={relabel_seed} rng={rng_seed}: "
            f"{len(out[-1]['trace'])} steps ({time.time() - t0:.1f}s)"
        )
    shuffled = [
        c["trace"] for c in out if c["graph"] == "asano" and c["rng_seed"] is not None
    ]
    assert any(t != shuffled[0] for t in shuffled), "rng does not vary Asano's traces"
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"schema": 1, "cases": out}, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
