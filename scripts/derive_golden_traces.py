#!/usr/bin/env python3
"""Record tight-cut decomposition traces and freeze them under tests/golden/.

Each case decomposes one catalog graph, as stored or relabelled by a seeded
permutation, and stores the full trace: for every contraction the piece
order, the cut's edge ids, the shore size and the two piece orders.  The
trace pins which cut the matching digraph search picks, so a change to it
that alters the cut chosen shows up as a diff against this file.  The brace
multisets must never change: every relabelling of a graph must give the
multiset of the graph as stored.  Run from the repository root; the test
suite compares a fresh decomposition of every case against it.
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
RELABEL_SEEDS = (None, 0, 1, 2)  # None keeps the catalog labels


def case_graph(name: str, relabel_seed):
    g = catalog(name).graph
    if relabel_seed is None:
        return g
    perm = list(range(g.n))
    random.Random(relabel_seed).shuffle(perm)
    return with_colouring(g.relabel(perm))


def cases():
    """(graph name, relabel seed) for every frozen case."""
    for name in GRAPHS:
        for seed in RELABEL_SEEDS:
            yield name, seed


def run_case(name: str, relabel_seed) -> dict:
    result = tight_cut_decomposition(case_graph(name, relabel_seed))
    return {
        "graph": name,
        "relabel_seed": relabel_seed,
        "trace": [
            [s.n, list(s.cut_edge_ids), s.shore_size, list(s.piece_sizes)]
            for s in result.trace
        ],
        "braces": dict(sorted(result.braces.items())),
    }


def main() -> None:
    out = []
    for name, relabel_seed in cases():
        t0 = time.time()
        out.append(run_case(name, relabel_seed))
        print(
            f"{name} relabel={relabel_seed}: "
            f"{len(out[-1]['trace'])} steps ({time.time() - t0:.1f}s)"
        )
    for name in GRAPHS:
        braces = [c["braces"] for c in out if c["graph"] == name]
        assert all(b == braces[0] for b in braces), f"relabelling changes {name}'s braces"
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"schema": 1, "cases": out}, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
