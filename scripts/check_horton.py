#!/usr/bin/env python3
"""Verify non-Hamiltonicity of the 96-vertex Horton graph by exhaustive
search on the whole graph.  The test suite decides it in well under a second
(tests/test_acceptance.py, criterion 09) by folding the query over Horton's
3-edge-cut pieces, three B-Horton braces around a K3,3; this script is the
slow witness that shares no piece tree with that route: `find_hamiltonian_cycle`
on the whole graph, which runs for hours, depending on hardware.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from barnette.catalog import catalog  # noqa: E402
from barnette.hamiltonicity import find_hamiltonian_cycle  # noqa: E402


def main() -> int:
    g = catalog("horton").graph
    print(
        f"searching for a Hamiltonian cycle on {g.n} vertices / {g.edge_count} edges ...",
        flush=True,
    )
    t0 = time.time()
    cycle = find_hamiltonian_cycle(g)
    elapsed = time.time() - t0
    if cycle is None:
        print(f"no Hamiltonian cycle exists ({elapsed:.1f}s)")
        return 0
    print(f"FOUND a Hamiltonian cycle ({elapsed:.1f}s): {cycle}")
    print("this contradicts the catalog entry; please report")
    return 1


if __name__ == "__main__":
    sys.exit(main())
