#!/usr/bin/env python3
"""Recompute the per-order class counts with the brute-force oracle and
freeze them under tests/golden/.  Run from the repository root; the test
suite compares both the generator and a fresh oracle run against this file.
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from barnette.bruteforce import oracle_class_count  # noqa: E402

ORDERS = (8, 10, 12, 14, 16, 18, 20)
OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "class_counts.json"


def main() -> None:
    counts = {}
    for n in ORDERS:
        t0 = time.time()
        counts[str(n)] = oracle_class_count(n)
        print(f"n={n}: {counts[str(n)]} ({time.time() - t0:.1f}s)")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"schema": 1, "counts": counts}, indent=2) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
