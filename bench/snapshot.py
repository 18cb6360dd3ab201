#!/usr/bin/env python3
"""Record the benchmark's inputs and expected outputs from the current source.

Writes ``data/class24.bgf`` (the output of ``barnette generate --max-n 24
--with-family``) and ``data/expected.json`` (what every workload must
return).  Class counts up to n = 14 must equal ``tests/golden``; the counts
from 16 to 24 are the generator's own.  Run from the repository root, and
only on a commit whose answers are trusted: the benchmark's checks compare
against these files.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import barnette as B  # noqa: E402
from barnette.cli import main as cli_main  # noqa: E402

import workloads as W  # noqa: E402


def main() -> None:
    W.DATA.mkdir(exist_ok=True)
    if cli_main(["generate", "--max-n", "24", "--with-family", "--out", str(W.CLASS_FILE)]):
        raise SystemExit("generate failed")
    text = W.CLASS_FILE.read_text(encoding="ascii")
    blocks = W.split_records(text)

    golden = json.loads((ROOT / "tests" / "golden" / "class_counts.json").read_text())
    signatures: dict[str, list[str]] = {str(n): [] for n in range(8, 25, 2)}
    for block in blocks:
        signatures[str(B.from_bgf(block)[0].n)].append(W.record_signature(block))
    for n, count in golden["counts"].items():
        if len(signatures[n]) != count:
            raise SystemExit(f"generator disagrees with tests/golden at n={n}")

    B.catalog.cache_clear()
    expected = {
        "schema": 1,
        "class_signatures": signatures,
        "oracle_counts": {n: golden["counts"][str(n)] for n in W.Oracle.orders},
        "graphs": {
            label: analyse(B.catalog(name).graph)
            for label, name, analyse in W.BRACES_GRAPHS
        },
        "ladder": {label: B.property_profile(g) for label, g in W.ladder_graphs(text)},
    }
    W.EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {W.CLASS_FILE} ({len(blocks)} records) and {W.EXPECTED_FILE}")


if __name__ == "__main__":
    main()
