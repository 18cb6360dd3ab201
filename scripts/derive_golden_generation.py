#!/usr/bin/env python3
"""Record the generate(22) record stream and freeze it under tests/golden/.

One entry per record, in the order the generator yields them: its name
(the graph6 string under its planar code's BFS order), the graph6 canonical
form ``canon.canonical_form`` gives it, its parent's name, the expansion
site that produced it, and the sha256 of its bgf serialisation with
rotation and family cuts (the bytes ``barnette generate --with-family``
writes).  The digest pins edge ids, rotation and family, so a change to how
duplicates are rejected that admits a different representative shows up as
a diff against this file.  Run from
the repository root; the test suite compares a fresh stream against it.
"""

import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from barnette.canon import canonical_form  # noqa: E402
from barnette.generator import generate  # noqa: E402
from barnette.io import to_bgf  # noqa: E402

OUT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "tests"
    / "golden"
    / "generation_records.json"
)
N_MAX = 22


def record_entry(rec) -> dict:
    cuts = [(i, sorted(c.edge_ids)) for i, c in enumerate(rec.family)]
    text = to_bgf(rec.graph, rotation=rec.embedding.rotation, cuts=cuts)
    return {
        "canonical": rec.canonical,
        "canonical_form": canonical_form(rec.graph),
        "parent_canonical": rec.parent_canonical,
        "site": None if rec.site is None else rec.site.describe(),
        "bgf_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def main() -> None:
    records = [record_entry(rec) for rec in generate(N_MAX)]
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(
        json.dumps({"schema": 1, "n_max": N_MAX, "records": records}, indent=1) + "\n"
    )
    print(f"wrote {len(records)} records to {OUT}")


if __name__ == "__main__":
    main()
