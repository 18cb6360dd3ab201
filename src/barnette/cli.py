"""Command-line surface.

Subcommands stream graphs in the bgf/1 text format or graph6; every JSON
report carries ``"schema": 1``.  Exit codes: 0 success, 1 a verification or
property check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .canon import canonical_form
from .catalog import catalog, catalog_names
from .constructions import (
    braces_pfaffian_consistency,
    find_conformal_k33_bisubdivision,
)
from .embedding import RotationEmbedding
from .graphs import BipartiteGraph, GraphError, with_colouring
from .generator import GenerationRecord, generate, survey, verify_record
from .hamiltonicity import property_profile
from .io import detect_format, from_bgf, from_graph6, split_records, to_bgf, to_graph6
from . import matching
from .tightcut import cut_from_edge_ids, tight_cut_decomposition

ParsedRecord = tuple[BipartiteGraph, Optional[tuple[tuple[int, ...], ...]], list[tuple[int, tuple[int, ...]]]]


def _read_text(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _parse_records(text: str) -> list[ParsedRecord]:
    if not text.strip():
        raise GraphError("empty input")
    if detect_format(text) == "bgf":
        return [from_bgf(block) for block in split_records(text)]
    out: list[ParsedRecord] = []
    for line in text.splitlines():
        if line.strip():
            out.append((from_graph6(line.strip()), None, []))
    return out


def _print_json(payload: dict) -> None:
    print(json.dumps({"schema": 1, **payload}, sort_keys=True))


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.with_family and args.format == "graph6":
        print("graph6 output cannot carry families", file=sys.stderr)
        return 2
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="ascii")
    try:
        first = True
        for rec in generate(args.max_n, braces_only=args.braces_only):
            if args.format == "graph6":
                out.write(to_graph6(rec.graph) + "\n")
                continue
            if not first:
                out.write("\n")
            first = False
            cuts = None
            if args.with_family:
                cuts = [(i, sorted(c.edge_ids)) for i, c in enumerate(rec.family)]
            out.write(to_bgf(rec.graph, rotation=rec.embedding.rotation, cuts=cuts))
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    records = _parse_records(_read_text(args.file))
    for i, (g, _rot, _cuts) in enumerate(records):
        result = tight_cut_decomposition(with_colouring(g))
        if args.json:
            _print_json(
                {
                    "n": g.n,
                    "braces": dict(result.braces),
                    "trace": [
                        {
                            "n": step.n,
                            "cut": sorted(step.cut_edge_ids),
                            "pieces": list(step.piece_sizes),
                        }
                        for step in result.trace
                    ],
                }
            )
        else:
            if i:
                print()
            for form in sorted(result.braces):
                print(form)
    return 0


def _cmd_check_properties(args: argparse.Namespace) -> int:
    for g, _rot, _cuts in _parse_records(_read_text(args.file)):
        profile = property_profile(with_colouring(g))
        if args.json:
            _print_json({"n": g.n, **profile})
        else:
            for key in sorted(profile):
                print(f"{key}: {str(profile[key]).lower()}")
    return 0


def _cmd_pfaffian(args: argparse.Namespace) -> int:
    failed = False
    for g, _rot, _cuts in _parse_records(_read_text(args.file)):
        g = with_colouring(g)
        report = braces_pfaffian_consistency(g)
        witness = None
        if not report["pfaffian"] and g.n <= matching.ORACLE_BOUND:
            found = find_conformal_k33_bisubdivision(g)
            if found is not None:
                witness = {
                    "branches_a": list(found.branches_a),
                    "branches_b": list(found.branches_b),
                    "paths": [list(p) for p in found.paths],
                }
        if report["consistent"] is False:
            failed = True
        if args.json:
            _print_json(
                {
                    "n": g.n,
                    "pfaffian": report["pfaffian"],
                    "direct": report["direct"],
                    "consistent": report["consistent"],
                    "braces": report["braces"],
                    "witness": witness,
                }
            )
        else:
            print(f"pfaffian: {str(report['pfaffian']).lower()}")
    return 1 if failed else 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.list:
        for name in catalog_names():
            print(name)
        return 0
    if args.name is None:
        print("a catalog name is required (or --list)", file=sys.stderr)
        return 2
    entry = catalog(args.name)
    if args.format == "graph6":
        print(to_graph6(entry.graph))
        return 0
    rotation = entry.rotation.rotation if entry.rotation is not None else None
    cuts = None
    if entry.marked_cut is not None:
        cuts = [(0, sorted(entry.marked_cut.edge_ids))]
    sys.stdout.write(to_bgf(entry.graph, rotation=rotation, cuts=cuts))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    any_failed = False
    for g, rotation, cut_triples in _parse_records(_read_text(args.file)):
        if rotation is None:
            print("verify needs bgf records with rotations", file=sys.stderr)
            return 2
        rec = GenerationRecord(
            graph=g,
            embedding=RotationEmbedding(rotation),
            family=tuple(cut_from_edge_ids(g, ids) for _label, ids in cut_triples),
            canonical=canonical_form(g),
        )
        report = verify_record(rec)
        if args.json:
            _print_json({"n": g.n, "canonical": rec.canonical, **report})
        else:
            status = "ok" if report["ok"] else "FAIL " + " ".join(
                sorted(k for k, v in report.items() if not v and k != "ok")
            )
            print(f"{rec.canonical}: {status}")
        any_failed = any_failed or not report["ok"]
    return 1 if any_failed else 0


def _cmd_survey(args: argparse.Namespace) -> int:
    rows = survey(args.max_n, with_p2=args.p2, with_h_plus_minus=args.h_plus_minus)
    if args.json:
        _print_json({"rows": rows})
        return 0
    columns = ["n", "graphs", "braces", "hamiltonian"]
    if args.p2:
        columns.append("p2")
    if args.h_plus_minus:
        columns.append("h_plus_minus")
    print("  ".join(f"{c:>12}" for c in columns))
    for row in rows:
        print("  ".join(f"{row.get(c, ''):>12}" for c in columns))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barnette",
        description="generation and analysis of cubic 3-connected planar bipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="stream the class up to a vertex bound")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--braces-only", action="store_true")
    p.add_argument("--format", choices=("bgf", "graph6"), default="bgf")
    p.add_argument("--with-family", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("decompose", help="tight cut decomposition into braces")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("check-properties", help="Hamiltonicity property profile")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_properties)

    p = sub.add_parser("pfaffian", help="Pfaffian verdict via braces, with witness")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pfaffian)

    p = sub.add_parser("catalog", help="print a named reference graph")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--list", action="store_true")
    p.add_argument("--format", choices=("bgf", "graph6"), default="bgf")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("verify", help="re-check a generation output file")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("survey", help="per-order summary table")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--p2", action="store_true")
    p.add_argument("--h-plus-minus", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_survey)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
