#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

From the repository root:

    python3 bench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

The workload runs in a fresh single-threaded child interpreter that imports
the package from this checkout's ``src``.  With ``--trace 0`` the line holds
the end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
holds the per-layer metrics, and the spans go to ``bench/results``.  The full
result, with the environment it was measured in, is written to
``bench/results/BENCH-<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("enumerate", "oracle", "braces", "ladder")
RUN_LIMIT_S = 170  # the workload process and its children must end within this


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "barnette").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
    }


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (SRC / "barnette" / "__init__.py").is_file():
        return fail(f"no package source at {SRC / 'barnette'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.perf_counter()
    env = child_env()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if args.trace:
        layers = [m["name"][: -len(".calls")] for m in declared if m["name"].endswith(".calls")]
        cmd += ["--layers", ",".join(layers), "--spans-out", str(RESULTS / f"spans-{stem}.tsv.gz")]

    # its own session, so that a timeout kills the import probes it starts too
    worker = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = worker.communicate(timeout=RUN_LIMIT_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        return fail(f"the run did not finish within {RUN_LIMIT_S} s")
    finally:
        if worker.poll() is None:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.communicate()
    if worker.returncode != 0 or not stdout.strip():
        return fail(f"the workload process exited with code {worker.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])

    values = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = {
        "schema": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **line,
        "detail": result["detail"],
        "environment": environment(),
        "wall_s": time.perf_counter() - started,
    }
    (RESULTS / f"BENCH-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
