"""One workload in a fresh interpreter: import, set-up, timed passes, checks.

``run.py`` starts this with the package's ``src`` directory on PYTHONPATH and
BLAS threads pinned to one.  The last line of standard output is a JSON
object with the counts, the metric values by name and the details behind
them.

A run repeats whole passes until its time is spent.  Each timed item and
set-up is scaled to a normalised time by the reference loop of
``calibrate.py``, sampled every 0.1 s, because the speed of a core on a
shared machine swings by up to 2x over seconds to minutes.  ``run_s`` is
the median of the normalised pass times, each the sum of its items.  Wall
times are kept in the details.

``import_s`` times ``import barnette`` in fresh interpreters started from
the reference loop's timer, one every PROBE_EVERY_S, so that the probes
spread over the whole run; like the loop, they are left out of the timed
items.  The import's time follows the loop too loosely to be scaled by it,
so each probe is scaled by a reference import instead: ``import numpy``,
timed in another fresh interpreter just before it.  Over 30-s windows the
median of the raw import times drifted by a quarter; that of the scaled ones
stayed within a few per cent.  The reference never loads the package, so a
change to the package cannot change it.
"""

import time

_t0 = time.perf_counter()
import barnette  # noqa: E402  (timed; kept in the details beside import_s)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Set-up is repeated before and after the passes and its median reported.
# Each side repeats at least SETUP_MIN_REPS times and, for short set-ups,
# until SETUP_MIN_S has passed, so that the median spans about ten reference
# samples and not one moment of the machine's load.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 10000
SETUP_MIN_S = 1.0
TAIL_BEYOND = 10  # the tail percentile leaves at least this many items above it
PROBE = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
PROBE_EVERY_S = 1.5
PROBE_MIN = 8  # scaled import timings per run
PROBE_TIMEOUT_S = 60
IMPORT_REFERENCE = "numpy"
# About the reference import's time, in seconds, on a quiet 2-core x86-64
# sandbox; only the scale of import_s depends on it.
IMPORT_REFERENCE_S = 0.11


def time_import(module: str) -> float:
    """Seconds `import module` takes in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", PROBE.format(module)], cwd=ROOT, capture_output=True,
        text=True, check=True, timeout=PROBE_TIMEOUT_S,
    )
    return float(probe.stdout.split()[-1])


class ImportProbes:
    """`import barnette` scaled by a reference import, for calibrate.Speed's ``between``."""

    def __init__(self):
        self.wall: list[tuple[float, float]] = []  # (reference, barnette) seconds
        self.scaled: list[float] = []
        self._last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= PROBE_EVERY_S

    def run(self) -> None:
        ref = time_import(IMPORT_REFERENCE)
        own = time_import("barnette")
        self.wall.append((ref, own))
        self.scaled.append(own * IMPORT_REFERENCE_S / ref)
        self._last = time.perf_counter()


@dataclass
class Pass:
    wall_s: float  # the whole pass, reference samples and import probes included
    items: list  # workloads.Item


def run_passes(wl, inputs, budget_s: float, tracer=None) -> list[Pass]:
    """Whole passes until the next one would overrun budget_s; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            items = wl.run_pass(inputs)
            wall = time.perf_counter() - t0
        passes.append(Pass(wall, items))
        if tracer is not None:
            tracer.end_pass()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall_s for p in passes) > budget_s:
            return passes


def time_setups(wl, seed: int, times: list[tuple[float, float]]):
    """Set up repeatedly, appending the start and end of each to times.

    Returns the last inputs and the expected outputs.
    """
    spent = 0.0
    reps = 0
    while reps < SETUP_MIN_REPS or (spent < SETUP_MIN_S and reps < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        inputs = wl.setup(seed)
        expected = workloads.load_expected()
        t1 = time.perf_counter()
        times.append((t0, t1))
        spent += t1 - t0
        reps += 1
    return inputs, expected


def tail_percentile(items: int) -> int:
    """Highest whole percentile with TAIL_BEYOND items above it; 100 if too few."""
    if items <= TAIL_BEYOND:
        return 100
    return math.floor(100 * (items - TAIL_BEYOND) / items)


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(
    passes: list[Pass], setups: list[tuple[float, float]], speed: calibrate.Speed,
    probes: ImportProbes,
) -> tuple[dict, dict]:
    """The printed metrics and their details; speed must have stopped."""
    scaled_ms = [{it.label: 1000 * speed.scaled(it.start, it.end) for it in p.items} for p in passes]
    labels = {label for items in scaled_ms for label in items}
    latencies = sorted(
        statistics.median(items[label] for items in scaled_ms if label in items)
        for label in labels
    )
    pct = tail_percentile(len(latencies))
    pass_s = [sum(items.values()) / 1000 for items in scaled_ms]
    setup_s = [speed.scaled(t0, t1) for t0, t1 in setups]
    metrics = {
        "run_s": statistics.median(pass_s),
        "setup_s": statistics.median(setup_s),
        "import_s": statistics.median(probes.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "passes": len(passes),
        "pass_s": pass_s,
        "pass_s_quartiles": statistics.quantiles(pass_s, n=4) if len(pass_s) > 1 else None,
        "pass_wall_s": [p.wall_s for p in passes],
        "items": len(latencies),
        "item_p50_ms": statistics.median(latencies),
        "item_tail_ms": nearest_rank(latencies, pct),
        "item_tail_percentile": pct,
        "setup_reps": len(setups),
        "reference_samples": len(speed.samples),
        "reference_ms_quartiles": [1000 * q for q in statistics.quantiles(speed.samples, n=4)],
        "import_s_samples": probes.scaled,
        "import_wall_s": {"own": IMPORT_S, IMPORT_REFERENCE: [r for r, _ in probes.wall],
                          "barnette": [b for _, b in probes.wall]},
    }
    return metrics, detail


def per_layer(tracer: Tracer, plain, traced) -> tuple[dict, dict]:
    n = len(traced)
    traced_total = sum(p.wall_s for p in traced)
    self_s, covered = tracer.self_times()
    idx = {layer: i for i, layer in enumerate(tracer.layers)}

    def calls(layer: str) -> float:
        return tracer.calls[idx[layer]] / n

    metrics = {}
    for layer, i in idx.items():
        metrics[f"{layer}.calls"] = calls(layer)
        metrics[f"{layer}.self_frac"] = self_s[i] / traced_total
    canon = calls("canon.canonical_form")
    expansions = calls("expansion.cube_expand") + calls("expansion.c4_expand")
    engine = calls("hamiltonicity.HamiltonicityEngine.cycle_with")
    records = tracer.yielded[idx["generator.generate"]] / n
    metrics.update(
        {
            "canon.distinct_ratio": tracer.extra["distinct_forms"] / n / canon if canon else 0.0,
            "generator.admit_ratio": records / expansions if expansions else 0.0,
            "hamiltonicity.engine_hit_ratio": 1 - calls("hamiltonicity.find_hamiltonian_cycle") / engine
            if engine
            else 0.0,
            "hamiltonicity.refuted": tracer.extra["refuted"] / n,
            "constructions.conformal_cycles.cycles": tracer.extra["cycles"] / n,
            "bruteforce.cubic_bipartite_classes.yielded": tracer.yielded[
                idx["bruteforce.cubic_bipartite_classes"]
            ]
            / n,
            "io.bytes": tracer.extra["bytes"] / n,
            "trace.run_s": traced_total / n,
            "trace.unattributed_s": (traced_total - covered) / n,
            "trace.overhead_frac": min(p.wall_s for p in traced) / min(p.wall_s for p in plain) - 1,
        }
    )
    detail = {
        "traced_passes": n,
        "untraced_passes": len(plain),
        "spans": len(tracer.names),
        "self_s": {layer: self_s[i] / n for layer, i in idx.items()},
    }
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--layers", default="", help="comma-separated layers to trace")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    here = Path(barnette.__file__).resolve().parent
    if here != (ROOT / "src" / "barnette").resolve():
        print(f"error: imported barnette from {here}, not from this checkout", file=sys.stderr)
        return 3

    wl = workloads.WORKLOADS[args.workload]
    setups: list[tuple[float, float]] = []
    layers = [x for x in args.layers.split(",") if x]
    if layers:
        inputs, expected = time_setups(wl, args.seed, setups)
        tracer = Tracer(layers)
        plain = run_passes(wl, inputs, args.seconds / 2)
        traced = run_passes(wl, inputs, args.seconds / 2, tracer)
        metrics, detail = per_layer(tracer, plain, traced)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    else:
        probes = ImportProbes()
        with calibrate.Speed(between=probes) as speed:
            inputs, expected = time_setups(wl, args.seed, setups)
            plain = run_passes(wl, inputs, args.seconds)
            time_setups(wl, args.seed, setups)
        while len(probes.scaled) < PROBE_MIN:
            probes.run()
        traced = []
        metrics, detail = end_to_end(plain, setups, speed, probes)

    attempted = failed = 0
    for p in plain + traced:
        a, f = wl.check(inputs, p.items, expected)
        attempted += a
        failed += f
    detail["failed_frac"] = failed / attempted if attempted else 1.0
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
