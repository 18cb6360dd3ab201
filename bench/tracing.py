"""Per-layer spans recorded from outside the package.

A ``Tracer`` wraps the package's public functions by name.  Each call (or,
for a generator function, each resumption) becomes one span: name, start,
end and the span that was open when it began.  Spans live in flat arrays
until the run ends; self time is a span's duration minus the part of it that
its child spans cover.

Wrapping replaces every reference a ``barnette`` module holds to the
original object, so ``generator.canonical_form`` and
``bruteforce.canonical_form`` are traced along with ``canon.canonical_form``.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable


class Tracer:
    """Install with ``with tracer:``; spans are recorded only while installed."""

    def __init__(self, layers: list[str]):
        self.layers = list(layers)
        self.names: array = array("H")
        self.parents: array = array("l")
        self.starts: array = array("d")
        self.ends: array = array("d")
        self.calls: Counter = Counter()  # invocations, per layer index
        self.yielded: Counter = Counter()  # items produced, generator layers
        self.extra: Counter = Counter()  # counts taken from arguments/results
        self.distinct_forms: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ----- recording -----

    def _open(self, idx: int) -> int:
        sid = len(self.names)
        self.names.append(idx)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self._stack.pop()

    def _observe(self, layer: str, args: tuple, result: object) -> None:
        if layer == "canon.canonical_form":
            self.distinct_forms.add(result)
        elif layer == "hamiltonicity.find_hamiltonian_cycle":
            self.extra["refuted"] += result is None
        elif layer == "constructions.conformal_cycles":
            self.extra["cycles"] += len(result)
        elif layer == "io.to_bgf":
            self.extra["bytes"] += len(result)
        elif layer == "io.from_bgf":
            self.extra["bytes"] += len(args[0])

    def _wrap(self, idx: int, fn: Callable) -> Callable:
        layer = self.layers[idx]
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                tracer.calls[idx] += 1
                it = fn(*args, **kwargs)
                while True:
                    sid = tracer._open(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid)
                    tracer.yielded[idx] += 1
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            tracer.calls[idx] += 1
            sid = tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            tracer._observe(layer, args, result)
            return result

        return traced

    # ----- installing -----

    def __enter__(self) -> "Tracer":
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "barnette" or name.startswith("barnette."))
        ]
        for idx, layer in enumerate(self.layers):
            module_name, _, qual = layer.partition(".")
            owner = importlib.import_module(f"barnette.{module_name}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(idx, original)
            if path:  # a method: patch the class it lives on
                self._patch(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)
        return self

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    # ----- results -----

    def end_pass(self) -> None:
        """Count canonical forms as distinct within one pass, not across passes."""
        self.extra["distinct_forms"] += len(self.distinct_forms)
        self.distinct_forms.clear()

    def self_times(self) -> tuple[list[float], float]:
        """Self time per layer and the time covered by top-level spans."""
        child = [0.0] * len(self.names)
        covered = 0.0
        for sid in range(len(self.names)):
            dur = self.ends[sid] - self.starts[sid]
            parent = self.parents[sid]
            if parent < 0:
                covered += dur
            else:
                child[parent] += dur
        per_layer = [0.0] * len(self.layers)
        for sid in range(len(self.names)):
            dur = self.ends[sid] - self.starts[sid]
            per_layer[self.names[sid]] += dur - child[sid]
        return per_layer, covered

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, layer, parent, start, end."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span\tlayer\tparent\tstart_s\tend_s\n")
            t0 = self.starts[0] if self.starts else 0.0
            for sid in range(len(self.names)):
                fh.write(
                    f"{sid}\t{self.layers[self.names[sid]]}\t{self.parents[sid]}"
                    f"\t{self.starts[sid] - t0:.9f}\t{self.ends[sid] - t0:.9f}\n"
                )
