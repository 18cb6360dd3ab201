"""Every per-layer name in BENCHMARK.json resolves in the package.

The benchmark's tracer wraps each ``<module>.<qualname>`` it declares by
name, so renaming a traced function breaks traced runs.  This test only
reads the file.
"""

import importlib
import json
import pathlib

SPEC = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _traced_layers():
    metrics = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]
    return [m["name"][: -len(".calls")] for m in metrics if m["name"].endswith(".calls")]


def _resolves(layer):
    module, _, qualname = layer.partition(".")
    owner = importlib.import_module(f"barnette.{module}")
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_traced_layer_resolves():
    layers = _traced_layers()
    assert "expansion.update_family_cube" in layers
    assert "expansion.update_family_c4" in layers
    assert [layer for layer in layers if not _resolves(layer)] == []
