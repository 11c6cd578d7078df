"""The per-layer metrics BENCHMARK.json declares name program functions;
a change that deletes or renames one of them breaks the benchmark's trace.
This test reads BENCHMARK.json (it never writes it) and resolves each name."""

import importlib
import json
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
PER_CALL = ("self_s", "calls", "repeat_frac")


def test_per_layer_function_names_resolve():
    names = [m["name"] for m in json.loads(SPEC.read_text())["per_layer"]]
    resolved = 0
    for name in names:
        parts = name.split(".")
        # <module>.<function>[.<method>].<stat>; "setup.<module>.self_s" and
        # "<module>.self_s" are module totals, other names are counters
        if parts[-1] not in PER_CALL or parts[0] == "setup" or len(parts) < 3:
            continue
        obj = importlib.import_module(f"amdp_lab.{parts[0]}")
        for attr in parts[1:-1]:
            assert not attr.startswith("_"), name
            assert hasattr(obj, attr), f"{name}: amdp_lab.{parts[0]} has no {attr}"
            obj = getattr(obj, attr)
        assert callable(obj), name
        resolved += 1
    assert resolved >= 40
