"""The benchmark's tracer wraps sll functions by name; every name it lists
must exist, or `bench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module_name, path, _ in tracer.TARGETS:
        module = importlib.import_module(f"sll.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert not missing
