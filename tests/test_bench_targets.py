"""Every name the benchmark's tracer wraps resolves in the engine, so a
renamed or deleted traced function fails here rather than in a traced
benchmark run.  The tracer module is loaded, never installed."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    missing = []
    for name, _, wrapped in targets:
        for module_name, qual in wrapped:
            module = importlib.import_module(f"icrs.{module_name}")
            owner, _, attr = qual.rpartition(".")
            if owner:
                found = attr in vars(getattr(module, owner, object))
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append(f"{name}: icrs.{module_name}.{qual}")
    assert not missing, missing
