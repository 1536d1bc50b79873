"""The benchmark's per-layer metrics time functions that exist.

perfbench/tracing.py wraps every public function of the traced modules and
reports a metric as 0 when no span of its name was recorded, so a renamed
or privatised function would silently zero its metric.
"""

import importlib
import importlib.util
import inspect
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_layer_spans_name_public_functions():
    tracing = _tracing()
    spans = {**tracing.TIMED, **tracing.COUNTED, **tracing.SELF}
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    checked = [m for m in metrics if m in spans]
    assert checked
    for metric in checked:
        module_name, attr = spans[metric].split(".")
        module = importlib.import_module(f"frpcag.{module_name}")
        fn = getattr(module, attr, None)
        assert not attr.startswith("_"), f"{metric}: {spans[metric]} is private"
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, \
            f"{metric}: {spans[metric]} is not a function of {module.__name__}"
