"""The benchmark's per-layer metrics time functions that exist.

perfbench/tracing.py wraps every public function of the traced modules and
reports a metric as 0 when no span of its name was recorded, so a renamed
or privatised function would silently zero its metric.
"""

import argparse
import importlib
import importlib.util
import inspect
import json
import pathlib
import re

from frpcag import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def _assert_public_function(span: str, metric: str):
    module_name, attr = span.split(".")
    module = importlib.import_module(f"frpcag.{module_name}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_"), f"{metric}: {span} is private"
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, \
        f"{metric}: {span} is not a function of {module.__name__}"


def test_spans_read_by_hand_name_public_functions():
    # the spans whose results give graph.edges and solver.iterations
    names = re.findall(r'name == "(\w+\.\w+)"', TRACING.read_text())
    assert names
    for span in names:
        _assert_public_function(span, f"the span {span} in tracing.py")


def test_every_subcommand_runs_a_timed_cli_function():
    # cli.command_s sums the spans whose names start with this prefix
    (prefix,) = re.findall(r'startswith\("(cli\.\w+)"\)', TRACING.read_text())
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert subparsers.choices
    for name, parser in subparsers.choices.items():
        func = parser.get_default("func")
        span = f"cli.{func.__name__}"
        assert span.startswith(prefix), f"{name} runs {span}, outside {prefix}*"
        assert getattr(cli, func.__name__) is func
        _assert_public_function(span, f"the {name} command")
