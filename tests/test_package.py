"""The package's public surface: its exported names and the README's examples."""

import argparse
import builtins
import importlib
import pathlib
import pkgutil
import re

import frpcag
from frpcag import ExperimentConfig
from frpcag.config import parse_keyvalue_text

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    for name in frpcag.__all__:
        getattr(frpcag, name)


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)  # the examples may write files
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_experiment_config_matches_the_schema():
    blocks = re.findall(r"^```ini\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        cfg = parse_keyvalue_text(block, ExperimentConfig, source=str(README))
        assert cfg != ExperimentConfig()


def test_readme_names_resolve():
    # inline prose as well as the fenced blocks: `fp.<name>` and `frpcag.<dotted.name>`
    text = README.read_text()
    names = {f"frpcag.{name}" for name in re.findall(r"\bfp\.(\w+)", text)}
    names |= set(re.findall(r"\bfrpcag(?:\.\w+)+", text))
    assert names
    for name in sorted(names):
        obj = frpcag
        for attr in name.split(".")[1:]:
            try:
                obj = getattr(obj, attr)
            except AttributeError:  # a submodule that the package does not export
                obj = importlib.import_module(f"{obj.__name__}.{attr}")
    # a backticked CamelCase name, alone or heading a code span, as in
    # `SolverConfig(epsilon=1e-8)`: a builtin or a name of some frpcag module
    modules = [frpcag, *(importlib.import_module(f"frpcag.{m.name}")
                         for m in pkgutil.iter_modules(frpcag.__path__))]
    types = set(re.findall(r"`([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+)\b", text))
    assert types
    for name in sorted(types):
        assert hasattr(builtins, name) or any(hasattr(m, name) for m in modules), name


def test_readme_flags_are_the_parser_options():
    # every `--flag` of README (pip's own flags aside) is an option of some
    # subcommand, and every option but --help is documented
    from frpcag.cli import build_parser
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {flag for sub in subparsers.choices.values() for a in sub._actions
               for flag in a.option_strings if flag.startswith("--")}
    text = re.sub(r"pip install[^\n`]*", "", README.read_text())
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    assert documented <= options, sorted(documented - options)
    assert options - {"--help"} <= documented, sorted(options - {"--help"} - documented)


def test_every_submodule_resolves_through_the_package():
    # the lazy branch of frpcag.__getattr__ that imports a submodule by name
    for name in frpcag._SUBMODULES:
        assert frpcag.__getattr__(name) is importlib.import_module(f"frpcag.{name}")
