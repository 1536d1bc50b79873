"""The package's public surface: its exported names and the README's examples."""

import pathlib
import re

import frpcag

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
