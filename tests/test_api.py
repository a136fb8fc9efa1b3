"""The package's public name list and the README's Python API example."""

import re
from collections import Counter
from pathlib import Path

import tdsvkit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    repeated = [name for name, count in Counter(tdsvkit.__all__).items() if count > 1]
    unresolved = [name for name in tdsvkit.__all__ if not hasattr(tdsvkit, name)]
    assert (repeated, unresolved) == ([], [])


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out
