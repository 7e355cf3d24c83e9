"""The public surface: every name ``rankedcoal`` exports resolves and is
listed once, and the README's Python examples run as written."""

import re
from pathlib import Path

import rankedcoal

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves_once():
    names = rankedcoal.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(rankedcoal, name)]
    assert missing == []


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
