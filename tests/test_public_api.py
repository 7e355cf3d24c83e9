"""The public surface: every name ``rankedcoal`` exports resolves and is
listed once, and the README's Python examples run as written. Importing
the package runs none of its submodules, yet each exported name is the
object its submodule defines."""

import os
import re
import subprocess
import sys
from pathlib import Path

import rankedcoal
from test_trace_layers import _layers

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves_once():
    names = rankedcoal.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(rankedcoal, name)]
    assert missing == []


def test_exported_names_are_listed_bound_and_the_submodules_own():
    assert set(rankedcoal.__all__) <= set(dir(rankedcoal))
    namespace = {}
    exec("from rankedcoal import *", namespace)
    assert set(rankedcoal.__all__) <= set(namespace)
    for name in rankedcoal.__all__:
        value = getattr(rankedcoal, name)
        assert value.__module__.startswith("rankedcoal.")
        assert getattr(sys.modules[value.__module__], name) is value is namespace[name]


def _run(code):
    """Standard output of ``python -c code`` in a process that writes no
    bytecode, as the benchmark's calls do."""
    src = str(Path(rankedcoal.__file__).resolve().parent.parent)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_import_runs_no_submodule():
    """Every submodule is registered on import, as a module whose code has
    not run: its type is still the lazy subclass, which reading the type
    does not change. The version needs none of them."""
    out = _run(
        "import sys, types\n"
        "import rankedcoal\n"
        "print(rankedcoal.__version__)\n"
        "mods = {k: v for k, v in sys.modules.items() if k.startswith('rankedcoal.')}\n"
        "print(sorted(k for k, v in mods.items() if type(v) is not types.ModuleType))\n"
        "print(sorted(k for k, v in mods.items() if type(v) is types.ModuleType))\n"
    )
    modules = sorted(f"rankedcoal.{path.stem}"
                     for path in Path(rankedcoal.__file__).parent.glob("*.py")
                     if path.stem not in ("__init__", "cli"))
    assert out == f"{rankedcoal.__version__}\n{modules}\n[]\n"


def test_every_traced_module_is_registered_by_the_import_of_the_cli():
    """The benchmark's tracer looks up each LAYERS module in
    ``sys.modules`` right after ``import rankedcoal.cli``."""
    modules = sorted({f"rankedcoal.{module}" for module, *_ in _layers()})
    assert _run("import sys\n"
                "import rankedcoal.cli\n"
                f"print([m for m in {modules!r} if m not in sys.modules])\n") == "[]\n"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
