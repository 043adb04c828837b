"""The demos run, and the exported names match the documented ones.

Each ``demos/*.py`` runs in a fresh interpreter with ``src`` on the path
and must exit 0.  The names the README code blocks and the demos import from
``bethestrip`` are the documented surface, so each must be in ``__all__``;
conversely every exported name but the error classes appears in the README
or a demo.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bethestrip

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def imported_names(source):
    """Names a Python source imports with ``from bethestrip import ...``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "bethestrip"
            for alias in node.names}


def test_documented_names_are_exported():
    readme = (ROOT / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert sources, "README has no python code block"
    sources += [path.read_text() for path in DEMOS]
    names = set().union(*map(imported_names, sources))
    assert DEMOS and names
    missing = sorted(names - set(bethestrip.__all__))
    assert not missing, f"imported but not in bethestrip.__all__: {missing}"


def test_exported_names_are_documented():
    text = (ROOT / "README.md").read_text()
    text += "".join(path.read_text() for path in DEMOS)
    undocumented = [
        name for name in bethestrip.__all__
        if not (isinstance(getattr(bethestrip, name), type)
                and issubclass(getattr(bethestrip, name), BaseException))
        and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not undocumented, f"exported but not in README or demos: {undocumented}"
