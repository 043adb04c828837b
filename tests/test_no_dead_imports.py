"""Every name a module of the package imports is used in that module, and
every private module-level function or class is loaded by some module.

Parses each module with ast; standard library only.  A name listed in a
module's ``__all__`` counts as used, which covers ``__init__.py``'s
re-exports.  Names mentioned only in docstrings or comments do not count.
A private helper (``_name``, not a dunder) counts as loaded where any module
of the package reads it, as a bare name or as an attribute, so a deletion
cannot leave an orphaned helper behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bethestrip"


def dead_imports(source: str) -> list[str]:
    """Imported names the module never reads, in order of their import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_imports(path):
    assert dead_imports(path.read_text()) == []


def test_detects_dead_and_re_exported_names():
    source = ("import os, numpy as np\nfrom .free import a_e_matrix, forward_roots\n"
              "__all__ = ['os']\nforward_roots(np.zeros(2), (0.0,), 2)\n")
    assert dead_imports(source) == ["a_e_matrix"]


def dead_helpers(sources: list[str]) -> list[str]:
    """Private top-level functions and classes that no source loads by name."""
    trees = [ast.parse(source) for source in sources]
    defined = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return [name for name in defined if name not in loaded]


def test_no_dead_private_helpers():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert dead_helpers(sources) == []


def test_detects_dead_helpers():
    defining = ("def _kept(): pass\ndef _via_module(): pass\n"
                "def _orphan(): pass\nclass _Unused: pass\n"
                "def __getattr__(name): pass\ndef public(): pass\n")
    loading = "from . import a\nfrom .a import _kept\n_kept()\na._via_module()\n"
    assert dead_helpers([defining, loading]) == ["_orphan", "_Unused"]
