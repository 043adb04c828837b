"""Every name a module of the package imports is used in that module, every
private module-level function or class is loaded by some module, and no public
API exists only for the tests.

Parses each module with ast; standard library only.  A name listed in a
module's ``__all__`` counts as used, which covers ``__init__.py``'s
re-exports.  Names mentioned only in docstrings or comments do not count.
A private helper (``_name``, not a dunder) counts as loaded where any module
of the package reads it, as a bare name or as an attribute, so a deletion
cannot leave an orphaned helper behind.  A public function, class, method or
property counts as read where the package, a demo or the bench loads it
outside its own definition, where ``bench/tracing.py`` names it in a string
(a patched method, or a ``module.name`` span), or where README.md mentions it.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bethestrip"


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


# The criterion-8 oracle: kept, though only tests call it so far.  Drop a
# name here once a program path reads it.
TEST_ONLY_ALLOWED = {"fixed_point_residual", "FixedPointResidual.within_noise"}


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Public top-level functions and classes, and the public methods and
    properties of those classes, as (qualified name, node)."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                      if isinstance(sub, ast.FunctionDef)
                      and not sub.name.startswith("_")]
    return found


def unread_public(defining: list[str], readers: list[str], strings=frozenset(),
                  text="") -> list[str]:
    """Qualified public names of ``defining`` that no source of ``defining``
    or ``readers`` loads outside the definition itself, and that neither
    ``strings`` holds nor ``text`` names."""
    trees = [ast.parse(source) for source in defining]
    loads = []
    for tree in trees + [ast.parse(source) for source in readers]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.append((node.id, node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((node.attr, node))
    unread = []
    for qualname, definition in (d for tree in trees for d in public_definitions(tree)):
        name = qualname.rpartition(".")[2]
        inside = {id(node) for node in ast.walk(definition)}
        if (name not in strings and not re.search(rf"\b{name}\b", text)
                and all(loaded != name or id(node) in inside
                        for loaded, node in loads)):
            unread.append(qualname)
    return unread


def tracing_strings(source: str, modules) -> set[str]:
    """Names bench/tracing.py reads by string: its patched classes and
    methods, and the second part of every ``module.name`` span."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            names.add(parts[1] if len(parts) > 1 and parts[0] in modules else parts[0])
    return names


def test_no_test_only_public_api():
    paths = sorted(PACKAGE.glob("*.py"))
    readers = [path.read_text() for directory in ("demos", "bench")
               for path in sorted((ROOT / directory).glob("*.py"))]
    strings = tracing_strings((ROOT / "bench" / "tracing.py").read_text(),
                              {path.stem for path in paths})
    unread = unread_public([path.read_text() for path in paths], readers, strings,
                           (ROOT / "README.md").read_text())
    assert sorted(unread) == sorted(TEST_ONLY_ALLOWED)


def test_detects_test_only_public_api():
    defining = ("def used(): pass\ndef recursive(): recursive()\n"
                "def spanned(): pass\ndef documented(): pass\n"
                "class Kept:\n    def method(self): pass\n"
                "    def orphan(self): pass\n    def _private(self): pass\n")
    reading = "used()\nKept().method()\n"
    assert unread_public([defining], [reading], {"spanned"},
                         "see `documented`") == ["recursive", "Kept.orphan"]
    assert tracing_strings('S = ("model", "GOE", "sample", "linalg.f.calls")',
                           {"model", "linalg"}) == {"model", "GOE", "sample", "f"}


def kernel_bypasses(source: str, name: str) -> list[int]:
    """Lines of module ``name`` that invert outside the one kernel: a
    ``np.linalg.inv`` anywhere but linalg.py, or a ``resolvent`` call that does
    not hand it all of A, the neighbor sum, V, lam and z."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "inv"
                and getattr(node.value, "attr", None) == "linalg"
                and name != "linalg.py"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) == "resolvent"
              and (len(node.args) + len(node.keywords) != 5
                   or any(isinstance(a, ast.Starred) for a in node.args)
                   or any(k.arg is None for k in node.keywords))):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_path_calls_the_one_kernel(path):
    assert kernel_bypasses(path.read_text(), path.name) == []


def test_detects_kernel_bypasses():
    source = ("import numpy as np\nG = np.linalg.inv(M)\nG = resolvent(B, S)\n"
              "G = resolvent(A, S, V, lam, z)\nG = linalg.resolvent(A, S, *rest)\n"
              "G = resolvent(A, S, V, lam=lam, z=z)\nG = resolvent(A, S, **kw)\n")
    assert kernel_bypasses(source, "recursion.py") == [2, 3, 5, 7]
    assert kernel_bypasses(source, "linalg.py") == [3, 5, 7]


# The CLI's subcommands return data; main and its one writer touch the files.
CLI_WRITER = "_write_outputs"
FILESYSTEM_CALLS = {"open", "print", "mkdir", "write_bytes", "write_text"}


def filesystem_calls_outside(source: str) -> list[tuple[str, int]]:
    """(enclosing top-level name, line) of every call of FILESYSTEM_CALLS outside
    main and CLI_WRITER, and of every call of CLI_WRITER outside main, so no
    subcommand reaches the files through a helper or the writer itself."""
    found = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if ((name in FILESYSTEM_CALLS and owner not in {"main", CLI_WRITER})
                    or (name == CLI_WRITER and owner != "main")):
                found.append((owner, call.lineno))
    return found


def test_only_main_writes_cli_output():
    assert filesystem_calls_outside((PACKAGE / "cli.py").read_text()) == []


def test_detects_cli_output_outside_main():
    source = ("def main():\n    print(_write_outputs(p))\n"
              "def _write_outputs(p):\n    p.mkdir()\n    p.write_bytes(b'')\n"
              "def _cmd_a(cfg):\n    return _helper(cfg.out)\n"
              "def _helper(path):\n    path.write_text('x')\n"
              "def _cmd_b(cfg):\n    with open(cfg.out, 'w'):\n        pass\n"
              "def _cmd_c(cfg, result):\n    return _write_outputs(cfg, result, 0)\n"
              "if __name__ == '__main__':\n    print(main())\n")
    assert filesystem_calls_outside(source) == [
        ("_helper", 9), ("_cmd_b", 11), ("_cmd_c", 14), ("<module>", 16)]
