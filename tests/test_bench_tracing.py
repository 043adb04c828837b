"""The benchmark tracer still finds everything it wraps.

``bench/tracing.py`` patches bethestrip functions and three methods it names
by attribute (``FixedPointProblem.forward_map``, ``GOE.sample`` and
``GOE.sample_batch``).  Renaming one of them breaks traced benchmark runs;
building the patch plan here, with an identity wrapper and nothing
installed, makes the test suite catch that.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plan_finds_every_traced_method():
    tracing = load_tracing()
    patches = tracing._plan(lambda fn, name: fn)
    patched = {(owner.__name__, attr) for owner, attr, _, _ in patches
               if isinstance(owner, type)}
    assert patched == {(cls, attr) for _, cls, attr, _ in tracing.METHODS}
    assert ("FixedPointProblem", "forward_map") in patched
