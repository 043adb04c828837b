"""The benchmark tracer still finds everything it wraps and reads.

``bench/tracing.py`` patches bethestrip functions and three methods it names
by attribute (``FixedPointProblem.forward_map``, ``GOE.sample`` and
``GOE.sample_batch``).  Renaming one of them breaks traced benchmark runs;
building the patch plan here, with an identity wrapper and nothing
installed, makes the test suite catch that.  Its per-layer metrics read span
names by string, so a deleted or renamed function would read 0 silently;
the second test catches that.
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


# ROADMAP item 1: these spans went with the kernel change to
# linalg.resolvent, and their metrics read 0 until the benchmark replaces them.
STALE_SPANS = {"linalg.inv_batch", "linalg.sym_inverse"}


class RecordingDict(dict):
    """An empty dict that records every key asked of ``get``."""

    def __init__(self):
        super().__init__()
        self.asked = set()

    def get(self, key, default=None):
        self.asked.add(key)
        return super().get(key, default)


def test_layer_metrics_read_only_traced_spans():
    tracing = load_tracing()
    spans = {name for _, _, _, name in tracing._plan(lambda fn, name: name)}
    table, durations = RecordingDict(), RecordingDict()
    unit = {"wall": 1.0, "covered": 0.5, "spans": 0, "table": table,
            "durations": durations}
    tracing.layer_metrics([unit], {}, {})
    read = table.asked | durations.asked
    assert "fixedpoint.forward_map" in read
    assert read - spans <= STALE_SPANS, sorted(read - spans - STALE_SPANS)
