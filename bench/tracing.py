"""Spans around bethestrip's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the traced modules, in
every ``bethestrip`` namespace that holds it (names are imported by value, so
``recursion.inv_batch`` is patched besides ``linalg.inv_batch``), and three
methods on their classes.  Each call records a span: name, parent span, start
and end.  Spans stay in memory and are written out when the run ends.
``uninstall`` restores the originals, so untraced units in the same process
run the unwrapped code.  Exceptions are counted per wrapped function; the
per-layer metrics sum them by module, and the spans file keeps them per
function.
"""

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

MODULES = ("cli", "recursion", "linalg", "model", "rng", "ed", "fixedpoint",
           "linearization", "free")
# (module, class, method, span name)
METHODS = (("model", "GOE", "sample_batch", "model.sample_batch"),
           ("model", "GOE", "sample", "model.sample"),
           ("fixedpoint", "FixedPointProblem", "forward_map",
            "fixedpoint.forward_map"))

RUN, UNIT = "run", "unit"

# Per-layer metrics of a traced run: name -> (unit, better, what it should
# move).  The third field is the map from each layer metric to the
# end-to-end metric and workload it should move; BENCHMARK.json lists the
# same names, units and directions.
LAYER_METRICS = {
    "cli.main.self_s": (
        "s", "lower", "wall_s on dos_scan, crosscheck, ce_spectrum (predicted < 1%)"),
    "recursion.population_sweep.calls": ("count", "lower", "wall_s on dos_scan"),
    "recursion.population_sweep.self_s": (
        "s", "lower", "wall_s on dos_scan (index draw, gather, matrix build)"),
    "recursion.population_sweep.ns_per_sample": ("ns", "lower", "wall_s on dos_scan"),
    "recursion.measure_stationary.self_s": ("s", "lower", "wall_s on dos_scan"),
    "recursion.root_draws.total_s": ("s", "lower", "wall_s on dos_scan"),
    "recursion.sample_tree_given.total_s": ("s", "lower", "wall_s on crosscheck"),
    "recursion.sample_tree_given.us_per_site": ("us", "lower", "wall_s on crosscheck"),
    "crosscheck.recursion_over_oracle": (
        "ratio", "lower",
        "wall_s on crosscheck: sample_tree_given over ed.root_green_block time"),
    "linalg.inv_batch.total_s": ("s", "lower", "wall_s on dos_scan"),
    "linalg.sym_inverse.calls": ("count", "lower", "wall_s on crosscheck"),
    "linalg.sym_inverse.total_s": ("s", "lower", "wall_s on crosscheck"),
    "linalg.sym_part.total_s": ("s", "lower", "wall_s on dos_scan and continuation"),
    "linalg.min_imag_eigenvalue.calls_per_solve": (
        "ratio", "lower", "wall_s on continuation (waste: checks per solve)"),
    "model.sample_batch.total_s": ("s", "lower", "wall_s on dos_scan"),
    "model.sample.calls": ("count", "lower", "wall_s on crosscheck"),
    "rng.keyed_rng.calls": ("count", "lower", "wall_s on dos_scan and crosscheck"),
    "rng.keyed_rng.total_s": ("s", "lower", "wall_s on dos_scan and crosscheck"),
    "ed.draw_site_potentials.total_s": ("s", "lower", "wall_s on crosscheck"),
    "ed.root_green_block.total_s": (
        "s", "lower", "wall_s on crosscheck; the oracle, no recursion change moves it"),
    "fixedpoint.continuation_to_boundary.ms_p50": (
        "ms", "lower", "wall_s on continuation"),
    "fixedpoint.continuation_to_boundary.ms_p90": (
        "ms", "lower", "wall_s on continuation"),
    "fixedpoint.solve_forward.calls": ("count", "lower", "wall_s on continuation"),
    "fixedpoint.solve_forward.self_s": ("s", "lower", "wall_s on continuation"),
    "fixedpoint.forward_map.calls_per_energy": (
        "ratio", "lower", "wall_s on continuation"),
    "fixedpoint.iterations_per_energy": (
        "count", "lower", "wall_s on continuation; moves only with the solver algorithm"),
    "linearization.build_ce_matrix.total_s": ("s", "lower", "wall_s on ce_spectrum"),
    "linearization.build_ce_matrix.ms_per_column": (
        "ms", "lower", "wall_s on ce_spectrum"),
    **{f"{m}.self_s": ("s", "lower", "wall_s on every workload that calls it")
       for m in MODULES if m != "cli"},  # cli.self_s would be cli.main.self_s
    **{f"{m}.errors": ("count", "lower", "failed units on every workload")
       for m in MODULES},
    "work.per_unit": (
        "count", "higher",
        "the work count beside wall_s: sample updates, sites, energies or columns"),
    "trace.overhead_s": (
        "s", "lower", "traced minus untraced wall time of one unit, same run"),
    "trace.span_coverage": (
        "ratio", "higher", "share of a traced unit's wall time inside wrapped spans"),
    "trace.spans_per_unit": ("count", "lower", "the cost the tracer adds"),
}


class Tracer:
    """Span recorder and the set of patches that feed it."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.errors = {}
        self._stack = []
        self._patches = _plan(self._wrap)

    def open(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        open_, close, errors = self.open, self.close, self.errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # Count an exception once, in the innermost wrapped call it
                # leaves, not again in every wrapped caller it passes through.
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    errors[name] = errors.get(name, 0) + 1
                raise
            finally:
                close(sid)
        return traced

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path):
        codes = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        doc = {"run_id": self.run_id, "names": list(codes), "errors": self.errors,
               "columns": ["name", "parent", "start", "end"],
               "spans": [[codes[n], p, s, e] for n, p, s, e in
                         zip(self.names, self.parents, self.starts, self.ends)]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def unit_stats(self):
        """Per traced unit: {span name: (calls, total_s, self_s)}, the
        unit's wall time, the time its direct children cover, and the
        durations of every span, by name."""
        n = len(self.names)
        parent = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        unit_of = np.full(n, -1, dtype=np.int64)
        for sid, name in enumerate(self.names):
            if name == UNIT:
                unit_of[sid] = sid
            elif parent[sid] >= 0:
                unit_of[sid] = unit_of[parent[sid]]
        units = []
        for u in np.flatnonzero(np.asarray(self.names, dtype=object) == UNIT):
            inside = np.flatnonzero(unit_of == u)
            table = {}
            for sid in inside:
                if sid == u:
                    continue
                calls, total, own = table.get(self.names[sid], (0, 0.0, 0.0))
                table[self.names[sid]] = (calls + 1, total + dur[sid],
                                          own + self_time[sid])
            durations = {}
            for sid in inside:
                durations.setdefault(self.names[sid], []).append(float(dur[sid]))
            units.append({"wall": float(dur[u]), "covered": float(child[u]),
                          "spans": len(inside) - 1, "table": table,
                          "durations": durations})
        return units


def _plan(wrap):
    """(owner, attribute, original, wrapper) for every patch to install."""
    spans = {}
    for mod_name in MODULES:
        mod = importlib.import_module(f"bethestrip.{mod_name}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                spans[obj] = f"{mod_name}.{attr}"
    wrappers = {fn: wrap(fn, name) for fn, name in spans.items()}
    patches = []
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "bethestrip" or name.startswith("bethestrip.")]
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((ns, attr, obj, wrappers[obj]))
    for mod_name, cls_name, attr, span in METHODS:
        cls = getattr(importlib.import_module(f"bethestrip.{mod_name}"), cls_name)
        original = cls.__dict__[attr]
        patches.append((cls, attr, original, wrap(original, span)))
    return patches


def layer_metrics(units, per_call, extra):
    """Every LAYER_METRICS value, the median over traced units.

    ``units`` comes from ``Tracer.unit_stats``; ``per_call`` holds the
    workload sizes the per-item metrics divide by (pool, sites, columns);
    ``extra`` holds values measured outside the spans (overhead, errors,
    work, iterations).
    """
    def calls(t, name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def total(t, name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def own(t, name):
        return t.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    rows = []
    for u in units:
        t = u["table"]
        row = {
            "cli.main.self_s": own(t, "cli.main"),
            "recursion.population_sweep.calls": calls(t, "recursion.population_sweep"),
            "recursion.population_sweep.self_s": own(t, "recursion.population_sweep"),
            "recursion.population_sweep.ns_per_sample": 1e9 * ratio(
                total(t, "recursion.population_sweep"),
                calls(t, "recursion.population_sweep") * per_call.get("pool", 0)),
            "recursion.measure_stationary.self_s": own(t, "recursion.measure_stationary"),
            "recursion.root_draws.total_s": total(t, "recursion.root_draws"),
            "recursion.sample_tree_given.total_s": total(t, "recursion.sample_tree_given"),
            "recursion.sample_tree_given.us_per_site": 1e6 * ratio(
                total(t, "recursion.sample_tree_given"),
                calls(t, "recursion.sample_tree_given") * per_call.get("sites", 0)),
            "crosscheck.recursion_over_oracle": ratio(
                total(t, "recursion.sample_tree_given"), total(t, "ed.root_green_block")),
            "linalg.inv_batch.total_s": total(t, "linalg.inv_batch"),
            "linalg.sym_inverse.calls": calls(t, "linalg.sym_inverse"),
            "linalg.sym_inverse.total_s": total(t, "linalg.sym_inverse"),
            "linalg.sym_part.total_s": total(t, "linalg.sym_part"),
            "linalg.min_imag_eigenvalue.calls_per_solve": ratio(
                calls(t, "linalg.min_imag_eigenvalue"), calls(t, "fixedpoint.solve_forward")),
            "model.sample_batch.total_s": total(t, "model.sample_batch"),
            "model.sample.calls": calls(t, "model.sample"),
            "rng.keyed_rng.calls": calls(t, "rng.keyed_rng"),
            "rng.keyed_rng.total_s": total(t, "rng.keyed_rng"),
            "ed.draw_site_potentials.total_s": total(t, "ed.draw_site_potentials"),
            "ed.root_green_block.total_s": total(t, "ed.root_green_block"),
            "fixedpoint.solve_forward.calls": calls(t, "fixedpoint.solve_forward"),
            "fixedpoint.solve_forward.self_s": own(t, "fixedpoint.solve_forward"),
            "fixedpoint.forward_map.calls_per_energy": ratio(
                calls(t, "fixedpoint.forward_map"),
                calls(t, "fixedpoint.continuation_to_boundary")),
            "linearization.build_ce_matrix.total_s": total(t, "linearization.build_ce_matrix"),
            "linearization.build_ce_matrix.ms_per_column": 1e3 * ratio(
                total(t, "linearization.build_ce_matrix"),
                calls(t, "linearization.build_ce_matrix") * per_call.get("columns", 0)),
            "trace.span_coverage": ratio(u["covered"], u["wall"]),
            "trace.spans_per_unit": u["spans"],
        }
        for m in MODULES:
            if m == "cli":  # the workloads call no cli function but main
                continue
            row[f"{m}.self_s"] = sum(v[2] for k, v in t.items()
                                     if k.startswith(m + "."))
        rows.append(row)
    out = {k: float(np.median([r[k] for r in rows])) for k in rows[0]}
    per_energy = [d for u in units
                  for d in u["durations"].get("fixedpoint.continuation_to_boundary", [])]
    for q in (50, 90):
        out[f"fixedpoint.continuation_to_boundary.ms_p{q}"] = (
            1e3 * float(np.percentile(per_energy, q)) if per_energy else 0.0)
    out.update(extra)
    return out
