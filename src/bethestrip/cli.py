"""Command-line driver: seeded, reproducible experiment runs emitting CSV/JSON.

``bethestrip --help`` lists the subcommands.  Each computes and returns its
outputs as data; ``main`` alone renders and writes them, then a JSON manifest
next to them: config echo, column schema, sha256 digest per output, wall
clock, warnings.  CSV floats use the shortest round-trip decimal form, so
outputs are byte-deterministic for a fixed (config, seed) pair and
independent of the worker count (a run opens one thread pool, and the
population chunk layout is ``recursion.CHUNKS``).

Exit codes: 0 success, 2 config error (an unwritable --out included),
3 domain error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, recursion
from .ed import build_tree, draw_site_potentials, root_green_block
from .errors import BetheStripError, ConfigError, OutOfBandError
from .free import forward_roots, full_diagonal
from .linalg import SpectralPoint
from .linearization import build_ce_matrix, eigenvalue_gaps, enumerate_indices
from .model import BetheStripModel, band_intersection, parse_ensemble_spec
from .recursion import eta_continuation, ac_indicator, sample_tree_given
from .rng import child_seed

CROSSCHECK_TOL = 1e-8
# Size caps, checked before any work.  An E-grid point is a CSV row held until
# the write, up to 6m + 2 floats (about 3 KB at m = 16): 0.3 GB at the cap.
MAX_GRID = 100_000
# 16-byte complex entries: a sweep holds two pools of pool * m^2, a measurement
# recursion.MEASURE_SWEEPS * samples * m^2 root draws; 2^24 entries is 256 MiB.
# crosscheck holds one deviation per (E, realization) and 2^20 entries a task.
MAX_ENTRIES = 2**24

_SUBCOMMANDS = {
    "free-profile": "tabulate the disorder-free Green's functions on an energy grid",
    "dos-scan": "density of states via population dynamics, one row per (E, eta)",
    "ac-indicator": "stabilization of E Tr|G|^2 across a decreasing eta schedule",
    "gap-scan": "spectral gaps of the linearized transfer operator over a grid",
    "ce-spectrum": "eigenvalues of the truncated linearized operator, per energy",
    "crosscheck": "forward recursion vs sparse-LU solve on shared realizations",
}

_POOL_SUBS = ("dos-scan", "ac-indicator")


class _Key(NamedTuple):
    """One config key: its flag, its default and where its value goes."""

    metavar: str
    help: str
    # None (no default), a string, or {subcommand: string} with "*" as fallback
    default: str | dict | None = None
    # the integer fields of RunConfig only: the least allowed value
    lo: int | None = None
    # the subcommands that read the key: their flag, config file and echo
    read_by: tuple = tuple(_SUBCOMMANDS)
    hi: int | None = None  # the greatest allowed value, if fixed


# Every config key: one --flag and one config-file key each, in help order.
_KEYS = {
    "K": _Key("INT", "branching number (>= 2)", "2"),
    "m": _Key("INT", "strip width (number of orbitals)"),
    "A": _Key("SPEC", 'diagonal onsite matrix, e.g. "diag:-0.5,0.5"'),
    "lambda": _Key("FLOAT", "disorder coupling strength", "0.0"),
    "ensemble": _Key("SPEC", "goe | diag:<kind> | point:<matrix-or-path>",
                     "goe"),
    "E-grid": _Key("LO:HI:N", "inclusive energy grid with N points"),
    "eta-schedule": _Key("E1,E2,...", "comma-separated eta levels",
                         {"free-profile": "0", "crosscheck": "0.05"},
                         read_by=("free-profile", *_POOL_SUBS, "crosscheck")),
    "pool": _Key("INT", "population size", "1000", 16, _POOL_SUBS),
    "sweeps": _Key("INT", "relaxation sweeps per eta level after the first",
                   "50", 1, _POOL_SUBS),
    "burnin": _Key("INT", "sweeps at the first eta level", "100", 0,
                   _POOL_SUBS),
    "samples": _Key("INT",
                    "root draws per measured sweep; realizations for crosscheck",
                    {"crosscheck": "20", "*": "500"}, 1,
                    (*_POOL_SUBS, "crosscheck")),
    "depth": _Key("INT", "truncation depth for crosscheck", "3", 0,
                  ("crosscheck",)),
    "degree": _Key("INT", "basis truncation degree", "2", 0,
                   ("gap-scan", "ce-spectrum")),
    "seed": _Key("INT", "master seed", "0", 0),
    "workers": _Key("INT", "thread count (default: $BETHE_STRIP_THREADS or 1)",
                    lo=1, hi=recursion.CHUNKS),  # a sweep has CHUNKS tasks
    "out": _Key("PATH", "primary output path (required)"),
}


def _build_parser(argv) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bethestrip",
        description="Reproducible experiments for random operators on the Bethe strip.",
    )
    parser.add_argument("--version", action="version",
                        version=f"bethestrip {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="SUBCOMMAND")
    for name, blurb in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=blurb, description=blurb)
        if argv[:1] != [name]:  # only the invoked subcommand needs its flags
            continue
        g = cmd.add_argument_group("configuration")
        g.add_argument("--config", metavar="PATH",
                       help="key=value file supplying defaults; flags take precedence")
        for key, spec in _KEYS.items():
            if name in spec.read_by:
                g.add_argument(f"--{key}", dest=key, metavar=spec.metavar,
                               help=spec.help)
    return parser


# ---------------------------------------------------------------------------
# config resolution: flag > file > per-subcommand default > global default


def _read_config_file(path: str) -> dict:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values = {}  # key -> (value, line number)
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r}; "
                f"expected one of {', '.join(_KEYS)}"
            )
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} "
                              f"(first on line {values[key][1]})")
        values[key] = value.strip(), lineno
    return {key: value for key, (value, _) in values.items()}


def _parse_int(key: str, raw: str, lo: int | None = None, hi: int | None = None) -> int:
    try:
        value = int(str(raw).strip(), 10)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if lo is not None and value < lo:
        raise ConfigError(f"{key}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{key}: must be <= {hi}, got {value}")
    return value


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(str(raw).strip())
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


def _parse_grid(raw: str):
    parts = str(raw).strip().split(":")
    if len(parts) != 3:
        raise ConfigError(f'E-grid: expected "lo:hi:n", got {raw!r}')
    lo = _parse_float("E-grid", parts[0])
    hi = _parse_float("E-grid", parts[1])
    n = _parse_int("E-grid", parts[2], lo=1, hi=MAX_GRID)
    if lo > hi:
        raise ConfigError(f"E-grid: lo > hi ({lo:g} > {hi:g})")
    if n == 1 and lo != hi:
        raise ConfigError("E-grid: a single-point grid needs lo = hi")
    return lo, hi, n, tuple(float(x) for x in np.linspace(lo, hi, n))


def _parse_floats(key: str, raw: str) -> tuple:
    toks = [t for t in str(raw).strip().split(",") if t.strip()]
    if not toks:
        raise ConfigError(f"{key}: empty list")
    return tuple(_parse_float(key, t) for t in toks)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    model: BetheStripModel
    e_values: tuple
    etas: tuple
    seed: int
    workers: int
    out: Path
    echo: dict = field(repr=False)
    pool: int | None = None  # None where the subcommand does not read it
    sweeps: int | None = None
    burnin: int | None = None
    samples: int | None = None
    depth: int | None = None
    degree: int | None = None


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    sub = args.subcommand
    file_values = _read_config_file(args.config) if args.config else {}
    raw = {}  # the keys sub reads: a file key it does not read is skipped
    for key, spec in _KEYS.items():
        if sub not in spec.read_by:
            continue
        default = spec.default
        if isinstance(default, dict):
            default = default.get(sub, default.get("*"))
        flag = getattr(args, key)
        raw[key] = flag if flag is not None else file_values.get(key, default)
    if raw["workers"] is None:
        raw["workers"] = os.environ.get("BETHE_STRIP_THREADS") or "1"

    def count(key):
        return _parse_int(key, raw[key], _KEYS[key].lo, _KEYS[key].hi)

    def required(key):
        if raw[key] is None:
            raise ConfigError(f"{key} is required")
        return raw[key]

    K = count("K")
    a_raw, m_raw = raw["A"], raw["m"]
    if a_raw is not None:
        if not str(a_raw).startswith("diag:"):
            raise ConfigError(f'A: expected "diag:v1,v2,...", got {a_raw!r}')
        a = _parse_floats("A", str(a_raw)[len("diag:"):])
        if m_raw is not None and count("m") != len(a):
            raise ConfigError(
                f"m={m_raw} disagrees with the {len(a)} entries of A"
            )
    else:  # a zero-stride view: the model checks the width before copying
        a = np.broadcast_to(0.0, max(count("m"), 0) if m_raw is not None else 1)

    lam = _parse_float("lambda", raw["lambda"])
    # the model and its ensemble own every model rule; their errors are config errors
    try:
        model = BetheStripModel(K=K, a=a, lam=lam,
                                ensemble=parse_ensemble_spec(str(raw["ensemble"])))
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    lo, hi, n, e_values = _parse_grid(required("E-grid"))

    etas = ()
    if "eta-schedule" in raw:
        etas = _parse_floats("eta-schedule", required("eta-schedule"))
        etas = etas[:1] if sub == "crosscheck" else etas  # its first level only
        if sub == "free-profile" and any(e < 0 for e in etas):
            raise ConfigError("eta-schedule: levels must be >= 0")
        if sub != "free-profile" and any(e <= 0 for e in etas):
            raise ConfigError("eta-schedule: all levels must be positive")
        if sub in _POOL_SUBS and any(b >= a_ for a_, b in zip(etas, etas[1:])):
            raise ConfigError("eta-schedule: levels must be strictly decreasing")
        if sub == "ac-indicator" and len(etas) < 3:
            raise ConfigError("ac-indicator needs at least 3 eta levels")

    counts = {key: count(key) for key in raw if _KEYS[key].lo is not None}
    per_count = ({"samples": n} if sub == "crosscheck" else
                 {"pool": model.m**2, "samples": recursion.MEASURE_SWEEPS * model.m**2})
    for key, per in per_count.items():
        entries = counts.get(key, 0) * per
        if entries > MAX_ENTRIES:
            raise ConfigError(f"{key}: {counts[key]} needs {entries} entries, cap {MAX_ENTRIES}")

    out = Path(str(required("out")))
    for suffix in ("", ".manifest.json") + ((".verdict.json",) if sub == "ac-indicator" else ()):
        if Path(f"{out}{suffix}").is_dir():
            raise ConfigError(f"out: {out}{suffix} is a directory")

    resolved = {
        **counts,
        "K": model.K,
        "m": model.m,
        "A": "diag:" + ",".join(repr(x) for x in model.a),
        "lambda": model.lam,
        "ensemble": model.ensemble.spec_string(),
        "E-grid": f"{lo!r}:{hi!r}:{n}",
        "eta-schedule": ",".join(repr(e) for e in etas),
        "out": str(out),
    }
    echo = {key: resolved[key] for key in raw}
    echo["subcommand"] = sub
    if sub in _POOL_SUBS:
        echo.update({"chunking": recursion.CHUNKS,
                     "measure-sweeps": recursion.MEASURE_SWEEPS})

    return RunConfig(subcommand=sub, model=model, e_values=e_values, etas=etas,
                     out=out, echo=echo, **counts)


# ---------------------------------------------------------------------------
# output rendering


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _render(content) -> bytes:
    """A dict as sorted, indented JSON; a (header, rows) table as CSV."""
    if isinstance(content, dict):
        return (json.dumps(content, sort_keys=True, indent=2) + "\n").encode("utf-8")
    header, rows = content
    text = "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])
    return text.encode("utf-8")


@dataclass
class CommandResult:
    outputs: dict  # suffix after --out -> (header, rows) table or JSON dict
    warnings: list = field(default_factory=list)
    ok: bool = True
    message: str = ""


def _reim(diag) -> list:
    return [float(x) for v in np.asarray(diag) for x in (v.real, v.imag)]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_free_profile(cfg: RunConfig, pmap) -> CommandResult:
    model, m = cfg.model, cfg.model.m
    header = ["E", "eta"]
    for tag in ("g0", "gfull", "ae"):
        for k in range(1, m + 1):
            header += [f"{tag}_re_{k}", f"{tag}_im_{k}"]
    rows = []
    outside = 0
    no_ae = np.full(m, complex(math.nan, math.nan))
    z = np.array([[complex(E, eta) for eta in cfg.etas] for E in cfg.e_values])
    g0 = forward_roots(z, model.a, model.K)
    gf = full_diagonal(z, model.a, model.K, g0)
    window = band_intersection(model)
    for i, E in enumerate(cfg.e_values):
        for j, eta in enumerate(cfg.etas):
            ae = no_ae
            if eta == 0.0:  # A_E is real-axis: a_e_matrix's formula on the grid's root
                if window.lo <= E <= window.hi:
                    ae = 0.0 - 0.25 * g0[i, j]
                else:
                    outside += 1
            rows.append([float(E), float(eta), *_reim(g0[i, j]), *_reim(gf[i, j]),
                         *_reim(ae)])
    warnings = [f"{outside} eta=0 rows outside the closed band-intersection "
                "window; ae columns emitted as nan"] if outside else []
    return CommandResult({"": (header, rows)}, warnings)


def _continuation_records(cfg: RunConfig, pmap):
    """One eta-continuation per grid energy, each on its own child seed."""
    for i, E in enumerate(cfg.e_values):
        records = eta_continuation(
            cfg.model, float(E), cfg.etas,
            pool_size=cfg.pool, seed=child_seed(cfg.seed, i),
            burn_in=cfg.burnin, relax_sweeps=cfg.sweeps,
            draws_per_sweep=cfg.samples, pmap=pmap,
        )
        yield float(E), records


def _cmd_dos_scan(cfg: RunConfig, pmap) -> CommandResult:
    header = ["E", "eta", "dos", "dos_stderr", "ETrG2", "ETrG2_stderr"]
    rows = [[E, ms.eta, float(ms.dos.mean), float(ms.dos.std_error),
             float(ms.trace_abs_sq.mean), float(ms.trace_abs_sq.std_error)]
            for E, records in _continuation_records(cfg, pmap) for ms in records]
    return CommandResult({"": (header, rows)})


def _cmd_ac_indicator(cfg: RunConfig, pmap) -> CommandResult:
    header = ["E", "eta", "etrg2", "etrg2_stderr"]
    rows, results = [], []
    for E, records in _continuation_records(cfg, pmap):
        for ms in records:
            rows.append([E, ms.eta, float(ms.trace_abs_sq.mean),
                         float(ms.trace_abs_sq.std_error)])
        ratio, bounded, err = ac_indicator(records)
        results.append({"E": E, "ratio": ratio, "ratio_stderr": err,
                        "bounded": bounded})
    verdict = {
        "indicator": "stabilization of E Tr|G|^2 between the last two eta levels",
        "note": ("a ratio inside the window indicates a bounded second moment "
                 "(consistent with absolutely continuous spectrum); it is a "
                 "numerical indicator, not a proof"),
        "window": [recursion.AC_RATIO_LO, recursion.AC_RATIO_HI],
        "results": results,
    }
    return CommandResult({"": (header, rows), ".verdict.json": verdict})


def _cmd_gap_scan(cfg: RunConfig, pmap) -> CommandResult:
    header = ["E", "gap_kce", "min_dist_inv_k"]
    rows = []
    skipped = 0
    basis = enumerate_indices(cfg.model.m, max(cfg.degree, 1))
    for E in cfg.e_values:
        try:
            rows.append([float(E), *eigenvalue_gaps(float(E), cfg.model, basis)])
        except OutOfBandError:
            skipped += 1
    warnings = [f"skipped {skipped} of {len(cfg.e_values)} grid points outside "
                "the band-intersection window"] if skipped else []
    return CommandResult({"": (header, rows)}, warnings)


def _triangularity_residual(op) -> list:
    """Per matrix of the stack, max |entries[r, c]| over r != c, deg r >= deg c."""
    degrees = np.array([sum(J) for J in op.basis])
    mask = (degrees[:, None] >= degrees[None, :]) & ~np.eye(len(degrees), dtype=bool)
    return [float(np.abs(entries[mask]).max(initial=0.0)) for entries in op.entries]


def _cmd_ce_spectrum(cfg: RunConfig, pmap) -> CommandResult:
    header = ["E", "J", "degree", "lambda_re", "lambda_im", "modulus",
              "k_power", "tri_residual"]
    energies = [float(E) for E in cfg.e_values]
    op = build_ce_matrix(energies, cfg.model, cfg.degree)
    rows = []
    for E, entries, residual in zip(energies, op.entries,
                                    _triangularity_residual(op)):
        for i, J in enumerate(op.basis):
            value = complex(entries[i, i])
            rows.append([E, ":".join(str(p) for p in J),
                         sum(J), float(value.real), float(value.imag),
                         float(abs(value)),
                         float(cfg.model.K) ** (-sum(J)), residual])
    return CommandResult({"": (header, rows)})


def _cmd_crosscheck(cfg: RunConfig, pmap) -> CommandResult:
    model = cfg.model
    eta = cfg.etas[0]
    tree = build_tree(model.K, cfg.depth, model.m)
    batch = max(1, 2**20 // (tree.n_sites * model.m**2))  # realizations a task
    tasks = [(i, E, lo) for i, E in enumerate(cfg.e_values)
             for lo in range(0, cfg.samples, batch)]

    def deviations(task):
        i, E, lo = task
        sp, seed = SpectralPoint(float(E), eta), child_seed(cfg.seed, i)
        V = np.stack([draw_site_potentials(model, tree, seed, t)
                      for t in range(lo, min(lo + batch, cfg.samples))])
        gap = sample_tree_given(sp, model, tree, V) - root_green_block(sp, model, tree, V)
        return np.abs(gap).max(axis=(1, 2))

    devs = np.concatenate(list(pmap(deviations, tasks)))
    worst = int(np.argmax(devs))
    max_dev = float(devs[worst])
    ok = max_dev <= CROSSCHECK_TOL
    report = {
        "comparison": ("root Green block: depth-limited forward recursion vs "
                       "sparse-LU solve of the same truncated tree, shared "
                       "potential realizations"),
        "depth": cfg.depth,
        "eta": eta,
        "energies": [float(E) for E in cfg.e_values],
        "realizations": cfg.samples,
        "cases": len(devs),
        "tolerance": CROSSCHECK_TOL,
        "max_deviation": max_dev,
        "worst_case": {"E": float(cfg.e_values[worst // cfg.samples]),
                       "realization": worst % cfg.samples},
        "pass": ok,
    }
    message = "" if ok else (f"max deviation {max_dev:.3e} exceeds "
                             f"{CROSSCHECK_TOL:g}")
    return CommandResult({"": report}, ok=ok, message=message)


_DISPATCH = {
    "free-profile": _cmd_free_profile,
    "dos-scan": _cmd_dos_scan,
    "ac-indicator": _cmd_ac_indicator,
    "gap-scan": _cmd_gap_scan,
    "ce-spectrum": _cmd_ce_spectrum,
    "crosscheck": _cmd_crosscheck,
}


def _write_outputs(cfg: RunConfig, result: CommandResult, start: float) -> list:
    """Write the outputs, then the manifest timed from ``start``; return the paths."""
    files = {Path(f"{cfg.out}{suffix}"): _render(content)
             for suffix, content in result.outputs.items()}
    cfg.out.parent.mkdir(parents=True, exist_ok=True)
    for path, data in files.items():
        path.write_bytes(data)
    manifest = {
        "artifact": {"name": "bethestrip", "version": __version__},
        "config": cfg.echo,
        "schema_version": 2,
        "schema": {f"{cfg.out.name}{suffix}": content[0]
                   for suffix, content in result.outputs.items()
                   if not isinstance(content, dict)},
        "outputs": {path.name: {"sha256": hashlib.sha256(data).hexdigest(),
                                "bytes": len(data)} for path, data in files.items()},
        "warnings": result.warnings,
        "wall_clock_seconds": round(time.perf_counter() - start, 3),
    }
    path = Path(f"{cfg.out}.manifest.json")
    path.write_bytes(_render(manifest))
    return [*files, path]


_VALUE_FLAGS = {"--config"} | {f"--{key}" for key in _KEYS}


def _preprocess_argv(argv) -> list:
    """Merge "--flag -leading-dash-value" pairs into "--flag=value".

    argparse only recognizes bare negative numbers after an option; grid and
    schedule values like "-2:2:5" or "-0.1,-0.2" would otherwise be taken for
    option strings.
    """
    merged = []
    for token in argv:
        if (merged and merged[-1] in _VALUE_FLAGS and token.startswith("-")
                and not token.startswith("--")):
            merged[-1] = f"{merged[-1]}={token}"
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(_preprocess_argv(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        start = time.perf_counter()
        with ThreadPoolExecutor(cfg.workers) as ex:  # threads start on first use
            result = _DISPATCH[cfg.subcommand](cfg, ex.map if cfg.workers > 1 else map)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BetheStripError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    try:
        paths = _write_outputs(cfg, result, start)
    except OSError as exc:
        print(f"config error: out: cannot write {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 2
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for path in paths:
        print(f"wrote {path}")
    if not result.ok:
        print(f"verification failed: {result.message}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
