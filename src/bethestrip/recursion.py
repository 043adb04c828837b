"""Green's matrix recursions: single trees and population dynamics.

The forward Green's matrix at a site with K forward neighbors satisfies

    G = [A + lam V - z - (1/4) sum_children G_child]^{-1},

and a full-lattice (root) sample is assembled the same way from K+1
neighbors.  Every path inverts through :func:`bethestrip.linalg.resolvent`,
batched: a truncated tree one depth at a time, leaves first, and the
resampling population that simulates the distributional fixed point a sweep
at a time, each sweep rebuilding all N samples from K uniformly drawn
predecessors plus a fresh potential, at m = 2 on packed columns of M.

All randomness is keyed (seed, purpose, sweep/realization, chunk), and a sweep
is always CHUNKS chunks, so pools are reproducible bit-for-bit under any map.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import ed
from .free import free_forward_green
from .linalg import SpectralPoint, require_psd, resolvent
from .rng import TAG_MEASURE, TAG_SWEEP, keyed_rng

DEFAULT_BATCHES = 20
# Chunks per sweep: the layout is part of the stream contract (each chunk draws
# from its own stream), and a sweep is CHUNKS tasks, so more threads never run.
CHUNKS = 8
# Generations averaged per measurement, the default of every measuring call.
MEASURE_SWEEPS = 20


def sample_tree(sp: SpectralPoint, model, depth, seed, realization=0):
    """Root Green's matrix on a depth-L truncated tree, by leaf-to-root elimination.

    Draws the potentials with :func:`bethestrip.ed.draw_site_potentials`, one
    stream keyed (seed, realization) read in BFS site order; the sparse direct
    solve on the same key sees the identical operator.
    """
    if sp.eta <= 0:
        raise ValueError("sample_tree requires eta > 0")
    tree = ed.build_tree(model.K, depth, model.m)
    potentials = ed.draw_site_potentials(model, tree, seed, realization)
    return sample_tree_given(sp, model, tree, potentials)


def sample_tree_given(sp: SpectralPoint, model, tree, potentials):
    """Leaf-to-root elimination, one depth a call, of (n, m, m) potentials or R of them."""
    # Layout from ed.build_tree: sites are ordered by depth, and the children
    # of each site are contiguous, in site order, in the next depth, the same
    # number per site (K + 1 at the root, K below).  So the neighbor sums of
    # one depth are the Green's matrices of the next, grouped and summed.
    shifted = (model.a_matrix + model.lam * potentials) - sp.z * np.eye(model.m)
    edges = np.searchsorted(tree.depth_of, np.arange(tree.depth + 2))
    G = np.zeros(shifted.shape[:-3] + (0, model.m, model.m))
    for d in range(tree.depth, -1, -1):
        lo, hi = edges[d], edges[d + 1]
        neighbor_sum = G.reshape(*G.shape[:-3], hi - lo, -1, *G.shape[-2:]).sum(axis=-3)
        G = resolvent(shifted[..., lo:hi, :, :], neighbor_sum)
    return G[..., 0, :, :]


@dataclass(frozen=True)
class PopulationPool:
    """Resampling population of forward Green's matrices.

    The samples array is a deterministic function of
    (model, point, size, seed, sweeps_done); worker counts and call
    patterns never change it.
    """

    samples: np.ndarray  # (N, m, m) complex
    point: SpectralPoint
    seed: int
    sweeps_done: int = 0

    @property
    def size(self) -> int:
        return len(self.samples)


def population_init(sp: SpectralPoint, model, size, seed) -> PopulationPool:
    """Pool seeded at the free forward solution for the same z (warm start)."""
    if size < 2:
        raise ValueError("population size must be >= 2")
    g0 = free_forward_green(sp, model)
    samples = np.broadcast_to(g0, (size, model.m, model.m)).astype(complex).copy()
    return PopulationPool(samples=samples, point=sp, seed=int(seed))


def _pool_draws(pool, model, rng, count, neighbors):
    """count fresh samples, each from `neighbors` pool picks plus a fresh potential."""
    # pick indices before potentials: the draw order is the streams' contract
    idx = rng.integers(0, pool.size, size=(count, neighbors))
    V = model.ensemble.sample_batch(model.m, rng, count)
    neighbor_sum = pool.samples.take(idx[:, 0], axis=0)
    for k in range(1, neighbors):
        neighbor_sum += pool.samples.take(idx[:, k], axis=0)
    return resolvent(model.a_matrix, neighbor_sum, V, model.lam, pool.point.z)


def population_sweep(pool: PopulationPool, model, pmap=map) -> PopulationPool:
    """One resampling generation; pmap may run its chunks (disjoint slices) at once."""
    out = np.empty_like(pool.samples)
    edges = np.linspace(0, pool.size, CHUNKS + 1).astype(int)
    slices = [slice(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]

    def work(c_sl):
        c, sl = c_sl
        rng = keyed_rng(pool.seed, TAG_SWEEP, pool.sweeps_done, c)
        out[sl] = _pool_draws(pool, model, rng, sl.stop - sl.start, model.K)

    list(pmap(work, enumerate(slices)))
    return replace(pool, samples=out, sweeps_done=pool.sweeps_done + 1)


def population_run(pool, model, sweeps, pmap=map) -> PopulationPool:
    for _ in range(sweeps):
        pool = population_sweep(pool, model, pmap)
    return pool


def root_draws(pool: PopulationPool, model, rng, count):
    """count independent root samples: K+1 pool picks plus a fresh potential."""
    return _pool_draws(pool, model, rng, count, model.K + 1)


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo mean with a batch-means standard error."""

    mean: object  # complex scalar or (m, m) array
    std_error: object  # matching real scalar or array
    count: int


def batch_stats(values, batches=DEFAULT_BATCHES) -> MomentEstimate:
    """Batch-means estimate along axis 0; complex parts combine in quadrature."""
    values = np.asarray(values)
    n = len(values)
    batches = max(min(batches, n), 1)
    size = n // batches
    trimmed = values[: batches * size]
    means = trimmed.reshape((batches, size) + values.shape[1:]).mean(axis=1)
    grand = means.mean(axis=0)
    if batches > 1:
        var = means.real.var(axis=0, ddof=1)
        if np.iscomplexobj(means):
            var = var + means.imag.var(axis=0, ddof=1)
        se = np.sqrt(var / batches)
    else:
        se = np.full(np.shape(grand), np.inf) if np.shape(grand) else np.inf
    return MomentEstimate(mean=grand, std_error=se, count=batches * size)


def _char_values(samples, M):
    t = np.einsum("nij,ji->n", samples, np.asarray(M, dtype=complex))
    return np.exp(0.25j * t)


@dataclass(frozen=True)
class FixedPointResidual:
    """Weak-sense fixed point diagnostic over a family of test matrices."""

    residual: float          # max |pool weight - one-step weight|
    combined_se: float       # statistical error at the max
    deltas: np.ndarray
    errors: np.ndarray

    @property
    def within_noise(self) -> bool:
        return bool(np.all(self.deltas <= 3.0 * self.errors))


def fixed_point_residual(pool, model, rng, test_matrices, count) -> FixedPointResidual:
    """Compare pool characteristic weights against one forward-map pushforward.

    For each PSD test matrix M: the pool average of exp((i/4) Tr(G M))
    versus the same average over fresh forward draws (K pool picks + fresh
    V).  At the distributional fixed point both estimate the same number.

    A single generation's empirical law sits a random offset away from
    stationarity (resampling genealogy), which within-generation error bars
    cannot see.  So the complex differences are averaged over DEFAULT_BATCHES
    consecutive generations of ``count // DEFAULT_BATCHES`` draws each: the
    slowly rotating offset cancels and the spread across generations gives
    an honest error.
    """
    for T in test_matrices:
        require_psd(T)
    per_gen = max(count // DEFAULT_BATCHES, 1)
    diffs = np.empty((DEFAULT_BATCHES, len(test_matrices)), dtype=complex)
    for g in range(DEFAULT_BATCHES):
        if g:
            pool = population_sweep(pool, model)
        pushed = _pool_draws(pool, model, rng, per_gen, model.K)
        for t, T in enumerate(test_matrices):
            diffs[g, t] = (batch_stats(_char_values(pool.samples, T)).mean
                           - batch_stats(_char_values(pushed, T)).mean)
    est = batch_stats(diffs)
    deltas = np.abs(np.asarray(est.mean))
    errors = np.asarray(est.std_error, dtype=float)
    k = int(np.argmax(deltas))
    return FixedPointResidual(residual=float(deltas[k]), combined_se=float(errors[k]),
                              deltas=deltas, errors=errors)


@dataclass(frozen=True)
class StationaryMeasurement:
    """Observables averaged over the last `sweeps` generations of a pool at eta."""

    eta: float
    green: MomentEstimate          # E G, (m, m)
    trace_abs_sq: MomentEstimate   # E Tr |G|^2, real scalar
    dos: MomentEstimate            # (1/(m pi)) Im E Tr G


def measure_stationary(pool, model, context, sweeps=MEASURE_SWEEPS,
                       draws_per_sweep=500, pmap=map):
    """Advance `sweeps` generations, measuring root draws after each.

    One batch per generation in the batch-means errors, so slow sweep-scale
    wobble shows up in the quoted uncertainty instead of hiding as bias.
    Returns (advanced pool, StationaryMeasurement).
    """
    if sweeps < 1 or draws_per_sweep < 1:
        raise ValueError("sweeps and draws_per_sweep must be >= 1")
    G_blocks = []
    for s in range(sweeps):
        pool = population_sweep(pool, model, pmap)
        rng = keyed_rng(pool.seed, TAG_MEASURE, int(context), pool.sweeps_done)
        G_blocks.append(root_draws(pool, model, rng, draws_per_sweep))
    G = np.concatenate(G_blocks, axis=0)
    batches = sweeps if sweeps > 1 else DEFAULT_BATCHES
    tr = (G.real**2 + G.imag**2).sum(axis=(1, 2))  # Tr(conj(G) G), G symmetric
    dos_vals = np.trace(G, axis1=1, axis2=2).imag / (model.m * np.pi)
    meas = StationaryMeasurement(
        eta=pool.point.eta,
        green=batch_stats(G, batches),
        trace_abs_sq=batch_stats(tr, batches),
        dos=batch_stats(dos_vals, batches),
    )
    return pool, meas


def eta_continuation(model, E, eta_schedule, pool_size=10_000, seed=0,
                     burn_in=100, relax_sweeps=50, measure_sweeps=MEASURE_SWEEPS,
                     draws_per_sweep=500, pmap=map):
    """Decreasing-eta continuation of the population at fixed energy.

    Re-equilibrates the warm-started pool at each eta and measures over
    `measure_sweeps` generations.  Returns one StationaryMeasurement per eta,
    in schedule order.
    """
    etas = [float(x) for x in eta_schedule]
    if not etas or any(e <= 0 for e in etas):
        raise ValueError("eta schedule must be positive")
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise ValueError("eta schedule must be strictly decreasing")
    pool = population_init(SpectralPoint(E, etas[0]), model, pool_size, seed)
    records = []
    for j, eta in enumerate(etas):
        pool = replace(pool, point=SpectralPoint(E, eta))
        pool = population_run(pool, model, burn_in if j == 0 else relax_sweeps,
                              pmap)
        pool, meas = measure_stationary(pool, model, j, measure_sweeps,
                                        draws_per_sweep, pmap)
        records.append(meas)
    return records


# stabilization window for the bounded-moment indicator (heuristic, not proof)
AC_RATIO_LO = 0.9
AC_RATIO_HI = 1.1


def ac_indicator(records):
    """Ratio of E Tr|G|^2 at the last two etas, and whether it stabilized.

    A ratio within [0.9, 1.1] across an eta decade is an indicator of a
    bounded second moment (hence absolutely continuous spectrum), not a
    proof-grade statement.
    """
    if len(records) < 2:
        raise ValueError("need at least two etas")
    prev = records[-2].trace_abs_sq
    last = records[-1].trace_abs_sq
    ratio = float(last.mean / prev.mean)
    rel_err = np.hypot(last.std_error / last.mean, prev.std_error / prev.mean)
    return ratio, bool(AC_RATIO_LO <= ratio <= AC_RATIO_HI), float(abs(ratio) * rel_err)
