"""Spectrum of the linearized boundary fixed-point operator.

At ``lam = 0`` and energy E strictly inside the band-intersection
window, the boundary fixed point of the forward recursion is the
Gaussian weight with parameter matrix A_E (see :mod:`bethestrip.free`).
Linearizing the recursion map around that fixed point yields an
operator C_E acting on polynomials-times-Gaussian in a symmetric
matrix variable X.  Its eigenvalues are indexed by upper-triangular
non-negative integer matrices J:

    lambda_J = prod_{j<=k} [4 (A_E)_jj (A_E)_kk]^{J_jk},

all of modulus K^{-|J|}.  An index J is its exponent tuple: the m(m+1)/2
exponents J_jk over the row-major upper triangle (see upper_slots), with
|J| = sum(J) and the monomial X^J = prod X_jk^{J_jk}.  This module
enumerates the index set, builds the eigenvalues and the spectral gaps of
K*C_E - I (and of the tensor form governing second moments), and
reconstructs the full matrix of C_E on the monomial basis from its
generating identity

    C_E [e^{i Tr(M X)} zeta] = exp((i/4) Tr((B - M)^{-1} X)),

where zeta = e^{i Tr(-A_E X)}, B^{-1} = -4 A_E, and M is a real
symmetric parameter matrix.  Monomials are extracted from the identity
by attaching one formal parameter per upper-triangle slot and reading
off mixed Taylor coefficients (jet arithmetic), which keeps every step
exact up to floating point and makes the degree filtration manifest.

Each coefficient of W(s, X) is (i/4) times the product of binv =
diag(B^{-1}) over a walk whose ends are its X slot, which gives the
walk-product identity

    C_E[J', J] = C_1[J', J] * prod_u binv_u^{(deg_u J + deg_u J') / 2},

with C_1 the expansion at binv = 1 and deg_u J the row sum at u of
J + J^T (a diagonal slot counts twice).  One expansion of exp(W),
truncated at total degree d, gives the whole matrix of C_E on
{X^J zeta : |J| <= d}.  :func:`build_ce_matrix` expands at binv = 1 and
scales that matrix per energy by exact integer powers of binv;
:func:`ce_apply_symbol`, the direct per-energy oracle, expands at its own
binv and applies the matrix to a coefficient vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EigenvalueLawError, OutOfBandError, TruncationOverflowError
from .free import forward_roots
from .model import BetheStripModel, band_intersection

#: Tolerance on | |lambda_J| - K^{-|J|} | in eigenvalue_gaps.
MODULUS_RTOL = 1e-12
#: Largest monomial basis build_ce_matrix will assemble.
MAX_BASIS = 500
#: Largest index set enumerate_indices will build.  An index holds about
#: 127 bytes (tracemalloc at m = 4), so this is about 25 MB; m = 4 at
#: degree 10 (184,756 indices) fits, m = 16 at degree 10 (~1e15) does not.
MAX_INDICES = 200_000


def upper_slots(m: int) -> list[tuple[int, int]]:
    """Row-major upper-triangle coordinates (j, k), j <= k."""
    return [(j, k) for j in range(m) for k in range(j, m)]


def _exponents(basis, m: int) -> np.ndarray:
    """The exponent tuples of basis as an (n, m(m+1)/2) int array, checked once.

    A J that is not m(m+1)/2 non-negative integers raises ValueError: 1.0 and
    np.int64(0) pass as 1 and 0, but 1.5, NaN and inf do not.
    """
    p = len(upper_slots(m))
    try:  # the zero index pins the width: a J of any other shape is ragged
        exps = np.array([*basis, (0,) * p])[:-1]
    except ValueError:
        bad = [np.shape(J) != (p,) for J in basis]
    else:
        bad = ~((np.floor(exps) == exps) & (0 <= exps) & (exps < np.inf)).all(axis=1)
    if np.any(bad):
        raise ValueError(f"an index at m={m} is {p} non-negative integer exponents, "
                         f"got {basis[int(np.argmax(bad))]!r}")
    return exps.astype(int)


def _basis_size(m: int, max_degree: int, cap: int, name: str) -> int:
    """|{J : |J| <= max_degree}|, counted, not enumerated; above cap raises."""
    p = len(upper_slots(m))  # a degree >= cap is over it too: size >= max_degree + 1
    size = math.comb(p + min(max_degree, cap), p)
    if size > cap:
        raise TruncationOverflowError(f"the degree-{max_degree} basis at m = {m} "
                                      f"exceeds {name}={cap}; reduce max_degree or m")
    return size


def enumerate_indices(m: int, max_degree: int) -> list[tuple]:
    """All exponent tuples J with |J| <= max_degree, by rising degree.

    Within a degree the exponents fall lexicographically: the slot earliest in
    row-major order carries the highest power first, so for m=2 the degree-1
    indices come as X_11, X_12, X_22.  A set over MAX_INDICES raises
    TruncationOverflowError before it is built.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    size = _basis_size(m, max_degree, MAX_INDICES, "MAX_INDICES")
    p = len(upper_slots(m))
    out = []
    for degree in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(p), degree):
            powers = [0] * p
            for slot in combo:
                powers[slot] += 1
            out.append(tuple(powers))
    assert len(out) == size, (len(out), size)
    return out


def _interior_ae_diag(E, model: BetheStripModel) -> np.ndarray:
    """Diagonal of A_E, E.shape + (m,), where E is in a_e_matrix's closed window
    and every computed |E - a_k| < sqrt K."""
    window = band_intersection(model)
    x = np.subtract.outer(E, model.a)  # on x: forward_roots' tie, of exact modulus
    inside = (x * x < model.K).all(axis=-1) & (window.lo <= E) & (E <= window.hi)
    if not inside.all():  # NaN fails every test
        raise OutOfBandError(
            f"E={np.asarray(E)[~inside].flat[0]:g} is not strictly inside "
            "|E - a_k| < sqrt(K) for every orbital"
        )
    return 0.0 - 0.25 * forward_roots(E, model.a, model.K)


def eigenvalue_law(ae_diag, basis) -> np.ndarray:
    """lambda_J = prod_{j<=k} [4 (A_E)_jj (A_E)_kk]^{J_jk} for each J in basis.

    ae_diag is the diagonal of A_E, (m,) or a stack (..., m); the result
    has shape ae_diag.shape[:-1] + (len(basis),).  Each J is an exponent
    tuple of length m(m+1)/2; any other J raises ValueError.
    """
    d = np.asarray(ae_diag)
    j, k = np.array(upper_slots(d.shape[-1])).T
    exps = _exponents(basis, d.shape[-1])
    return np.prod((4.0 * d[..., None, j] * d[..., None, k]) ** exps, axis=-1)


def lambda_j(E: float, model: BetheStripModel, J: tuple) -> complex:
    """Eigenvalue of C_E at the exponent tuple J: prod [4 (A_E)_jj (A_E)_kk]^{J_jk}."""
    return complex(eigenvalue_law(_interior_ae_diag(E, model), [J])[0])


def eigenvalue_gaps(E: float, model: BetheStripModel,
                    basis) -> tuple[float, float]:
    """(gap of K*C_E - I, min_J |lambda_J - 1/K|) from one pass over basis.

    One evaluation of lambda_J over basis checks |lambda_J| = K^{-|J|} and
    lambda_J != 1/K, raising EigenvalueLawError naming the first offending
    J in basis order.  The gap is the distance of {K lambda_J} from 1,
    combined with the analytic floor 1 - 1/K valid for every |J| >= 2
    (there |K lambda_J| <= 1/K); with every |J| <= 1 in basis it bounds the
    gap over the full infinite index set.  It is also the gap of the
    second-moment tensor spectrum {K lambda_J conj(lambda_J')}: pairs with
    |J| + |J'| >= 2 have modulus <= 1/K, under the floor, and the pairs
    (J, 0), (0, J) give the terms |K lambda_J - 1|.
    """
    lams = eigenvalue_law(_interior_ae_diag(E, model), basis)
    degrees = np.array([sum(J) for J in basis])
    wrong = np.abs(np.abs(lams) - float(model.K) ** -degrees) > MODULUS_RTOL
    dist = np.abs(lams - 1.0 / model.K)
    bad = wrong | (dist == 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        rule = f"|lambda_J| != K^-{degrees[i]}" if wrong[i] else "lambda_J = 1/K"
        raise EigenvalueLawError(f"{rule} at J={basis[i]}, E={E:g}: "
                                 f"lambda_J = {complex(lams[i])!r}")
    gap = min(float(np.abs(model.K * lams - 1.0).min()), 1.0 - 1.0 / model.K)
    return gap, float(dist.min())


def gap_kce(E: float, model: BetheStripModel, max_degree: int) -> float:
    """Spectral gap of K*C_E - I over |J| <= max(max_degree, 1); see eigenvalue_gaps."""
    basis = enumerate_indices(model.m, max(max_degree, 1))
    return eigenvalue_gaps(E, model, basis)[0]


@dataclass(frozen=True)
class OperatorMatrix:
    """Matrix of C_E on the ordered monomial basis {X^J zeta : |J| <= d}.

    basis holds the exponent tuples of enumerate_indices; entries[r, c] is
    the coefficient of basis[r] in the image of basis[c]; the degree
    filtration makes it block upper-triangular with lambda_J on the diagonal.
    Built for a sequence of energies, entries is the (n_E, n, n) stack of
    those matrices, one per energy.
    """

    basis: tuple
    entries: np.ndarray


def _jet_matrix(binv: np.ndarray, basis) -> np.ndarray:
    """Matrix of C_E on basis = enumerate_indices(m, d), from one jet.

    Expands W(s, X) = (i/4) sum_{n=1..d} Tr((binv M)^n binv X), with M the
    symmetric matrix holding the jet parameter s_alpha at both ends of slot
    alpha, and then exp(W), once, dropping total s-degree > d.  The s^J
    coefficient of exp(W) times the polarization prefactor
    prod_alpha J_alpha! / (i c_alpha)^{J_alpha}, with c_alpha = 1 on
    diagonal slots and 2 off the diagonal, is the image of X^J zeta: column
    c of the (n, n) result is the image of basis[c].
    """
    m = len(binv)
    degree = sum(basis[-1])
    slots = upper_slots(m)
    p = len(slots)
    unit = [tuple(int(a == b) for b in range(p)) for a in range(p)]
    slot_of = {}
    for idx, (j, k) in enumerate(slots):
        slot_of[j, k] = slot_of[k, j] = idx

    # N = (binv M)^n binv, entry-wise polynomials in s homogeneous of degree n
    N = [[{unit[slot_of[a, b]]: complex(binv[a] * binv[b])} for b in range(m)]
         for a in range(m)]
    W: dict = {}
    for n in range(degree):
        if n:  # N <- N M binv
            prev, N = N, [[{} for _ in range(m)] for _ in range(m)]
            for a, c, b in itertools.product(range(m), repeat=3):
                acc = N[a][c]
                for key, val in prev[a][b].items():
                    key = tuple(x + y for x, y in zip(key, unit[slot_of[b, c]]))
                    acc[key] = acc.get(key, 0.0) + val * complex(binv[c])
        for idx, (j, k) in enumerate(slots):
            entry = dict(N[j][k])
            if j != k:
                for key, val in N[k][j].items():
                    entry[key] = entry.get(key, 0.0) + val
            for s_pow, val in entry.items():
                coeff = 0.25j * val
                if coeff != 0.0:
                    W[s_pow, unit[idx]] = W.get((s_pow, unit[idx]), 0.0) + coeff

    # W is filled by rising s-degree, so its terms of degree <= k are a prefix
    terms = list(W.items())
    ends = [sum(sum(s) <= k for (s, _), _ in terms) for k in range(degree + 1)]
    series = {((0,) * p, (0,) * p): 1.0 + 0.0j}
    term = dict(series)
    for n in range(1, degree + 1):
        nxt = {}
        for (sa, xa), va in term.items():
            for (sb, xb), vb in terms[:ends[degree - sum(sa)]]:
                key = (tuple(x + y for x, y in zip(sa, sb)),
                       tuple(x + y for x, y in zip(xa, xb)))
                nxt[key] = nxt.get(key, 0.0) + va * vb / n
        term = nxt
        for key, val in term.items():
            series[key] = series.get(key, 0.0) + val

    row = {J: i for i, J in enumerate(basis)}
    c_alpha = [1.0 if j == k else 2.0 for j, k in slots]
    prefactors = [math.prod((math.factorial(x) / (1j * c) ** x
                             for x, c in zip(J, c_alpha)), start=1.0 + 0.0j)
                  for J in basis]
    matrix = np.zeros((len(basis), len(basis)), dtype=complex)
    for (s_pow, x_pow), val in series.items():
        coeff = prefactors[row[s_pow]] * val
        if coeff != 0.0:
            matrix[row[x_pow], row[s_pow]] = coeff
    return matrix


def ce_apply_symbol(E: float, model: BetheStripModel, coeffs: dict) -> dict:
    """Apply C_E to sum_J coeffs[J] X^J zeta, zeta = exp(-i Tr(A_E X)), in jets.

    Keys are exponent tuples of length m(m+1)/2, checked as eigenvalue_law
    checks a basis, so no key is dropped unread; the image {J: coefficient}
    is over the same Gaussian, and degrees never increase, so no truncation
    loss occurs.  The jets run at this energy's own binv, the direct oracle
    of build_ce_matrix's walk-product scaling; a basis up to the top degree
    over MAX_BASIS raises TruncationOverflowError before they run.
    """
    degree = int(_exponents(list(coeffs), model.m).sum(axis=1).max(initial=0))
    binv = -4.0 * _interior_ae_diag(E, model)
    _basis_size(model.m, degree, MAX_BASIS, "MAX_BASIS")
    basis = enumerate_indices(model.m, degree)
    image = _jet_matrix(binv, basis) @ [coeffs.get(J, 0.0) for J in basis]
    return {J: complex(c) for J, c in zip(basis, image) if c != 0}


def build_ce_matrix(E, model: BetheStripModel,
                    max_degree: int) -> OperatorMatrix:
    """Assemble the matrix of C_E on {X^J zeta : |J| <= max_degree}.

    E is a scalar, giving (n, n) entries, or a 1-D sequence, giving the
    (n_E, n, n) stack of one matrix per energy; any energy outside the band
    window raises OutOfBandError before the jets run, and a basis over
    MAX_BASIS raises TruncationOverflowError before it is enumerated.  The
    jets run once, at binv = 1, and each energy is an integer-power scaling
    of them (see the module docstring).  Verifies on the fly the degree
    filtration, an even degree sum at every vertex for each nonzero entry,
    and every diagonal entry against lambda_j to 1e-8; violations raise
    EigenvalueLawError (they would mean the jet expansion and the
    eigenvalue law disagree).
    """
    energies = np.asarray(E, dtype=float)
    if energies.ndim > 1:
        raise ValueError(f"E must be a scalar or 1-D, got shape {energies.shape}")
    _basis_size(model.m, max_degree, MAX_BASIS, "MAX_BASIS")
    basis = enumerate_indices(model.m, max_degree)
    grid = energies.reshape(-1)
    diag = _interior_ae_diag(grid, model)
    binv = -4.0 * diag

    unit = _jet_matrix(np.ones(model.m), basis)
    exps = np.array(basis)
    degree = exps.sum(axis=1)
    rising = (unit != 0) & (degree[:, None] > degree[None, :])
    if rising.any():
        r, c = np.argwhere(rising)[0]
        raise EigenvalueLawError(
            f"degree filtration violated: J={basis[c]} -> J={basis[r]}")

    # deg[i, u] = row u of J_i + J_i^T: slot (j, k) meets vertices j and k
    eye = np.eye(model.m, dtype=int)
    incidence = [eye[j] + eye[k] for j, k in upper_slots(model.m)]
    deg = exps @ incidence
    twice = deg[:, None, :] + deg[None, :, :]  # deg_u J_r + deg_u J_c
    odd = (unit != 0) & (twice % 2 == 1).any(axis=-1)
    if odd.any():
        r, c = np.argwhere(odd)[0]
        raise EigenvalueLawError(
            f"odd vertex degree sum in the image of J={basis[c]} at J={basis[r]}")
    half = twice // 2
    # binv^k by repeated products, never sqrt: exact where binv is a
    # Gaussian integer, so exact zeros of the law stay exact
    powers = np.ones((len(grid), model.m, half.max() + 1), dtype=complex)
    for k in range(1, powers.shape[-1]):
        powers[..., k] = powers[..., k - 1] * binv
    # one energy at a time keeps the temporaries at one (n, n) matrix
    entries = np.empty((len(grid),) + unit.shape, dtype=complex)
    for e in range(len(grid)):
        entries[e] = unit
        for u in range(model.m):
            entries[e] *= powers[e, u, half[..., u]]

    want = eigenvalue_law(diag, basis)
    bad = np.abs(np.diagonal(entries, axis1=1, axis2=2) - want) > 1e-8
    if bad.any():
        e, col = np.argwhere(bad)[0]
        raise EigenvalueLawError(
            f"diagonal entry for J={basis[col]} is {complex(entries[e, col, col])!r}, "
            f"eigenvalue law gives {complex(want[e, col])!r} at E={grid[e]:g}"
        )
    if energies.ndim == 0:
        entries = entries[0]
    return OperatorMatrix(basis=tuple(basis), entries=entries)
