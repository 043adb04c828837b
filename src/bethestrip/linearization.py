"""Spectrum of the linearized boundary fixed-point operator.

At ``lam = 0`` and energy E strictly inside the band-intersection
window, the boundary fixed point of the forward recursion is the
Gaussian weight with parameter matrix A_E (see :mod:`bethestrip.free`).
Linearizing the recursion map around that fixed point yields an
operator C_E acting on polynomials-times-Gaussian in a symmetric
matrix variable X.  Its eigenvalues are indexed by upper-triangular
non-negative integer matrices J:

    lambda_J = prod_{j<=k} [4 (A_E)_jj (A_E)_kk]^{J_jk},

all of modulus K^{-|J|}.  This module enumerates the index set, builds
the eigenvalues and the spectral gaps of K*C_E - I (and of the tensor
form governing second moments), and reconstructs the full matrix of
C_E on the monomial basis from its generating identity

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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EigenvalueLawError,
    OutOfBandError,
    TruncationOverflowError,
)
from .free import a_e_matrix
from .model import BetheStripModel

#: Tolerance on | |lambda_J| - K^{-|J|} | in eigenvalue_gaps.
MODULUS_RTOL = 1e-12
#: Largest monomial basis build_ce_matrix will assemble.
MAX_BASIS = 500
#: Largest index set enumerate_indices will build.  An index holds about
#: 400 bytes (tracemalloc at m = 4), so this is about 80 MB; m = 4 at
#: degree 10 (184,756 indices) fits, m = 16 at degree 10 (~1e15) does not.
MAX_INDICES = 200_000


def upper_slots(m: int) -> list[tuple[int, int]]:
    """Row-major upper-triangle coordinates (j, k), j <= k."""
    return [(j, k) for j in range(m) for k in range(j, m)]


def slot_count(m: int) -> int:
    return m * (m + 1) // 2


@dataclass(frozen=True, order=True)
class MonomialIndex:
    """Upper-triangular non-negative integer exponent matrix J.

    ``powers`` lists the exponents J_jk over the row-major upper
    triangle of an m x m matrix; the monomial is
    X^J = prod X_jk^{J_jk}.  Ordering is by (degree, variable-sequence
    lexicographic), so within a degree the slot earliest in row-major
    order carries the highest power first: for m=2 the degree-1 indices
    come as X_11, X_12, X_22.
    """

    sort_index: tuple = field(init=False, repr=False)
    m: int
    powers: tuple

    def __post_init__(self):
        if any(x < 0 or int(x) != x for x in self.powers):
            raise ValueError(
                f"exponents must be non-negative integers, got {self.powers}")
        powers = tuple(int(x) for x in self.powers)
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if len(powers) != slot_count(self.m):
            raise ValueError(
                f"need {slot_count(self.m)} exponents for m={self.m}, "
                f"got {len(powers)}"
            )
        object.__setattr__(self, "powers", powers)
        object.__setattr__(
            self, "sort_index",
            (sum(powers), tuple(-x for x in powers)),
        )

    @property
    def degree(self) -> int:
        return sum(self.powers)

    @classmethod
    def zero(cls, m: int) -> "MonomialIndex":
        return cls(m=m, powers=(0,) * slot_count(m))

    def entries(self) -> np.ndarray:
        """The m x m upper-triangular integer matrix J."""
        out = np.zeros((self.m, self.m), dtype=int)
        for power, (j, k) in zip(self.powers, upper_slots(self.m)):
            out[j, k] = power
        return out

    def __str__(self):
        return "J[" + ",".join(str(x) for x in self.powers) + "]"


def _basis_size(m: int, max_degree: int, cap: int, name: str) -> int:
    """|{J : |J| <= max_degree}|, counted, not enumerated; above cap raises."""
    size = math.comb(slot_count(m) + max_degree, slot_count(m))
    if size > cap:
        raise TruncationOverflowError(
            f"basis of {size} monomials exceeds {name}={cap}; "
            "reduce max_degree or m"
        )
    return size


def enumerate_indices(m: int, max_degree: int) -> list[MonomialIndex]:
    """All J with |J| <= max_degree, ordered by (degree, lexicographic).

    A set over MAX_INDICES raises TruncationOverflowError before it is built.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    size = _basis_size(m, max_degree, MAX_INDICES, "MAX_INDICES")
    p = slot_count(m)
    out = []
    for degree in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(p), degree):
            powers = [0] * p
            for slot in combo:
                powers[slot] += 1
            out.append(MonomialIndex(m=m, powers=tuple(powers)))
    assert len(out) == size, (len(out), size)
    return out


def _interior_ae_diag(E: float, model: BetheStripModel) -> np.ndarray:
    """Diagonal of A_E, requiring E strictly inside the band window."""
    x = float(E) - np.asarray(model.a, dtype=float)
    if not (x * x < model.K).all():  # NaN fails the inside test too
        raise OutOfBandError(
            f"E={E:g} is not strictly inside |E - a_k| < sqrt(K) "
            "for every orbital"
        )
    return np.diagonal(a_e_matrix(E, model))


def eigenvalue_law(ae_diag, basis) -> np.ndarray:
    """lambda_J = prod_{j<=k} [4 (A_E)_jj (A_E)_kk]^{J_jk} for each J in basis.

    ae_diag is the diagonal of A_E, (m,) or a stack (..., m); the result
    has shape ae_diag.shape[:-1] + (len(basis),).
    """
    d = np.asarray(ae_diag)
    j, k = np.array(upper_slots(d.shape[-1])).T
    exps = np.array([J.powers for J in basis])
    return np.prod((4.0 * d[..., None, j] * d[..., None, k]) ** exps, axis=-1)


def lambda_j(E: float, model: BetheStripModel, J: MonomialIndex) -> complex:
    """Eigenvalue of C_E at index J: prod [4 (A_E)_jj (A_E)_kk]^{J_jk}."""
    if J.m != model.m:
        raise ValueError(f"index has m={J.m}, model has m={model.m}")
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
    degrees = np.array([J.degree for J in basis])
    wrong = np.abs(np.abs(lams) - float(model.K) ** -degrees) > MODULUS_RTOL
    dist = np.abs(lams - 1.0 / model.K)
    bad = wrong | (dist == 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        J = basis[i]
        if wrong[i]:
            raise EigenvalueLawError(
                f"|lambda_{J}| = {abs(complex(lams[i]))!r} != K^-{J.degree} = "
                f"{model.K ** -J.degree!r} at E={E:g}"
            )
        raise EigenvalueLawError(
            f"lambda_{J} hit the forbidden value 1/K at E={E:g}"
        )
    gap = min(float(np.abs(model.K * lams - 1.0).min()), 1.0 - 1.0 / model.K)
    return gap, float(dist.min())


def gap_kce(E: float, model: BetheStripModel, max_degree: int) -> float:
    """Spectral gap of K*C_E - I over |J| <= max(max_degree, 1); see eigenvalue_gaps."""
    basis = enumerate_indices(model.m, max(max_degree, 1))
    return eigenvalue_gaps(E, model, basis)[0]


@dataclass(frozen=True)
class OperatorMatrix:
    """Matrix of C_E on the ordered monomial basis {X^J zeta : |J| <= d}.

    entries[r, c] is the coefficient of basis[r] in the image of
    basis[c]; the degree filtration makes it block upper-triangular
    with lambda_J on the diagonal.  Built for a sequence of energies,
    entries is the (n_E, n, n) stack of those matrices, one per energy.
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
    degree = basis[-1].degree
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

    row = {J.powers: i for i, J in enumerate(basis)}
    c_alpha = [1.0 if j == k else 2.0 for j, k in slots]
    prefactors = [math.prod((math.factorial(x) / (1j * c) ** x
                             for x, c in zip(J.powers, c_alpha)), start=1.0 + 0.0j)
                  for J in basis]
    matrix = np.zeros((len(basis), len(basis)), dtype=complex)
    for (s_pow, x_pow), val in series.items():
        coeff = prefactors[row[s_pow]] * val
        if coeff != 0.0:
            matrix[row[x_pow], row[s_pow]] = coeff
    return matrix


def ce_apply_symbol(E: float, model: BetheStripModel, coeffs: dict) -> dict:
    """Apply C_E to sum_J coeffs[J] X^J zeta, zeta = exp(-i Tr(A_E X)), in jets.

    Keys must be MonomialIndex of width model.m; the image {J: coefficient}
    is over the same Gaussian, and degrees never increase, so no truncation
    loss occurs.  The jets run at this energy's own binv, the direct oracle
    of build_ce_matrix's walk-product scaling; a basis up to the top degree
    over MAX_BASIS raises TruncationOverflowError before they run.
    """
    bad = [J for J in coeffs if not isinstance(J, MonomialIndex) or J.m != model.m]
    if bad:
        raise ValueError(f"keys must be MonomialIndex of m={model.m}, got {bad[0]!r}")
    binv = -4.0 * _interior_ae_diag(E, model)
    degree = max((J.degree for J in coeffs), default=0)
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
    diag = np.array([_interior_ae_diag(e, model) for e in grid],
                    dtype=complex).reshape(len(grid), model.m)
    binv = -4.0 * diag

    unit = _jet_matrix(np.ones(model.m), basis)
    degree = np.array([J.degree for J in basis])
    rising = (unit != 0) & (degree[:, None] > degree[None, :])
    if rising.any():
        r, c = np.argwhere(rising)[0]
        raise EigenvalueLawError(
            f"degree filtration violated: {basis[c]} -> {basis[r]}")

    # twice[r, c, u] = deg_u J_r + deg_u J_c, with deg_u J = row u of J + J^T
    deg = np.array([J.entries().sum(axis=0) + J.entries().sum(axis=1)
                    for J in basis])
    twice = deg[:, None, :] + deg[None, :, :]
    odd = (unit != 0) & (twice % 2 == 1).any(axis=-1)
    if odd.any():
        r, c = np.argwhere(odd)[0]
        raise EigenvalueLawError(
            f"odd vertex degree sum in the image of {basis[c]} at {basis[r]}")
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
            f"diagonal entry for {basis[col]} is {complex(entries[e, col, col])!r}, "
            f"eigenvalue law gives {complex(want[e, col])!r} at E={grid[e]:g}"
        )
    if energies.ndim == 0:
        entries = entries[0]
    return OperatorMatrix(basis=tuple(basis), entries=entries)
