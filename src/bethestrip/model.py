"""Strip model and disorder ensembles.

A configuration is the tree branching number K, the diagonal free strip
operator A = diag(a_1 <= ... <= a_m), a coupling strength, and a law for the
random symmetric m x m potential V.  Ensembles know how to sample themselves
(scalar and batched).
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

MAX_WIDTH = 16  # supported strip widths; dense m x m algebra throughout


@dataclass(frozen=True)
class RealInterval:
    lo: float
    hi: float

    def contains(self, x) -> bool:
        return self.lo < x < self.hi

    def __str__(self):
        return f"({self.lo:g}, {self.hi:g})"


class DisorderEnsemble:
    """Law of the random symmetric potential V."""

    def sample(self, m, rng):
        """One draw, an (m, m) real symmetric array: the first of a batch of one."""
        return self.sample_batch(m, rng, 1)[0]

    def sample_batch(self, m, rng, n):
        """n draws stacked as (n, m, m), each reading rng where the last one stopped.

        So n sequential ``sample`` calls on one stream equal one batch of n,
        and a batch of n is a prefix of any longer batch on the same stream.
        """
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class PointMass(DisorderEnsemble):
    """Deterministic potential: V = V0 with probability one."""

    V0: tuple

    def __init__(self, V0):
        V0 = np.asarray(V0, dtype=float)
        if V0.ndim != 2 or V0.shape[0] != V0.shape[1]:
            raise ValueError("point matrix must be square")
        with np.errstate(over="ignore", invalid="ignore"):  # caught as non-finite
            sym = 0.5 * (V0 + V0.T)
            if not np.isfinite(sym).all():
                raise ValueError("point matrix must be finite")
            if not np.allclose(V0, V0.T, atol=1e-12):
                raise ValueError("point matrix must be symmetric")
        object.__setattr__(self, "V0", tuple(map(tuple, sym.tolist())))

    @property
    def matrix(self):
        return np.array(self.V0, dtype=float)

    @property
    def m(self):
        return len(self.V0)

    def sample_batch(self, m, rng, n):
        self._check_m(m)
        return np.broadcast_to(self.matrix, (n, m, m)).copy()

    def _check_m(self, m):
        if m != self.m:
            raise ValueError(f"point matrix has shape ({self.m}, {self.m}), "
                             f"model needs ({m}, {m})")

    def spec_string(self):
        return "point:" + json.dumps(self.V0)


_DIAG_KINDS = ("uniform", "gauss", "bernoulli")


@dataclass(frozen=True)
class DiagonalIID(DisorderEnsemble):
    """V = diag(v_1..v_m) with i.i.d. entries.

    kinds: 'uniform' is U[-1, 1], 'gauss' is N(0, 1), 'bernoulli' is +-1
    with equal weight.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in _DIAG_KINDS:
            raise ValueError(
                f"unknown diagonal disorder kind {self.kind!r}; "
                f"expected one of {', '.join(_DIAG_KINDS)}"
            )

    def sample_batch(self, m, rng, n):
        if self.kind == "uniform":
            v = rng.uniform(-1.0, 1.0, size=(n, m))
        elif self.kind == "gauss":
            v = rng.standard_normal((n, m))
        else:
            v = rng.integers(0, 2, size=(n, m)) * 2.0 - 1.0
        out = np.zeros((n, m, m))
        out.reshape(n, m * m)[:, ::m + 1] = v  # the diagonals
        return out

    def spec_string(self):
        return f"diag:{self.kind}"


@dataclass(frozen=True)
class GOE(DisorderEnsemble):
    """Gaussian orthogonal ensemble: V_ii ~ N(0, 1), V_ij = V_ji ~ N(0, 1/2).

    So Var Tr(M V) = Tr M^2.  A draw reads m(m+1)/2 standard normals in
    row-major upper-triangle order, the off-diagonal ones times sqrt(1/2).
    """

    # its own class attribute, so bench/tracing.py can wrap GOE draws
    sample = DisorderEnsemble.sample

    def sample_batch(self, m, rng, n):
        Z = rng.standard_normal((n, m * (m + 1) // 2))
        V = np.empty((n, m, m))
        for p, (i, j) in enumerate((i, j) for i in range(m) for j in range(i, m)):
            V[:, i, j] = V[:, j, i] = Z[:, p] if i == j else np.sqrt(0.5) * Z[:, p]
        return V

    def spec_string(self):
        return "goe"


@dataclass(frozen=True)
class BetheStripModel:
    """Branching number K, diagonal a (ascending), coupling lam, ensemble."""

    K: int
    a: tuple
    lam: float
    ensemble: DisorderEnsemble = field(default_factory=lambda: GOE())

    def __post_init__(self):
        if int(self.K) != self.K or self.K < 2:
            raise ValueError("K must be an integer >= 2")
        object.__setattr__(self, "K", int(self.K))
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if not 1 <= len(a) <= MAX_WIDTH:
            raise ValueError(f"strip width must be 1..{MAX_WIDTH}")
        if not np.isfinite(a).all():
            raise ValueError("a must be finite")
        if (np.diff(a) < 0).any():
            raise ValueError("a must be sorted ascending")
        object.__setattr__(self, "a", tuple(a.tolist()))
        if not np.isfinite(self.lam):
            raise ValueError("lam must be finite")
        object.__setattr__(self, "lam", float(self.lam))
        if isinstance(self.ensemble, PointMass):
            self.ensemble._check_m(len(a))

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def a_matrix(self):
        return np.diag(self.a)

    @property
    def sqrt_k(self) -> float:
        return float(np.sqrt(self.K))


def band_intersection(model) -> RealInterval:
    """Common interior of the free bands [a_k - sqrt K, a_k + sqrt K].

    That is (max a - sqrt K, min a + sqrt K), the window of the paper's
    theorem; it is empty iff the diagonal spread a_m - a_1 reaches 2 sqrt K.
    """
    return RealInterval(-model.sqrt_k + model.a[-1], model.sqrt_k + model.a[0])


def parse_ensemble_spec(spec):
    """Parse point:<json-or-path>, diag:<kind> or goe; the syntax only.

    The ensemble checks its values.  Raises ValueError, or OSError on a read.
    """
    spec = spec.strip()
    if spec == "goe":
        return GOE()
    if spec.startswith("diag:"):
        return DiagonalIID(spec[len("diag:"):])
    if spec.startswith("point:"):
        payload = spec[len("point:"):].strip()
        if not payload:
            raise ValueError("point: requires an inline matrix or a path")
        try:
            if payload.startswith("["):
                data = json.loads(payload)
            elif os.path.exists(payload):
                with open(payload) as fh:
                    data = json.load(fh)
            else:  # bare comma-separated diagonal, e.g. point:0.3,-0.1
                data = [float(x) for x in payload.split(",")]
            V0 = np.asarray(data, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"cannot parse point ensemble {payload!r}: {exc}") from None
        return PointMass(np.diag(V0) if V0.ndim == 1 else V0)
    raise ValueError(
        f"unknown ensemble spec {spec!r}; expected goe, diag:<kind>, or point:<...>"
    )
