import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethestrip.errors import SingularMatrixError
from bethestrip.linalg import (
    HERGLOTZ_SLACK,
    SpectralPoint,
    _imag_floor,
    min_imag_eigenvalue,
    resolvent,
    sqrt_upper,
    sym_part,
)
from conftest import random_herglotz, random_symmetric


class TestResolvent:
    def test_frozen_2x2(self):
        # [[1, i], [i, 1]] has determinant 2, inverse (1/2) [[1, -i], [-i, 1]];
        # the neighbor sum enters as -sum/4
        M = np.array([[1.0, 1j], [1j, 1.0]])
        expected = 0.5 * np.array([[1.0, -1j], [-1j, 1.0]])
        got = resolvent(M + 0.5 * np.eye(2), 2.0 * np.eye(2))
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_identity_residual_random(self, rng):
        for m in (1, 2, 3, 5, 8, 16):
            M = random_symmetric(m, rng) + 1j * random_symmetric(m, rng)
            M += 3j * np.eye(m)  # keep it comfortably invertible
            N = resolvent(M, 0.0)
            assert np.array_equal(N, N.swapaxes(-1, -2))
            resid = np.max(np.abs(M @ N - np.eye(m)))
            assert resid <= 1e-10 * max(np.max(np.abs(M)), 1.0)

    def test_stack_matches_single_calls(self, rng):
        for m in (1, 2, 3, 5):
            shifted = np.array([random_symmetric(m, rng) - 1j * np.eye(m)
                                for _ in range(7)])
            nsum = np.array([random_herglotz(m, rng) for _ in range(7)])
            stacked = resolvent(shifted, nsum)
            for i in range(7):
                single = resolvent(shifted[i], nsum[i])
                assert stacked[i].tobytes() == single.tobytes()

    def test_singular_raises(self):
        # both closed forms: the m = 1 reciprocal and the m = 2 adjugate
        for M in ([[0.0]], [[1.0, 1.0], [1.0, 1.0]]):
            M = np.array(M, dtype=complex)
            with pytest.raises(SingularMatrixError):
                resolvent(M, 0.0)
            with pytest.raises(SingularMatrixError):  # as one member of a stack
                resolvent(np.array([np.eye(len(M)), M]), 0.0)

    def test_closed_form_2x2_matches_lapack(self, rng):
        # m = 2 takes the closed-form branch; the reference is LAPACK
        herglotz = np.array([random_herglotz(2, rng) for _ in range(200)])
        # a real antisymmetric part keeps Im(-M) >= eta, so M stays well conditioned
        X = rng.standard_normal((200, 2, 2))
        nonsym = herglotz + (X - np.swapaxes(X, 1, 2))
        for M in (-herglotz, -nonsym):
            ref = sym_part(np.linalg.inv(M))
            got = resolvent(M, 0.0)
            assert np.array_equal(got, got.swapaxes(-1, -2))
            err = np.max(np.abs(got - ref), axis=(1, 2))
            assert np.all(err <= 1e-13 * np.max(np.abs(ref), axis=(1, 2)))

    def test_2x2_errors_raise_without_warning(self):
        # a zero pivot, a NaN and an inf entry at widths 1 and 2, alone and
        # as one member of a stack; then finite entries whose pivot or
        # inverse overflows (LAPACK gives 1e-200 on the diagonal of the first,
        # and 1e310 is past the largest double)
        bad_inputs = ([[0.0]], [[np.nan]], [[np.inf]],
                      [[1.0, 2.0], [2.0, 4.0]], [[np.nan, 0.0], [0.0, 1.0]],
                      [[np.inf, 0.0], [0.0, 1.0]],
                      [[1e200, 0.0], [0.0, 1e200]], [[1e-310]],
                      [[1e-310, 0.0], [0.0, 1.0]])
        for bad in bad_inputs:
            bad = np.array(bad, dtype=complex)
            for M in (bad, np.array([np.eye(len(bad)), bad])):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(SingularMatrixError):
                        resolvent(M, 0.0)

    @settings(max_examples=200)
    @given(m=st.integers(1, 4), K=st.integers(2, 4), eta=st.floats(1e-2, 1.0),
           E=st.floats(-3.0, 3.0), lam=st.floats(0.0, 2.0), goe=st.booleans(),
           n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_herglotz_inputs_property(self, m, K, eta, E, lam, goe, n, seed):
        # Herglotz neighbor sums give Im(-M) >= eta, hence Im G >= 0 and
        # ||G||_2 <= 1/eta, on every kernel path
        rng = np.random.default_rng(seed)
        A = np.diag(rng.uniform(-1.0, 1.0, m))
        V = np.array([random_symmetric(m, rng) if goe
                      else np.diag(rng.standard_normal(m)) for _ in range(n)])
        nsum = sum(np.array([random_herglotz(m, rng, eta=0.0) for _ in range(n)])
                   for _ in range(K))
        z = complex(E, eta)
        shifted = (A + lam * V) - z * np.eye(m)
        G = resolvent(A, nsum, V, lam, z)
        assert G.tobytes() == resolvent(shifted, nsum).tobytes()
        ref = sym_part(np.linalg.inv(shifted - 0.25 * nsum))
        assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(G))
        assert np.array_equal(G, G.swapaxes(-1, -2))
        assert min_imag_eigenvalue(G) >= -HERGLOTZ_SLACK
        assert np.linalg.norm(G, 2, axis=(1, 2)).max() <= (1 + 1e-9) / eta

    def packed_case(self, rng, n):
        # A, a symmetric neighbor sum and symmetric potentials for the
        # packed m = 2 path, with the shifted block the same M comes from
        A = np.diag([-0.5, 0.5])
        nsum = np.array([random_herglotz(2, rng) for _ in range(n)])
        V = np.array([random_symmetric(2, rng) for _ in range(n)])
        return A, nsum, V, 0.7, complex(0.3, 0.05)

    def test_packed_matches_shifted(self, rng):
        A, nsum, V, lam, z = self.packed_case(rng, 50)
        got = resolvent(A, nsum, V, lam, z)
        ref = resolvent(A + lam * V - z * np.eye(2), nsum)
        assert got.tobytes() == ref.tobytes()
        for i in range(3):  # a single (2, 2) call and a stack of one
            single = resolvent(A, nsum[i], V[i], lam, z)
            assert single.shape == (2, 2)
            assert single.tobytes() == resolvent(A, nsum[i:i + 1], V[i:i + 1],
                                                 lam, z)[0].tobytes()
            assert single.tobytes() == got[i].tobytes()

    def test_packed_planted_errors_raise_without_warning(self, rng):
        A, nsum, V, lam, z = self.packed_case(rng, 4)
        nan = V.copy()
        nan[2, 0, 1] = nan[2, 1, 0] = np.nan
        # all four entries of M are 1: lam = 0, A = 0, z = 0, neighbors -4
        ones = nsum.copy()
        ones[1] = -4.0
        # finite potentials whose ad - bc, or whose 1 / (ad - bc), overflows
        huge, tiny = V.copy(), V.copy()
        huge[3] = np.diag([1e200, 1e200])
        tiny[0] = np.diag([1e-310, 1.0])
        zero = np.zeros((4, 2, 2))
        for args, match in (((A, nsum, nan, lam, z), "non-finite"),
                            ((np.zeros((2, 2)), ones, V, 0.0, 0j), "singular"),
                            ((np.zeros((2, 2)), zero, huge, 1.0, 0j), "overflow"),
                            ((np.zeros((2, 2)), zero, tiny, 1.0, 0j), "overflow")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularMatrixError, match=match):
                    resolvent(*args)

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            resolvent(np.zeros((3, 3), dtype=complex), 0.0)

    def test_nonfinite_raises(self):
        M = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(SingularMatrixError):
            resolvent(M, 0.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            resolvent(np.ones((2, 3), dtype=complex), 0.0)


class TestSqrtUpper:
    def test_frozen_value(self):
        # (u + iv)^2 = -1 - 2i with v >= 0: v = sqrt((|w| - Re w)/2), u = Im w/(2v)
        w = -1.0 - 2.0j
        v = np.sqrt((abs(w) - w.real) / 2.0)
        u = w.imag / (2.0 * v)
        got = sqrt_upper(w)
        assert got == pytest.approx(u + 1j * v, abs=1e-15)
        assert got.real == pytest.approx(-0.7861513777574233, abs=1e-15)
        assert got.imag == pytest.approx(1.272019649514069, abs=1e-15)

    def test_real_nonnegative_gives_plus_root(self):
        assert sqrt_upper(4.0) == 2.0
        assert sqrt_upper(0.0) == 0.0

    def test_real_negative_gives_upper(self):
        assert sqrt_upper(-4.0) == pytest.approx(2j, abs=1e-15)

    def test_branch_property_random(self, rng):
        w = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        r = sqrt_upper(w)
        assert np.all(r.imag >= 0.0)
        np.testing.assert_allclose(r * r, w, atol=1e-12)

    def test_vectorized_matches_scalar(self, rng):
        w = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        rv = sqrt_upper(w)
        for i, wi in enumerate(w):
            assert sqrt_upper(wi) == rv[i]


class TestMinImagEigenvalue:
    def test_frozen_values(self):
        assert min_imag_eigenvalue(np.array([[1j, 1.0], [1.0, 1j]])) == pytest.approx(1.0, abs=1e-14)
        # Im part [[2, 1], [1, 0]] has eigenvalues 1 +- sqrt 2
        M = np.array([[2j, 1j], [1j, 0.0]])
        assert min_imag_eigenvalue(M) == pytest.approx(1 - np.sqrt(2), abs=1e-14)

    def test_herglotz_class_random(self, rng):
        for _ in range(50):
            M = random_herglotz(3, rng, eta=0.1)
            assert min_imag_eigenvalue(M) >= 0.1 - 1e-12

    def test_stack_gives_minimum_over_members(self, rng):
        stack = np.array([random_herglotz(3, rng, eta=0.1) for _ in range(20)])
        singles = [min_imag_eigenvalue(g) for g in stack]
        assert min_imag_eigenvalue(stack) == min(singles)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_floor_is_one_eigvalsh_per_matrix(self, m, rng):
        # the per-matrix floor behind the indicator, byte for byte the
        # smallest eigenvalue of each member's Im part on its own
        stack = np.array([random_herglotz(m, rng, eta=0.1) for _ in range(12)])
        singles = [np.linalg.eigvalsh(0.5 * (g.imag + g.imag.T))[0] for g in stack]
        floor = _imag_floor(stack)
        assert floor.shape == (12,)
        assert floor.tobytes() == np.array(singles).tobytes()
        assert min_imag_eigenvalue(stack) == min(singles)

    def test_real_matrix_is_boundary_case(self, rng):
        M = random_symmetric(4, rng).astype(complex)
        assert min_imag_eigenvalue(M) == pytest.approx(0.0, abs=1e-15)


class TestSpectralPoint:
    def test_fields_and_z(self):
        sp = SpectralPoint(0.5, 0.01)
        assert sp.z == 0.5 + 0.01j

    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError):
            SpectralPoint(0.0, -1e-3)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SpectralPoint(np.nan, 0.0)


def test_sym_part_projects(rng):
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    S = sym_part(X)
    assert np.array_equal(S, S.swapaxes(-1, -2))
    np.testing.assert_allclose(sym_part(S), S)
