import itertools
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bethestrip.errors import OutOfBandError
from bethestrip.free import (
    a_e_matrix,
    forward_roots,
    free_dos,
    free_forward_green,
    free_full_green,
)
from bethestrip.linalg import SpectralPoint
from bethestrip.linearization import _interior_ae_diag
from bethestrip.model import GOE, BetheStripModel, band_intersection


def make_model(K=2, a=(0.0,)):
    return BetheStripModel(K=K, a=a, lam=0.0, ensemble=GOE())


def quadratic_residual(g, z, a, K):
    """The forward entries must solve (K/4) g^2 + (z - a) g + 1 = 0."""
    return np.abs((K / 4.0) * g * g + (z - a) * g + 1.0)


def real_axis(E, model):
    """Diagonal of the forward Green's matrix at eta = 0."""
    return np.diagonal(free_forward_green(SpectralPoint(E, 0.0), model))


def roots_oracle(E, a, K):
    """Per orbital, the physical root of (K/4) g^2 + (E - a_k) g + 1 by
    numpy.roots: in band the root with Im > 0, outside the smaller one."""
    out = []
    for ak in a:
        r = np.roots([K / 4.0, E - ak, 1.0])
        inside = (E - ak) ** 2 < K
        out.append(r[np.argmax(r.imag)] if inside else r[np.argmin(np.abs(r))])
    return np.array(out)


PROFILES = {1: (0.1,), 2: (-0.4, 0.3), 3: (-0.5, 0.0, 0.4)}


def band_edges(model):
    return [ak + s * np.sqrt(model.K) for ak in model.a for s in (-1.0, 1.0)]


class TestForwardGreen:
    def test_band_center_k2(self):
        g = free_forward_green(SpectralPoint(0.0, 0.0), make_model())
        assert g[0, 0] == pytest.approx(1j * np.sqrt(2), abs=1e-14)

    def test_at_z_eq_i(self):
        g = free_forward_green(SpectralPoint(0.0, 1.0), make_model())
        assert g[0, 0] == pytest.approx(1j * (np.sqrt(3) - 1), abs=1e-14)

    def test_quadratic_residue_grid(self):
        mod = make_model(K=3, a=(-0.4, 0.1, 0.5))
        for E in np.linspace(-2.5, 2.5, 21):
            for eta in (1e-6, 1e-3, 0.1, 1.0, 10.0):
                z = complex(E, eta)
                g = np.diagonal(free_forward_green(SpectralPoint(E, eta), mod))
                res = quadratic_residual(g, z, np.array(mod.a), mod.K)
                assert res.max() < 1e-12

    def test_herglotz_for_positive_eta(self, rng):
        for _ in range(200):
            K = int(rng.integers(2, 7))
            a = float(rng.uniform(-3, 3))
            E = float(rng.uniform(-10, 10))
            eta = float(10 ** rng.uniform(-8, 2))
            g = free_forward_green(SpectralPoint(E, eta), make_model(K=K, a=(a,)))
            assert g[0, 0].imag > 0.0

    def test_decay_at_large_z(self):
        # g(z) ~ -1/z far from the spectrum
        z = SpectralPoint(500.0, 1.0)
        g = free_forward_green(z, make_model())[0, 0]
        assert g == pytest.approx(-1.0 / z.z, rel=1e-4)

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_real_axis_matches_numpy_roots(self, m, K):
        mod = make_model(K=K, a=PROFILES[m])
        edges = band_edges(mod)
        for E in np.linspace(-3.5, 3.5, 141):
            if min(abs(E - e) for e in edges) < 1e-3:
                continue
            np.testing.assert_allclose(real_axis(E, mod),
                                       roots_oracle(E, mod.a, K),
                                       rtol=0, atol=1e-12)
        # at a band edge the double root is ill-conditioned: float(sqrt K)
        # rounding moves it by ~1e-8, and numpy.roots by as much again
        for E in edges:
            np.testing.assert_allclose(real_axis(E, mod),
                                       roots_oracle(E, mod.a, K),
                                       rtol=0, atol=1e-7)

    def test_real_axis_limit_matches_boundary(self):
        # continuity between eta = 1e-10 and eta = 0 away from the band edges
        for m, K in itertools.product(PROFILES, (2, 3)):
            mod = make_model(K=K, a=PROFILES[m])
            edges = band_edges(mod)
            for E in np.linspace(-3.5, 3.5, 71):
                if min(abs(E - e) for e in edges) < 1e-2:
                    continue
                near = free_forward_green(SpectralPoint(E, 1e-10), mod)
                np.testing.assert_allclose(near, np.diag(real_axis(E, mod)),
                                           rtol=0, atol=1e-8)

    @pytest.mark.parametrize("E, eta", [(3.0, 5e-324), (-3.0, 5e-324),
                                        (1e3, 1e-320)])
    def test_underflowing_eta_keeps_decaying_root(self, E, eta):
        # Im g underflows to +-0 here, so the sign of Im cannot pick the root
        g = free_forward_green(SpectralPoint(E, eta), make_model())[0, 0]
        assert g.imag >= 0.0  # -0.0 passes
        assert g == pytest.approx(-2.0 / (E + np.sign(E) * np.sqrt(E * E - 2.0)),
                                  rel=1e-15)

    @settings(max_examples=300)
    @given(K=st.integers(2, 16), a=st.floats(-2.0, 2.0),
           sign=st.sampled_from((-1.0, 1.0)), logE=st.floats(-2.0, 8.0),
           eta=st.one_of(st.just(0.0),
                         st.floats(-323.0, 3.0).map(lambda u: 10.0 ** u)))
    def test_smaller_upper_root_property(self, K, a, sign, logE, eta):
        E = sign * 10.0 ** logE
        g = forward_roots(complex(E, eta), [a], K)[0]
        x = complex(E, eta) - a
        assert g.imag >= 0.0
        assert K * abs(g) ** 2 / 4.0 <= 1.0 + 1e-12
        assert abs((K / 4.0) * g * g + x * g + 1.0) / max(1.0, abs(x * g)) <= 1e-12

    @settings(max_examples=150)
    @given(data=st.data(), K=st.integers(2, 16), m=st.integers(1, 4),
           shape=st.one_of(st.tuples(st.integers(1, 8)),
                           st.tuples(st.integers(1, 5), st.integers(1, 4))))
    def test_one_root_for_any_shape(self, data, K, m, shape):
        a = sorted(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))
        mod = make_model(K=K, a=a)
        window = band_intersection(mod)
        # band centres and edges, where the in-band tie starts and ends
        special = [ak + s * np.sqrt(K) for ak in a for s in (-1.0, 0.0, 1.0)]
        energy = st.one_of(st.floats(-6.0, 6.0), st.sampled_from(special))
        if window.lo < window.hi:
            energy = st.one_of(energy, st.floats(window.lo, window.hi))
        size = int(np.prod(shape))
        E = np.array(data.draw(st.lists(energy, min_size=size, max_size=size)))
        eta = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(-12.0, 2.0).map(lambda u: 10.0 ** u)),
            min_size=size, max_size=size))
        z = np.empty(shape, dtype=complex)
        z.real, z.imag = E.reshape(shape), np.reshape(eta, shape)

        g = forward_roots(z, a, K)
        assert g.shape == shape + (m,)
        for idx in np.ndindex(shape):
            assert g[idx].tobytes() == forward_roots(complex(z[idx]), a, K).tobytes()

        # interior energies: inside by _interior_ae_diag's own test on x and
        # inside the closed window of a_e_matrix
        x = np.subtract.outer(E, a)
        inner = E[(x * x < K).all(axis=-1) & (window.lo <= E) & (E <= window.hi)]
        for e, diag in zip(inner, _interior_ae_diag(inner, mod)):
            fwd = np.diagonal(free_forward_green(SpectralPoint(e, 0.0), mod))
            quarter = 0.0 - 0.25 * fwd
            assert diag.tobytes() == quarter.tobytes()
            assert np.diagonal(a_e_matrix(e, mod)).tobytes() == diag.tobytes()
            assert _interior_ae_diag(e, mod).tobytes() == diag.tobytes()


class TestBoundaryForward:
    def test_real_and_signed_outside(self):
        mod = make_model()
        g_hi = real_axis(3.0, mod)[0]
        g_lo = real_axis(-3.0, mod)[0]
        assert g_hi.imag == 0.0 and g_hi.real < 0.0
        assert g_lo.imag == 0.0 and g_lo.real > 0.0
        # decaying branch: |g| <= 2/sqrt(K) everywhere
        assert abs(g_hi) < 2 / np.sqrt(2)

    def test_continuous_at_edge(self):
        mod = make_model()
        edge = np.sqrt(2)
        inner = real_axis(edge - 1e-9, mod)[0]
        outer = real_axis(edge + 1e-9, mod)[0]
        at = real_axis(edge, mod)[0]
        # the sqrt cusp amplifies the ~1e-16 rounding of float(sqrt 2) to ~1e-8
        assert at == pytest.approx(-edge, abs=1e-7)
        assert abs(inner - at) < 1e-4 and abs(outer - at) < 1e-4

    def test_quadratic_residue_everywhere(self):
        mod = make_model(K=4, a=(-0.2, 0.6))
        for E in np.linspace(-6, 6, 61):
            g = real_axis(E, mod)
            res = quadratic_residual(g, complex(E), np.array(mod.a), mod.K)
            assert res.max() < 1e-12

    @pytest.mark.parametrize("K", [2, 3, 5])
    @pytest.mark.parametrize("E", [1e4, -1e4, 1e6, -1e6, 1e8, -1e8])
    def test_far_outside_matches_50_digit_root(self, E, K):
        # -x + sign(x) sqrt(x^2 - K) cancels here; the decaying root is
        # 2 (-x + sign(x) sqrt(x^2 - K)) / K, evaluated in 50 digits
        with mpmath.workdps(50):
            x = mpmath.mpf(E)
            want = 2 * (-x + mpmath.sign(x) * mpmath.sqrt(x * x - K)) / K
            g = real_axis(E, make_model(K=K))[0]
            assert g.imag == 0.0
            assert abs((mpmath.mpf(g.real) - want) / want) <= 1e-15


class TestFullGreen:
    def test_band_center_value(self):
        full = free_full_green(SpectralPoint(0.0, 0.0), make_model())
        assert full[0, 0] == pytest.approx(4j / (3 * np.sqrt(2)), abs=1e-14)

    def test_at_z_eq_i(self):
        full = free_full_green(SpectralPoint(0.0, 1.0), make_model())
        assert full[0, 0] == pytest.approx(4j / (1 + 3 * np.sqrt(3)), abs=1e-14)

    def test_dos_band_center(self):
        dos = free_dos(SpectralPoint(0.0, 0.0), make_model())
        assert dos == pytest.approx(4 / (3 * np.sqrt(2) * np.pi), abs=1e-14)
        assert dos == pytest.approx(0.3001054, abs=1e-6)

    def test_dos_integrates_to_one(self):
        # independent normalization oracle: the boundary density over the
        # band must integrate to exactly one state per orbital
        for K in (2, 3):
            mod = make_model(K=K)
            edge = np.sqrt(K)
            total, err = quad(lambda E: free_dos(E, mod), -edge, edge, limit=200)
            assert err < 1e-8
            assert total == pytest.approx(1.0, abs=1e-7)

    def test_dos_vanishes_outside(self):
        mod = make_model()
        assert free_dos(2.5, mod) == 0.0
        assert free_full_green(SpectralPoint(2.5), mod)[0, 0].imag == 0.0


class TestBoundaryMatrix:
    def test_frozen_m2_entries(self):
        mod = make_model(K=2, a=(-0.5, 0.5))
        ae = a_e_matrix(0.0, mod)
        assert ae[0, 0] == pytest.approx(0.125 - 1j * np.sqrt(1.75) / 4, abs=1e-14)
        assert ae[1, 1] == pytest.approx(-0.125 - 1j * np.sqrt(1.75) / 4, abs=1e-14)

    def test_constant_modulus(self):
        for K in (2, 3, 5):
            mod = make_model(K=K, a=(-0.2, 0.0, 0.3))
            iv = band_intersection(mod)
            for E in np.linspace(iv.lo + 1e-3, iv.hi - 1e-3, 50):
                ae = np.diagonal(a_e_matrix(E, mod))
                np.testing.assert_allclose(np.abs(ae), 1 / (2 * np.sqrt(K)), atol=1e-13)

    def test_is_minus_quarter_forward(self):
        mod = make_model(K=2, a=(-0.5, 0.5))
        iv = band_intersection(mod)
        for E in np.linspace(iv.lo + 1e-6, iv.hi - 1e-6, 200):
            fwd = free_forward_green(SpectralPoint(E, 0.0), mod)
            ae = a_e_matrix(E, mod)
            np.testing.assert_allclose(-4.0 * ae, fwd, atol=1e-12)

    def test_resolvent_identity(self):
        # (K A_E + A - E)^{-1} = -4 A_E
        mod = make_model(K=3, a=(-0.4, 0.2))
        for E in np.linspace(-0.8, 0.8, 9):
            ae = a_e_matrix(E, mod)
            lhs = np.linalg.inv(mod.K * ae + mod.a_matrix - E * np.eye(2))
            np.testing.assert_allclose(lhs, -4.0 * ae, atol=1e-12)

    def test_closed_window_endpoints(self, rng):
        # the README model's upper endpoint is sqrt 2 - 1/2; at an endpoint
        # K - (E - a_k)^2 can round below 0
        models = [make_model(K=2, a=(-0.5, 0.5))]
        for _ in range(200):
            m = int(rng.integers(1, 4))
            models.append(make_model(K=int(rng.choice((2, 3, 4, 5, 7, 16))),
                                     a=tuple(np.sort(rng.uniform(-1.0, 1.0, m)))))
        for mod in models:
            window = band_intersection(mod)
            for E, beyond in ((window.lo, -np.inf), (window.hi, np.inf)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    ae = np.diagonal(a_e_matrix(E, mod))
                assert np.isfinite(ae).all()
                np.testing.assert_allclose(np.abs(ae), 1 / (2 * np.sqrt(mod.K)),
                                           rtol=0, atol=1e-7)
                with pytest.raises(OutOfBandError):
                    a_e_matrix(np.nextafter(E, beyond), mod)

    def test_out_of_window_raises(self):
        mod = make_model(K=2, a=(-0.5, 0.5))
        with pytest.raises(OutOfBandError):
            a_e_matrix(1.0, mod)  # in-band for a=0.5, out for a=-0.5
