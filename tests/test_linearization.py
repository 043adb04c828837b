"""Tests for the linearized-operator spectrum module."""

import itertools
import math
import time

import numpy as np
import pytest
import sympy as sp
from scipy.optimize import linear_sum_assignment

import bethestrip.linearization as lin
from bethestrip.errors import (
    EigenvalueLawError,
    OutOfBandError,
    TruncationOverflowError,
)
from bethestrip.free import a_e_matrix
from bethestrip.linearization import (
    MonomialIndex,
    build_ce_matrix,
    ce_apply_symbol,
    eigenvalue_gaps,
    enumerate_indices,
    gap_kce,
    lambda_j,
    upper_slots,
)
from bethestrip.model import BetheStripModel, DiagonalIID


def make_model(K=2, a=(0.0,)):
    return BetheStripModel(K=K, a=a, lam=0.0, ensemble=DiagonalIID("uniform"))


PROFILES = {1: (0.1,), 2: (-0.4, 0.3), 3: (-0.5, 0.0, 0.4)}


def window_energies(model):
    """Energies strictly inside the band-intersection window, two of them
    near the edges, where some |K lambda_J - 1| drop below 1 - 1/K."""
    lo = model.a[-1] - np.sqrt(model.K)
    hi = model.a[0] + np.sqrt(model.K)
    return lo + (hi - lo) * np.array([1e-3, 0.02, 0.25, 0.5, 0.75, 0.98,
                                      1 - 1e-3])


def loop_lambda(E, model, J):
    """lambda_J as one product per index, by a loop over the slots."""
    d = np.diagonal(a_e_matrix(E, model))
    out = complex(1.0)
    for power, (j, k) in zip(J.powers, upper_slots(model.m)):
        if power:
            out *= (4.0 * d[j] * d[k]) ** power
    return out


def pair_loop_gap(E, model, max_degree):
    """Brute-force tensor gap over pairs with |J| + |J'| <= max(d, 1)."""
    top = max(max_degree, 1)
    indices = enumerate_indices(model.m, top)
    lams = [loop_lambda(E, model, J) for J in indices]
    enumerated = min(
        abs(model.K * lam * np.conj(lam2) - 1.0)
        for J, lam in zip(indices, lams)
        for J2, lam2 in zip(indices, lams)
        if J.degree + J2.degree <= top
    )
    return min(float(enumerated), 1.0 - 1.0 / model.K)


class TestMonomialIndex:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonomialIndex(m=0, powers=())
        with pytest.raises(ValueError):
            MonomialIndex(m=2, powers=(1, 0))
        with pytest.raises(ValueError):
            MonomialIndex(m=1, powers=(-1,))

    def test_non_integral_exponent_rejected(self):
        # truncating 1.5 to 1 would name a different monomial
        for powers in [(1.5,), (0.5,), (-0.5,)]:
            with pytest.raises(ValueError, match="integers"):
                MonomialIndex(m=1, powers=powers)
        J = MonomialIndex(m=2, powers=(1.0, np.int64(0), 2))
        assert J.powers == (1, 0, 2) and all(type(x) is int for x in J.powers)

    def test_accessors(self):
        J = MonomialIndex(m=2, powers=(2, 1, 0))
        assert J.degree == 3
        np.testing.assert_array_equal(J.entries(), [[2, 1], [0, 0]])
        assert MonomialIndex.zero(2).degree == 0

    def test_ordering_by_degree_then_slots(self):
        zero = MonomialIndex(m=2, powers=(0, 0, 0))
        e11 = MonomialIndex(m=2, powers=(1, 0, 0))
        e12 = MonomialIndex(m=2, powers=(0, 1, 0))
        e22 = MonomialIndex(m=2, powers=(0, 0, 1))
        sq = MonomialIndex(m=2, powers=(2, 0, 0))
        assert zero < e11 < e12 < e22 < sq


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_indices(1, 2)) == 3
        assert len(enumerate_indices(2, 1)) == 4
        assert len(enumerate_indices(2, 2)) == 10

    def test_count_formula(self):
        for m, d in [(1, 5), (2, 3), (3, 2), (3, 4)]:
            p = m * (m + 1) // 2
            assert len(enumerate_indices(m, d)) == math.comb(p + d, d)

    def test_sorted_and_unique(self):
        out = enumerate_indices(3, 3)
        assert out == sorted(out)
        assert len(set(out)) == len(out)
        assert out[0] == MonomialIndex.zero(3)

    def test_m2_degree_one_order(self):
        out = enumerate_indices(2, 1)
        assert [J.powers for J in out] == [(0, 0, 0), (1, 0, 0),
                                           (0, 1, 0), (0, 0, 1)]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            enumerate_indices(2, -1)

    def test_oversize_set_refused_before_enumeration(self, monkeypatch):
        # m = 16 at degree 10 would be C(146, 10) ~ 1e15 index objects; the
        # count refuses it in the library and so in gap_kce and gap-scan
        class NoEnumeration:
            def combinations_with_replacement(self, *args):
                raise AssertionError("basis enumerated before the size check")

        monkeypatch.setattr(lin, "itertools", NoEnumeration())
        wide = make_model(a=tuple(np.linspace(-0.3, 0.3, 16)))
        start = time.perf_counter()
        with pytest.raises(TruncationOverflowError, match="exceeds MAX_INDICES"):
            enumerate_indices(16, 10)
        with pytest.raises(TruncationOverflowError, match="exceeds MAX_INDICES"):
            gap_kce(0.0, wide, 10)
        assert time.perf_counter() - start < 0.1

    def test_cap_admits_m4_degree_10(self):
        # the largest gap-scan basis measured in use: 184,756 indices
        assert math.comb(10 + 10, 10) <= lin.MAX_INDICES < math.comb(146, 10)


class TestLambdaJ:
    def test_zero_index_is_one(self):
        mod = make_model(K=3, a=(-0.2, 0.5))
        for E in (-0.4, 0.0, 0.9):
            assert lambda_j(E, mod, MonomialIndex.zero(2)) == 1.0

    def test_scalar_frozen_values(self):
        mod = make_model()
        assert lambda_j(0.0, mod, MonomialIndex(m=1, powers=(1,))) == \
            pytest.approx(-0.5, abs=1e-14)
        assert lambda_j(0.0, mod, MonomialIndex(m=1, powers=(2,))) == \
            pytest.approx(0.25, abs=1e-14)

    def test_product_structure(self):
        mod = make_model(a=(-0.5, 0.5))
        d = np.diagonal(a_e_matrix(0.3, mod))
        J = MonomialIndex(m=2, powers=(2, 1, 0))
        want = (4 * d[0] * d[0]) ** 2 * (4 * d[0] * d[1])
        assert lambda_j(0.3, mod, J) == pytest.approx(want, abs=1e-14)

    def test_out_of_band(self):
        mod = make_model()
        for E in (np.sqrt(2.0), -np.sqrt(2.0), 2.0):
            with pytest.raises(OutOfBandError):
                lambda_j(E, mod, MonomialIndex.zero(1))

    def test_m_mismatch(self):
        with pytest.raises(ValueError):
            lambda_j(0.0, make_model(), MonomialIndex.zero(2))

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_law_matches_per_index_product(self, m, K):
        mod = make_model(K=K, a=PROFILES[m])
        basis = enumerate_indices(m, 3)
        energies = window_energies(mod)
        stack = np.array([np.diagonal(a_e_matrix(E, mod)) for E in energies])
        law = lin.eigenvalue_law(stack, basis)
        assert law.shape == (len(energies), len(basis))
        for E, row in zip(energies, law):
            want = np.array([loop_lambda(E, mod, J) for J in basis])
            np.testing.assert_allclose(row, want, rtol=1e-14, atol=0)
            got = np.array([lambda_j(E, mod, J) for J in basis])
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


class TestVerifyModulus:
    def test_scalar_min_distance(self):
        # lambda values 1, -1/2, 1/4, -1/8: closest to 1/2 is 1/4.
        gap, dist = eigenvalue_gaps(0.0, make_model(), enumerate_indices(1, 3))
        assert dist == pytest.approx(0.25, abs=1e-12)
        assert gap == gap_kce(0.0, make_model(), 3)

    def test_m2_all_moduli(self):
        mod = make_model(a=(-0.5, 0.5))
        for J in enumerate_indices(2, 2):
            lam = lambda_j(0.0, mod, J)
            assert abs(lam) == pytest.approx(2.0 ** (-J.degree), abs=1e-12)
        assert eigenvalue_gaps(0.0, mod, enumerate_indices(2, 2))[1] > 0

    def test_violation_raises_with_index(self, monkeypatch):
        # break the law only at degree 1 so the offending index is J[1]
        real = lin.eigenvalue_law

        def skewed(ae_diag, basis):
            degree_one = np.array([J.degree == 1 for J in basis])
            return np.where(degree_one, 0.9 + 0.0j, real(ae_diag, basis))

        monkeypatch.setattr(lin, "eigenvalue_law", skewed)
        with pytest.raises(EigenvalueLawError, match=r"J\[1\]"):
            eigenvalue_gaps(0.0, make_model(), enumerate_indices(1, 1))


class TestGaps:
    def test_scalar_frozen_gaps(self):
        assert gap_kce(0.0, make_model(), 3) == pytest.approx(0.5, abs=1e-12)
        assert gap_kce(0.0, make_model(K=3), 3) == \
            pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_tensor_equals_pair_loop(self, m, K):
        mod = make_model(K=K, a=PROFILES[m])
        for E in window_energies(mod):
            for d in range(4):
                assert abs(gap_kce(E, mod, d)
                           - pair_loop_gap(E, mod, d)) <= 1e-15

    def test_degree_zero_still_sees_first_level(self):
        mod = make_model()
        assert gap_kce(0.0, mod, 0) == gap_kce(0.0, mod, 1)

    def test_floor_caps_gap(self):
        # At K=2, E=0 the enumerated distances are >= 1, so the reported
        # gap is exactly the analytic floor 1 - 1/K.
        assert gap_kce(0.0, make_model(), 1) == pytest.approx(0.5, abs=1e-15)

    def test_positive_inside_and_vanishing_at_edge(self):
        mod = make_model(a=(-0.3, 0.4))
        lo, hi = 0.4 - np.sqrt(2.0), -0.3 + np.sqrt(2.0)
        grid = np.linspace(lo + 1e-9, hi - 1e-9, 100)
        assert all(gap_kce(E, mod, 2) > 0 for E in grid)
        # Approaching the upper edge the gap scales like sqrt(hi - E);
        # sample below the floor 1 - 1/K (where the enumerated minimum
        # is active) and require strict monotone decay to ~0.
        approach = [hi - 10.0 ** (-2 - 0.5 * i) for i in range(10)]
        tail_k = [gap_kce(E, mod, 2) for E in approach]
        assert all(b < a for a, b in zip(tail_k, tail_k[1:]))
        # sqrt scaling: at 10^-6.5 from the edge the gap is ~2e-3
        assert tail_k[-1] < 2e-3
        with pytest.raises(OutOfBandError):
            gap_kce(hi, mod, 2)


def scalar_series_oracle(K, a, E, n):
    """C_E[X^n zeta] for m=1 via sympy series, exact arithmetic.

    Expands exp((i/4)(1/(b - s) - 1/b) X) in s, takes the coefficient
    of s^n times n!/i^n, and returns the resulting polynomial in X as a
    dict degree -> complex.
    """
    x = sp.Rational(E) - sp.Rational(a)
    ae = (x - sp.I * sp.sqrt(K - x * x)) / (2 * K)
    b = -1 / (4 * ae)
    s, X = sp.symbols("s X")
    W = (sp.I / 4) * (1 / (b - s) - 1 / b) * X
    ser = sp.series(sp.exp(W), s, 0, n + 1).removeO()
    poly = sp.expand(ser.coeff(s, n) * sp.factorial(n) / sp.I ** n)
    out = {}
    for k in range(n + 1):
        c = complex(sp.nsimplify(poly.coeff(X, k)).evalf(30))
        if c != 0:
            out[k] = c
    return out


def m2_jet_oracle(K, a, E, J_powers, dps=40):
    """C_E[X^J zeta] for m=2 via sympy differentiation of the identity.

    Works at ``dps`` decimal digits so the residual exp factors (whose
    exponents cancel only numerically) evaluate cleanly; coefficients
    are read off by differentiating in the X variables at X = 0.
    """
    xs = [sp.Float(sp.Rational(E) - sp.Rational(ak), dps) for ak in a]
    aes = [(x - sp.I * sp.sqrt(sp.Float(K, dps) - x * x)) / (2 * K)
           for x in xs]
    bs = [(-1 / (4 * ae)).evalf(dps) for ae in aes]
    s1, s2, s3 = sp.symbols("s1 s2 s3")
    x11, x12, x22 = sp.symbols("x11 x12 x22")
    xvars = (x11, x12, x22)
    B = sp.Matrix([[bs[0], 0], [0, bs[1]]])
    M = sp.Matrix([[s1, s2], [s2, s3]])
    X = sp.Matrix([[x11, x12], [x12, x22]])
    W = (sp.I / 4) * sp.trace(((B - M).inv() - B.inv()) * X)
    f = sp.exp(W)
    j1, j2, j3 = J_powers
    g = sp.diff(f, s1, j1, s2, j2, s3, j3)
    g = g.subs({s1: 0, s2: 0, s3: 0})
    g = g / (sp.I ** j1 * (2 * sp.I) ** j2 * sp.I ** j3)
    degree = sum(J_powers)
    out = {}
    for powers in itertools.product(range(degree + 1), repeat=3):
        if sum(powers) > degree:
            continue
        h = g
        for var, p in zip(xvars, powers):
            if p:
                h = sp.diff(h, var, p)
        h = h.subs({x11: 0, x12: 0, x22: 0})
        c = complex(h.evalf(dps))
        c /= np.prod([math.factorial(p) for p in powers])
        if abs(c) > 1e-12:  # differentiation leaves ~1e-18 cancellation noise
            out[powers] = c
    return out


class TestApplySymbol:
    def test_identity_on_gaussian(self):
        mod = make_model()
        out = ce_apply_symbol(0.0, mod, {MonomialIndex.zero(1): 1.0})
        assert out == {MonomialIndex.zero(1): 1.0 + 0.0j}

    def test_scalar_degree_one(self):
        mod = make_model()
        X = MonomialIndex(m=1, powers=(1,))
        out = ce_apply_symbol(0.0, mod, {X: 1.0})
        assert set(out) == {X}
        assert out[X] == pytest.approx(-0.5, abs=1e-14)

    def test_scalar_degree_two_frozen(self):
        mod = make_model()
        X1 = MonomialIndex(m=1, powers=(1,))
        X2 = MonomialIndex(m=1, powers=(2,))
        out = ce_apply_symbol(0.0, mod, {X2: 1.0})
        assert out[X2] == pytest.approx(0.25, abs=1e-12)
        assert out[X1] == pytest.approx(-np.sqrt(2.0), abs=1e-12)
        assert out.get(MonomialIndex.zero(1), 0) == 0

    def test_linearity(self):
        mod = make_model()
        X1 = MonomialIndex(m=1, powers=(1,))
        X2 = MonomialIndex(m=1, powers=(2,))
        out = ce_apply_symbol(0.0, mod, {X1: 2.0, X2: 3.0j})
        img1 = ce_apply_symbol(0.0, mod, {X1: 1.0})
        img2 = ce_apply_symbol(0.0, mod, {X2: 1.0})
        for J in set(img1) | set(img2):
            assert out.get(J, 0) == pytest.approx(
                2.0 * img1.get(J, 0) + 3.0j * img2.get(J, 0), abs=1e-13)

    def test_key_of_wrong_width_rejected(self):
        # a key outside the model's basis would otherwise be dropped silently
        mod = make_model()
        for key in [MonomialIndex.zero(2), MonomialIndex(m=2, powers=(1, 0, 0)),
                    (1,)]:
            with pytest.raises(ValueError, match="m=1"):
                ce_apply_symbol(0.0, mod, {MonomialIndex.zero(1): 1.0, key: 1.0})

    def test_degree_overflow(self, monkeypatch):
        # m = 4 at degree 4 spans C(14, 4) = 1,001 monomials, over MAX_BASIS
        def no_expansion(binv, basis):
            raise AssertionError("expansion ran before the basis cap")

        monkeypatch.setattr(lin, "_jet_matrix", no_expansion)
        mod = make_model(a=(-0.3, -0.1, 0.1, 0.3))
        J = MonomialIndex(m=4, powers=(4,) + (0,) * 9)
        assert math.comb(10 + 4, 4) == 1001 > lin.MAX_BASIS
        with pytest.raises(TruncationOverflowError, match="exceeds MAX_BASIS"):
            ce_apply_symbol(0.0, mod, {J: 1.0})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_scalar_sympy_oracle(self, n):
        K, a, E = 3, sp.Rational(1, 10), sp.Rational(1, 3)
        mod = make_model(K=K, a=(float(a),))
        want = scalar_series_oracle(K, a, E, n)
        out = ce_apply_symbol(float(E), mod, {MonomialIndex(m=1, powers=(n,)): 1.0})
        got = {J.degree: c for J, c in out.items() if abs(c) > 1e-15}
        assert set(got) == set(want)
        for k, c in want.items():
            assert got[k] == pytest.approx(c, abs=1e-10)

    @pytest.mark.parametrize("J_powers", [(0, 1, 0), (1, 1, 0), (0, 2, 0),
                                          (1, 0, 1)])
    def test_m2_sympy_oracle(self, J_powers):
        K = 2
        a = (sp.Rational(-1, 2), sp.Rational(1, 2))
        E = sp.Rational(1, 5)
        mod = make_model(K=K, a=tuple(float(x) for x in a))
        want = m2_jet_oracle(K, a, E, J_powers)
        out = ce_apply_symbol(float(E), mod,
                              {MonomialIndex(m=2, powers=J_powers): 1.0})
        got = {J.powers: c for J, c in out.items() if abs(c) > 1e-12}
        assert set(got) == set(want)
        for key, c in want.items():
            assert got[key] == pytest.approx(c, abs=1e-10)


class TestBuildMatrix:
    def test_scalar_frozen_matrix(self):
        M = build_ce_matrix(0.0, make_model(), 2)
        want = np.array([
            [1.0, 0.0, 0.0],
            [0.0, -0.5, -np.sqrt(2.0)],
            [0.0, 0.0, 0.25],
        ])
        np.testing.assert_allclose(M.entries, want, atol=1e-8)
        assert [J.degree for J in M.basis] == [0, 1, 2]

    def test_scalar_degree_one(self):
        M = build_ce_matrix(0.0, make_model(), 1)
        np.testing.assert_allclose(M.entries, [[1.0, 0.0], [0.0, -0.5]],
                                   atol=1e-12)

    def test_m2_degree_one_diagonal(self):
        mod = make_model(a=(-0.5, 0.5))
        M = build_ce_matrix(0.0, mod, 1)
        want = [lambda_j(0.0, mod, J) for J in M.basis]
        np.testing.assert_allclose(np.diagonal(M.entries), want, atol=1e-12)

    def test_degree_filtration_exact(self):
        mod = make_model(a=(-0.3, 0.4))
        M = build_ce_matrix(0.25, mod, 2)
        for r, Jr in enumerate(M.basis):
            for c, Jc in enumerate(M.basis):
                if Jr.degree > Jc.degree:
                    assert M.entries[r, c] == 0.0
                elif Jr.degree == Jc.degree and r != c:
                    assert abs(M.entries[r, c]) < 1e-10

    def test_eigenvalues_match_lambda_multiset(self):
        mod = make_model(a=(-0.3, 0.4))
        M = build_ce_matrix(0.2, mod, 2)
        eigs = np.linalg.eigvals(M.entries)
        lams = np.array([lambda_j(0.2, mod, J) for J in M.basis])
        cost = np.abs(eigs[:, None] - lams[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 1e-6

    def test_diagonal_grid_30_combinations(self):
        cases = []
        for m, a in [(1, (0.1,)), (2, (-0.4, 0.3)), (3, (-0.5, 0.0, 0.4))]:
            for K in (2, 3):
                lo = max(a) - np.sqrt(K)
                hi = min(a) + np.sqrt(K)
                for E in np.linspace(lo + 0.15, hi - 0.15, 5):
                    cases.append((m, a, K, float(E)))
        assert len(cases) == 30
        for m, a, K, E in cases:
            mod = make_model(K=K, a=a)
            M = build_ce_matrix(E, mod, 2)
            for col, J in enumerate(M.basis):
                assert abs(M.entries[col, col] - lambda_j(E, mod, J)) < 1e-8

    def test_basis_size_cap(self):
        with pytest.raises(TruncationOverflowError):
            build_ce_matrix(0.0, make_model(a=(-0.2, 0.0, 0.2)), 7)

    def test_oversize_basis_refused_before_enumeration(self, monkeypatch):
        # at m = 4, degree 40 would be C(50, 10) ~ 1e10 index objects
        def no_enumeration(m, max_degree):
            raise AssertionError("basis enumerated before the size check")

        monkeypatch.setattr(lin, "enumerate_indices", no_enumeration)
        with pytest.raises(TruncationOverflowError, match="exceeds MAX_BASIS"):
            build_ce_matrix(0.0, make_model(a=(-0.3, -0.1, 0.1, 0.3)), 40)

    @pytest.mark.parametrize("m, degree", [(1, 5), (2, 4), (3, 2)])
    def test_degree_d_is_leading_block_of_d_plus_one(self, m, degree):
        # one total-degree expansion per call: truncating it one degree
        # lower must cut the matrix, not change it
        mod = make_model(a=PROFILES[m])
        energies = interior_energies(mod)
        low = build_ce_matrix(energies, mod, degree)
        high = build_ce_matrix(energies, mod, degree + 1)
        n = len(low.basis)
        assert high.basis[:n] == low.basis
        assert low.entries.tobytes() == high.entries[:, :n, :n].tobytes()

    def test_out_of_band_propagates(self):
        with pytest.raises(OutOfBandError):
            build_ce_matrix(2.0, make_model(), 1)


def interior_energies(model, fracs=(-0.5, 0.1, 0.6)):
    lo = max(model.a) - np.sqrt(model.K)
    hi = min(model.a) + np.sqrt(model.K)
    return [float(lo + (hi - lo) * (1 + f) / 2) for f in fracs]


class TestWalkProductScaling:
    """build_ce_matrix scales one binv = 1 expansion per energy."""

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("m, a, degree", [(1, (0.1,), 4),
                                              (2, (-0.4, 0.3), 3),
                                              (3, (-0.5, 0.0, 0.4), 2)])
    def test_columns_match_apply_symbol(self, m, a, degree, K):
        mod = make_model(K=K, a=a)
        energies = interior_energies(mod)
        stack = build_ce_matrix(energies, mod, degree)
        assert stack.entries.shape == (3, len(stack.basis), len(stack.basis))
        for E, entries in zip(energies, stack.entries):
            binv = -4.0 * np.diagonal(a_e_matrix(E, mod))
            assert np.all(np.abs(binv.imag) > 0.1)  # a genuinely complex scaling
            for col, J in enumerate(stack.basis):
                image = ce_apply_symbol(E, mod, {J: 1.0})
                want = np.array([image.get(J2, 0.0) for J2 in stack.basis])
                scale = np.abs(want).max()
                assert np.abs(entries[:, col] - want).max() <= 1e-12 * scale

    def test_gaussian_integer_binv_is_exact(self):
        # K=2, m=1, E=-1: binv = 1 + i, so every power of binv is exact
        # and lambda_J = (i/2)^|J| comes out with exact zero parts
        M = build_ce_matrix(-1.0, make_model(), 4)
        got = np.diagonal(M.entries)
        assert list(got) == [(0.5j) ** n for n in range(5)]
        assert all(z.real == 0.0 for z in got[1::2])

    def test_stack_equals_scalar_calls_bytewise(self):
        mod = make_model(K=3, a=(-0.4, 0.3))
        energies = interior_energies(mod, (-0.8, -0.2, 0.0, 0.7))
        stack = build_ce_matrix(np.array(energies), mod, 3)
        assert stack.entries.shape[0] == len(energies)
        for E, entries in zip(energies, stack.entries):
            single = build_ce_matrix(E, mod, 3)
            assert single.basis == stack.basis
            assert single.entries.shape == entries.shape
            assert single.entries.tobytes() == entries.tobytes()

    def test_out_of_band_in_stack_raises_before_expansion(self, monkeypatch):
        def no_expansion(binv, basis):
            raise AssertionError("expansion ran before the band check")

        monkeypatch.setattr(lin, "_jet_matrix", no_expansion)
        with pytest.raises(OutOfBandError):
            build_ce_matrix([0.0, 0.5, 2.0, 0.1], make_model(), 2)

    def test_degree_zero_and_one_energy_list(self):
        mod = make_model(a=(-0.3, 0.3))
        assert build_ce_matrix(0.2, mod, 0).entries.tolist() == [[1.0]]
        assert build_ce_matrix([0.2], mod, 0).entries.tolist() == [[[1.0]]]
        assert build_ce_matrix([0.2, -0.4], mod, 0).entries.shape == (2, 1, 1)
        one = build_ce_matrix([0.2], mod, 2)
        assert one.entries.shape == (1, 10, 10)
        np.testing.assert_array_equal(one.entries[0],
                                      build_ce_matrix(0.2, mod, 2).entries)

    @pytest.mark.parametrize("planted, pattern", [
        ((0, 2, 0), r"degree filtration violated: J\[0,1,0\] -> J\[0,2,0\]"),
        ((1, 0, 0), r"odd vertex degree sum in the image of J\[0,1,0\]"),
        ((0, 1, 0), r"diagonal entry for J\[0,1,0\] .* at E=-0\.1"),
    ], ids=["filtration", "odd_degree", "diagonal"])
    def test_law_violations_name_the_index(self, monkeypatch, planted,
                                           pattern):
        # corrupt the image of X_12: an entry of higher degree, one at an
        # odd vertex degree sum (X_11), or a wrong diagonal value
        real = lin._jet_matrix

        def corrupted(binv, basis):
            matrix = real(binv, basis)
            col = basis.index(MonomialIndex(m=2, powers=(0, 1, 0)))
            matrix[basis.index(MonomialIndex(m=2, powers=planted)), col] += 0.1
            return matrix

        monkeypatch.setattr(lin, "_jet_matrix", corrupted)
        with pytest.raises(EigenvalueLawError, match=pattern):
            build_ce_matrix([-0.1, 0.2], make_model(a=(-0.3, 0.3)), 2)


class TestNonFiniteEnergy:
    """A NaN energy fails every band check, as an infinite one does."""

    CALLS = {
        "lambda_j": lambda E, mod: lambda_j(E, mod, MonomialIndex.zero(1)),
        "gap_kce": lambda E, mod: gap_kce(E, mod, 2),
        "a_e_matrix": lambda E, mod: a_e_matrix(E, mod),
        "build_ce_matrix": lambda E, mod: build_ce_matrix(E, mod, 2),
        "build_ce_matrix_list": lambda E, mod: build_ce_matrix([0.0, E, 0.1],
                                                               mod, 2),
        "ce_apply_symbol": lambda E, mod: ce_apply_symbol(
            E, mod, {MonomialIndex.zero(1): 1.0}),
    }

    @pytest.mark.parametrize("E", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_refused(self, entry, E):
        with pytest.raises(OutOfBandError):
            self.CALLS[entry](E, make_model())
