import warnings

import numpy as np
import pytest

from bethestrip.model import (
    GOE,
    MAX_WIDTH,
    BetheStripModel,
    DiagonalIID,
    PointMass,
    band_intersection,
    parse_ensemble_spec,
)
from bethestrip.rng import keyed_rng


def make_model(K=2, a=(0.0,), lam=0.0, ensemble=None):
    return BetheStripModel(K=K, a=a, lam=lam, ensemble=ensemble or GOE())


class TestModelValidation:
    def test_basic_properties(self):
        mod = make_model(K=3, a=(-0.5, 0.5), lam=0.1)
        assert mod.m == 2
        assert mod.sqrt_k == pytest.approx(np.sqrt(3))
        np.testing.assert_allclose(mod.a_matrix, np.diag([-0.5, 0.5]))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            make_model(K=1)

    def test_rejects_unsorted_a(self):
        with pytest.raises(ValueError):
            make_model(a=(0.5, -0.5))

    def test_rejects_wide_strip(self):
        with pytest.raises(ValueError):
            make_model(a=tuple(np.linspace(0, 1, 17)))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(a=(np.nan,)), "a must be finite"),
        (dict(a=(0.0, np.inf)), "a must be finite"),
        (dict(lam=np.nan), "lam must be finite"),
        (dict(lam=-np.inf), "lam must be finite"),
        (dict(K=10**400), "K must be an integer in"),
        (dict(K=np.inf), "K must be an integer in"),
        (dict(K=np.nan), "K must be an integer in"),
    ], ids=["a-nan", "a-inf", "lam-nan", "lam-minus-inf", "K-beyond-floats", "K-inf",
            "K-nan"])
    def test_rejects_non_finite(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            make_model(**kwargs)

    def test_largest_float_branching_number_is_kept(self):
        K = int(np.finfo(float).max)
        assert make_model(K=K).K == K and np.isfinite(make_model(K=K).sqrt_k)

    def test_a_matrix_is_built_once_read_only(self):
        mod = make_model(a=(-0.5, 0.5))
        assert mod.a_matrix is mod.a_matrix and not mod.a_matrix.flags.writeable

    def test_rejects_mismatched_pointmass(self):
        with pytest.raises(ValueError):
            make_model(a=(0.0, 1.0), ensemble=PointMass(np.eye(3)))


class TestBandIntersection:
    def test_frozen_example(self):
        mod = make_model(K=2, a=(-0.5, 0.5))
        iv = band_intersection(mod)
        assert iv.lo == pytest.approx(-np.sqrt(2) + 0.5, abs=1e-15)
        assert iv.hi == pytest.approx(np.sqrt(2) - 0.5, abs=1e-15)
        assert iv.lo < iv.hi

    def test_empty_iff_spread_reaches_two_sqrt_k(self):
        r = np.sqrt(2)
        iv = band_intersection(make_model(K=2, a=(-r, r)))
        assert iv.hi <= iv.lo
        iv = band_intersection(make_model(K=2, a=(-r + 1e-6, r - 1e-6)))
        assert iv.lo < iv.hi

    def test_subset_of_every_band(self, rng):
        for _ in range(25):
            K = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            a = np.sort(rng.uniform(-1, 1, m))
            iv = band_intersection(make_model(K=K, a=tuple(a)))
            if iv.hi <= iv.lo:
                continue
            for ak in a:
                assert iv.lo >= ak - np.sqrt(K) - 1e-12
                assert iv.hi <= ak + np.sqrt(K) + 1e-12


# every ensemble at m = 3 (odd, so a bernoulli draw ends mid-word)
SAMPLERS = [GOE(), DiagonalIID("uniform"), DiagonalIID("gauss"),
            DiagonalIID("bernoulli"),
            PointMass([[0.2, 0.1, 0.0], [0.1, -0.3, 0.4], [0.0, 0.4, 0.5]])]
SAMPLER_IDS = ["goe", "diag:uniform", "diag:gauss", "diag:bernoulli", "point"]


class TestEnsembleSampling:
    def test_point_mass_exact(self):
        V0 = np.array([[0.2, 0.1], [0.1, -0.3]])
        ens = PointMass(V0)
        r = keyed_rng(1, 4, 0)
        np.testing.assert_array_equal(ens.sample(2, r), V0)
        np.testing.assert_array_equal(ens.sample_batch(2, r, 5)[3], V0)

    def test_goe_moments(self):
        ens = GOE()
        V = ens.sample_batch(3, keyed_rng(7, 4, 1), 40000)
        assert np.max(np.abs(V - np.swapaxes(V, 1, 2))) == 0.0
        var_diag = V[:, 0, 0].var()
        var_off = V[:, 0, 1].var()
        assert var_diag == pytest.approx(1.0, rel=0.05)
        assert var_off == pytest.approx(0.5, rel=0.05)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, MAX_WIDTH])
    def test_goe_is_packed_normals(self, m):
        # each draw is m(m+1)/2 of the stream's normals, read row-major over
        # the upper triangle, off-diagonal ones times sqrt(1/2), byte for byte
        Z = keyed_rng(3, m).standard_normal((40, m * (m + 1) // 2))
        want = np.empty((40, m, m))
        for n in range(40):
            z = iter(Z[n])
            for i in range(m):
                for j in range(i, m):
                    want[n, i, j] = want[n, j, i] = (
                        next(z) if i == j else np.sqrt(0.5) * next(z))
        V = GOE().sample_batch(m, keyed_rng(3, m), 40)
        assert V.tobytes() == want.tobytes()

    def test_diag_kinds_marginals(self):
        n = 40000
        for kind, var in (("uniform", 1 / 3), ("gauss", 1.0), ("bernoulli", 1.0)):
            V = DiagonalIID(kind).sample_batch(2, keyed_rng(3, 4, 2), n)
            offdiag = V[:, 0, 1]
            assert np.all(offdiag == 0.0)
            assert V[:, 0, 0].mean() == pytest.approx(0.0, abs=0.02)
            assert V[:, 0, 0].var() == pytest.approx(var, rel=0.05)

    @pytest.mark.parametrize("ens", SAMPLERS, ids=SAMPLER_IDS)
    def test_sample_is_batch_of_one(self, ens):
        one = ens.sample(3, keyed_rng(2, 4, 5))
        batch = ens.sample_batch(3, keyed_rng(2, 4, 5), 1)
        assert one.shape == (3, 3)
        assert one.tobytes() == batch[0].tobytes()

    @pytest.mark.parametrize("ens", SAMPLERS, ids=SAMPLER_IDS)
    def test_sequential_samples_equal_one_batch(self, ens):
        # what lets one batched draw stand in for a loop of draws on one stream
        rng = keyed_rng(2, 4, 6)
        singles = np.array([ens.sample(3, rng) for _ in range(11)])
        batch = ens.sample_batch(3, keyed_rng(2, 4, 6), 11)
        assert singles.tobytes() == batch.tobytes()

    def test_scalar_batch_same_law(self):
        ens = DiagonalIID("uniform")
        singles = np.array(
            [ens.sample(2, keyed_rng(11, 3, 0, s))[0, 0] for s in range(2000)]
        )
        assert abs(singles.mean()) < 0.05
        assert singles.var() == pytest.approx(1 / 3, rel=0.1)


class TestEnsembleSpecParsing:
    def test_goe(self):
        assert isinstance(parse_ensemble_spec("goe"), GOE)

    def test_diag(self):
        ens = parse_ensemble_spec("diag:bernoulli")
        assert ens == DiagonalIID("bernoulli")

    def test_point_inline_json(self):
        ens = parse_ensemble_spec("point:[[0.5, 0.1], [0.1, -0.5]]")
        np.testing.assert_allclose(ens.matrix, [[0.5, 0.1], [0.1, -0.5]])

    def test_point_inline_diagonal(self):
        ens = parse_ensemble_spec("point:0.3,-0.1")
        np.testing.assert_allclose(ens.matrix, np.diag([0.3, -0.1]))

    def test_point_from_file(self, tmp_path):
        p = tmp_path / "v0.json"
        p.write_text("[[1.0, 0.0], [0.0, 2.0]]")
        ens = parse_ensemble_spec(f"point:{p}")
        np.testing.assert_allclose(ens.matrix, np.diag([1.0, 2.0]))

    def test_errors(self):
        with pytest.raises(ValueError, match="uniform, gauss, bernoulli"):
            parse_ensemble_spec("diag:cauchy")
        with pytest.raises(ValueError, match="symmetric"):
            parse_ensemble_spec("point:[[1.0, 0.5], [0.4, 1.0]]")
        with pytest.raises(ValueError, match="unknown ensemble spec"):
            parse_ensemble_spec("wishart")
        # the shape against m is the model's rule: the parser does not know m
        point = parse_ensemble_spec("point:[[1.0]]")
        with pytest.raises(ValueError, match=r"shape \(1, 1\), model needs \(2, 2\)"):
            make_model(a=(0.0, 0.0), ensemble=point)

    @pytest.mark.parametrize("payload", [
        "[[1, [2]]]", "[[1, \"a\"]]", "{\"a\": 1}", "[[1, 2]]", "[[[1]]]"],
        ids=["ragged", "string", "dict", "not-square", "three-d"])
    def test_malformed_point_raises_value_error(self, payload, tmp_path):
        # inline, and the same JSON from a file: the array conversion
        # raises ValueError too, never TypeError
        path = tmp_path / "v0.json"
        path.write_text(payload)
        for spec in (f"point:{payload}", f"point:{path}"):
            with pytest.raises(ValueError):
                parse_ensemble_spec(spec)

    def test_unreadable_point_path_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            parse_ensemble_spec(f"point:{tmp_path}")

    def test_round_trip(self):
        for spec in ("goe", "diag:uniform", "point:[[0.25]]"):
            ens = parse_ensemble_spec(spec)
            assert parse_ensemble_spec(ens.spec_string()) == ens


class TestPointMassValues:
    @pytest.mark.parametrize("V0", [
        [[np.inf]], [[np.nan]], [[0.0, np.inf], [np.inf, 0.0]],
        [[1e308]], [[1e308, 1e308], [1e308, 1e308]]],
        ids=["inf", "nan", "inf-off-diagonal", "overflow", "overflow-2x2"])
    def test_non_finite_rejected(self, V0):
        # 1e308 itself is finite; the symmetrization 0.5 (V0 + V0^T) is not
        with pytest.raises(ValueError, match="finite"):
            PointMass(V0)

    @pytest.mark.parametrize("V0", [[[1e308]], [[0.0, np.inf], [-np.inf, 0.0]]],
                             ids=["overflow", "inf-minus-inf"])
    def test_no_warning(self, V0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                PointMass(V0)

    def test_stores_the_symmetrized_matrix(self):
        V0 = np.array([[0.5, 0.1], [0.1 + 1e-13, -0.5]])
        assert PointMass(V0).matrix.tobytes() == (0.5 * (V0 + V0.T)).tobytes()

    def test_not_square_rejected(self):
        for V0 in ([1.0, 2.0], [[1.0, 2.0]], [[[1.0]]]):
            with pytest.raises(ValueError, match="square"):
                PointMass(V0)
