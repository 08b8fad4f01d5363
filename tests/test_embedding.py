"""Mean-map features, convolutional weighted mean maps, tensor fusion, tables."""

import numpy as np
import pytest

from hsembed import (
    ContractViolation,
    EmbeddingConfig,
    HyperspectralImage,
    McProtocol,
    ParameterError,
    PatchSpec,
    SceneSpec,
    ShapeError,
    SvmConfig,
    build_feature_table,
    conv_mean_map_feature,
    generate_synthetic_scene,
    mean_map_feature,
    median_heuristic,
    normalize_spectra,
    prepare_features,
    sample_frequencies,
)
from hsembed.embedding import _fuse, _minmax_scale_columns
from hsembed.hsi import patch_indices
from hsembed.rff import RandomFeatureMap, feature_matrix
from oracles import UNIT_NORM_ATOL, augment
from tracing import traced_peak


@pytest.fixture(scope="module")
def fmap6():
    return sample_frequencies(6, 256, 1.1, seed=2)


class TestMeanMapFeature:
    def test_single_pixel_equals_point_feature(self, fmap6):
        v = np.random.default_rng(0).normal(size=6)
        mm = mean_map_feature(fmap6, v[None, :])
        np.testing.assert_array_equal(mm.values, feature_matrix(fmap6, v[None, :])[0])

    def test_repeated_spectrum_collapses(self, fmap6):
        v = np.random.default_rng(1).normal(size=6)
        patch = np.tile(v, (9, 1))
        mm = mean_map_feature(fmap6, patch)
        np.testing.assert_allclose(mm.values, feature_matrix(fmap6, v[None, :])[0], atol=1e-14)

    def test_double_loop_oracle(self, fmap6):
        # dot of two mean features == (1/81) sum_ij z_i . z_j
        rng = np.random.default_rng(2)
        p, q = rng.normal(size=(9, 6)), rng.normal(size=(9, 6))
        a, b = mean_map_feature(fmap6, p), mean_map_feature(fmap6, q)
        # z widened to float64, as the mean map sums it
        zp, zq = (feature_matrix(fmap6, x).astype(np.float64) for x in (p, q))
        brute = sum(float(zp[i] @ zq[j]) for i in range(9) for j in range(9)) / 81.0
        assert float(a.values @ b.values) == pytest.approx(brute, abs=1e-10)

    def test_empty_patch_rejected(self, fmap6):
        with pytest.raises(ContractViolation):
            mean_map_feature(fmap6, np.zeros((0, 6)))

    def test_norm_bounded_by_one(self, fmap6):
        rng = np.random.default_rng(3)
        for _ in range(10):
            mm = mean_map_feature(fmap6, rng.normal(size=(25, 6)))
            assert np.linalg.norm(mm.values) <= 1.0 + 1e-12


class TestMeanMapKernel:
    """The mean-map kernel of two patches is the dot product of their features."""

    def test_self_kernel_single_pixel(self, fmap6):
        v = np.random.default_rng(4).normal(size=6)
        a = mean_map_feature(fmap6, v[None, :])
        assert float(a.values @ a.values) == pytest.approx(1.0, abs=UNIT_NORM_ATOL)

    def test_unequal_sample_sizes_oracle(self, fmap6):
        # n=4, m=7: dot == (1/(n m)) double sum
        rng = np.random.default_rng(6)
        p, q = rng.normal(size=(4, 6)), rng.normal(size=(7, 6))
        a, b = mean_map_feature(fmap6, p), mean_map_feature(fmap6, q)
        # z widened to float64, as the mean map sums it
        zp, zq = (feature_matrix(fmap6, x).astype(np.float64) for x in (p, q))
        brute = sum(float(zp[i] @ zq[j]) for i in range(4) for j in range(7)) / 28.0
        assert float(a.values @ b.values) == pytest.approx(brute, abs=1e-10)


class TestAugmentation:
    def test_convmeanmap_pixel_rows_embed_augmented_unit_spectra(self):
        # |x| z([row/beta, col/beta, unit spectrum/sigma]) for every pixel
        rng = np.random.default_rng(1)
        image = HyperspectralImage(rng.normal(size=(4, 5, 3)))
        cfg = EmbeddingConfig(n_features=16, seed=2, sigma=0.7, beta=2.5)
        space = prepare_features(image, "convmeanmap", cfg)
        spectra = image.spectra(slice(None))
        norms = np.linalg.norm(spectra, axis=1)
        positions = np.stack(np.divmod(np.arange(20), 5), axis=1).astype(float)
        points = augment(positions, spectra / norms[:, None], 2.5, 0.7)
        expected = norms[:, None] * feature_matrix(space.fmap, points)
        np.testing.assert_allclose(space.pixel_rows(np.arange(20)), expected, rtol=0, atol=1e-14)

    def test_spectral_factor_closed_form(self):
        # same position, spectra sigma*sqrt(2) apart -> unit RBF gives e^-1
        sigma, beta = 0.7, 2.0
        u = np.zeros(4); u[0] = 1.0
        v = np.zeros(4); v[1] = 1.0
        # ||u - v|| = sqrt(2); rescale so the distance is sigma*sqrt(2)
        a = augment(np.array([5.0, 5.0]), sigma * u, beta, sigma)
        b = augment(np.array([5.0, 5.0]), sigma * v, beta, sigma)
        d2 = float(np.sum((a - b) ** 2))
        assert np.exp(-0.5 * d2) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_spatial_factor_closed_form(self):
        sigma, beta = 0.7, 2.0
        spec = np.array([1.0, 0.0])
        a = augment(np.array([0.0, 0.0]), spec, beta, sigma)
        b = augment(np.array([beta, beta]), spec, beta, sigma)
        d2 = float(np.sum((a - b) ** 2))
        assert np.exp(-0.5 * d2) == pytest.approx(np.exp(-1.0), rel=1e-12)


class TestConvMeanMap:
    def config(self, **kw):
        defaults = dict(sigma=0.8, beta=2.5, n_features=256, seed=3)
        defaults.update(kw)
        return EmbeddingConfig(**defaults)

    def test_zero_spectra_give_zero_vector(self):
        fmap = sample_frequencies(6, 32, 1.0, seed=1)
        out = conv_mean_map_feature(
            fmap, np.zeros((4, 4)), np.zeros((4, 2)), self.config()
        )
        np.testing.assert_array_equal(out.values, 0.0)

    def test_single_unit_magnitude_pixel(self):
        fmap = sample_frequencies(5, 64, 1.0, seed=2)
        spec = np.zeros(3); spec[0] = 1.0
        out = conv_mean_map_feature(
            fmap, spec[None, :], np.array([[2.0, 3.0]]), self.config()
        )
        assert np.linalg.norm(out.values) == pytest.approx(1.0, abs=UNIT_NORM_ATOL)

    def test_weighted_double_sum_oracle(self):
        cfg = self.config()
        fmap = sample_frequencies(8, 512, 1.0, seed=4)
        rng = np.random.default_rng(5)
        p, q = rng.normal(size=(9, 6)), rng.normal(size=(9, 6))
        pos_p = rng.integers(0, 30, size=(9, 2)).astype(float)
        pos_q = rng.integers(0, 30, size=(9, 2)).astype(float)
        a = conv_mean_map_feature(fmap, p, pos_p, cfg)
        b = conv_mean_map_feature(fmap, q, pos_q, cfg)

        def parts(s, pos):
            norms = np.linalg.norm(s, axis=1)
            points = augment(pos, s / norms[:, None], cfg.beta, cfg.sigma)
            return norms, feature_matrix(fmap, points).astype(np.float64)

        np_, zp = parts(p, pos_p)
        nq_, zq = parts(q, pos_q)
        brute = sum(
            np_[i] * nq_[j] * float(zp[i] @ zq[j]) for i in range(9) for j in range(9)
        ) / 81.0
        assert float(a.values @ b.values) == pytest.approx(brute, abs=1e-10)

    def test_norm_bounded_by_max_weight(self):
        cfg = self.config()
        fmap = sample_frequencies(8, 128, 1.0, seed=6)
        rng = np.random.default_rng(7)
        s = rng.normal(size=(16, 6)) * 3.0
        pos = rng.integers(0, 10, size=(16, 2)).astype(float)
        out = conv_mean_map_feature(fmap, s, pos, cfg)
        assert np.linalg.norm(out.values) <= np.linalg.norm(s, axis=1).max() + 1e-12

    def test_factorization_against_closed_form(self):
        # inner products approximate magnitude * spatial RBF * spectral RBF
        cfg = self.config(sigma=0.9, beta=3.0)
        fmap = sample_frequencies(8, 8192, 1.0, seed=8)
        rng = np.random.default_rng(9)
        p, q = rng.normal(size=(9, 6)), rng.normal(size=(9, 6))
        pos_p = rng.integers(0, 12, size=(9, 2)).astype(float)
        pos_q = rng.integers(0, 12, size=(9, 2)).astype(float)
        a = conv_mean_map_feature(fmap, p, pos_p, cfg)
        b = conv_mean_map_feature(fmap, q, pos_q, cfg)
        np_ = np.linalg.norm(p, axis=1); nq_ = np.linalg.norm(q, axis=1)
        up, uq = p / np_[:, None], q / nq_[:, None]
        closed = sum(
            np_[i] * nq_[j]
            * np.exp(-np.sum((pos_p[i] - pos_q[j]) ** 2) / (2 * cfg.beta**2))
            * np.exp(-np.sum((up[i] - uq[j]) ** 2) / (2 * cfg.sigma**2))
            for i in range(9) for j in range(9)
        ) / 81.0
        assert float(a.values @ b.values) == pytest.approx(closed, abs=0.05)

    def test_requires_magnitude_weighting_and_resolved_scales(self):
        fmap = sample_frequencies(5, 16, 1.0, seed=0)
        with pytest.raises(ParameterError):
            conv_mean_map_feature(
                fmap, np.ones((1, 3)), np.zeros((1, 2)), EmbeddingConfig()
            )

    def test_input_dim_check(self):
        fmap = sample_frequencies(4, 16, 1.0, seed=0)
        with pytest.raises(ShapeError):
            conv_mean_map_feature(
                fmap, np.ones((1, 3)), np.zeros((1, 2)), self.config()
            )


class TestTensorProduct:
    """``_fuse`` rows are the flattened outer products of fusion's rows."""

    def test_one_dim_identity_factor(self):
        v = np.random.default_rng(1).normal(size=5)
        np.testing.assert_array_equal(_fuse(np.ones((1, 1)), v[None, :])[0], v)

    def test_inner_product_factorizes(self):
        rng = np.random.default_rng(2)
        u, u2 = rng.normal(size=8), rng.normal(size=8)
        v, v2 = rng.normal(size=8), rng.normal(size=8)
        t1, t2 = _fuse(np.stack([u, u2]), np.stack([v, v2]))
        assert float(t1 @ t2) == pytest.approx(float(u @ u2) * float(v @ v2), abs=1e-12)

    def test_norm_identity(self):
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=6), rng.normal(size=9)
        t = _fuse(u[None, :], v[None, :])[0]
        assert np.linalg.norm(t) == pytest.approx(
            np.linalg.norm(u) * np.linalg.norm(v), abs=1e-12
        )


@pytest.fixture(scope="module")
def small_scene():
    rng = np.random.default_rng(20)
    spectra = rng.random((3, 5)) + 0.2
    spec = SceneSpec(10, 10, 5, 3, spectra, region_scale=4.0, noise_sigma=0.15, seed=20)
    return generate_synthetic_scene(spec)


class TestFeatureTable:
    def test_raw_rows_are_spectra(self, small_scene):
        image, _ = small_scene
        table = build_feature_table(image, "raw")
        np.testing.assert_array_equal(table.values, image.spectra(slice(None)))

    def test_meanmap_s1_equals_rff(self, small_scene):
        image, _ = small_scene
        cfg = EmbeddingConfig(patch=PatchSpec(1), n_features=64, seed=4)
        mm = build_feature_table(image, "meanmap", cfg)
        rf = build_feature_table(image, "rff", cfg)
        np.testing.assert_allclose(mm.values, rf.values, atol=1e-12)

    def test_meanmap_spot_check_against_patch_oracle(self, small_scene):
        image, _ = small_scene
        cfg = EmbeddingConfig(patch=PatchSpec(3), n_features=64, seed=4)
        table = build_feature_table(image, "meanmap", cfg)
        fmap = sample_frequencies(5, 64, table.meta["sigma"], seed=4)
        normalized = normalize_spectra(image)
        rng = np.random.default_rng(5)
        for _ in range(5):
            r, c = rng.integers(0, 10, 2)
            patch = normalized.spectra(slice(None))[patch_indices([r * 10 + c], cfg.patch, 10, 10)[0]]
            expected = mean_map_feature(fmap, patch).values
            np.testing.assert_allclose(table.values[r * 10 + c], expected, atol=1e-10)

    def test_meanmap_unnormalized_flag(self, small_scene):
        image, _ = small_scene
        cfg = EmbeddingConfig(
            patch=PatchSpec(3), n_features=32, seed=4, sigma=1.0, normalize=False
        )
        table = build_feature_table(image, "meanmap", cfg)
        fmap = sample_frequencies(5, 32, 1.0, seed=4)
        patch = image.spectra(slice(None))[patch_indices([44], cfg.patch, 10, 10)[0]]
        np.testing.assert_allclose(
            table.values[44], mean_map_feature(fmap, patch).values, atol=1e-10
        )

    def test_convmeanmap_spot_check(self, small_scene):
        image, _ = small_scene
        cfg = EmbeddingConfig(patch=PatchSpec(3), n_features=64, seed=4, sigma=0.7, beta=3.0)
        table = build_feature_table(image, "convmeanmap", cfg)
        fmap = sample_frequencies(7, 64, 1.0, seed=4)
        from hsembed.hsi import patch_window

        for r, c in [(0, 0), (5, 5), (9, 3)]:
            rr, cc = patch_window(r, c, cfg.patch, 10, 10)
            spectra = image.data[rr, cc, :]
            positions = np.stack([rr, cc], axis=1).astype(float)
            expected = conv_mean_map_feature(fmap, spectra, positions, cfg).values
            np.testing.assert_allclose(table.values[r * 10 + c], expected, atol=1e-10)

    def test_mp_x_meanmap_dims_and_cap(self, small_scene):
        image, _ = small_scene
        from hsembed import MorphoProfileConfig

        cfg = EmbeddingConfig(patch=PatchSpec(3), n_features=16, seed=4)
        mp_cfg = MorphoProfileConfig(pca_dims=2, n_scales=1, se_shape="disk")
        table = build_feature_table(image, "mp_x_meanmap", cfg, mp_cfg)
        assert table.dim == (2 * 3) * (2 * 16)
        # no fused row is built by the commands, so no cap bounds them
        with pytest.raises(TypeError, match="tensor_cap"):
            EmbeddingConfig(patch=PatchSpec(3), n_features=16, seed=4, tensor_cap=100)

    def test_tensor_rows_factorize(self, small_scene):
        image, _ = small_scene
        from hsembed import MorphoProfileConfig
        from hsembed.morphology import morphological_profile

        cfg = EmbeddingConfig(patch=PatchSpec(3), n_features=16, seed=4)
        mp_cfg = MorphoProfileConfig(pca_dims=2, n_scales=1)
        fused = build_feature_table(image, "mp_x_meanmap", cfg, mp_cfg)
        mm = build_feature_table(image, "meanmap", cfg)
        mp = _minmax_scale_columns(morphological_profile(image, mp_cfg))
        i, j = 17, 61
        lhs = float(fused.values[i] @ fused.values[j])
        rhs = float(mp[i] @ mp[j]) * float(mm.values[i] @ mm.values[j])
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_determinism(self, small_scene):
        image, _ = small_scene
        cfg = EmbeddingConfig(patch=PatchSpec(3), n_features=32, seed=11)
        a = build_feature_table(image, "convmeanmap", cfg)
        b = build_feature_table(image, "convmeanmap", cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_unknown_method(self, small_scene):
        image, _ = small_scene
        with pytest.raises(ParameterError):
            build_feature_table(image, "spectral_unmixing")


class TestMinMaxScale:
    @pytest.fixture
    def profile(self):
        # the IP-like default profile shape, with a constant column
        profile = np.random.default_rng(12).normal(scale=3.0, size=(21025, 36))
        profile[:, 5] = 0.7
        return profile

    def test_bytes_equal_the_one_expression(self, profile):
        lows = profile.min(axis=0)
        spans = profile.max(axis=0) - lows
        want = (profile - lows) / np.where(spans > 0, spans, 1.0)
        got = _minmax_scale_columns(profile)
        assert got.tobytes() == want.tobytes()
        assert got.min() == 0.0 and got.max() == 1.0 and not got[:, 5].any()

    def test_peak_is_one_profile(self, profile):
        # the result, column-sized arrays and the reductions' buffers:
        # measured 1.011 profiles; the one expression held a second
        # profile-sized temporary (2.01 profiles)
        peak = traced_peak(lambda: _minmax_scale_columns(profile))
        assert profile.nbytes <= peak <= 1.1 * profile.nbytes


class TestMedianHeuristic:
    def test_deterministic_and_positive(self, small_scene):
        image, _ = small_scene
        a = median_heuristic(image, seed=3)
        b = median_heuristic(image, seed=3)
        assert a == b > 0

    def test_constant_image_falls_back(self):
        image = HyperspectralImage(np.full((4, 4, 3), 2.0))
        assert median_heuristic(image, seed=0) == 1.0


class TestConfigValues:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: McProtocol(runs=2.5),
            lambda: McProtocol(runs=True),
            lambda: McProtocol(per_class=2.5),
            lambda: EmbeddingConfig(n_features=8.5),
            lambda: EmbeddingConfig(n_features=True),
            lambda: PatchSpec(2.5),
            lambda: PatchSpec(True),
            lambda: SceneSpec(12.5, 12, 5, 3),
            lambda: SceneSpec(12, 12, 5.0, 3),
            lambda: sample_frequencies(3, 2.5, 1.0),
            lambda: sample_frequencies(3.0, 4, 1.0),
        ],
    )
    def test_sizes_must_be_integers(self, make):
        # each of these used to pass as an integer or fail deep inside numpy
        with pytest.raises(ParameterError, match="must be an integer"):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: McProtocol(seed=-1),
            lambda: McProtocol(seed=2.5),
            lambda: EmbeddingConfig(seed=-1),
            lambda: EmbeddingConfig(seed=True),
            lambda: SvmConfig(seed=2.5),
            lambda: SvmConfig(seed=-1),
        ],
    )
    def test_seeds_must_be_non_negative_integers(self, make):
        # each of these used to pass and fail later inside numpy's seeding
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            make()

    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
    def test_bandwidths_must_be_positive_and_finite(self, value):
        # sigma = inf embedded every pixel to the same z; nan surfaced only in the solver
        for make in (
            lambda: EmbeddingConfig(sigma=value),
            lambda: EmbeddingConfig(beta=value),
            lambda: sample_frequencies(3, 4, value),
            lambda: RandomFeatureMap(np.ones((4, 3)), value),
        ):
            with pytest.raises(ParameterError, match="positive and finite"):
                make()
