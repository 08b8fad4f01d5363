"""Morphological operators, geodesic reconstruction, PCA, profiles."""

import numpy as np
import pytest

from hsembed import (
    ContractViolation,
    HyperspectralImage,
    MorphoProfileConfig,
    ParameterError,
    SceneSpec,
    close_by_reconstruction,
    closing,
    dilate,
    disk,
    erode,
    generate_synthetic_scene,
    morphological_profile,
    open_by_reconstruction,
    opening,
    pca_reduce,
    reconstruct,
    square,
)
from hsembed.morphology import StructuringElement
from oracles import brute_force_window, jacobi_eigh


class TestStructuringElements:
    def test_disk_one_is_cross(self):
        se = disk(1)
        assert {(int(r), int(c)) for r, c in se.offsets} == {
            (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)
        }

    def test_disk_two_size(self):
        assert disk(2).size == 13

    def test_square_size(self):
        assert square(1).size == 9
        assert square(2).size == 25

    def test_validation(self):
        with pytest.raises(ParameterError):
            StructuringElement(np.array([[1, 0]]), 1)  # missing origin
        with pytest.raises(ParameterError):
            StructuringElement(np.array([[0, 0], [1, 0]]), 1)  # asymmetric


class TestErodeDilate:
    def test_constant_unchanged(self):
        f = np.full((5, 5), 3.5)
        se = square(1)
        np.testing.assert_array_equal(erode(f, se), f)
        np.testing.assert_array_equal(dilate(f, se), f)

    def test_single_peak_erased(self):
        f = np.zeros((5, 5))
        f[2, 2] = 1.0
        np.testing.assert_array_equal(erode(f, square(1)), 0.0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        f = rng.random((8, 8))
        for se in (square(1), disk(1), disk(2)):
            np.testing.assert_array_equal(erode(f, se), brute_force_window(f, se, min))
            np.testing.assert_array_equal(dilate(f, se), brute_force_window(f, se, max))

    def test_duality(self):
        rng = np.random.default_rng(2)
        f = rng.random((10, 7))
        for se in (square(1), disk(2)):
            np.testing.assert_array_equal(erode(-f, se), -dilate(f, se))

    def test_anti_extensivity_and_extensivity(self):
        rng = np.random.default_rng(3)
        f = rng.random((9, 9))
        se = disk(1)
        assert np.all(erode(f, se) <= f)
        assert np.all(dilate(f, se) >= f)


class TestOpenClose:
    def test_constant_unchanged(self):
        f = np.full((6, 6), -1.25)
        se = square(1)
        np.testing.assert_array_equal(opening(f, se), f)
        np.testing.assert_array_equal(closing(f, se), f)

    def test_idempotence(self):
        rng = np.random.default_rng(4)
        f = rng.random((12, 12))
        for se in (square(1), disk(2)):
            o = opening(f, se)
            np.testing.assert_array_equal(opening(o, se), o)
            c = closing(f, se)
            np.testing.assert_array_equal(closing(c, se), c)

    def test_speck_and_hole_removal(self):
        # 5x5 instance built by hand: a 1-pixel bright speck and a dark hole
        base = np.full((5, 5), 2.0)
        speck = base.copy()
        speck[2, 2] = 9.0
        opened = opening(speck, square(1))
        np.testing.assert_array_equal(opened, base)
        hole = base.copy()
        hole[2, 2] = -3.0
        closed = closing(hole, square(1))
        np.testing.assert_array_equal(closed, base)

    def test_sandwich(self):
        rng = np.random.default_rng(5)
        f = rng.random((10, 10))
        se = disk(1)
        assert np.all(opening(f, se) <= f)
        assert np.all(f <= closing(f, se))


class TestReconstruct:
    def test_fixpoint_on_equal_inputs(self):
        rng = np.random.default_rng(6)
        f = rng.random((6, 6))
        np.testing.assert_array_equal(reconstruct(f, f, "dilation"), f)

    def test_between_opening_and_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = rng.random((8, 8))
            se = disk(1)
            rec = reconstruct(erode(f, se), f, "dilation")
            assert np.all(rec >= opening(f, se) - 1e-12)
            assert np.all(rec <= f + 1e-12)

    def test_flood_flat_mask(self):
        mask = np.full((4, 4), 5.0)
        marker = np.zeros((4, 4))
        marker[0, 0] = 5.0
        np.testing.assert_array_equal(reconstruct(marker, mask, "dilation"), mask)

    def test_idempotent_under_reapplication(self):
        rng = np.random.default_rng(8)
        f = rng.random((7, 7))
        rec = reconstruct(erode(f, disk(2)), f, "dilation")
        np.testing.assert_array_equal(reconstruct(rec, f, "dilation"), rec)

    def test_ordering_precondition(self):
        with pytest.raises(ContractViolation):
            reconstruct(np.ones((3, 3)), np.zeros((3, 3)), "dilation")
        with pytest.raises(ContractViolation):
            reconstruct(np.zeros((3, 3)), np.ones((3, 3)), "erosion")


class TestScaleIndexedOperators:
    def test_small_se_preserves_large_structures(self):
        f = np.zeros((9, 9))
        f[2:7, 2:7] = 4.0  # side-5 square survives radius-1 opening
        np.testing.assert_array_equal(open_by_reconstruction(f, 1), f)

    def test_granulometry_ordering(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            f = rng.random((10, 10))
            g1 = open_by_reconstruction(f, 1)
            g2 = open_by_reconstruction(f, 2)
            assert np.all(g2 <= g1 + 1e-12)
            assert np.all(g1 <= f + 1e-12)
            c1 = close_by_reconstruction(f, 1)
            c2 = close_by_reconstruction(f, 2)
            assert np.all(c1 <= c2 + 1e-12)
            assert np.all(f <= c1 + 1e-12)

    def test_square_object_survives_disk_two(self):
        f = np.zeros((9, 9))
        f[1:6, 1:6] = 7.0
        rec = open_by_reconstruction(f, 2, "disk")
        np.testing.assert_array_equal(rec[1:6, 1:6], 7.0)

    def test_ordering_chain_with_plain_operators(self):
        rng = np.random.default_rng(10)
        f = rng.random((8, 8))
        for scale in (1, 2):
            se = disk(scale)
            o = opening(f, se)
            obr = open_by_reconstruction(f, scale)
            cbr = close_by_reconstruction(f, scale)
            c = closing(f, se)
            assert np.all(o <= obr + 1e-12)
            assert np.all(obr <= f + 1e-12)
            assert np.all(f <= cbr + 1e-12)
            assert np.all(cbr <= c + 1e-12)


class TestPca:
    def test_one_dimensional_data_recovered(self):
        rng = np.random.default_rng(11)
        direction = np.array([0.6, 0.0, 0.8])
        coords = rng.normal(size=20)
        cube = (coords[:, None] * direction).reshape(4, 5, 3)
        result = pca_reduce(HyperspectralImage(cube), 1)
        recon = result.bands[0].reshape(-1, 1) @ result.components + result.mean
        np.testing.assert_allclose(recon, cube.reshape(-1, 3), atol=1e-10)

    def test_eigenvalues_sorted_nonnegative(self):
        rng = np.random.default_rng(12)
        image = HyperspectralImage(rng.normal(size=(10, 10, 6)))
        result = pca_reduce(image, 6)
        evals = result.eigenvalues
        assert np.all(np.diff(evals) <= 1e-10)
        assert np.all(evals >= -1e-10)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            x = rng.normal(size=(100, 5))
            image = HyperspectralImage(x.reshape(10, 10, 5))
            result = pca_reduce(image, 5)
            xc = x - x.mean(axis=0)
            cov = xc.T @ xc / (x.shape[0] - 1)
            evals, evecs = jacobi_eigh(cov)
            np.testing.assert_allclose(result.eigenvalues, evals, atol=1e-8)
            scores = xc @ evecs
            for k in range(5):
                got = result.bands[k].ravel()
                diff = min(
                    np.max(np.abs(got - scores[:, k])),
                    np.max(np.abs(got + scores[:, k])),
                )
                assert diff < 1e-8

    def test_projected_covariance_diagonal(self):
        rng = np.random.default_rng(14)
        image = HyperspectralImage(rng.normal(size=(12, 12, 5)) @ np.diag([3, 2, 1, 1, 1]))
        result = pca_reduce(image, 5)
        scores = result.bands.reshape(5, -1).T
        cov = np.cov(scores, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 1e-8 * result.eigenvalues[0]

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(15)
        image = HyperspectralImage(rng.normal(size=(8, 8, 4)))
        a = pca_reduce(image, 4)
        b = pca_reduce(image, 4)
        np.testing.assert_array_equal(a.components, b.components)
        for k in range(4):
            pivot = np.argmax(np.abs(a.components[k]))
            assert a.components[k][pivot] > 0

    def test_dims_validation(self):
        image = HyperspectralImage(np.zeros((4, 4, 3)))
        with pytest.raises(ParameterError):
            pca_reduce(image, 0)
        with pytest.raises(ParameterError):
            pca_reduce(image, 4)


class TestMorphologicalProfile:
    def test_zero_scales_gives_pca_bands(self):
        rng = np.random.default_rng(16)
        image = HyperspectralImage(rng.normal(size=(6, 6, 4)))
        config = MorphoProfileConfig(pca_dims=2, n_scales=0)
        mp = morphological_profile(image, config)
        pca = pca_reduce(image, 2)
        assert mp.shape == (36, 2)
        np.testing.assert_array_equal(mp[:, 0], pca.bands[0].ravel())
        np.testing.assert_array_equal(mp[:, 1], pca.bands[1].ravel())

    def test_constant_band_constant_profile(self):
        # second spectral axis is constant noise-free, so the second
        # component image is flat and its profile entries all equal it
        rng = np.random.default_rng(17)
        base = rng.normal(size=(6, 6, 1))
        cube = np.concatenate([base, np.full((6, 6, 1), 2.0)], axis=2)
        image = HyperspectralImage(cube)
        config = MorphoProfileConfig(pca_dims=2, n_scales=2)
        mp = morphological_profile(image, config)
        flat_block = mp[:, 5:10]  # second band's 2n+1 = 5 columns
        for col in range(5):
            np.testing.assert_allclose(flat_block[:, col], flat_block[:, 2], atol=1e-10)

    def test_profile_dim(self):
        rng = np.random.default_rng(18)
        image = HyperspectralImage(rng.normal(size=(5, 5, 6)))
        config = MorphoProfileConfig(pca_dims=3, n_scales=2)
        assert morphological_profile(image, config).shape == (25, 3 * 5)

    def test_island_pixels_have_varying_profiles(self):
        # two regions: a 3x3 bright island (survives scale 1, erased at
        # scale 2) and a flat background. Island pixels see their profile
        # change across scales; background pixels keep a constant profile
        # because reconstruction restores surviving structures exactly.
        cube = np.zeros((9, 9, 2))
        cube[3:6, 3:6, 0] = 4.0
        cube[:, :, 1] = 1.0
        image = HyperspectralImage(cube)
        config = MorphoProfileConfig(pca_dims=1, n_scales=2)
        mp = morphological_profile(image, config).reshape(9, 9, 5)
        spread = mp.max(axis=2) - mp.min(axis=2)
        island = np.zeros((9, 9), bool)
        island[3:6, 3:6] = True
        assert np.all(spread[island] > 1e-8)
        assert np.all(spread[~island] < 1e-10)


class TestAxiomSuite:
    def test_axioms_on_random_images(self):
        # duality, idempotence, anti/extensivity, reconstruction ordering,
        # granulometry monotonicity; zero violations tolerated
        rng = np.random.default_rng(19)
        se = disk(1)
        for _ in range(20):
            f = rng.random((16, 16))
            np.testing.assert_array_equal(erode(-f, se), -dilate(f, se))
            o, c = opening(f, se), closing(f, se)
            np.testing.assert_array_equal(opening(o, se), o)
            np.testing.assert_array_equal(closing(c, se), c)
            assert np.all(erode(f, se) <= f) and np.all(f <= dilate(f, se))
            obr = open_by_reconstruction(f, 1)
            cbr = close_by_reconstruction(f, 1)
            assert np.all(o <= obr) and np.all(obr <= f)
            assert np.all(f <= cbr) and np.all(cbr <= c)
            assert np.all(open_by_reconstruction(f, 2) <= obr)
            assert np.all(cbr <= close_by_reconstruction(f, 2))
