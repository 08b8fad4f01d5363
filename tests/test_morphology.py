"""Morphological operators, geodesic reconstruction, PCA, profiles."""

import faulthandler

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hsembed import (
    ContractViolation,
    HyperspectralImage,
    MorphoProfileConfig,
    NumericalError,
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
from oracles import brute_force_window, jacobi_eigh, profile_reference, reconstruct_reference


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

    @pytest.mark.parametrize("factory", [disk, square])
    @pytest.mark.parametrize("radius", [1.5, 2.0, True, -1])
    def test_radius_must_be_a_non_negative_integer(self, factory, radius):
        with pytest.raises(ParameterError, match="radius must be an integer >= 0"):
            factory(radius)

    def test_numpy_integer_radius(self):
        assert disk(np.int64(2)).size == 13
        assert square(np.int32(1)).size == 9


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


class TestScaleAndShapeArguments:
    @pytest.mark.parametrize("operator", [open_by_reconstruction, close_by_reconstruction])
    def test_unknown_shape_lists_the_shapes(self, operator):
        with pytest.raises(ParameterError, match=r"se_shape must be one of \['disk', 'square'\]"):
            operator(np.zeros((3, 3)), 1, "hexagon")

    @pytest.mark.parametrize("operator", [open_by_reconstruction, close_by_reconstruction])
    @pytest.mark.parametrize("scale", [2.5, 1.0, True, 0])
    def test_scale_must_be_a_positive_integer(self, operator, scale):
        with pytest.raises(ParameterError, match="scale index must be an integer >= 1"):
            operator(np.zeros((3, 3)), scale)

    @pytest.mark.parametrize("pca_dims", [0, 1.5, 2.0, True, "2"])
    def test_profile_config_pca_dims_must_be_a_positive_integer(self, pca_dims):
        with pytest.raises(ParameterError, match="pca_dims must be an integer >= 1"):
            MorphoProfileConfig(pca_dims=pca_dims)

    @pytest.mark.parametrize("n_scales", [-1, 2.5, 1.0, True, False, None])
    def test_profile_config_n_scales_must_be_a_non_negative_integer(self, n_scales):
        with pytest.raises(ParameterError, match="n_scales must be an integer >= 0"):
            MorphoProfileConfig(n_scales=n_scales)

    def test_profile_config_takes_numpy_integers(self):
        config = MorphoProfileConfig(pca_dims=np.int64(2), n_scales=np.int32(0))
        assert (config.pca_dims, config.n_scales) == (2, 0)


@pytest.fixture
def watchdog():
    """Ends the test process with exit status 1 if the test has not
    finished in 30 s, so a reconstruction that never stops fails the run
    instead of stalling it."""
    faulthandler.dump_traceback_later(30, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.mark.usefixtures("watchdog")
class TestNaN:
    @staticmethod
    def _with_nan():
        f = np.zeros((3, 3))
        f[1, 2] = np.nan
        return f

    def test_reconstruct_names_the_argument(self):
        nan = self._with_nan()
        with pytest.raises(NumericalError, match="^marker holds NaN"):
            reconstruct(nan, np.zeros((3, 3)))
        with pytest.raises(NumericalError, match="^mask holds NaN"):
            reconstruct(np.zeros((3, 3)), nan)
        with pytest.raises(NumericalError, match="^marker holds NaN"):
            reconstruct(nan, nan, "erosion")

    @pytest.mark.parametrize("operator", [open_by_reconstruction, close_by_reconstruction])
    def test_by_reconstruction_names_the_argument(self, operator):
        with pytest.raises(NumericalError, match="^f holds NaN"):
            operator(self._with_nan(), 1)

    def test_infinities_keep_working(self):
        f = np.array([[np.inf, 0.0, 1.0], [-np.inf, 2.0, np.inf], [3.0, -np.inf, 0.5]])
        marker = np.full((3, 3), -np.inf)
        marker[0, 0] = np.inf
        for got, ref in [
            (reconstruct(marker, f), reconstruct_reference(marker, f)),
            (open_by_reconstruction(f, 1), reconstruct_reference(erode(f, disk(1)), f)),
            (
                close_by_reconstruction(f, 1),
                reconstruct_reference(dilate(f, disk(1)), f, "erosion"),
            ),
        ]:
            assert got.tobytes() == ref.tobytes()


# Few values, so images are full of ties and plateaus; the infinities are
# ordinary values. The second pool adds -0.0 beside 0.0.
VALUES = [-np.inf, -2.5, -1.0, 0.0, 0.5, 1.0, 3.0, np.inf]
SIGNED_ZEROS = VALUES + [-0.0]


@st.composite
def images(draw, values, count=1):
    """``count`` images of one shape, 1x1 to 7x7, with pixels from ``values``."""
    shape = draw(st.tuples(st.integers(1, 7), st.integers(1, 7)))
    return [draw(arrays(np.float64, shape, elements=st.sampled_from(values))) for _ in range(count)]


def expected_from(ref):
    """The reference with its one permitted change: a zero of either sign
    comes out as +0.0. On inputs without -0.0 this is the reference itself."""
    return np.where(ref == 0, 0.0, ref)


def assert_matches(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == expected_from(ref).tobytes()


@pytest.mark.parametrize("values", [VALUES, SIGNED_ZEROS], ids=["no-signed-zeros", "signed-zeros"])
class TestAgainstReferenceLoop:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), polarity=st.sampled_from(["dilation", "erosion"]))
    def test_reconstruct(self, values, data, polarity):
        mask, other = data.draw(images(values, count=2))
        bound = np.minimum if polarity == "dilation" else np.maximum
        marker = bound(mask, other)
        assert_matches(reconstruct(marker, mask, polarity), reconstruct_reference(marker, mask, polarity))

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        scale=st.integers(1, 3),
        se_shape=st.sampled_from(["disk", "square"]),
    )
    def test_by_reconstruction(self, values, data, scale, se_shape):
        (f,) = data.draw(images(values))
        se = {"disk": disk, "square": square}[se_shape](scale)
        assert_matches(
            open_by_reconstruction(f, scale, se_shape),
            reconstruct_reference(erode(f, se), f, "dilation"),
        )
        assert_matches(
            close_by_reconstruction(f, scale, se_shape),
            reconstruct_reference(dilate(f, se), f, "erosion"),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        bands=st.integers(1, 4),
        n_scales=st.integers(0, 2),
        se_shape=st.sampled_from(["disk", "square"]),
    )
    def test_morphological_profile(self, values, data, bands, n_scales, se_shape):
        # a few distinct spectra, so the PCA bands hold plateaus
        (labels,) = data.draw(images(list(range(3))))
        finite = [v for v in values if np.isfinite(v)]
        palette = data.draw(arrays(np.float64, (3, bands), elements=st.sampled_from(finite)))
        image = HyperspectralImage(palette[labels.astype(int)])
        config = MorphoProfileConfig(
            pca_dims=data.draw(st.integers(1, bands)), n_scales=n_scales, se_shape=se_shape
        )
        got = morphological_profile(image, config)
        ref = profile_reference(image, config)
        expected = expected_from(ref)
        # the bands themselves are copied as they are
        bands_at = np.arange(config.pca_dims) * (2 * n_scales + 1) + n_scales
        expected[:, bands_at] = ref[:, bands_at]
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == expected.tobytes()
