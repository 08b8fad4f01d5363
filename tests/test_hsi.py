"""Cube data model, ENVI IO, ground truth, synthetic scenes, patches."""

import numpy as np
import pytest

from hsembed import (
    ContractViolation,
    FormatError,
    GroundTruthMap,
    HyperspectralImage,
    ParameterError,
    PatchSpec,
    SceneSpec,
    ShapeError,
    TruncationError,
    extract_patch,
    generate_synthetic_scene,
    load_envi,
    load_ground_truth,
    normalize_spectra,
    save_envi,
    save_ground_truth,
)
import hsembed.hsi
from hsembed.hsi import _nearest_centre, scene_spec_from_json


def write_envi_raw(tmp_path, name, array_file_order, header_lines):
    """Hand-author an ENVI pair; the bytes are the oracle."""
    hdr = tmp_path / f"{name}.hdr"
    img = tmp_path / f"{name}.img"
    hdr.write_text("\n".join(header_lines) + "\n")
    array_file_order.tofile(img)
    return hdr


class TestEnviIO:
    def test_bsq_identity_layout(self, tmp_path):
        # 2x2x1 bsq holding [1,2,3,4]: pixel (0,0) -> 1, (1,1) -> 4
        hdr = write_envi_raw(
            tmp_path,
            "tiny",
            np.array([1, 2, 3, 4], dtype="<f4"),
            ["ENVI", "samples = 2", "lines = 2", "bands = 1",
             "data type = 4", "interleave = bsq", "byte order = 0"],
        )
        image = load_envi(hdr)
        assert image.data.shape == (2, 2, 1)
        assert image.spectrum(0, 0) == pytest.approx([1.0])
        assert image.spectrum(1, 1) == pytest.approx([4.0])

    def test_pavia_shaped_header(self, tmp_path):
        hdr = write_envi_raw(
            tmp_path,
            "pavia",
            np.zeros(610 * 340 * 103, dtype="<u2"),
            ["ENVI", "samples = 340", "lines = 610", "bands = 103",
             "data type = 12", "interleave = bip", "byte order = 0"],
        )
        image = load_envi(hdr)
        assert (image.height, image.width, image.bands) == (610, 340, 103)

    def test_bil_equals_bsq(self, tmp_path):
        # one oracle array written in both interleaves by hand
        rng = np.random.default_rng(0)
        cube = rng.normal(size=(3, 3, 2)).astype("<f4")
        bsq = write_envi_raw(
            tmp_path, "as_bsq", np.ascontiguousarray(cube.transpose(2, 0, 1)),
            ["samples = 3", "lines = 3", "bands = 2",
             "data type = 4", "interleave = bsq", "byte order = 0"],
        )
        bil = write_envi_raw(
            tmp_path, "as_bil", np.ascontiguousarray(cube.transpose(0, 2, 1)),
            ["samples = 3", "lines = 3", "bands = 2",
             "data type = 4", "interleave = bil", "byte order = 0"],
        )
        np.testing.assert_array_equal(load_envi(bsq).data, load_envi(bil).data)

    def test_big_endian_uint16(self, tmp_path):
        values = np.array([1, 2, 3, 4, 5, 6], dtype=">u2")
        hdr = write_envi_raw(
            tmp_path, "be", values,
            ["samples = 3", "lines = 2", "bands = 1",
             "data type = 12", "interleave = bip", "byte order = 1"],
        )
        image = load_envi(hdr)
        np.testing.assert_array_equal(image.data[:, :, 0], [[1, 2, 3], [4, 5, 6]])

    def test_header_offset(self, tmp_path):
        hdr = tmp_path / "off.hdr"
        hdr.write_text(
            "samples = 2\nlines = 1\nbands = 1\ndata type = 4\n"
            "interleave = bsq\nbyte order = 0\nheader offset = 3\n"
        )
        payload = b"XYZ" + np.array([7.0, 8.0], dtype="<f4").tobytes()
        (tmp_path / "off.img").write_bytes(payload)
        image = load_envi(hdr)
        np.testing.assert_array_equal(image.data[:, :, 0], [[7.0, 8.0]])

    def test_missing_key(self, tmp_path):
        hdr = write_envi_raw(
            tmp_path, "nokey", np.zeros(4, dtype="<f4"),
            ["samples = 2", "lines = 2", "data type = 4",
             "interleave = bsq", "byte order = 0"],
        )
        with pytest.raises(FormatError, match="bands"):
            load_envi(hdr)

    def test_contradictory_key(self, tmp_path):
        hdr = write_envi_raw(
            tmp_path, "dup", np.zeros(4, dtype="<f4"),
            ["samples = 2", "samples = 3", "lines = 2", "bands = 1",
             "data type = 4", "interleave = bsq", "byte order = 0"],
        )
        with pytest.raises(FormatError, match="contradictory"):
            load_envi(hdr)

    def test_size_mismatch(self, tmp_path):
        hdr = write_envi_raw(
            tmp_path, "short", np.zeros(3, dtype="<f4"),
            ["samples = 2", "lines = 2", "bands = 1",
             "data type = 4", "interleave = bsq", "byte order = 0"],
        )
        with pytest.raises(TruncationError):
            load_envi(hdr)

    def test_unsupported_dtype_and_interleave(self, tmp_path):
        hdr = write_envi_raw(
            tmp_path, "odd", np.zeros(4, dtype="<f4"),
            ["samples = 2", "lines = 2", "bands = 1",
             "data type = 6", "interleave = bsq", "byte order = 0"],
        )
        with pytest.raises(FormatError, match="data type"):
            load_envi(hdr)
        hdr2 = write_envi_raw(
            tmp_path, "odd2", np.zeros(4, dtype="<f4"),
            ["samples = 2", "lines = 2", "bands = 1",
             "data type = 4", "interleave = bif", "byte order = 0"],
        )
        with pytest.raises(FormatError, match="interleave"):
            load_envi(hdr2)

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_round_trip(self, tmp_path, interleave):
        rng = np.random.default_rng(4)
        image = HyperspectralImage(rng.normal(size=(5, 4, 3)),
                                   band_centers=[450.0, 550.0, 650.0])
        hdr = save_envi(image, tmp_path / f"rt_{interleave}.hdr", interleave=interleave)
        back = load_envi(hdr)
        np.testing.assert_array_equal(back.data, image.data)
        np.testing.assert_array_equal(back.band_centers, image.band_centers)

    @pytest.mark.parametrize("dtype,code", [
        (np.uint8, 1), (np.int16, 2), (np.int32, 3), (np.uint32, 13),
    ])
    @pytest.mark.parametrize("byte_order", [0, 1])
    def test_integer_round_trip(self, tmp_path, dtype, code, byte_order):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(code)
        cube = rng.integers(info.min, info.max, size=(4, 3, 2), endpoint=True)
        cube[0, 0] = [info.min, info.max]
        image = HyperspectralImage(cube.astype(np.float64))
        hdr = save_envi(image, tmp_path / "ints.hdr", interleave="bil", dtype=dtype,
                        byte_order=byte_order)
        assert f"data type = {code}" in hdr.read_text()
        np.testing.assert_array_equal(load_envi(hdr).data, image.data)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.uint32])
    def test_integer_payload_rejects_values_out_of_range(self, tmp_path, dtype):
        info = np.iinfo(dtype)
        for bad in (info.min - 1.0, info.max + 1.0, 0.5):
            image = HyperspectralImage(np.full((1, 1, 1), bad))
            with pytest.raises(ParameterError, match="do not fit"):
                save_envi(image, tmp_path / "bad.hdr", dtype=dtype)


class TestGroundTruth:
    def test_csv_basic(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("0,1\n2,0\n")
        gt = load_ground_truth(p, 2, 2)
        np.testing.assert_array_equal(gt.labels, [[0, 1], [2, 0]])
        assert gt.n_classes == 2

    def test_all_zero(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("0,0\n0,0\n")
        gt = load_ground_truth(p, 2, 2)
        assert gt.n_classes == 0
        assert gt.labels.sum() == 0

    def test_indian_pines_extent(self, tmp_path):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 16, size=(145, 145))
        labels[0, 0] = 16
        p = save_ground_truth(GroundTruthMap(labels), tmp_path / "ip.csv")
        gt = load_ground_truth(p, 145, 145)
        assert gt.n_classes == 16
        assert gt.labels.size == 145 * 145

    def test_negative_label(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("0,-1\n2,0\n")
        with pytest.raises(FormatError, match="negative"):
            load_ground_truth(p, 2, 2)

    def test_dimension_mismatch(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("0,1\n2,0\n")
        with pytest.raises(ShapeError):
            load_ground_truth(p, 3, 2)

    def test_envi_raster_gt(self, tmp_path):
        labels = np.array([[0, 1], [2, 1]], dtype="<u2")
        hdr = write_envi_raw(
            tmp_path, "gt", labels,
            ["samples = 2", "lines = 2", "bands = 1",
             "data type = 12", "interleave = bsq", "byte order = 0"],
        )
        gt = load_ground_truth(hdr, 2, 2)
        np.testing.assert_array_equal(gt.labels, labels)

    def test_csv_round_trip(self, tmp_path):
        labels = np.array([[0, 3, 1], [2, 0, 1]])
        path = save_ground_truth(GroundTruthMap(labels), tmp_path / "rt.csv")
        np.testing.assert_array_equal(load_ground_truth(path, 2, 3).labels, labels)


class TestSyntheticScene:
    def spec(self, **kw):
        defaults = dict(
            height=12, width=10, bands=4, classes=3,
            class_spectra=np.eye(3, 4) + 0.1,
            region_scale=4.0, noise_sigma=0.0, seed=9,
        )
        defaults.update(kw)
        return SceneSpec(**defaults)

    def test_noise_free_single_class(self):
        spec = self.spec(classes=1, class_spectra=np.full((1, 4), 0.7))
        image, gt = generate_synthetic_scene(spec)
        assert np.all(gt.labels == 1)
        assert np.allclose(image.data, 0.7)

    def test_deterministic(self):
        a_img, a_gt = generate_synthetic_scene(self.spec(noise_sigma=0.3))
        b_img, b_gt = generate_synthetic_scene(self.spec(noise_sigma=0.3))
        np.testing.assert_array_equal(a_img.data, b_img.data)
        np.testing.assert_array_equal(a_gt.labels, b_gt.labels)

    def test_every_class_present(self):
        for seed in range(5):
            _, gt = generate_synthetic_scene(self.spec(seed=seed))
            assert set(np.unique(gt.labels)) == {1, 2, 3}

    def test_equidistant_centres_go_to_the_lowest_index(self, monkeypatch):
        # pixel (0, 1) is equidistant from both centres, whichever is listed first
        cols = np.array([0, 2])
        np.testing.assert_array_equal(_nearest_centre(1, 3, np.zeros(2, int), cols), [[0, 0, 1]])
        np.testing.assert_array_equal(
            _nearest_centre(1, 3, np.zeros(2, int), cols[::-1]), [[1, 0, 0]]
        )
        # oracle: per-pixel loop on a lattice of centres full of ties, with
        # blocks of a single row
        monkeypatch.setattr(hsembed.hsi, "_DISTANCE_BLOCK", 1)
        rows, cols = np.array([0, 0, 4, 4, 2, 2]), np.array([0, 4, 0, 4, 2, 2])
        got = _nearest_centre(5, 5, rows, cols)
        for r in range(5):
            for c in range(5):
                d2 = [(r - a) ** 2 + (c - b) ** 2 for a, b in zip(rows, cols)]
                assert got[r, c] == d2.index(min(d2))

    def test_noise_degrades_nearest_endmember_accuracy(self):
        # oracle: nearest-endmember classification on both scenes
        spectra = np.random.default_rng(3).random((3, 4))
        accs = []
        for sigma in (0.05, 1.5):
            spec = self.spec(height=24, width=24, class_spectra=spectra, noise_sigma=sigma)
            image, gt = generate_synthetic_scene(spec)
            pix = image.pixels()
            d2 = ((pix[:, None, :] - spectra[None, :, :]) ** 2).sum(axis=2)
            accs.append(np.mean(d2.argmin(axis=1) + 1 == gt.labels.ravel()))
        assert accs[0] > accs[1]

    def test_infeasible_class_count(self):
        with pytest.raises(Exception, match="classes"):
            generate_synthetic_scene(
                self.spec(height=1, width=2, classes=3)
            )

    def test_spec_from_json_draws_spectra(self):
        obj = {"height": 6, "width": 5, "bands": 3, "classes": 2, "seed": 4}
        spec = scene_spec_from_json(obj)
        assert spec.class_spectra.shape == (2, 3)
        spec2 = scene_spec_from_json(obj)
        np.testing.assert_array_equal(spec.class_spectra, spec2.class_spectra)

    def test_identical_spectra_rejected(self):
        with pytest.raises(ParameterError, match="identical"):
            self.spec(class_spectra=np.ones((3, 4)))


class TestNormalize:
    def test_three_four_five(self):
        image = HyperspectralImage(np.array([[[3.0, 4.0]]]))
        out = normalize_spectra(image)
        np.testing.assert_allclose(out.spectrum(0, 0), [0.6, 0.8])

    def test_zero_pixel_stays_zero(self):
        image = HyperspectralImage(np.array([[[0.0, 0.0]]]))
        np.testing.assert_array_equal(normalize_spectra(image).data, 0.0)

    def test_all_norms_zero_or_one(self):
        rng = np.random.default_rng(5)
        cube = rng.normal(size=(6, 7, 3))
        cube[2, 3] = 0.0
        norms = np.linalg.norm(normalize_spectra(HyperspectralImage(cube)).data, axis=2)
        assert np.all((np.abs(norms - 1) < 1e-12) | (norms == 0))

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        image = HyperspectralImage(rng.normal(size=(4, 4, 5)))
        once = normalize_spectra(image)
        twice = normalize_spectra(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-15)


class TestExtractPatch:
    def test_single_pixel_identity_everywhere(self):
        rng = np.random.default_rng(7)
        image = HyperspectralImage(rng.normal(size=(4, 5, 3)))
        spec = PatchSpec(1)
        for r in range(4):
            for c in range(5):
                patch = extract_patch(image, r, c, spec)
                assert patch.shape == (1, 3)
                np.testing.assert_array_equal(patch[0], image.spectrum(r, c))

    def test_corner_clamp_repeats_corner(self):
        # hand enumeration: offsets at (0,0) with s=3 clamp to
        # rows [0,0,1], cols [0,0,1]; the corner appears 4 times
        rng = np.random.default_rng(8)
        image = HyperspectralImage(rng.normal(size=(4, 4, 2)))
        patch = extract_patch(image, 0, 0, PatchSpec(3, "clamp"))
        assert patch.shape == (9, 2)
        corner = image.spectrum(0, 0)
        repeats = sum(np.array_equal(row, corner) for row in patch)
        assert repeats == 4

    def test_interior_matches_direct_indexing(self):
        rng = np.random.default_rng(9)
        image = HyperspectralImage(rng.normal(size=(5, 5, 2)))
        patch = extract_patch(image, 2, 3, PatchSpec(3))
        expected = [image.spectrum(2 + dr, 3 + dc)
                    for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
        np.testing.assert_array_equal(patch, expected)

    @pytest.mark.parametrize("side", [1, 2, 3, 4, 5, 10])
    @pytest.mark.parametrize("border", ["clamp", "mirror"])
    def test_patch_count_is_side_squared(self, side, border):
        rng = np.random.default_rng(10)
        image = HyperspectralImage(rng.normal(size=(6, 6, 2)))
        spec = PatchSpec(side, border)
        for r, c in [(0, 0), (3, 2), (5, 5)]:
            assert extract_patch(image, r, c, spec).shape == (side * side, 2)

    def test_even_side_window_offsets(self):
        # s=2: offsets {0, +1} in each axis
        image = HyperspectralImage(np.arange(8.0).reshape(2, 4, 1))
        patch = extract_patch(image, 0, 1, PatchSpec(2))
        np.testing.assert_array_equal(patch[:, 0], [1.0, 2.0, 5.0, 6.0])

    def test_mirror_border(self):
        image = HyperspectralImage(np.arange(3.0).reshape(1, 3, 1))
        patch = extract_patch(image, 0, 0, PatchSpec(3, "mirror"))
        # row axis mirrors onto itself; col -1 reflects to 0
        np.testing.assert_array_equal(patch[:, 0], [0, 0, 1, 0, 0, 1, 0, 0, 1])

    def test_out_of_image_center_rejected(self):
        image = HyperspectralImage(np.zeros((2, 2, 1)))
        with pytest.raises(ContractViolation):
            extract_patch(image, 2, 0, PatchSpec(1))


class TestInvariantsOnTypes:
    def test_cube_must_be_finite(self):
        bad = np.zeros((1, 1, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ParameterError):
            HyperspectralImage(bad)

    def test_cube_is_immutable(self):
        image = HyperspectralImage(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError):
            image.data[0, 0, 0] = 1.0

    def test_patch_spec_validation(self):
        with pytest.raises(ParameterError):
            PatchSpec(0)
        with pytest.raises(ParameterError):
            PatchSpec(3, "wrap")
