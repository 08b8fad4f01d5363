"""Cube data model, ENVI IO, ground truth, synthetic scenes, patch windows."""

import warnings

import numpy as np
import pytest

from hsembed import (
    FormatError,
    GroundTruthMap,
    HyperspectralImage,
    ParameterError,
    PatchSpec,
    SceneSpec,
    ShapeError,
    TruncationError,
    generate_synthetic_scene,
    load_envi,
    load_ground_truth,
    normalize_spectra,
    save_envi,
    save_ground_truth,
)
import hsembed.hsi
from hsembed.hsi import (
    _nearest_centre,
    equal_blocks,
    patch_indices,
    patch_window,
    row_blocks,
    scene_spec_from_json,
    window_axis,
)
from oracles import synthetic_scene_reference
from tracing import traced_peak

# ENVI data type codes, and a cube shape that with TILE values per tile splits
# the reader's blocks (every interleave) into row tiles of 2 rows, and the
# writer's band planes into row tiles of 5, each ending in a ragged last tile
# of 1 row
ENVI_DTYPES = [(np.uint8, 1), (np.int16, 2), (np.int32, 3), (np.float32, 4),
               (np.float64, 5), (np.uint16, 12), (np.uint32, 13)]
TILED_SHAPE = (11, 3, 2)
TILE = 16
# the cube's axes in the file order of each interleave
FILE_ORDER = {"bsq": (2, 0, 1), "bil": (0, 2, 1), "bip": (0, 1, 2)}


def write_envi_raw(tmp_path, name, array_file_order, header_lines, offset=0):
    """Hand-author an ENVI pair, the array after ``offset`` filler bytes;
    the bytes are the oracle."""
    hdr = tmp_path / f"{name}.hdr"
    img = tmp_path / f"{name}.img"
    hdr.write_text("\n".join(header_lines) + "\n")
    img.write_bytes(b"\xa5" * offset + array_file_order.tobytes())
    return hdr


def write_envi_cube(tmp_path, cube, interleave, dtype, byte_order=0, offset=0):
    """Hand-author an ENVI pair holding ``cube`` in ``interleave`` order."""
    lines, samples, bands = cube.shape
    code = dict((np.dtype(d), c) for d, c in ENVI_DTYPES)[np.dtype(dtype)]
    file_dtype = np.dtype(dtype).newbyteorder("<>"[byte_order])
    return write_envi_raw(
        tmp_path, "raw", cube.transpose(FILE_ORDER[interleave]).astype(file_dtype),
        [f"samples = {samples}", f"lines = {lines}", f"bands = {bands}",
         f"data type = {code}", f"interleave = {interleave}",
         f"byte order = {byte_order}", f"header offset = {offset}"],
        offset,
    )


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
        assert image.data[0, 0] == pytest.approx([1.0])
        assert image.data[1, 1] == pytest.approx([4.0])

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

    def test_negative_header_offset(self, tmp_path):
        # 3x2x4 float64 one value short, so offset + payload is the file size
        hdr = write_envi_raw(
            tmp_path, "neg", np.zeros(23, dtype="<f8"),
            ["samples = 2", "lines = 3", "bands = 4", "data type = 5",
             "interleave = bsq", "byte order = 0", "header offset = -8"],
        )
        with pytest.raises(FormatError, match=r"neg\.hdr: header key 'header offset'"):
            load_envi(hdr)

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

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        image = HyperspectralImage(rng.normal(size=(5, 4, 3)))
        hdr = save_envi(image, tmp_path / "rt.hdr")
        np.testing.assert_array_equal(load_envi(hdr).data, image.data)

    def test_tiled_write_is_bsq_float64(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hsembed.hsi, "_BLOCK", TILE)
        cube = np.random.default_rng(5).normal(size=TILED_SHAPE)
        hdr = save_envi(HyperspectralImage(cube), tmp_path / "t.hdr")
        # the bytes are the oracle: the cube in band order, little-endian float64
        assert hdr.with_suffix(".img").read_bytes() == \
            cube.transpose(2, 0, 1).astype("<f8").tobytes()

    def test_brace_blocks_span_lines(self, tmp_path):
        # a continuation line that reads like a key belongs to its block
        cube = np.arange(12, dtype="<f4").reshape(2, 3, 2)
        hdr = write_envi_raw(
            tmp_path, "braces", np.ascontiguousarray(cube.transpose(2, 0, 1)),
            ["ENVI", "description = {", "  hand-written scene,", "  interleave = bip", "}",
             "samples = 3", "lines = 2", "bands = 2", "wavelength = {",
             "  450.0,", "  550.0}", "data type = 4", "interleave = bsq", "byte order = 0"],
        )
        np.testing.assert_array_equal(load_envi(hdr).data, cube)

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    @pytest.mark.parametrize("byte_order", [0, 1])
    @pytest.mark.parametrize("dtype,code", ENVI_DTYPES)
    def test_tiled_round_trip(self, tmp_path, monkeypatch, dtype, code, byte_order, interleave):
        monkeypatch.setattr(hsembed.hsi, "_BLOCK", TILE)
        rng = np.random.default_rng(code)
        if np.dtype(dtype).kind == "f":
            cube = rng.normal(size=TILED_SHAPE).astype(dtype)
        else:
            info = np.iinfo(dtype)
            cube = rng.integers(info.min, info.max, size=TILED_SHAPE, endpoint=True)
            cube[-1, -1] = [info.min, info.max]
        hdr = write_envi_cube(tmp_path, cube, interleave, dtype, byte_order)
        back = load_envi(hdr)
        assert back.data.flags.c_contiguous
        assert back.data.tobytes() == cube.astype(np.float64).tobytes()

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_in_the_last_tile(
        self, tmp_path, monkeypatch, interleave, dtype, bad
    ):
        monkeypatch.setattr(hsembed.hsi, "_BLOCK", TILE)
        hdr = write_envi_cube(tmp_path, np.ones(TILED_SHAPE), interleave, dtype)
        with open(hdr.with_suffix(".img"), "r+b") as f:
            f.seek(-np.dtype(dtype).itemsize, 2)
            f.write(np.array([bad], dtype=dtype).tobytes())
        with pytest.raises(FormatError, match="non-finite"):
            load_envi(hdr)

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    @pytest.mark.parametrize("dtype,byte_order", [
        (np.float64, 0), (np.float32, 1), (np.int16, 1), (np.uint8, 0), (np.uint32, 1),
    ])
    def test_tiled_read_after_a_header_offset(
        self, tmp_path, monkeypatch, interleave, dtype, byte_order
    ):
        # 2-row blocks of an (11, 3, 4) cube after 13 filler bytes: six
        # blocks, the last of 1 row, each read in one run per band for bsq
        monkeypatch.setattr(hsembed.hsi, "_BLOCK", 2 * 3 * 4)
        rng = np.random.default_rng(np.dtype(dtype).itemsize + byte_order)
        if np.dtype(dtype).kind == "f":
            cube = rng.normal(size=(11, 3, 4)).astype(dtype)
        else:
            info = np.iinfo(dtype)
            cube = rng.integers(info.min, info.max, size=(11, 3, 4), endpoint=True)
        hdr = write_envi_cube(tmp_path, cube, interleave, dtype, byte_order, offset=13)
        back = load_envi(hdr)
        assert back.data.flags.c_contiguous
        assert back.data.tobytes() == cube.astype(np.float64).tobytes()

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_value_in_band_0_of_a_middle_block(
        self, tmp_path, monkeypatch, interleave, dtype
    ):
        # rows 4-5 are the third of the six 2-row blocks
        monkeypatch.setattr(hsembed.hsi, "_BLOCK", TILE)
        cube = np.ones(TILED_SHAPE)
        cube[5, 1, 0] = np.nan
        hdr = write_envi_cube(tmp_path, cube, interleave, dtype, offset=5)
        with pytest.raises(FormatError, match="non-finite"):
            load_envi(hdr)

    def test_cube_io_holds_the_cube_and_a_few_tiles(self, tmp_path, monkeypatch):
        # tiles (and distance blocks) of 4,096 values (32 KB) against a 960 KB cube
        monkeypatch.setattr(hsembed.hsi, "_BLOCK", 4096)
        tiles = 4 * 4096 * 8
        spec = SceneSpec(height=60, width=50, bands=40, classes=3, noise_sigma=0.1, seed=1)
        cube_bytes = 60 * 50 * 40 * 8
        scene = []
        assert traced_peak(lambda: scene.extend(generate_synthetic_scene(spec))) \
            < cube_bytes + tiles
        image = scene[0]
        # a C-contiguous float64 cube is kept as it is
        assert HyperspectralImage(image.data).data is image.data
        assert traced_peak(lambda: HyperspectralImage(image.data)) < tiles
        assert traced_peak(lambda: save_envi(image, tmp_path / "scene.hdr")) < tiles
        rounded = np.round(image.data * 50 + 100)
        for interleave in ("bsq", "bil", "bip"):
            for dtype in (np.float64, np.uint8):
                hdr = write_envi_cube(tmp_path, rounded, interleave, dtype)
                assert traced_peak(lambda: load_envi(hdr)) < cube_bytes + tiles

    def test_read_of_a_cube_below_one_block_holds_no_whole_block(self, tmp_path):
        # the raw buffer is sized by the cube's rows, not by the 8 MB block
        hdr = save_envi(HyperspectralImage(np.ones((3, 4, 5))), tmp_path / "small.hdr")
        assert traced_peak(lambda: load_envi(hdr)) < 64 << 10


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

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        p = tmp_path / "gt.csv"
        p.write_text("\n0,1\n\n  \n2,0\n\n")
        np.testing.assert_array_equal(load_ground_truth(p, 2, 2).labels, [[0, 1], [2, 0]])

    @pytest.mark.parametrize("text, line", [
        ("0,1\n2,99999999999999999999\n", 2), ("0,1\n\n1.0,2\n", 3), ("0,1\n2\n", 2),
        ("0,1,\n2,0,\n", 1), ("0,1\n#2,0\n", 2),
    ])
    def test_cell_that_is_not_an_int64_names_its_line(self, tmp_path, text, line):
        p = tmp_path / "gt.csv"
        p.write_text(text)
        with pytest.raises(FormatError, match=f"gt.csv:{line}: "):
            load_ground_truth(p, 2, 2)

    @pytest.mark.parametrize("text", ["", "\n\n", " \n\t\n"])
    def test_empty_or_blank_file_is_refused_without_a_warning(self, tmp_path, text):
        p = tmp_path / "gt.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="empty label grid"):
                load_ground_truth(p, 2, 2)


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

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.3])
    def test_tiled_scene_equals_the_one_shot_scene(self, monkeypatch, noise_sigma):
        # tiles of 3 rows and a ragged last tile of 2
        monkeypatch.setattr(hsembed.hsi, "_BLOCK", 3 * 10 * 4)
        spec = self.spec(height=14, noise_sigma=noise_sigma)
        image, gt = generate_synthetic_scene(spec)
        cube, labels = synthetic_scene_reference(spec)
        assert image.data.tobytes() == cube.tobytes()
        np.testing.assert_array_equal(gt.labels, labels)

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
        monkeypatch.setattr(hsembed.hsi, "_BLOCK", 1)
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

    @pytest.mark.parametrize(
        "key, value",
        [("height", 8.7), ("height", True), ("height", "8"), ("classes", 2.5), ("seed", 1.9),
         ("seed", "x"), ("seed", -1), ("noise_sigma", "0.3"), ("noise_sigma", float("nan")),
         ("region_scale", float("inf")), ("class_spectra", [[1, "a"], [2, 3]]),
         ("class_spectra", [[1, float("nan")], [2, 3]]), ("class_spectra", {"rows": 2})],
    )
    def test_spec_from_json_rejects_values_of_the_wrong_kind(self, key, value):
        obj = {"height": 8, "width": 5, "bands": 2, "classes": 2, key: value}
        with pytest.raises(ParameterError) as info:
            scene_spec_from_json(obj)
        assert repr(key) in str(info.value) and repr(value) in str(info.value)

    def test_spec_from_json_reads_numbers_as_given_kinds(self):
        obj = {"height": 6, "width": 5, "bands": 2, "classes": 2, "region_scale": 4,
               "noise_sigma": 0, "seed": 4, "class_spectra": None}
        spec = scene_spec_from_json(obj)
        assert type(spec.region_scale) is float and type(spec.noise_sigma) is float
        omitted = {k: v for k, v in obj.items() if k != "class_spectra"}
        np.testing.assert_array_equal(
            spec.class_spectra, scene_spec_from_json(omitted).class_spectra
        )

    def test_identical_spectra_rejected(self):
        with pytest.raises(ParameterError, match="identical"):
            self.spec(class_spectra=np.ones((3, 4)))

    @pytest.mark.parametrize("key, value", [
        ("noise_sigma", np.nan), ("noise_sigma", np.inf), ("region_scale", np.nan),
        ("seed", -1), ("seed", 2.5),
    ])
    def test_spec_rejects_non_finite_scales_and_bad_seeds(self, key, value):
        with pytest.raises(ParameterError, match=key):
            self.spec(**{key: value})


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 17, 100])
@pytest.mark.parametrize("block", [1, 2, 3, 8, 1000])
def test_equal_blocks_are_as_many_as_row_blocks_and_differ_by_a_row_at_most(n, block, monkeypatch):
    monkeypatch.setattr(hsembed.hsi, "_BLOCK", block)
    blocks = list(equal_blocks(n, 2))
    sizes = [b - a for a, b in blocks]
    assert len(blocks) == len(list(row_blocks(n, 2)))
    assert [a for a, _ in blocks] == list(np.cumsum([0, *sizes])[:-1]) and sum(sizes) == n
    if n:
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= max(1, block // 2)


class TestNormalize:
    def test_three_four_five(self):
        image = HyperspectralImage(np.array([[[3.0, 4.0]]]))
        out = normalize_spectra(image)
        np.testing.assert_allclose(out.data[0, 0], [0.6, 0.8])

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


def patch_spectra(image, row, col, spec):
    """The patch spectra of one pixel, gathered as the training rows are."""
    flat = patch_indices([row * image.width + col], spec, image.height, image.width)
    return image.pixels()[flat[0]]


class TestPatchSpectra:
    def test_single_pixel_identity_everywhere(self):
        rng = np.random.default_rng(7)
        image = HyperspectralImage(rng.normal(size=(4, 5, 3)))
        spec = PatchSpec(1)
        for r in range(4):
            for c in range(5):
                patch = patch_spectra(image, r, c, spec)
                assert patch.shape == (1, 3)
                np.testing.assert_array_equal(patch[0], image.data[r, c])

    def test_corner_clamp_repeats_corner(self):
        # hand enumeration: offsets at (0,0) with s=3 clamp to
        # rows [0,0,1], cols [0,0,1]; the corner appears 4 times
        rng = np.random.default_rng(8)
        image = HyperspectralImage(rng.normal(size=(4, 4, 2)))
        patch = patch_spectra(image, 0, 0, PatchSpec(3, "clamp"))
        assert patch.shape == (9, 2)
        corner = image.data[0, 0]
        repeats = sum(np.array_equal(row, corner) for row in patch)
        assert repeats == 4

    def test_interior_matches_direct_indexing(self):
        rng = np.random.default_rng(9)
        image = HyperspectralImage(rng.normal(size=(5, 5, 2)))
        patch = patch_spectra(image, 2, 3, PatchSpec(3))
        expected = [image.data[2 + dr, 3 + dc]
                    for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
        np.testing.assert_array_equal(patch, expected)

    @pytest.mark.parametrize("side", [1, 2, 3, 4, 5, 10])
    @pytest.mark.parametrize("border", ["clamp", "mirror"])
    def test_patch_count_is_side_squared(self, side, border):
        rng = np.random.default_rng(10)
        image = HyperspectralImage(rng.normal(size=(6, 6, 2)))
        spec = PatchSpec(side, border)
        for r, c in [(0, 0), (3, 2), (5, 5)]:
            assert patch_spectra(image, r, c, spec).shape == (side * side, 2)

    def test_even_side_window_offsets(self):
        # s=2: offsets {0, +1} in each axis
        image = HyperspectralImage(np.arange(8.0).reshape(2, 4, 1))
        patch = patch_spectra(image, 0, 1, PatchSpec(2))
        np.testing.assert_array_equal(patch[:, 0], [1.0, 2.0, 5.0, 6.0])

    def test_mirror_border(self):
        image = HyperspectralImage(np.arange(3.0).reshape(1, 3, 1))
        patch = patch_spectra(image, 0, 0, PatchSpec(3, "mirror"))
        # row axis mirrors onto itself; col -1 reflects to 0
        np.testing.assert_array_equal(patch[:, 0], [0, 0, 1, 0, 0, 1, 0, 0, 1])

    @pytest.mark.parametrize("border, mode", [("clamp", "edge"), ("mirror", "symmetric")])
    def test_window_axis_is_the_padded_axis(self, border, mode):
        # sides up to 25 on axes of 1 to 9 pixels: a mirror wider than 2n
        # reflects more than once
        for n in range(1, 10):
            for side in range(1, 26):
                lo = (side - 1) // 2
                want = np.pad(np.arange(n), (lo, side - 1 - lo), mode=mode)
                got = window_axis(n, PatchSpec(side, border))
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "row, col",
        [(-1, 0), (0, -1), (4, 0), (0, 5), (1, -1),
         (1.5, 0), (0, 2.0), (np.float64(1.0), 1), (True, 0), ("1", 0)],
    )
    def test_pixel_outside_the_image_is_rejected_by_patch_window(self, row, col):
        # (0, 5) and (1, -1) would have flat indices inside the 4 x 5 image;
        # (1.5, 0) was read as pixel (1, 2), flat index 1.5 * 5 + 0 = 7.5
        with pytest.raises(ParameterError):
            patch_window(row, col, PatchSpec(3), 4, 5)

    @pytest.mark.parametrize("flat", [-1, 20, 10**6, 1.5, 2.0, np.float32(1.0)])
    def test_pixel_outside_the_image_is_rejected_by_patch_indices(self, flat):
        # 1.5 was cast to pixel 1
        with pytest.raises(ParameterError):
            patch_indices([0, flat], PatchSpec(3), 4, 5)
        with pytest.raises(ParameterError):
            patch_indices(np.array([flat]), PatchSpec(3), 4, 5)

    def test_boolean_indices_are_rejected_by_patch_indices(self):
        with pytest.raises(ParameterError):
            patch_indices(np.array([True, False]), PatchSpec(3), 4, 5)

    @pytest.mark.parametrize("row, col", [(200, 7), (np.int32(200), np.int64(7)), (np.uint8(200), np.uint8(7))])
    def test_integer_positions_of_any_type_are_read(self, row, col):
        # a uint8 row times the width overflows uint8
        want = patch_window(200, 7, PatchSpec(3), 300, 300)
        got = patch_window(row, col, PatchSpec(3), 300, 300)
        np.testing.assert_array_equal(np.stack(got), np.stack(want))
        np.testing.assert_array_equal(want[0][4], 200)
        for flat in ([60007], np.array([60007], dtype=np.int32), np.array([60007], dtype=np.uint32)):
            got = patch_indices(flat, PatchSpec(3), 300, 300)
            np.testing.assert_array_equal(got, patch_indices(np.array([60007]), PatchSpec(3), 300, 300))
        for empty in ([], np.array([], dtype=np.uint8)):  # no pixels, no windows
            assert patch_indices(empty, PatchSpec(3), 300, 300).shape == (0, 9)


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
