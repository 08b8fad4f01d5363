"""The streamed feature path against the dense feature table.

Unless the whole-image table fits in one block, the commands never
build it: they train on patch means of per-pixel features and score every
pixel in one pass of row bands, window-meaning the per-pixel scores with a
box filter that carries its prefix sums from band to band. These tests pin
the filter to the whole-image reference bit for bit, the banded scores to
``build_feature_table``, bound the memory of both commands, check that the
scoring pass does not grow with the run count and that the two paths give
the same outputs.
"""

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import hsembed
from hsembed import (
    BinarySeparator,
    ContractViolation,
    EmbeddingConfig,
    HyperspectralImage,
    MorphoProfileConfig,
    PatchSpec,
    SvmModel,
    build_feature_table,
    prepare_features,
)
from hsembed import cli, embedding, evaluation, hsi
from hsembed.embedding import METHODS, WINDOWED, _fuse, _minmax_scale_columns
from hsembed.evaluation import train_and_predict
from hsembed.hsi import patch_indices
from hsembed.morphology import morphological_profile
from hsembed.svm import SvmConfig, decision_matrix, train_multiclass
from oracles import sliding_window_mean_reference
from tracing import traced_peak

BANDS = 4
MP = MorphoProfileConfig(pca_dims=2, n_scales=1)


@st.composite
def streamed_cases(draw):
    """A small random image, a patch (sides may be even or exceed the image)
    and a row-block size that splits the image into several blocks."""
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9))
    side = draw(st.integers(1, 12))
    border = draw(st.sampled_from(["clamp", "mirror"]))
    seed = draw(st.integers(0, 2**16))
    block = draw(st.integers(1, 200))
    rng = np.random.default_rng(seed)
    cube = rng.random((h, w, BANDS)) + 0.05
    if draw(st.booleans()):
        cube[rng.integers(h), rng.integers(w)] = 0.0  # a zero spectrum
    config = EmbeddingConfig(
        patch=PatchSpec(side, border), n_features=6, seed=seed, sigma=0.8, beta=2.5
    )
    return HyperspectralImage(cube), config, block, rng


def pca_is_well_posed(image, dims=MP.pca_dims):
    """Whether the top ``dims`` variances of the centred pixels stand clear of
    rounding, of each other and of the next one. Otherwise the profile's PCA
    keeps a direction of rounding-level variance, or one of a tie, that
    min-max scaling blows up to O(1): such profile columns depend on the
    order the covariance is summed in, which follows the row blocks."""
    x = image.pixels()
    var = np.linalg.svd(x - x.mean(axis=0), compute_uv=False) ** 2
    var = np.concatenate([var, np.zeros(dims + 1)])[: dims + 1]
    return bool(np.all(-np.diff(var) > 1e-6 * var[0]))


def random_model(dim, rng, n_classes=3):
    """A one-vs-one model with random separators (no training needed)."""
    pairs = [(a, b) for a in range(1, n_classes + 1) for b in range(a + 1, n_classes + 1)]
    separators = [BinarySeparator(rng.normal(size=dim), float(rng.normal()), 1.0) for _ in pairs]
    return SvmModel(tuple(range(1, n_classes + 1)), pairs, separators, dim)


def random_dual(space, rng, k=3):
    """Fusion's support, the random training pixels (some may repeat) of one
    or two runs with their patch means, and random (T_r, k) dual
    coefficients for each run."""
    n = space.image.height * space.image.width
    runs = [rng.choice(n, size=int(rng.integers(1, 4))) for _ in range(rng.integers(1, 3))]
    train = np.concatenate(runs)
    return (train, space.patch_means(train)), [rng.normal(size=(run.size, k)) for run in runs]


def banded_scores(space, weights, support=None):
    """Every pixel's scores, from the bands of one scoring pass stacked in
    pixel order."""
    bands = list(space.scores(weights, support))
    sizes = [scores.shape[0] for _, scores in bands]
    assert [first for first, _ in bands] == [0, *np.cumsum(sizes)[:-1]]
    assert sum(sizes) == space.image.height * space.image.width
    return np.vstack([scores for _, scores in bands])


def banded_decisions(space, models):
    """Every pixel's decisions under the models (primal weights)."""
    weights = np.concatenate([m.weights for m in models], axis=1)
    return banded_scores(space, weights) + np.concatenate([m.biases for m in models])


@st.composite
def filter_cases(draw):
    """An (H, W, K) stack (sometimes scaled by 1e3), a side (possibly larger
    than the image), a border and a band height (1, side - 1, side, H or
    any)."""
    h = draw(st.integers(1, 16))
    w = draw(st.integers(1, 16))
    k = draw(st.integers(1, 5))
    side = draw(st.integers(1, 12))
    border = draw(st.sampled_from(["clamp", "mirror"]))
    band = draw(st.sampled_from([1, max(1, side - 1), side, h]) | st.integers(1, h))
    scale = draw(st.sampled_from([1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return rng.normal(size=(h, w, k)) * scale, side, border, min(band, h)


@settings(max_examples=300, deadline=None)
@given(filter_cases())
def test_banded_window_means_equal_the_whole_image_filter_bit_for_bit(case):
    stack, side, border, band = case
    h, w, k = stack.shape
    asked = []

    def rows_of(a, b, out):
        asked.append((a, b))
        out[...] = stack[a:b]

    bands = list(embedding._window_means(rows_of, h, w, k, PatchSpec(side, border), band))
    assert [first for first, _ in bands] == list(range(0, h, band))
    got = np.concatenate([means for _, means in bands])
    expected = sliding_window_mean_reference(stack.copy(), side, border)
    assert got.tobytes() == expected.tobytes()
    # every image row is asked for once, in order
    assert [r for a, b in asked for r in range(a, b)] == list(range(h))


@pytest.mark.parametrize("border", ["clamp", "mirror"])
@pytest.mark.parametrize("side", [2, 3, 6])
def test_banded_window_means_sum_each_padded_row_along_axis_1_once(side, border, monkeypatch):
    h, w, k = 13, 7, 3
    stack = np.random.default_rng(side).normal(size=(h, w, k))
    expected = sliding_window_mean_reference(stack.copy(), side, border).tobytes()
    summed = []  # rows of each axis-1 prefix sum
    cumsum = np.cumsum

    def counted(a, axis=None, **kwargs):
        if axis == 1:
            summed.append(a.shape[0])
        return cumsum(a, axis=axis, **kwargs)

    def rows_of(a, b, out):
        out[...] = stack[a:b]

    monkeypatch.setattr(np, "cumsum", counted)
    for band in range(1, side + 3):
        summed.clear()
        bands = embedding._window_means(rows_of, h, w, k, PatchSpec(side, border), band)
        assert np.concatenate([means for _, means in bands]).tobytes() == expected
        # whatever the band: the h + side - 1 padded rows, each summed once
        assert sum(summed) == h + side - 1


@pytest.mark.parametrize("band", [1, 2, 4, 13])
def test_banded_window_means_hold_no_earlier_band_while_the_next_is_made(band):
    h, w, k, side = 13, 7, 3, 3
    stack = np.random.default_rng(band).normal(size=(h, w, k))
    given = []  # weak references to the arrays the filter had filled

    def rows_of(a, b, out):
        assert all(ref() is None for ref in given)
        out[...] = stack[a:b]
        given.append(weakref.ref(out if out.base is None else out.base))

    for _, means in embedding._window_means(rows_of, h, w, k, PatchSpec(side), band):
        del means
    assert len(given) > 1 or band == h


@settings(max_examples=150, deadline=None)
@given(streamed_cases(), st.sampled_from(METHODS))
def test_streamed_decisions_equal_dense_table_decisions(case, method):
    image, config, block, rng = case
    assume(method not in ("mp", "mp_x_meanmap") or pca_is_well_posed(image))
    table = build_feature_table(image, method, config, MP)
    with mock.patch.object(hsi, "_BLOCK", block):
        space = prepare_features(image, method, config, MP)
        if space.dual:
            support, coefs = random_dual(space, rng)
            got = banded_scores(space, coefs, support)
            expected = table.values @ (table.values[support[0]].T @ block_diag(*coefs))
        else:
            models = [random_model(table.dim, rng), random_model(table.dim, rng)]
            got = banded_decisions(space, models)
            expected = np.hstack([decision_matrix(m, table.values) for m in models])
    assert space.meta == table.meta
    atol = 1e-9
    if method in ("rff", "meanmap"):
        # z times the weights in float32: each weight rounds by u, and the
        # 2N-term sum by gamma = 2N u / (1 - 2N u) of sum |z_j| |w_j|, with
        # every |z_j| (and so every window mean of them) at most zeta
        u = float(np.finfo(np.float32).eps) / 2
        gamma = table.dim * u / (1 - table.dim * u)
        zeta = np.sqrt(2.0 / table.dim) * (1 + u)
        weights = np.concatenate([m.weights for m in models], axis=1)
        atol += (gamma * (1 + u) + u) * zeta * np.abs(weights).sum(axis=0)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= atol)


@settings(max_examples=150, deadline=None)
@given(streamed_cases(), st.sampled_from([m for m in METHODS if m != "mp_x_meanmap"]))
def test_patch_training_rows_equal_table_rows(case, method):
    # per-pixel methods train through 1 x 1 windows
    image, config, block, rng = case
    assume(method != "mp" or pca_is_well_posed(image))
    n = image.height * image.width
    idx = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    table = build_feature_table(image, method, config, MP)
    with mock.patch.object(hsi, "_BLOCK", block):
        space = prepare_features(image, method, config, MP)
        rows = space.patch_means(idx)
    np.testing.assert_allclose(rows, table.values[idx], rtol=0, atol=1e-10)
    if method not in WINDOWED:
        # whatever the configured patch, the pixel rows themselves
        np.testing.assert_array_equal(rows, space.pixel_rows(idx))


@settings(max_examples=60, deadline=None)
@given(streamed_cases())
def test_fused_decisions_equal_explicit_tensor_rows(case):
    image, config, block, rng = case
    assume(pca_is_well_posed(image))
    profile = _minmax_scale_columns(morphological_profile(image, MP))
    mean_map = build_feature_table(image, "meanmap", config).values
    explicit = np.stack([_fuse(p[None, :], m[None, :])[0] for p, m in zip(profile, mean_map)])
    with mock.patch.object(hsi, "_BLOCK", block):
        space = prepare_features(image, "mp_x_meanmap", config, MP)
        support, coefs = random_dual(space, rng)
        got = banded_scores(space, coefs, support)
    train, means = support
    expected = explicit @ (explicit[train].T @ block_diag(*coefs))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)
    # the training rows factor the fused rows' Gram matrix
    rows = space.kernel_rows(train, means)
    assert rows.shape[1] <= train.size
    gram = explicit[train] @ explicit[train].T
    np.testing.assert_allclose(rows @ rows.T, gram, rtol=0, atol=1e-12)
    with pytest.raises(ContractViolation):
        next(space.scores(coefs))


@pytest.mark.parametrize("border", ["clamp", "mirror"])
@pytest.mark.parametrize("side", [2, 3, 15])
@pytest.mark.parametrize("method", WINDOWED)
def test_scores_do_not_depend_on_the_band_bit_for_bit(method, side, border, monkeypatch):
    # bands of the filter's ring rule, of one block of their widest array
    # (the widest a band may be), of one image row and, at a block of 60
    # values, of small feature blocks and fusion sub-blocks of a few pixels
    rng = np.random.default_rng(side)
    h, w = 21, 17
    image = HyperspectralImage(rng.random((h, w, BANDS)) + 0.05)
    config = EmbeddingConfig(patch=PatchSpec(side, border), n_features=6, sigma=0.8, beta=2.5)
    space = prepare_features(image, method, config, MP)
    if space.dual:
        support, weights = random_dual(space, rng)
        k, widest = sum(a.shape[1] for a in weights), max(space.row_dim, len(support[0]))
    else:
        support, weights = None, rng.normal(size=(space.row_dim, 5))
        k = widest = 5
    window_means, bands = embedding._window_means, []

    def scores(band=None):
        def fixed(rows_of, height, width, k, patch, rule):
            bands.append(rule)
            return window_means(rows_of, height, width, k, patch, band or rule)

        monkeypatch.setattr(embedding, "_window_means", fixed)
        return banded_scores(space, weights, support).tobytes()

    expected = scores()
    one_block = hsi.block_rows(w * max(widest, k))
    assert bands[-1] <= one_block
    assert scores(one_block) == expected
    assert scores(1) == expected
    monkeypatch.setattr(hsi, "_BLOCK", 60)
    assert scores() == expected
    if space.dual:  # the bands come in sub-blocks
        assert sum(1 for _ in space.scores(weights, support)) > -(-h // bands[-1])


@pytest.mark.parametrize(
    "w, pairs, band",
    [(145, 2400, 3), (145, 120, 8), (340, 36, 8)],
    ids=["paper-row-4", "ip-grid", "pu-classify"],
)
def test_score_bands_are_never_wider_than_one_block(w, pairs, band, monkeypatch):
    # at s = 15 the ring rule gives 8 image rows on both scene widths; 20
    # runs of 120 class pairs (paper row 4) fill one block with 3
    rng = np.random.default_rng(pairs)
    image = HyperspectralImage(rng.random((4, w, BANDS)) + 0.05)
    config = EmbeddingConfig(patch=PatchSpec(15), n_features=6, sigma=0.8)
    space = prepare_features(image, "meanmap", config)
    window_means, bands = embedding._window_means, []

    def recorded(*args):
        bands.append(args[-1])
        return window_means(*args)

    monkeypatch.setattr(embedding, "_window_means", recorded)
    for _ in space.scores(rng.normal(size=(12, pairs))):
        pass
    assert bands == [band]
    assert band <= hsi.block_rows(w * pairs)


def test_kernel_rows_of_a_repeated_pixel_drop_its_rank():
    rng = np.random.default_rng(9)
    image = HyperspectralImage(rng.random((7, 6, BANDS)) + 0.05)
    config = EmbeddingConfig(patch=PatchSpec(3), n_features=6, sigma=0.8)
    space = prepare_features(image, "mp_x_meanmap", config, MP)
    explicit = build_feature_table(image, "mp_x_meanmap", config, MP).values
    train = np.array([3, 17, 3, 40, 17, 25])  # two pixels twice
    rows = space.kernel_rows(train, space.patch_means(train))
    assert rows.shape == (6, 4)
    np.testing.assert_allclose(rows @ rows.T, explicit[train] @ explicit[train].T, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Memory: neither command holds a whole-image table larger than one block
# ---------------------------------------------------------------------------

SIDE, N_FEATURES = 3, 64  # table rows 128 wide against a 6-band cube


@pytest.fixture(scope="module")
def wide_scene(tmp_path_factory):
    base = tmp_path_factory.mktemp("wide")
    spec = {"height": 48, "width": 48, "bands": 6, "classes": 3,
            "region_scale": 10.0, "noise_sigma": 0.2, "seed": 3}
    (base / "scene.json").write_text(json.dumps(spec))
    assert cli.main(["synth", "--config", str(base / "scene.json"),
                     "--output", str(base / "scene")]) == 0
    config = {
        "seed": 3,
        "data": {"image": str(base / "scene" / "scene.hdr"),
                 "ground_truth": str(base / "scene" / "gt.csv")},
        "method": "meanmap",
        # a given sigma skips the median heuristic's pairwise distances
        "embedding": {"patch_side": SIDE, "n_features": N_FEATURES, "sigma": 1.0},
        "svm": {"c": 8.0},
        "protocol": {"runs": 2, "per_class": 3},
    }
    (base / "pipeline.json").write_text(json.dumps(config))
    return base


@pytest.mark.parametrize(
    "command, method",
    [pytest.param("classify", "meanmap", id="classify"),
     pytest.param("evaluate", "meanmap", id="evaluate"),
     pytest.param("classify", "mp_x_meanmap", id="classify-mp_x_meanmap"),
     pytest.param("evaluate", "mp_x_meanmap", id="evaluate-mp_x_meanmap")],
)
def test_peak_stays_below_the_dense_table(wide_scene, command, method, tmp_path):
    image = HyperspectralImage(np.zeros((48, 48, 6)))
    # also the size of the whole-image mean map that fusion once kept
    table_bytes = 48 * 48 * 2 * N_FEATURES * 8
    assert table_bytes >= 4 * image.data.nbytes
    config = json.loads((wide_scene / "pipeline.json").read_text())
    config.update(method=method, mp={"pca_dims": 2, "n_scales": 1})
    (tmp_path / "pipeline.json").write_text(json.dumps(config))
    argv = [command, "--config", str(tmp_path / "pipeline.json"), "--output", str(tmp_path)]
    # blocks of 64 pixel rows, so the block scratch is small against the image
    with mock.patch.object(hsi, "_BLOCK", 64 * 2 * N_FEATURES):
        peak = traced_peak(lambda: cli.main(argv))
    assert (tmp_path / "metrics.json").is_file()
    assert peak < table_bytes

    # the measurement sees a whole-image table when one is built
    config = EmbeddingConfig(patch=PatchSpec(SIDE), n_features=N_FEATURES, sigma=1.0)
    dense = traced_peak(lambda: build_feature_table(image, "meanmap", config))
    assert dense >= table_bytes


def test_dense_table_holds_the_table_and_a_few_blocks():
    # a 145 x 145 meanmap table of 512-wide rows (82.1 MiB), built in bands
    # of one block (14 rows): besides it the filter holds the image rows of a
    # band (1 block; the first band's 21, with its border rows, 1.5), the
    # band's means (1) and the ring of side + 1 prefix rows (16 x 160 x 512
    # values, 1.25 blocks), and while rows are read their float32 features
    # and spectra. Measured: 115.4 MiB (the table and 4.16 blocks of 8 MiB,
    # in the first band's read); run as one band, whose means were a second
    # table, it peaked at 173.9 MiB
    image = HyperspectralImage(np.random.default_rng(0).random((145, 145, 200)) + 0.05)
    config = EmbeddingConfig(patch=PatchSpec(15), n_features=256, sigma=1.0)
    peak = traced_peak(lambda: build_feature_table(image, "meanmap", config))
    assert peak <= 145 * 145 * 512 * 8 + 5 * hsi._BLOCK * 8


def test_fusion_peaks_below_cube_profile_and_a_few_blocks(tmp_path):
    # evaluate holds the cube (25 blocks here) and the profile; the rest is
    # the scoring pass's first band (its z, its means and the ring of prefix
    # rows), the per-pixel labels and class ids, and the ENVI read.
    # Measured 10.3 blocks above cube + profile; a centred copy of the cube
    # in the PCA read 26.3, and the 240 fused training rows (1.5 MB, 768
    # wide) 24.4, against the bound of 16
    spec = {"height": 64, "width": 64, "bands": 100, "classes": 3,
            "region_scale": 10.0, "noise_sigma": 0.2, "seed": 3}
    (tmp_path / "scene.json").write_text(json.dumps(spec))
    assert cli.main(["synth", "--config", str(tmp_path / "scene.json"),
                     "--output", str(tmp_path / "scene")]) == 0
    mp = {"pca_dims": 2, "n_scales": 1}
    config = {
        "seed": 3,
        "data": {"image": str(tmp_path / "scene" / "scene.hdr"),
                 "ground_truth": str(tmp_path / "scene" / "gt.csv")},
        "method": "mp_x_meanmap", "mp": mp,
        "embedding": {"patch_side": SIDE, "n_features": N_FEATURES, "sigma": 1.0},
        "svm": {"c": 8.0},
        "protocol": {"runs": 2, "per_class": 40},
    }
    (tmp_path / "pipeline.json").write_text(json.dumps(config))
    argv = ["evaluate", "--config", str(tmp_path / "pipeline.json"), "--output", str(tmp_path)]
    block = 1 << 14
    with mock.patch.object(hsi, "_BLOCK", block):
        peak = traced_peak(lambda: cli.main(argv))
    cube = 64 * 64 * 100 * 8
    profile = 64 * 64 * mp["pca_dims"] * (2 * mp["n_scales"] + 1) * 8
    assert peak < cube + profile + 16 * block * 8


# ---------------------------------------------------------------------------
# Many runs: one scoring pass, whatever the run count
# ---------------------------------------------------------------------------


def many_runs(rng, h, w, n_runs):
    """Labels in 1..3 and ``n_runs`` training sets of 2 pixels per class."""
    labels = rng.integers(1, 4, size=h * w)
    train_sets = [
        np.concatenate([rng.choice(np.flatnonzero(labels == c), 2, replace=False) for c in (1, 2, 3)])
        for _ in range(n_runs)
    ]
    return labels, train_sets


def test_many_runs_predict_what_each_run_predicts_alone():
    rng = np.random.default_rng(5)
    image = HyperspectralImage(rng.random((6, 7, BANDS)) + 0.05)
    labels, train_sets = many_runs(rng, 6, 7, 10)
    space = prepare_features(image, "meanmap", EmbeddingConfig(n_features=6, sigma=0.8))
    svm_cfg = SvmConfig(c=8.0)
    alone = [train_and_predict(space, labels, [idx], 3, svm_cfg)[0][0] for idx in train_sets]
    preds, _ = train_and_predict(space, labels, train_sets, 3, svm_cfg)
    np.testing.assert_array_equal(preds, np.stack(alone))


@pytest.mark.parametrize("method", ["rff", "meanmap", "convmeanmap", "mp_x_meanmap"])
def test_scoring_embeds_each_pixel_once_whatever_the_run_count(method, monkeypatch):
    rng = np.random.default_rng(6)
    h, w = 13, 11
    image = HyperspectralImage(rng.random((h, w, BANDS)) + 0.05)
    config = EmbeddingConfig(patch=PatchSpec(5), n_features=6, sigma=0.8, beta=2.5)
    space = prepare_features(image, method, config, MP)
    embedded, feature_matrix = [], embedding.feature_matrix

    def counted(fmap, xs):
        embedded.append(len(xs))
        return feature_matrix(fmap, xs)

    monkeypatch.setattr(embedding, "feature_matrix", counted)
    # bands of 1 to 9 image rows
    monkeypatch.setattr(hsi, "_BLOCK", 300)
    for n_runs in (1, 10):
        labels, train_sets = many_runs(rng, h, w, n_runs)
        embedded.clear()
        train = np.concatenate(train_sets)
        space.patch_means(train)
        training = sum(embedded)
        # each pixel of the union of the training windows, once
        assert training == np.unique(patch_indices(train, space.patch, h, w)).size
        embedded.clear()
        train_and_predict(space, labels, train_sets, 3, SvmConfig(c=8.0))
        assert sum(embedded) - training == h * w


@pytest.mark.parametrize("command", ["evaluate", "classify"])
@pytest.mark.parametrize("block", [64 * 2 * N_FEATURES, 1 << 20], ids=["streamed", "one-block"])
def test_streamed_fusion_fuses_no_pixel(wide_scene, tmp_path, monkeypatch, command, block):
    config = json.loads((wide_scene / "pipeline.json").read_text())
    config.update(method="mp_x_meanmap", mp={"pca_dims": 2, "n_scales": 1},
                  embedding=dict(config["embedding"], n_features=8))
    (tmp_path / "pipeline.json").write_text(json.dumps(config))
    fused, fuse = [], embedding._fuse

    def counted(profile_rows, mean_map_rows):
        fused.append(len(profile_rows))
        return fuse(profile_rows, mean_map_rows)

    monkeypatch.setattr(embedding, "_fuse", counted)
    monkeypatch.setattr(hsi, "_BLOCK", block)
    argv = [command, "--config", str(tmp_path / "pipeline.json"), "--output", str(tmp_path)]
    assert cli.main(argv) == 0
    # at N = 8 the 48 x 48 x 96 fused table would fit in one 1 << 20 block
    assert fused == []


def test_fusion_decisions_equal_a_model_on_explicit_fused_rows(monkeypatch):
    rng = np.random.default_rng(10)
    h, w = 12, 11
    image = HyperspectralImage(rng.random((h, w, BANDS)) + 0.05)
    labels, train_sets = many_runs(rng, h, w, 2)
    config = EmbeddingConfig(patch=PatchSpec(3), n_features=6, sigma=0.8)
    space = prepare_features(image, "mp_x_meanmap", config, MP)
    explicit = build_feature_table(image, "mp_x_meanmap", config, MP).values
    voted = []  # (model, decisions) of every band and run, in order

    def recorded(model, decisions):
        voted.append((model, decisions.copy()))
        return vote(model, decisions)

    vote = evaluation.vote
    monkeypatch.setattr(evaluation, "vote", recorded)
    monkeypatch.setattr(hsi, "_BLOCK", 300)  # several bands
    preds, _ = train_and_predict(space, labels, train_sets, 3, SvmConfig(c=8.0))
    assert len(voted) > 2 * 2
    for r, idx in enumerate(train_sets):
        model = train_multiclass(explicit[idx], labels[idx], 8.0, classes=[1, 2, 3])
        got = np.vstack([d for m, d in voted[r::2]])
        np.testing.assert_allclose(got, decision_matrix(model, explicit), rtol=0, atol=1e-9)
        np.testing.assert_array_equal(preds[r], vote(model, got))


def test_peak_of_many_runs_stays_below_their_score_image():
    rng = np.random.default_rng(7)
    h, w, n_runs = 96, 96, 10
    image = HyperspectralImage(rng.random((h, w, BANDS)) + 0.05)
    labels, train_sets = many_runs(rng, h, w, n_runs)
    config = EmbeddingConfig(patch=PatchSpec(SIDE), n_features=N_FEATURES, sigma=1.0)
    space = prepare_features(image, "meanmap", config)
    score_bytes = h * w * n_runs * 3 * 8  # 3 class pairs per run
    with mock.patch.object(hsi, "_BLOCK", 64 * 2 * N_FEATURES):
        peak = traced_peak(
            lambda: train_and_predict(space, labels, train_sets, 3, SvmConfig(c=8.0))
        )
    assert peak < score_bytes


def test_scoring_pass_peaks_within_about_half_a_score_block():
    # the README's float32 accounting of the streamed pass, in blocks. Bands
    # are 2 image rows here, by the ring rule at side 3 (one block would be
    # 33 rows). The pass peaks while a band's rows are read: the ring of
    # side + 1 prefix rows (1/8), the pass's own state (weights, class ids,
    # coefficients: about 1/10), the image rows the band holds (1/16), the
    # running axis-0 row (1/32), and the read's float32 z of 264 pixels and
    # its chunk of reduction scratch (1/32 each). No band, the last one too,
    # holds its rows while it is voted.
    # Measured: 2.01 MB (0.48 blocks of 4 MiB; 2.34 blocks with bands of one
    # block) against the bound of 0.52 blocks, so a new temporary of a
    # sixteenth of a block held across a read or while a band's means are
    # made fails
    rng = np.random.default_rng(8)
    h = w = 132
    image = HyperspectralImage(rng.random((h, w, 10)) + 0.05)
    labels = rng.integers(1, 17, size=h * w)
    train = np.concatenate(
        [rng.choice(np.flatnonzero(labels == c), 3, replace=False) for c in range(1, 17)]
    )
    config = EmbeddingConfig(patch=PatchSpec(SIDE), n_features=N_FEATURES, sigma=1.0)
    space = prepare_features(image, "meanmap", config)
    block = 1 << 19
    bands = []
    window_means = embedding._window_means

    def counted(*args):
        for first, means in window_means(*args):
            bands.append(first)
            yield first, means
            del means  # the filter's own rule: no band is held while the next is made

    # 120 class pairs: bands of 2 image rows, read 264 pixels at a time
    with mock.patch.object(hsi, "_BLOCK", block), \
            mock.patch.object(embedding, "_window_means", counted):
        peak = traced_peak(
            lambda: train_and_predict(space, labels, [train], 16, SvmConfig(c=8.0))
        )
    assert len(bands) >= 4
    # the cube was allocated before the call, so the trace leaves it out
    assert peak <= 0.52 * block * 8  # 0.52 blocks of 8-byte values


def test_feature_blocks_are_sized_by_the_spectra_when_they_are_wider():
    # N = 32 on a 200-band cube: a feature block's spectra, not its 64-wide
    # features, are its widest array. With blocks of one block's spectra the
    # pass holds two of them (the spectra and their unit rows, or the squares
    # that their norms sum), beside the band's rows of scores, the features,
    # their projection and numpy's 64 KiB ufunc buffers: measured 2.25
    # blocks; sized by the features, the
    # spectra were 200 / 64 blocks each, and the pass peaked at 9.5 blocks
    rng = np.random.default_rng(11)
    image = HyperspectralImage(rng.random((64, 64, 200)) + 0.05)
    config = EmbeddingConfig(patch=PatchSpec(3), n_features=32, sigma=1.0)
    space = prepare_features(image, "meanmap", config)
    weights = rng.normal(size=(64, 3))
    block = 1 << 15  # the cube is 25 blocks

    def scoring_pass():
        for _, scores in space.scores(weights):
            del scores

    with mock.patch.object(hsi, "_BLOCK", block):
        peak = traced_peak(scoring_pass)
    assert peak <= 5 * block * 8


# ---------------------------------------------------------------------------
# Dense or streamed: the commands' choice and its agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command, outputs",
    [("classify", ["predictions.csv", "map.ppm", "metrics.json"]), ("evaluate", ["metrics.json"])],
)
def test_streamed_commands_match_the_dense_path(wide_scene, command, outputs, tmp_path, monkeypatch):
    built = []

    def counted(*args):
        built.append(args[1])
        return build_feature_table(*args)

    def run(out):
        argv = [command, "--config", str(wide_scene / "pipeline.json"), "--output", str(out)]
        assert cli.main(argv) == 0

    monkeypatch.setattr(evaluation, "build_feature_table", counted)
    run(tmp_path / "dense")  # a 48 x 48 x 128 table fits in one block
    assert built == ["meanmap"]
    with mock.patch.object(hsi, "_BLOCK", 64 * 2 * N_FEATURES):
        run(tmp_path / "streamed")
    assert built == ["meanmap"]
    for name in outputs:
        dense, streamed = (tmp_path / path / name for path in ("dense", "streamed"))
        assert dense.read_bytes() == streamed.read_bytes()


# each argument triple is a command, a pipeline config and its output directory
RUN_STREAMED = """
import sys
from unittest import mock
from hsembed import cli, hsi

with mock.patch.object(hsi, "_BLOCK", int(sys.argv[1])):
    for command, config, out in zip(*[iter(sys.argv[2:])] * 3):
        assert cli.main([command, "--config", config, "--output", out]) == 0
"""


def test_metrics_do_not_depend_on_the_blas_thread_count(wide_scene, tmp_path):
    runs = []  # (command, config)
    for method in ("meanmap", "mp_x_meanmap"):
        config = json.loads((wide_scene / "pipeline.json").read_text())
        config.update(method=method, mp={"pca_dims": 2, "n_scales": 1})
        runs.append(("evaluate", tmp_path / f"{method}.json"))
        runs[-1][1].write_text(json.dumps(config))
    # classify scores every pixel through the float32 product of z and the weights
    runs.append(("classify", runs[0][1]))
    src = str(Path(hsembed.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")])))
    # bands of 16 image rows, so both methods stream and their products are large
    # enough for a second BLAS thread
    argv = [sys.executable, "-c", RUN_STREAMED, str(16 * 48 * 2 * N_FEATURES)]
    for threads in ("1", "2"):
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        triples = [
            str(arg)
            for command, path in runs
            for arg in (command, path, tmp_path / threads / f"{command}-{path.stem}")
        ]
        subprocess.run(argv + triples, env=env, check=True, timeout=120)
    for command, path in runs:
        names = ["metrics.json"] + (["predictions.csv", "map.ppm"] if command == "classify" else [])
        for name in names:
            one, two = (tmp_path / t / f"{command}-{path.stem}" / name for t in ("1", "2"))
            assert one.read_bytes() == two.read_bytes(), name
