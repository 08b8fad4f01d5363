"""The streamed feature path against the dense feature table.

Unless the whole-image table fits in one score block, the commands never
build it: they train on patch means of per-pixel features and score every
pixel in one pass of row bands, window-meaning the per-pixel scores with a
box filter that carries its prefix sums from band to band. These tests pin
the filter to the whole-image reference bit for bit, the banded scores to
``build_feature_table``, bound the memory of both commands, check that the
scoring pass does not grow with the run count and that the two paths give
the same outputs.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsembed import (
    BinarySeparator,
    EmbeddingConfig,
    HyperspectralImage,
    MorphoProfileConfig,
    PatchSpec,
    PixelFeature,
    SvmModel,
    build_feature_table,
    prepare_features,
    tensor_product_features,
)
from hsembed import cli, embedding, evaluation
from hsembed.embedding import METHODS, WINDOWED, _minmax_scale_columns
from hsembed.evaluation import train_and_predict
from hsembed.morphology import morphological_profile
from hsembed.svm import SvmConfig, decision_matrix
from oracles import sliding_window_mean_reference

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


def random_model(dim, rng, n_classes=3):
    """A one-vs-one model with random separators (no training needed)."""
    pairs = [(a, b) for a in range(1, n_classes + 1) for b in range(a + 1, n_classes + 1)]
    separators = [BinarySeparator(rng.normal(size=dim), float(rng.normal()), 1.0) for _ in pairs]
    return SvmModel(tuple(range(1, n_classes + 1)), pairs, separators, dim)


def banded_decisions(space, models):
    """Every pixel's decisions under the models, from the bands of one
    scoring pass stacked in pixel order."""
    weights = np.concatenate([m.weights for m in models], axis=1)
    bands = list(space.scores(weights))
    sizes = [scores.shape[0] for _, scores in bands]
    assert [first for first, _ in bands] == [0, *np.cumsum(sizes)[:-1]]
    assert sum(sizes) == space.image.height * space.image.width
    return np.vstack([scores for _, scores in bands]) + np.concatenate([m.biases for m in models])


@st.composite
def filter_cases(draw):
    """An (H, W, K) stack (sometimes scaled by 1e3), a side (possibly larger
    than the image), a border, a band height (1, side - 1, side, H or any)
    and a score block that splits the columns into groups."""
    h = draw(st.integers(1, 16))
    w = draw(st.integers(1, 16))
    k = draw(st.integers(1, 5))
    side = draw(st.integers(1, 12))
    border = draw(st.sampled_from(["clamp", "mirror"]))
    band = draw(st.sampled_from([1, max(1, side - 1), side, h]) | st.integers(1, h))
    block = draw(st.integers(1, 4000))
    scale = draw(st.sampled_from([1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return rng.normal(size=(h, w, k)) * scale, side, border, min(band, h), block


@settings(max_examples=300, deadline=None)
@given(filter_cases())
def test_banded_window_means_equal_the_whole_image_filter_bit_for_bit(case):
    stack, side, border, band, block = case
    h, w, k = stack.shape
    asked = []

    def rows_of(a, b):
        asked.append((a, b))
        return stack[a:b].copy()

    with mock.patch.object(embedding, "_SCORE_BLOCK", block):
        bands = list(embedding._window_means(rows_of, h, w, k, side, border, band))
    assert [first for first, _ in bands] == list(range(0, h, band))
    got = np.concatenate([means for _, means in bands])
    expected = sliding_window_mean_reference(stack.copy(), side, border)
    assert got.tobytes() == expected.tobytes()
    # every image row is asked for once, in order
    assert [r for a, b in asked for r in range(a, b)] == list(range(h))


@settings(max_examples=150, deadline=None)
@given(streamed_cases(), st.sampled_from(METHODS))
def test_streamed_decisions_equal_dense_table_decisions(case, method):
    image, config, block, rng = case
    table = build_feature_table(image, method, config, MP)
    models = [random_model(table.dim, rng), random_model(table.dim, rng)]
    expected = np.hstack([decision_matrix(m, table.values) for m in models])
    with mock.patch.object(embedding, "_SCORE_BLOCK", block):
        space = prepare_features(image, method, config, MP)
        got = banded_decisions(space, models)
    assert space.meta == table.meta
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(streamed_cases(), st.sampled_from(WINDOWED))
def test_patch_training_rows_equal_table_rows(case, method):
    image, config, block, rng = case
    n = image.height * image.width
    idx = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    table = build_feature_table(image, method, config)
    with mock.patch.object(embedding, "_SCORE_BLOCK", block):
        rows = prepare_features(image, method, config).table_rows(idx)
    np.testing.assert_allclose(rows, table.values[idx], rtol=0, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(streamed_cases())
def test_fused_decisions_equal_explicit_tensor_rows(case):
    image, config, block, rng = case
    profile = _minmax_scale_columns(morphological_profile(image, MP))
    mean_map = build_feature_table(image, "meanmap", config).values
    explicit = np.stack([
        tensor_product_features(PixelFeature(p, "mp"), PixelFeature(m, "meanmap")).values
        for p, m in zip(profile, mean_map)
    ])
    model = random_model(explicit.shape[1], rng)
    with mock.patch.object(embedding, "_SCORE_BLOCK", block):
        space = prepare_features(image, "mp_x_meanmap", config, MP)
        got = banded_decisions(space, [model])
    np.testing.assert_allclose(got, decision_matrix(model, explicit), rtol=0, atol=1e-9)
    train = rng.choice(profile.shape[0], size=3)
    np.testing.assert_allclose(space.table_rows(train), explicit[train], rtol=0, atol=1e-12)


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


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    with mock.patch.object(embedding, "_SCORE_BLOCK", 64 * 2 * N_FEATURES):
        peak = traced_peak(lambda: cli.main(argv))
    assert (tmp_path / "metrics.json").is_file()
    assert peak < table_bytes

    # the measurement sees a whole-image table when one is built
    config = EmbeddingConfig(patch=PatchSpec(SIDE), n_features=N_FEATURES, sigma=1.0)
    dense = traced_peak(lambda: build_feature_table(image, "meanmap", config))
    assert dense >= table_bytes


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
    monkeypatch.setattr(embedding, "_SCORE_BLOCK", 300)
    for n_runs in (1, 10):
        labels, train_sets = many_runs(rng, h, w, n_runs)
        embedded.clear()
        space.table_rows(np.concatenate(train_sets))
        training = sum(embedded)
        embedded.clear()
        train_and_predict(space, labels, train_sets, 3, SvmConfig(c=8.0))
        assert sum(embedded) - training == h * w


def test_peak_of_many_runs_stays_below_their_score_image():
    rng = np.random.default_rng(7)
    h, w, n_runs = 96, 96, 10
    image = HyperspectralImage(rng.random((h, w, BANDS)) + 0.05)
    labels, train_sets = many_runs(rng, h, w, n_runs)
    config = EmbeddingConfig(patch=PatchSpec(SIDE), n_features=N_FEATURES, sigma=1.0)
    space = prepare_features(image, "meanmap", config)
    score_bytes = h * w * n_runs * 3 * 8  # 3 class pairs per run
    with mock.patch.object(embedding, "_SCORE_BLOCK", 64 * 2 * N_FEATURES):
        peak = traced_peak(
            lambda: train_and_predict(space, labels, train_sets, 3, SvmConfig(c=8.0))
        )
    assert peak < score_bytes


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
    run(tmp_path / "dense")  # a 48 x 48 x 128 table fits in one score block
    assert built == ["meanmap"]
    with mock.patch.object(embedding, "_SCORE_BLOCK", 64 * 2 * N_FEATURES):
        run(tmp_path / "streamed")
    assert built == ["meanmap"]
    for name in outputs:
        dense, streamed = (tmp_path / path / name for path in ("dense", "streamed"))
        assert dense.read_bytes() == streamed.read_bytes()
