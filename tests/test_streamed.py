"""The streamed feature path against the dense feature table.

Unless the whole-image table fits in one score block, the commands never
build it: they train on patch means of per-pixel features and score every
pixel by window-meaning the per-pixel scores. These tests pin that path to
``build_feature_table``, bound the memory of both commands, check that many
runs are scored in groups and that the two paths give the same outputs.
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
from hsembed.evaluation import pixel_decisions, train_and_predict
from hsembed.morphology import morphological_profile
from hsembed.svm import SvmConfig, decision_matrix

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


@settings(max_examples=150, deadline=None)
@given(streamed_cases(), st.sampled_from(METHODS))
def test_streamed_decisions_equal_dense_table_decisions(case, method):
    image, config, block, rng = case
    table = build_feature_table(image, method, config, MP)
    models = [random_model(table.dim, rng), random_model(table.dim, rng)]
    expected = np.hstack([decision_matrix(m, table.values) for m in models])
    with mock.patch.object(embedding, "_SCORE_BLOCK", block):
        space = prepare_features(image, method, config, MP)
        got = pixel_decisions(space, models)
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
        got = pixel_decisions(space, [model])
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


@pytest.mark.parametrize("command", ["classify", "evaluate"])
def test_peak_stays_below_the_dense_table(wide_scene, command, tmp_path):
    image = HyperspectralImage(np.zeros((48, 48, 6)))
    table_bytes = 48 * 48 * 2 * N_FEATURES * 8
    assert table_bytes >= 4 * image.data.nbytes
    argv = [command, "--config", str(wide_scene / "pipeline.json"), "--output", str(tmp_path)]
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
# Many runs: scored in groups no wider than a table row
# ---------------------------------------------------------------------------


def test_runs_are_scored_in_groups_no_wider_than_a_row(monkeypatch):
    rng = np.random.default_rng(5)
    image = HyperspectralImage(rng.random((6, 7, BANDS)) + 0.05)
    labels = rng.integers(1, 4, size=6 * 7)
    train_sets = [
        np.concatenate([rng.choice(np.flatnonzero(labels == c), 2, replace=False) for c in (1, 2, 3)])
        for _ in range(10)
    ]
    space = prepare_features(image, "meanmap", EmbeddingConfig(n_features=6, sigma=0.8))
    svm_cfg = SvmConfig(c=8.0)
    alone = [train_and_predict(space, labels, [idx], 3, svm_cfg)[0][0] for idx in train_sets]

    widths = []

    def recorded(space, models):
        decisions = pixel_decisions(space, models)
        widths.append(decisions.shape[1])
        return decisions

    monkeypatch.setattr(evaluation, "pixel_decisions", recorded)
    preds, _ = train_and_predict(space, labels, train_sets, 3, svm_cfg)
    assert space.row_dim == 12 and widths == [12, 12, 6]  # 4 + 4 + 2 runs of 3 pairs
    np.testing.assert_array_equal(preds, np.stack(alone))


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
