"""The numpy forms of what scipy used to compute, against scipy itself, which
is a test dependency only: the median heuristic against ``np.median`` of
``pdist``, the patch means against the CSC product of the window counts
(to a rounding bound; bit for bit against their plain-loop reference),
the pivoted Cholesky factor against LAPACK ``dpstrf``'s rank and the
Gaussian Gram against ``cdist``. No command imports scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.linalg.lapack import dpstrf
from scipy.sparse import csc_matrix
from scipy.spatial.distance import cdist, pdist

import hsembed
from hsembed import EmbeddingConfig, HyperspectralImage, MorphoProfileConfig, PatchSpec
from hsembed import embedding, hsi, prepare_features
from hsembed.bounds import gaussian_gram
from hsembed.embedding import METHODS, WINDOWED, median_heuristic
from hsembed.errors import ShapeError
from hsembed.hsi import patch_indices, row_blocks, unit_rows
from oracles import patch_means_reference

MP = MorphoProfileConfig(pca_dims=2, n_scales=1)
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# median_heuristic
# ---------------------------------------------------------------------------


def pdist_median(image, seed):
    """The median heuristic as scipy computes it, on the same sample."""
    pixels = image.pixels()
    take = min(1000, len(pixels))
    idx = np.random.default_rng(seed).choice(len(pixels), size=take, replace=False)
    med = float(np.median(pdist(unit_rows(pixels[idx])[0]))) if take > 1 else 0.0
    return med if med > 0 else 1.0


def scene(shape, distinct=None):
    """A random cube, or one whose pixels are drawn from ``distinct`` spectra."""
    rng = np.random.default_rng(sum(shape))
    if distinct is None:
        return HyperspectralImage(rng.random(shape) + 0.05)
    spectra = rng.random((distinct, shape[2])) + 0.05
    return HyperspectralImage(spectra[rng.integers(0, distinct, shape[:2])])


MEDIAN_CASES = {
    "n=2, one pair": ((1, 2, 5), None),
    "n=3, odd pair count": ((1, 3, 5), None),
    "n=4, even pair count": ((2, 2, 5), None),
    "duplicate rows": ((6, 7, 4), 5),
    "ties at the median, two spectra": ((20, 20, 3), 2),
    "1,000 of 1,600 pixels": ((40, 40, 30), None),
    "1,000 of 1,600 pixels, three spectra, a tie at the median": ((40, 40, 30), 3),
    "200 bands": ((12, 12, 200), None),
    "all identical": ((5, 6, 4), 1),
}


@pytest.mark.parametrize("block", [1 << 20, 1 << 12])  # small: many row blocks and chunks
@pytest.mark.parametrize("case", MEDIAN_CASES)
def test_median_heuristic_is_the_pdist_median_bit_for_bit(case, block):
    shape, distinct = MEDIAN_CASES[case]
    image = scene(shape, distinct)
    exact = mock.Mock(wraps=hsi.squared_distances)
    for seed in (0, 1, 2):
        with mock.patch.object(hsi, "_BLOCK", block), \
                mock.patch.object(embedding, "squared_distances", exact):
            got = median_heuristic(image, seed)
        assert same_bits(got, pdist_median(image, seed))
    if distinct == 1:  # the fallback, before any distance is summed
        assert got == 1.0
        assert exact.call_count == 0


def test_median_heuristic_orders_near_ties_by_their_exact_distances():
    # the vertices of a simplex moved by about 1e-15: every squared distance
    # is 2 to within a few ulps, so the Gram estimates misorder some, and
    # only the exact sums of the whole window around the middle ranks decide
    for s in range(20):
        rng = np.random.default_rng(s)
        cube = np.eye(36, 40) + rng.normal(size=(36, 40)) * 1e-15 * rng.random()
        image = HyperspectralImage(cube.reshape(6, 6, 40))
        for seed in range(3):
            assert same_bits(median_heuristic(image, seed), pdist_median(image, seed))


# ---------------------------------------------------------------------------
# FeatureSpace.patch_means
# ---------------------------------------------------------------------------


def csc_patch_means(space, idx):
    """Patch means as the CSC product of the (pixels, members) window counts
    with each block of member rows."""
    idx = np.asarray(idx, dtype=np.int64)
    windows = patch_indices(idx, space.patch, space.image.height, space.image.width)
    members, where = np.unique(windows.ravel(), return_inverse=True)
    owners = np.repeat(np.arange(idx.size), windows.shape[1])
    counts = csc_matrix((np.ones(windows.size), (owners, where)), shape=(idx.size, members.size))
    rows = np.zeros((idx.size, space.row_dim))
    for a, b in row_blocks(members.size, max(space.row_dim, space.image.bands)):
        rows += counts[:, a:b] @ space.pixel_rows(members[a:b])
    rows /= windows.shape[1]
    return rows


@pytest.mark.parametrize("block", [1 << 20, 333, 1001])  # odd blocks split the members unevenly
@pytest.mark.parametrize("side", [2, 3, 5])
@pytest.mark.parametrize("border", ["clamp", "mirror"])
@pytest.mark.parametrize("method", METHODS)
def test_patch_means_are_the_reference_sums_and_the_csc_product_to_rounding(
    method, border, side, block
):
    rng = np.random.default_rng(side)
    h, w = 9, 11
    image = HyperspectralImage(rng.random((h, w, 6)) + 0.05)
    config = EmbeddingConfig(patch=PatchSpec(side, border), n_features=8, sigma=0.7)
    space = prepare_features(image, method, config, MP)
    magnitudes = np.abs(space.pixel_rows(np.arange(h * w)).astype(np.float64))
    corners = np.array([0, w - 1, (h - 1) * w, h * w - 1])
    others = rng.choice(np.setdiff1d(np.arange(h * w), corners), 30, replace=False)
    for idx in (np.concatenate([corners, others]), np.array([], dtype=np.int64)):
        with mock.patch.object(hsi, "_BLOCK", block):
            got, csc = space.patch_means(idx), csc_patch_means(space, idx)
        assert got.shape == (idx.size, space.row_dim)
        assert same_bits(got, patch_means_reference(space, idx))
        # both sum the window's n = side^2 rows z (with their repeats) from
        # zero in some order, and the CSC form rounds each v z once more:
        # each sum is within gamma_(n+1) sum |z| of the exact one (Higham,
        # "Accuracy and Stability of Numerical Algorithms", 2002, 4.2), and
        # the division by n rounds once more, so the means differ by at
        # most 2 gamma_(n+2) times the window mean of |z|
        windows = patch_indices(idx, space.patch, h, w)
        n = windows.shape[1]
        gamma = (n + 2) * UNIT_ROUNDOFF / (1 - (n + 2) * UNIT_ROUNDOFF)
        assert np.all(np.abs(got - csc) <= 2 * gamma * magnitudes[windows].mean(axis=1))
    if method in WINDOWED:  # some corner window holds a pixel more than once
        windows = patch_indices(corners, space.patch, h, w)
        assert max(np.unique(window, return_counts=True)[1].max() for window in windows) > 1


# ---------------------------------------------------------------------------
# FeatureSpace.kernel_rows
# ---------------------------------------------------------------------------


def gram_of(rows):
    return rows @ rows.T


def hadamard_gram(rng, n, p, m):
    return gram_of(rng.normal(size=(n, p))) * gram_of(rng.random((n, m)))


GRAMS = {
    "full rank, two panels": lambda rng: gram_of(rng.normal(size=(90, 120))),
    "full rank, scales 1e-4 to 1e4": lambda rng: gram_of(
        rng.normal(size=(40, 60)) * np.logspace(-2, 2, 40)[:, None]
    ),
    "rank 12 of 150": lambda rng: gram_of(rng.normal(size=(150, 12))),
    "fusion-like product of ranks 4 and 6": lambda rng: hadamard_gram(rng, 130, 4, 6),
    "repeated pixels": lambda rng: gram_of(rng.normal(size=(40, 50))[rng.integers(0, 40, 100)]),
    "one pixel": lambda rng: gram_of(rng.normal(size=(1, 3))),
    "zero": lambda rng: np.zeros((5, 5)),
}


@pytest.mark.parametrize("panel", [64, 5])
@pytest.mark.parametrize("case", GRAMS)
def test_pivoted_cholesky_factors_the_gram_at_the_rank_of_dpstrf(case, panel):
    gram = GRAMS[case](np.random.default_rng(len(case)))
    with mock.patch.object(embedding, "_PANEL", panel), mock.patch.object(hsi, "_BLOCK", 1 << 10):
        rows = embedding._pivoted_cholesky(gram.copy())
    assert rows.shape == (len(gram), dpstrf(gram, lower=1)[2])
    assert np.abs(rows @ rows.T - gram).max() <= 1e-12 * np.abs(gram).max()


# ---------------------------------------------------------------------------
# bounds.gaussian_gram
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3, 17, 200])
def test_gaussian_gram_is_the_cdist_gram_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    x, y = rng.normal(size=(13, dim)) * 3.0, rng.normal(size=(7, dim))
    for bandwidth in (0.3, 1.0, 7.5):
        expected = np.exp(-0.5 * cdist(x, y, "sqeuclidean") / bandwidth**2)
        assert same_bits(gaussian_gram(x, y, bandwidth), expected)
    # a 1-D point set is one point
    expected = np.exp(-0.5 * cdist(x[:1], y, "sqeuclidean") / 2.0**2)
    assert same_bits(gaussian_gram(x[0], y, 2.0), expected)


def test_gaussian_gram_refuses_point_sets_of_unequal_dimension():
    with pytest.raises(ShapeError):
        gaussian_gram(np.zeros((2, 3)), np.zeros((2, 4)), 1.0)


# ---------------------------------------------------------------------------
# No command imports scipy
# ---------------------------------------------------------------------------

RUN_COMMANDS = r"""
import json, sys
from pathlib import Path
import hsembed
from hsembed.cli import main
out = Path(sys.argv[1])
spec = {"height": 12, "width": 12, "bands": 5, "classes": 3,
        "region_scale": 4.0, "noise_sigma": 0.1, "seed": 2}
(out / "scene.json").write_text(json.dumps(spec))
assert main(["synth", "--config", str(out / "scene.json"), "--output", str(out / "scene")]) == 0
data = {"image": str(out / "scene" / "scene.hdr"), "ground_truth": str(out / "scene" / "gt.csv")}
for command, method in (("classify", "meanmap"), ("evaluate", "mp_x_meanmap")):
    config = {"seed": 2, "data": data, "method": method, "mp": {"pca_dims": 2, "n_scales": 1},
              "embedding": {"patch_side": 3, "n_features": 16}, "svm": {"c": 8.0},
              "protocol": {"runs": 2, "per_class": 4}}
    (out / f"{command}.json").write_text(json.dumps(config))
    assert main([command, "--config", str(out / f"{command}.json"), "--output", str(out / command)]) == 0
theory = {"seed": 6, "meta": {"n_groups": 4, "group_size": 8, "dim": 3},
          "features": {"count": 16}, "predictors": {"count": 3}, "trials": 1,
          "bound": {"rademacher_draws": 100, "holdout_draws": 200, "dictionary_size": 16}}
(out / "theory.json").write_text(json.dumps(theory))
assert main(["theory", "--config", str(out / "theory.json"), "--output", str(out / "theory")]) == 0
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_commands_import_no_scipy(tmp_path):
    src = str(Path(hsembed.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", RUN_COMMANDS, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
