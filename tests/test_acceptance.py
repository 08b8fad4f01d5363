"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The final criterion
needs externally obtained benchmark datasets and is skipped unless the
corresponding environment variables point at them (see its docstring).
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from hsembed import (
    EmbeddingConfig,
    ClassifierSpec,
    HyperspectralImage,
    McProtocol,
    MorphoProfileConfig,
    PatchSpec,
    SceneSpec,
    average_accuracy,
    build_feature_table,
    check_combined_risk_bound,
    check_embedding_gap_bound,
    close_by_reconstruction,
    closing,
    confusion_matrix,
    dilate,
    disk,
    embedding_deviation_gaussian,
    erode,
    exact_gaussian_kernel,
    generate_synthetic_scene,
    kappa,
    load_envi,
    load_ground_truth,
    median_heuristic,
    monte_carlo_protocol,
    normalize_spectra,
    open_by_reconstruction,
    opening,
    overall_accuracy,
    sample_frequencies,
    train_binary,
)
from hsembed.bounds import (
    BoundConfig,
    LossSpec,
    MetaSampleSpec,
    draw_meta_sample,
    sample_linear_predictors,
)
from hsembed.embedding import conv_mean_map_feature, mean_map_feature
from hsembed.evaluation import run_split
from hsembed.hsi import patch_window
from hsembed.rff import feature_matrix
from hsembed.svm import SvmConfig, cross_validate, default_c_grid, train_multiclass, predict_table
from oracles import jacobi_eigh


def report(number, elapsed, limit, detail):
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {number:02d} PASS ({elapsed:.1f}s < {limit:.0f}s): {detail}")


def test_criterion_01_rff_fidelity():
    """Random-feature kernel estimates track the exact Gaussian kernel."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    image = HyperspectralImage(rng.random((40, 25, 10)))
    sigma = median_heuristic(image, seed=101)
    fmap = sample_frequencies(10, 4096, sigma, seed=101)
    pixels = normalize_spectra(image).spectra(slice(None))
    idx = rng.choice(pixels.shape[0], size=(100, 2), replace=False)
    za = feature_matrix(fmap, pixels[idx[:, 0]])
    zb = feature_matrix(fmap, pixels[idx[:, 1]])
    approx = np.einsum("ij,ij->i", za, zb)
    exact = np.array(
        [exact_gaussian_kernel(pixels[i], pixels[j], sigma) for i, j in idx]
    )
    errors = np.abs(approx - exact)
    assert errors.max() <= 0.1
    assert errors.mean() <= 0.03
    report(1, time.perf_counter() - t0, 5.0,
           f"max |k_hat - k| = {errors.max():.4f}, mean = {errors.mean():.4f}")


def test_criterion_02_meanmap_degenerate_equivalence():
    """Single-pixel patches reduce the mean map to plain point features."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    spec = SceneSpec(20, 20, 8, 3, rng.random((3, 8)), region_scale=6.0,
                     noise_sigma=0.2, seed=102)
    image, _ = generate_synthetic_scene(spec)
    cfg = EmbeddingConfig(patch=PatchSpec(1), n_features=256, seed=102)
    mm = build_feature_table(image, "meanmap", cfg)
    rf = build_feature_table(image, "rff", cfg)
    diff = np.max(np.abs(mm.values - rf.values))
    assert diff <= 1e-12
    report(2, time.perf_counter() - t0, 5.0, f"max entry diff = {diff:.2e}")


def test_criterion_03_double_sum_oracles():
    """Feature dot products equal the brute-force kernel double sums."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    spec = SceneSpec(16, 16, 6, 3, rng.random((3, 6)) + 0.2, region_scale=6.0,
                     noise_sigma=0.3, seed=103)
    image, _ = generate_synthetic_scene(spec)
    patch_spec = PatchSpec(3)
    cfg = EmbeddingConfig(patch=patch_spec, sigma=0.8, beta=5.0, n_features=512, seed=103)
    fmap_mm = sample_frequencies(6, 512, cfg.sigma, seed=103)
    fmap_cn = sample_frequencies(8, 512, 1.0, seed=103)

    worst_uniform = 0.0
    worst_weighted = 0.0
    pairs = rng.integers(0, 16, size=(20, 2, 2))
    for (r1, c1), (r2, c2) in pairs:
        windows = []
        for r, c in ((r1, c1), (r2, c2)):
            rr, cc = patch_window(int(r), int(c), patch_spec, 16, 16)
            spectra = image.data[rr, cc, :]
            positions = np.stack([rr, cc], axis=1).astype(float)
            windows.append((spectra, positions))

        # uniform mean map against (1/81) double sum of feature kernels
        units = []
        for spectra, _ in windows:
            norms = np.linalg.norm(spectra, axis=1, keepdims=True)
            units.append(spectra / np.where(norms > 0, norms, 1.0))
        a = mean_map_feature(fmap_mm, units[0])
        b = mean_map_feature(fmap_mm, units[1])
        # z widened to float64, as the mean maps sum it
        za, zb = (feature_matrix(fmap_mm, u).astype(np.float64) for u in units)
        brute = sum(float(za[i] @ zb[j]) for i in range(9) for j in range(9)) / 81.0
        worst_uniform = max(worst_uniform, abs(float(a.values @ b.values) - brute))

        # weighted convolutional map against its weighted double sum
        ca = conv_mean_map_feature(fmap_cn, windows[0][0], windows[0][1], cfg)
        cb = conv_mean_map_feature(fmap_cn, windows[1][0], windows[1][1], cfg)
        brute_w = 0.0
        for i in range(9):
            for j in range(9):
                si, pi = windows[0][0][i], windows[0][1][i]
                sj, pj = windows[1][0][j], windows[1][1][j]
                ni, nj = np.linalg.norm(si), np.linalg.norm(sj)
                ui = si / ni if ni > 0 else si
                uj = sj / nj if nj > 0 else sj
                zi = feature_matrix(
                    fmap_cn, np.concatenate([pi / cfg.beta, ui / cfg.sigma])[None, :]
                )[0].astype(np.float64)
                zj = feature_matrix(
                    fmap_cn, np.concatenate([pj / cfg.beta, uj / cfg.sigma])[None, :]
                )[0].astype(np.float64)
                brute_w += ni * nj * float(zi @ zj)
        brute_w /= 81.0
        worst_weighted = max(worst_weighted, abs(float(ca.values @ cb.values) - brute_w))

    assert worst_uniform <= 1e-10
    assert worst_weighted <= 1e-10
    report(3, time.perf_counter() - t0, 10.0,
           f"uniform err = {worst_uniform:.2e}, weighted err = {worst_weighted:.2e}")


def test_criterion_04_morphology_axioms():
    """Duality, idempotence, extensivity, reconstruction and granulometry
    orderings hold without exception on random images."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    se = disk(1)
    violations = 0
    for _ in range(50):
        f = rng.random((16, 16))
        o, c = opening(f, se), closing(f, se)
        obr1 = open_by_reconstruction(f, 1)
        obr2 = open_by_reconstruction(f, 2)
        cbr1 = close_by_reconstruction(f, 1)
        cbr2 = close_by_reconstruction(f, 2)
        checks = [
            np.array_equal(erode(-f, se), -dilate(f, se)),
            np.array_equal(opening(o, se), o),
            np.array_equal(closing(c, se), c),
            np.all(erode(f, se) <= f) and np.all(f <= dilate(f, se)),
            np.all(o <= obr1) and np.all(obr1 <= f),
            np.all(f <= cbr1) and np.all(cbr1 <= c),
            np.all(obr2 <= obr1),
            np.all(cbr1 <= cbr2),
        ]
        violations += sum(not ok for ok in checks)
    assert violations == 0
    report(4, time.perf_counter() - t0, 10.0, "0 violations over 50 random images")


def test_criterion_05_pca_oracle():
    """PCA projections agree with an independent Jacobi eigensolver."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=(100, 5)) @ np.diag([2.0, 1.5, 1.0, 0.7, 0.3])
        from hsembed import pca_reduce

        result = pca_reduce(HyperspectralImage(x.reshape(10, 10, 5)), 5)
        xc = x - x.mean(axis=0)
        evals, evecs = jacobi_eigh(xc.T @ xc / 99.0)
        scores = xc @ evecs
        for k in range(5):
            got = result.bands[k].ravel()
            diff = min(np.max(np.abs(got - scores[:, k])),
                       np.max(np.abs(got + scores[:, k])))
            worst = max(worst, diff)
        worst = max(worst, float(np.max(np.abs(result.eigenvalues - evals))))
    assert worst <= 1e-8
    report(5, time.perf_counter() - t0, 5.0, f"max |projection - oracle| = {worst:.2e}")


def test_criterion_06_svm_correctness():
    """Solver reaches separability, feasible duals, duplication equivalence,
    and the model-selection grid is exactly 2^-15..2^15."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
    x = np.concatenate([rng.normal(scale=0.4, size=(40, 2)) + c for c in centers])
    y = np.repeat([1, 2, 3], 40)
    model = train_multiclass(x, y, 2.0**10)
    assert np.mean(predict_table(model, x) == y) == 1.0
    for sep in model.separators:
        alphas = sep.diagnostics.alphas
        assert np.all(alphas >= -1e-12) and np.all(alphas <= sep.c_value + 1e-12)

    base_x = rng.normal(size=(40, 3))
    base_y = np.sign(base_x[:, 0] + 0.3 * rng.normal(size=40))
    base_y[base_y == 0] = 1.0
    base = train_binary(base_x, base_y, 4.0, tol=1e-9)
    doubled = train_binary(
        np.concatenate([base_x, base_x]), np.concatenate([base_y, base_y]), 2.0, tol=1e-9
    )
    dup_err = max(float(np.max(np.abs(doubled.weights - base.weights))),
                  abs(doubled.bias - base.bias))
    assert dup_err <= 1e-6

    grid = default_c_grid()
    assert len(grid) == 31 and grid[0] == 2.0**-15 and grid[-1] == 2.0**15
    report_cv = cross_validate(x[::4], y[::4], seed=106)
    assert len(report_cv.grid) == 31
    report(6, time.perf_counter() - t0, 30.0,
           f"train acc 100%, duplication err = {dup_err:.2e}, grid size 31")


def test_criterion_07_metrics():
    """Hand-counted confusion matrix gives OA 0.7, AA 0.70833.., kappa 0.4,
    and the metrics are invariant under class relabeling."""
    t0 = time.perf_counter()
    hand = np.array([[3, 1], [2, 4]])
    assert overall_accuracy(hand) == pytest.approx(0.7, abs=1e-12)
    assert average_accuracy(hand) == pytest.approx((3 / 4 + 4 / 6) / 2, abs=1e-12)
    assert kappa(hand) == pytest.approx(0.4, abs=1e-12)
    rng = np.random.default_rng(107)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        cm = rng.integers(0, 9, size=(n, n)) + np.eye(n, dtype=int)
        perm = rng.permutation(n)
        pm = cm[np.ix_(perm, perm)]
        assert overall_accuracy(pm) == pytest.approx(overall_accuracy(cm), abs=1e-12)
        assert average_accuracy(pm) == pytest.approx(average_accuracy(cm), abs=1e-12)
        assert kappa(pm) == pytest.approx(kappa(cm), abs=1e-12)
    report(7, time.perf_counter() - t0, 1.0, "hand values exact, 50 permutations invariant")


def test_criterion_08_embedding_deviation_rate():
    """Empirical-vs-population embedding distance decays like n^-1/2."""
    t0 = time.perf_counter()
    points = []
    for s in range(20):
        for n in (16, 64, 256, 1024, 4096):
            d = embedding_deviation_gaussian(n, 1.0, 1.0, 3, seed=1000 * s + n)
            points.append((math.log(n), math.log(d)))
    points = np.array(points)
    slope = float(np.polyfit(points[:, 0], points[:, 1], 1)[0])
    assert -0.65 <= slope <= -0.35
    report(8, time.perf_counter() - t0, 60.0, f"log-log slope = {slope:.3f}")


def test_criterion_09_bound_slack():
    """Both inequalities hold empirically: the embedding-gap bound for 100
    random predictors, the combined bound in >= 19/20 trials at delta 0.05."""
    t0 = time.perf_counter()
    loss = LossSpec("hinge")

    fmap = sample_frequencies(5, 256, 1.0, seed=21)
    meta = draw_meta_sample(MetaSampleSpec(
        n_groups=5, group_size=16, dim=5, group_sigma=0.4,
        center_scale=1.0, mean_spread=0.5, seed=21,
    ))
    predictors = sample_linear_predictors(fmap.feature_dim, 100, 50.0, 100.0, seed=21)
    config = BoundConfig(seed=21)
    gap_slacks = [
        check_embedding_gap_bound(meta, fmap, w, loss, config).slack for w in predictors
    ]
    assert min(gap_slacks) >= 0.0

    fmap5 = sample_frequencies(5, 128, 1.0, seed=109)
    nonneg = 0
    for t in range(20):
        meta_t = draw_meta_sample(MetaSampleSpec(
            n_groups=50, group_size=32, dim=5, group_sigma=0.4, seed=1300 + t
        ))
        w = sample_linear_predictors(fmap5.feature_dim, 1, 1.0, 1.0, seed=1400 + t)[0]
        rep = check_combined_risk_bound(
            meta_t, fmap5, w, loss, BoundConfig(delta=0.05, seed=1500 + t)
        )
        nonneg += rep.slack >= 0
    assert nonneg >= 19
    report(9, time.perf_counter() - t0, 120.0,
           f"gap min slack = {min(gap_slacks):.2f}, combined nonneg = {nonneg}/20")


def _ordering_scene(seed=42):
    """64x64, 3 classes, 20 bands; class endmembers have distinct
    magnitudes and 3x3 near-zero dead clusters corrupt ~23% of pixels, so
    unit-normalization turns them into junk directions that small uniform
    patches cannot suppress but magnitude weighting can."""
    rng = np.random.default_rng(seed)
    spectra = rng.random((3, 20))
    spectra = spectra / np.linalg.norm(spectra, axis=1, keepdims=True)
    spectra = spectra * np.array([2.0, 3.2, 4.8])[:, None]
    spec = SceneSpec(64, 64, 20, 3, spectra, region_scale=20.0,
                     noise_sigma=0.5, seed=seed)
    image, gt = generate_synthetic_scene(spec)
    crng = np.random.default_rng(seed + 1)
    cube = image.data.copy()
    mask = np.zeros((64, 64), bool)
    for _ in range(120):
        r, c = crng.integers(0, 61, 2)
        mask[r : r + 3, c : c + 3] = True
    junk = crng.standard_normal((int(mask.sum()), 20))
    cube[mask] = 0.05 * junk / np.linalg.norm(junk, axis=1, keepdims=True)
    return HyperspectralImage(cube), gt


def test_criterion_10_method_ordering():
    """Patch embeddings dominate per-pixel features, and the weighted
    convolutional map at s=7 beats the uniform mean map at s=3."""
    t0 = time.perf_counter()
    image, gt = _ordering_scene()
    protocol = McProtocol(runs=20, per_class=5, seed=7)
    oa = {}
    for tag, method, side, beta in (
        ("rff", "rff", 1, None),
        ("meanmap_s3", "meanmap", 3, None),
        ("meanmap_s9", "meanmap", 9, None),
        ("convmeanmap_s7", "convmeanmap", 7, 1e4),
    ):
        spec = ClassifierSpec(
            method,
            EmbeddingConfig(patch=PatchSpec(side), n_features=1024, seed=7, beta=beta),
            None,
            SvmConfig(c=32.0, seed=7),
        )
        oa[tag] = monte_carlo_protocol(image, gt, protocol, spec).mean()["oa"]
    assert oa["meanmap_s9"] >= oa["rff"] + 0.10
    assert oa["convmeanmap_s7"] >= oa["meanmap_s3"]
    report(10, time.perf_counter() - t0, 600.0,
           "mean OA: rff {rff:.1f} < meanmap(s=9) {meanmap_s9:.1f} (gap "
           "{gap:.1f} >= 10); convmeanmap(s=7) {convmeanmap_s7:.1f} >= "
           "meanmap(s=3) {meanmap_s3:.1f}".format(
               gap=100 * (oa["meanmap_s9"] - oa["rff"]),
               **{k: 100 * v for k, v in oa.items()},
           ))


INDIAN_PINES_DIR = os.environ.get("HSEMBED_INDIAN_PINES_DIR")
PAVIA_DIR = os.environ.get("HSEMBED_PAVIA_DIR")


@pytest.mark.skipif(
    not (INDIAN_PINES_DIR and PAVIA_DIR),
    reason="benchmark datasets not provided; set HSEMBED_INDIAN_PINES_DIR and "
    "HSEMBED_PAVIA_DIR to run",
)
def test_criterion_11_benchmark_datasets():
    """Optional benchmark reproduction on externally obtained data.

    Expects each directory to contain ``image.hdr``/``image.img`` plus
    ``gt.csv``; the Pavia directory additionally needs ``train_gt.csv``
    and ``test_gt.csv`` for its fixed split.
    """
    t0 = time.perf_counter()
    # Small-training-set protocol with mean maps at s=15
    pines_dir = Path(INDIAN_PINES_DIR)
    image = load_envi(pines_dir / "image.hdr")
    gt = load_ground_truth(pines_dir / "gt.csv", image.height, image.width)
    spec = ClassifierSpec(
        "meanmap",
        EmbeddingConfig(patch=PatchSpec(15), n_features=1024, seed=1),
        None,
        SvmConfig(c=None, seed=1),
    )
    summary = monte_carlo_protocol(image, gt, McProtocol(runs=20, per_class=5, seed=1), spec)
    pines_oa = 100 * summary.mean()["oa"]
    assert abs(pines_oa - 70.0) <= 8.2

    # Fixed-split protocol, mean maps at s=15, then fusion ordering at s=10
    pavia_dir = Path(PAVIA_DIR)
    image = load_envi(pavia_dir / "image.hdr")
    train_gt = load_ground_truth(pavia_dir / "train_gt.csv", image.height, image.width)
    test_gt = load_ground_truth(pavia_dir / "test_gt.csv", image.height, image.width)
    train_idx = np.flatnonzero(train_gt.labels.ravel() > 0)
    test_idx = np.flatnonzero(test_gt.labels.ravel() > 0)
    labels_flat = np.maximum(train_gt.labels, test_gt.labels).ravel()
    n_classes = int(labels_flat.max())

    def fixed_split_oa(method, side, n_features):
        table = build_feature_table(
            image, method,
            EmbeddingConfig(patch=PatchSpec(side), n_features=n_features, seed=1),
            MorphoProfileConfig(),
        )
        preds, _ = run_split(
            table, labels_flat, train_idx, test_idx, n_classes, SvmConfig(c=None, seed=1)
        )
        cm = confusion_matrix(preds, labels_flat[test_idx], n_classes)
        return 100 * overall_accuracy(cm)

    pavia_oa = fixed_split_oa("meanmap", 15, 1024)
    assert abs(pavia_oa - 93.9) <= 1.6
    fused_oa = fixed_split_oa("mp_x_meanmap", 10, 512)
    plain_oa = fixed_split_oa("meanmap", 10, 512)
    assert fused_oa >= plain_oa
    report(11, time.perf_counter() - t0, 1e9,
           f"pines OA {pines_oa:.1f}, pavia OA {pavia_oa:.1f}, fusion >= plain")
