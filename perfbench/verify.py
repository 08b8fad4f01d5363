"""Output checks for one benchmark operation.

Each check returns a list of problems; an empty list means the operation
passed. Accuracy figures are recomputed here with plain numpy, not with
``hsembed.evaluation``, so a defect in the library's metrics shows.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from hsembed.cli import default_palette, read_ppm
from hsembed.evaluation import sample_training_indices
from hsembed.hsi import GroundTruthMap

# metrics.json holds percentages written from float64 sums
TOLERANCE = 1e-9


def read_label_csv(path: Path) -> np.ndarray:
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    return np.array([line.split(",") for line in lines], dtype=np.int64)


def classify_training_indices(gt_path: Path, seed: int, per_class: int) -> np.ndarray:
    """Flat indices of the pixels ``classify`` trains on: the draw it makes
    from the master seed. They are left out of its accuracy figures."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    return sample_training_indices(GroundTruthMap(read_label_csv(gt_path)), per_class, rng)


def accuracy_pct(pred: np.ndarray, truth: np.ndarray, n_classes: int) -> dict:
    """OA, AA and kappa in percent over paired label vectors (1..n_classes)."""
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (truth - 1, pred - 1), 1)
    n = cm.sum()
    diag = np.diag(cm)
    oa = diag.sum() / n
    support = cm.sum(axis=1)
    aa = np.mean(diag[support > 0] / support[support > 0])
    expected = (cm.sum(axis=0) * support).sum() / (n * n)
    kappa = (oa - expected) / (1.0 - expected)
    return {"oa": 100.0 * oa, "aa": 100.0 * aa, "kappa": 100.0 * kappa}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


KEYS = ("oa", "aa", "kappa")


def _read_metrics(out_dir: Path, problems: list[str]) -> tuple[dict, list[dict]] | None:
    """(mean, runs) of metrics.json as floats, or None with a problem noted."""
    try:
        doc = json.loads((out_dir / "metrics.json").read_text())
        mean = {k: float(doc["mean"][k]) for k in KEYS}
        runs = [{k: float(r[k]) for k in KEYS} for r in doc["runs"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"metrics.json unreadable: {exc!r}")
        return None
    return mean, runs


def check_evaluate(out_dir: Path, runs: int) -> list[str]:
    """``mean`` must equal the mean of ``runs``, and there must be ``runs`` runs."""
    problems: list[str] = []
    parsed = _read_metrics(out_dir, problems)
    if parsed is None:
        return problems
    mean, rows = parsed
    if len(rows) != runs:
        return [f"metrics.json has {len(rows)} runs, expected {runs}"]
    for key in KEYS:
        expected = float(np.mean([r[key] for r in rows]))
        if not _close(expected, mean[key]):
            problems.append(f"mean {key} {mean[key]} != mean of runs {expected}")
    return problems


def check_classify(
    out_dir: Path, gt_path: Path, train_idx: np.ndarray, n_classes: int
) -> list[str]:
    """Accuracy recomputed from predictions.csv and the ground truth must
    equal metrics.json, and map.ppm must paint the predictions."""
    problems: list[str] = []
    parsed = _read_metrics(out_dir, problems)
    if parsed is None:
        return problems
    mean = parsed[0]
    try:
        pred = read_label_csv(out_dir / "predictions.csv")
        image = read_ppm(out_dir / "map.ppm")
    except (OSError, ValueError) as exc:
        return problems + [f"outputs unreadable: {exc}"]
    truth = read_label_csv(gt_path)
    if pred.shape != truth.shape:
        return problems + [f"predictions {pred.shape} != ground truth {truth.shape}"]
    if pred.min() < 1 or pred.max() > n_classes:
        return problems + ["predictions outside the class range"]

    flat_truth = truth.ravel()
    test = flat_truth > 0
    test[train_idx] = False
    recomputed = accuracy_pct(pred.ravel()[test], flat_truth[test], n_classes)
    for key, value in recomputed.items():
        if not _close(value, mean[key]):
            problems.append(f"{key} {mean[key]} != recomputed {value}")

    palette = np.asarray(default_palette(n_classes), dtype=np.uint8)
    if image.shape != pred.shape + (3,) or not np.array_equal(image, palette[pred]):
        problems.append("map.ppm does not match predictions.csv")
    return problems
