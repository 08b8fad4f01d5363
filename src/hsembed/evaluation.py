"""Confusion-matrix metrics and the seeded Monte-Carlo evaluation protocol.

The protocol repeatedly samples a tiny per-class training set from the
labeled pixels, trains a one-vs-one linear SVM on the configured
features of those pixels, scores the held-out labeled pixels and
aggregates overall accuracy, average (per-class) accuracy and the
chance-corrected kappa statistic as mean +/- sample standard deviation.
Unless the whole feature table fits in one block, every run is
trained first; then one pass of row bands scores every pixel for all runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embedding import (
    WINDOWED,
    EmbeddingConfig,
    FeatureSpace,
    FeatureTable,
    build_feature_table,
    prepare_features,
)
from .errors import (
    ContractViolation,
    DegenerateDataError,
    ShapeError,
    UndefinedInputError,
    check_integer,
)
from .hsi import GroundTruthMap, HyperspectralImage, block_rows, row_blocks
from .morphology import MorphoProfileConfig
from .svm import (
    SvmConfig,
    SvmModel,
    cross_validate,
    dual_coefficients,
    predict_table,
    train_multiclass,
    vote,
)


def confusion_matrix(
    predicted: np.ndarray, truth: np.ndarray, n_classes: int
) -> np.ndarray:
    """Count matrix with rows = true class, columns = predicted class.

    Pixels whose truth label is 0 (unlabeled) are excluded. Labels must
    lie in 1..n_classes otherwise.
    """
    predicted = np.asarray(predicted).ravel()
    truth = np.asarray(truth).ravel()
    if predicted.shape != truth.shape:
        raise ShapeError(f"length mismatch: {predicted.shape} vs {truth.shape}")
    check_integer(n_classes, "n_classes", 1)
    mask = truth > 0
    t = truth[mask]
    p = predicted[mask]
    if (t > n_classes).any():
        raise ContractViolation("truth label out of range 1..n_classes")
    if ((p < 1) | (p > n_classes)).any():
        raise ContractViolation("predicted label out of range 1..n_classes")
    flat = (t - 1) * n_classes + (p - 1)
    counts = np.bincount(flat.astype(np.int64), minlength=n_classes * n_classes)
    return counts.reshape(n_classes, n_classes)


def overall_accuracy(counts: np.ndarray) -> float:
    """Fraction of correctly classified pixels (trace over total)."""
    counts = np.asarray(counts)
    total = counts.sum()
    if total == 0:
        raise UndefinedInputError("overall accuracy is undefined for an empty matrix")
    return float(np.trace(counts) / total)


def average_accuracy(counts: np.ndarray) -> float:
    """Mean of the per-class correct fractions."""
    counts = np.asarray(counts)
    row_sums = counts.sum(axis=1)
    empty = np.flatnonzero(row_sums == 0)
    if empty.size:
        raise UndefinedInputError(
            f"average accuracy is undefined: class {int(empty[0]) + 1} has no pixels"
        )
    return float(np.mean(np.diag(counts) / row_sums))


def kappa(counts: np.ndarray) -> float:
    """Agreement corrected by chance: (Po - Pe) / (1 - Pe), Pe from the
    marginal products over total^2. Returns 0 when Pe = 1."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        raise UndefinedInputError("kappa is undefined for an empty matrix")
    po = np.trace(counts) / total
    pe = float(np.sum(counts.sum(axis=1) * counts.sum(axis=0)) / total**2)
    if pe >= 1.0:
        return 0.0
    return float((po - pe) / (1.0 - pe))


# ---------------------------------------------------------------------------
# Monte-Carlo protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McProtocol:
    """How to sample training pixels and how often.

    ``fixed_test`` optionally pins the evaluation to given flat pixel
    indices (training is then sampled from the remaining labeled pixels).
    ``eval_on_train`` is a sanity mode that scores the training pixels
    themselves.
    """

    runs: int = 20
    per_class: int = 5
    seed: int = 0
    eval_on_train: bool = False
    fixed_test: np.ndarray | None = None

    def __post_init__(self):
        check_integer(self.runs, "runs", 1)
        check_integer(self.per_class, "per_class", 1)
        check_integer(self.seed, "seed", 0)
        if self.fixed_test is not None:
            idx = np.asarray(self.fixed_test, dtype=np.int64)
            idx.flags.writeable = False
            object.__setattr__(self, "fixed_test", idx)


@dataclass(frozen=True)
class ClassifierSpec:
    """Feature method plus classifier settings for the protocol."""

    method: str = "meanmap"
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    mp: MorphoProfileConfig | None = None
    svm: SvmConfig = field(default_factory=SvmConfig)


@dataclass
class McSummary:
    """Per-run metrics (fractions in [0, 1]) and their aggregates."""

    method: str
    params: dict
    oa: list[float]
    aa: list[float]
    kappa: list[float]
    best_c: list[float]

    @classmethod
    def empty(
        cls, method: str, features: FeatureSpace | FeatureTable, protocol: McProtocol
    ) -> "McSummary":
        """No runs yet; params are the features' meta plus the protocol's."""
        params = dict(features.meta, per_class=protocol.per_class, runs=protocol.runs)
        return cls(method, params, [], [], [], [])

    def mean(self) -> dict:
        return {k: float(np.mean(getattr(self, k))) for k in ("oa", "aa", "kappa")}

    def std(self) -> dict:
        return {
            k: float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0
            for k, xs in (("oa", self.oa), ("aa", self.aa), ("kappa", self.kappa))
        }

    def to_dict(self) -> dict:
        """JSON form; accuracy values as full-precision percentages."""
        pct = lambda v: 100.0 * v
        mean, std = self.mean(), self.std()
        return {
            "method": self.method,
            "params": self.params,
            "runs": [
                {"oa": pct(o), "aa": pct(a), "kappa": pct(k)}
                for o, a, k in zip(self.oa, self.aa, self.kappa)
            ],
            "mean": {k: pct(v) for k, v in mean.items()},
            "std": {k: pct(v) for k, v in std.items()},
            "best_c": self.best_c,
        }

    def add_run(
        self, predicted: np.ndarray, truth: np.ndarray, n_classes: int, c: float
    ) -> None:
        """Score one run's test predictions against their truth labels."""
        cm = confusion_matrix(predicted, truth, n_classes)
        self.oa.append(overall_accuracy(cm))
        self.aa.append(average_accuracy(cm))
        self.kappa.append(kappa(cm))
        self.best_c.append(c)


def sample_training_indices(
    gt: GroundTruthMap,
    per_class: int,
    rng: np.random.Generator,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Flat indices of ``per_class`` labeled pixels per class, sampled
    without replacement."""
    labels = gt.labels.ravel()
    allowed = np.ones(labels.size, dtype=bool)
    if exclude is not None:
        allowed[np.asarray(exclude, dtype=np.int64)] = False
    picks = []
    for cls in range(1, gt.n_classes + 1):
        pool = np.flatnonzero((labels == cls) & allowed)
        if pool.size < per_class:
            raise DegenerateDataError(
                f"class {cls} has {pool.size} available pixels, needs {per_class}"
            )
        picks.append(rng.choice(pool, size=per_class, replace=False))
    return np.concatenate(picks)


def protocol_split(
    gt: GroundTruthMap, protocol: McProtocol, run: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (training, test) pixel indices of protocol run ``run``; the
    training pixels come from the run's own seed, outside ``fixed_test``."""
    counts = gt.class_counts()
    if counts.size < 2:
        raise DegenerateDataError("protocol needs at least two labeled classes")
    needed = protocol.per_class if protocol.eval_on_train else protocol.per_class + 1
    if protocol.fixed_test is None and (counts < needed).any():
        small = int(np.flatnonzero(counts < needed)[0]) + 1
        raise DegenerateDataError(
            f"class {small} has {int(counts[small - 1])} labeled pixels, "
            f"needs at least {needed}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([protocol.seed, run]))
    train_idx = sample_training_indices(
        gt, protocol.per_class, rng, exclude=protocol.fixed_test
    )
    if protocol.eval_on_train:
        return train_idx, train_idx
    if protocol.fixed_test is not None:
        return train_idx, protocol.fixed_test
    labels_flat = gt.labels.ravel()
    in_train = np.zeros(labels_flat.size, dtype=bool)
    in_train[train_idx] = True
    return train_idx, np.flatnonzero((labels_flat > 0) & ~in_train)


def train_run(
    rows: np.ndarray, labels: np.ndarray, n_classes: int, svm_cfg: SvmConfig
) -> tuple[SvmModel, float]:
    """One run's model on its training rows, and the C it used. Grid
    search runs on the training rows when the config has no fixed C."""
    if svm_cfg.c is None:
        c = cross_validate(rows, labels, folds=svm_cfg.folds, seed=svm_cfg.seed).best_c
    else:
        c = svm_cfg.c
    return train_multiclass(rows, labels, c, classes=list(range(1, n_classes + 1))), float(c)


def run_split(
    table: FeatureTable,
    labels_flat: np.ndarray,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    n_classes: int,
    svm_cfg: SvmConfig,
) -> tuple[np.ndarray, float]:
    """Train on the given rows of a dense table and predict the test rows in
    blocks, so no copy of all of them is held: returns (predictions, C used)."""
    model, c = train_run(table.values[train_idx], labels_flat[train_idx], n_classes, svm_cfg)
    test_idx = np.asarray(test_idx)
    preds = np.empty(test_idx.size, dtype=np.int64)
    for a, b in row_blocks(test_idx.size, table.dim):
        preds[a:b] = predict_table(model, table.values[test_idx[a:b]])
    return preds, c


def train_and_predict(
    space: FeatureSpace,
    labels_flat: np.ndarray,
    train_sets: list[np.ndarray],
    n_classes: int,
    svm_cfg: SvmConfig,
) -> tuple[np.ndarray, list[float]]:
    """Train one model per training set, then predict every pixel under
    each: returns (len(train_sets), H*W) class ids and the Cs used. The
    training rows of all runs are their ``patch_means``, from one pass over
    their patches, and one pass of row bands scores every pixel against all
    the models; only the class ids outlive a band. Fusion trains each run on
    a factor of its kernel (``FeatureSpace.kernel_rows``) and scores it in
    the dual.
    """
    train_idx = np.concatenate(train_sets)
    means = space.patch_means(train_idx)
    rows = np.split(means, np.cumsum([idx.size for idx in train_sets])[:-1])
    if space.dual:
        rows = [space.kernel_rows(idx, run_means) for idx, run_means in zip(train_sets, rows)]
    fits = [
        train_run(run_rows, labels_flat[idx], n_classes, svm_cfg)
        for run_rows, idx in zip(rows, train_sets)
    ]
    support = (train_idx, means) if space.dual else None
    del rows, means  # the training rows are not held while scoring
    models = [model for model, _ in fits]
    if space.dual:
        coefs = [dual_coefficients(m, labels_flat[idx]) for m, idx in zip(models, train_sets)]
    else:
        coefs = np.concatenate([m.weights for m in models], axis=1)
    biases = np.concatenate([m.biases for m in models])
    pair_ends = np.cumsum([len(m.pairs) for m in models])
    preds = np.empty((len(models), space.image.height * space.image.width), dtype=np.int64)
    for first, decisions in space.scores(coefs, support):
        decisions += biases
        band = slice(first, first + decisions.shape[0])
        for r, (model, end) in enumerate(zip(models, pair_ends)):
            preds[r, band] = vote(model, decisions[:, end - len(model.pairs) : end])
        del decisions  # not held while the next band is made
    return preds, [c for _, c in fits]


def predict_runs(
    image: HyperspectralImage,
    classifier: ClassifierSpec,
    labels_flat: np.ndarray,
    splits: list[tuple[np.ndarray, np.ndarray]],
    n_classes: int,
) -> tuple[FeatureSpace | FeatureTable, list[np.ndarray], list[float]]:
    """Train one model per (training, predicted) pair of flat pixel indices
    and predict the second set: returns the features (for their meta), each
    run's predictions and the Cs used. Fusion and larger tables stream
    (``train_and_predict``); any other table within one block is built and
    its runs go through ``run_split``, only to keep the dense calls that
    ``perfbench/test_perfbench.py`` counts on its 24 x 24 scene, until the
    benchmark traces the streamed functions (ROADMAP item 1).
    """
    method, embedding, mp = classifier.method, classifier.embedding, classifier.mp
    space = prepare_features(image, method, embedding, mp)
    if not space.dual and image.height * image.width <= block_rows(space.row_dim):
        table = build_feature_table(image, method, embedding, mp, space)
        fits = [
            run_split(table, labels_flat, train, predicted, n_classes, classifier.svm)
            for train, predicted in splits
        ]
        return table, [preds for preds, _ in fits], [c for _, c in fits]
    preds, cs = train_and_predict(
        space, labels_flat, [train for train, _ in splits], n_classes, classifier.svm
    )
    return space, [run[predicted] for run, (_, predicted) in zip(preds, splits)], cs


def monte_carlo_protocol(
    image: HyperspectralImage,
    gt: GroundTruthMap,
    protocol: McProtocol,
    classifier: ClassifierSpec,
) -> McSummary:
    """Run the seeded multi-run evaluation and aggregate the metrics.

    Features are resolved once (they do not depend on the split); per-run
    seeds derive from the protocol seed and the run index, so reruns are
    reproducible and runs are order-independent.
    """
    if gt.labels.shape != (image.height, image.width):
        raise ShapeError("ground truth dimensions do not match the image")
    splits = [protocol_split(gt, protocol, run) for run in range(protocol.runs)]
    labels_flat = gt.labels.ravel()
    features, preds, cs = predict_runs(image, classifier, labels_flat, splits, gt.n_classes)
    summary = McSummary.empty(classifier.method, features, protocol)
    for (_, test_idx), run_preds, c in zip(splits, preds, cs):
        summary.add_run(run_preds, labels_flat[test_idx], gt.n_classes, c)
    return summary


def format_summary_table(summaries: list[McSummary]) -> str:
    """Text table with kernel / parameters / OA / kappa / AA columns,
    percentages to one decimal."""
    rows = [("kernel", "parameters", "OA", "kappa", "AA")]
    for s in summaries:
        mean, std = s.mean(), s.std()
        parts = []
        if "patch_side" in s.params and s.method in WINDOWED:
            parts.append(f"s={s.params['patch_side']}")
        if "n_features" in s.params:
            parts.append(f"N={s.params['n_features']}")
        cell = lambda key: f"{100 * mean[key]:.1f} +- {100 * std[key]:.1f}"
        rows.append((s.method, " ".join(parts), cell("oa"), cell("kappa"), cell("aa")))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = []
    for k, r in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip())
        if k == 0:
            lines.append("-" * (sum(widths) + 8))
    return "\n".join(lines) + "\n"
