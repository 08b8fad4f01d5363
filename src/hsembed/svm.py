"""Linear C-SVM on explicit feature vectors.

A binary separator minimizes the L1-hinge objective

    min_w 0.5 ||w||^2 + C sum_i max(0, 1 - y_i (w.phi_i + b)),

with the bias handled as an appended constant-1 feature (so it is
regularized; this keeps the dual a simple box problem and the optimum
unique). That box-constrained dual is solved exactly by one active-set method in the
manner of More and Toraldo (SIAM J. Optim. 1991): projected Newton steps
on the face of free variables, and projected-gradient steps that release
bound variables once the face is optimal. It draws no random numbers.
Multiclass is one-vs-one with majority voting, ties resolved toward the
smallest class id. Model selection is a stratified 5-fold grid search
over C = 2^i, i in [-15, 15].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DegenerateDataError,
    NumericalError,
    ParameterError,
    ShapeError,
)

KKT_TOLERANCE = 1e-4
STEP_CAP_PER_ROW = 20
ARMIJO = 1e-4


@dataclass
class SolverDiagnostics:
    """Convergence record of one binary solve."""

    alphas: np.ndarray
    dual_objectives: list[float]
    kkt_violation: float
    epochs: int
    converged: bool


@dataclass
class BinarySeparator:
    """One linear decision function sign(w.phi + b)."""

    weights: np.ndarray
    bias: float
    c_value: float
    diagnostics: SolverDiagnostics | None = None

    def decision(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[1] != self.weights.shape[0]:
            raise ShapeError(
                f"feature dim {features.shape[1]} != separator dim {self.weights.shape[0]}"
            )
        return features @ self.weights + self.bias


def _projected_search(q, grad, alpha, direction, t, c, t_min):
    """Halve ``t`` from its given value until the step to
    clip(alpha + t * direction, 0, c) passes the Armijo test, or until
    ``t <= t_min``; returns the last ``t`` and its point."""
    while True:
        trial = np.clip(alpha + t * direction, 0.0, c)
        d = trial - alpha
        slope = grad @ d
        if slope + 0.5 * (d @ q @ d) <= ARMIJO * slope or t <= t_min:
            return t, trial
        t *= 0.5


def train_binary(
    features: np.ndarray,
    labels: np.ndarray,
    c: float,
    tol: float = KKT_TOLERANCE,
) -> BinarySeparator:
    """Train one hinge-loss separator by solving its dual box QP exactly.

    The dual is min 0.5 a'Qa - 1'a over 0 <= a <= C with
    Q = (y y') * (X X' + 1). Starting from a = 0, each step is either

    * a face step: while a free variable's gradient exceeds ``tol``, a
      least-squares Newton step on the free block (or, when the block is
      singular and the gradient is not in its range, a step along the
      gradient's zero-curvature null-space part). A step whose exact line minimum lies before the first
      bound goes there. Otherwise it follows the projected path, which
      clips every variable carried past a bound, with Armijo
      backtracking; when that backtracks to the first bound, the step
      stops there and sets the blocking variable exactly to its bound; or
    * a release step: once the face is optimal, one projected-gradient
      step with Armijo backtracking, which frees every bound variable
      whose gradient points into the box.

    Stops when the largest projected gradient magnitude is at most
    ``tol``. A solve that reaches ``STEP_CAP_PER_ROW`` steps per example
    first is returned with ``converged=False`` and a ``RuntimeWarning``.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be a 2-D matrix, got {x.shape}")
    if y.shape != (x.shape[0],):
        raise ShapeError(f"labels must be ({x.shape[0]},), got {y.shape}")
    if not np.isfinite(x).all():
        raise NumericalError("features contain non-finite values")
    if c <= 0:
        raise ParameterError(f"C must be positive, got {c}")
    if not set(np.unique(y)) <= {-1.0, 1.0}:
        raise ParameterError("labels must be +1 or -1")
    if (y > 0).sum() == 0 or (y < 0).sum() == 0:
        raise DegenerateDataError("need at least one example of each sign")

    n = x.shape[0]
    xy = np.concatenate([x, np.ones((n, 1))], axis=1) * y[:, None]
    q = xy @ xy.T
    alpha = np.zeros(n)
    grad = -np.ones(n)  # Q alpha - 1
    objectives: list[float] = []
    converged = False
    steps = 0
    while True:
        low, high = alpha <= 0.0, alpha >= c
        pg = np.where(low, np.minimum(grad, 0.0), np.where(high, np.maximum(grad, 0.0), grad))
        kkt = float(np.abs(pg).max())
        if kkt <= tol:
            converged = True
            break
        if steps == STEP_CAP_PER_ROW * n:
            break
        steps += 1
        free = np.flatnonzero(~(low | high))
        if free.size and np.abs(grad[free]).max() > tol:
            # face step
            q_ff, g_f, a_f = q[np.ix_(free, free)], grad[free], alpha[free]
            # split the gradient between the range and the null space of the
            # block, with least squares' cutoff; the null part is formed
            # directly, as Q p + g would lose it to cancellation when the
            # Newton step is large
            lam, vec = np.linalg.eigh(q_ff)
            kept = lam > lam[-1] * free.size * np.finfo(np.float64).eps
            coef = vec.T @ g_f
            p = -(vec[:, ~kept] @ coef[~kept])
            if np.abs(p).max() <= tol:
                p = -(vec[:, kept] @ (coef[kept] / lam[kept]))
            moving = p != 0.0
            limits = np.full(free.size, np.inf)
            limits[moving] = (np.where(p > 0.0, c, 0.0) - a_f)[moving] / p[moving]
            block = int(np.argmin(limits))
            curvature = p @ q_ff @ p
            t = -(g_f @ p) / curvature if curvature > 0.0 else np.inf
            if t < limits[block]:
                alpha[free] = np.clip(a_f + t * p, 0.0, c)
            else:
                # search the projected path beyond the first bound (past the
                # last one nothing moves); if it fails, stop at the first
                t, trial = _projected_search(
                    q_ff, g_f, a_f, p, min(t, limits[moving].max()), c, limits[block]
                )
                if t > limits[block]:
                    alpha[free] = trial
                else:
                    alpha[free] = np.clip(a_f + limits[block] * p, 0.0, c)
                    alpha[free[block]] = c if p[block] > 0.0 else 0.0
        else:
            # release step
            s = -pg
            moving = s != 0.0
            curvature = s @ q @ s
            t = c / np.abs(s[moving]).min()  # every moving variable is clipped beyond this
            if curvature > 0.0:
                t = min(t, (s @ s) / curvature)
            alpha = _projected_search(q, grad, alpha, -grad, t, c, 0.0)[1]
        grad = q @ alpha - 1.0
        objectives.append(float(0.5 * (alpha.sum() - alpha @ grad)))
    if not converged:
        warnings.warn(
            "dual solver stopped at the step cap before reaching the KKT tolerance",
            RuntimeWarning,
            stacklevel=2,
        )
    w = xy.T @ alpha
    diag = SolverDiagnostics(alpha, objectives, kkt, steps, converged)
    return BinarySeparator(w[:-1].copy(), float(w[-1]), float(c), diag)


@dataclass
class SvmModel:
    """One-vs-one collection of binary separators."""

    classes: tuple[int, ...]
    pairs: list[tuple[int, int]]
    separators: list[BinarySeparator]
    feature_dim: int

    @property
    def weights(self) -> np.ndarray:
        """The separators' weights stacked as a (feature_dim, pairs) matrix."""
        return np.stack([sep.weights for sep in self.separators], axis=1)

    @property
    def biases(self) -> np.ndarray:
        return np.array([sep.bias for sep in self.separators])


def train_multiclass(
    features: np.ndarray,
    labels: np.ndarray,
    c: float,
    classes: list[int] | None = None,
    tol: float = KKT_TOLERANCE,
) -> SvmModel:
    """Train one separator per unordered class pair.

    In each pair the smaller class id plays the +1 role. ``classes`` may
    name the expected class set; a named class without examples is an
    error.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ShapeError(f"features {x.shape} and labels {y.shape} are inconsistent")
    present = sorted(int(v) for v in np.unique(y))
    if classes is None:
        classes = present
    else:
        classes = sorted(int(v) for v in classes)
        missing = sorted(set(classes) - set(present))
        if missing:
            raise DegenerateDataError(f"classes without examples: {missing}")
    if len(classes) < 2:
        raise DegenerateDataError("need at least two classes")

    pairs = list(combinations(classes, 2))
    separators = []
    for a, b in pairs:
        mask = (y == a) | (y == b)
        signs = np.where(y[mask] == a, 1.0, -1.0)
        separators.append(train_binary(x[mask], signs, c, tol=tol))
    return SvmModel(tuple(classes), pairs, separators, x.shape[1])


def decision_matrix(model: SvmModel, features: np.ndarray) -> np.ndarray:
    """Pairwise decision values, one column per class pair."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[1] != model.feature_dim:
        raise ShapeError(
            f"feature dim {features.shape[1]} != model dim {model.feature_dim}"
        )
    decisions = features @ model.weights
    decisions += model.biases
    return decisions


def vote(model: SvmModel, decisions: np.ndarray) -> np.ndarray:
    """Majority-vote class ids from (rows, pairs) decision values; ties go
    to the smallest class id."""
    class_index = {cls: k for k, cls in enumerate(model.classes)}
    # one contiguous row per pair and per class: decisions may be a column
    # slice of a wider score array
    wins = np.ascontiguousarray((decisions >= 0).T)
    votes = np.zeros((len(model.classes), decisions.shape[0]), dtype=np.int64)
    for p, (a, b) in enumerate(model.pairs):
        votes[class_index[a]] += wins[p]
        votes[class_index[b]] += ~wins[p]
    # argmax takes the first maximum, i.e. the smallest class id
    winners = np.argmax(votes, axis=0)
    classes = np.asarray(model.classes)
    return classes[winners]


def predict_table(model: SvmModel, features: np.ndarray) -> np.ndarray:
    """Majority-vote class ids for each feature row."""
    return vote(model, decision_matrix(model, features))


def predict(model: SvmModel, feature: np.ndarray) -> int:
    """Class id of a single feature vector."""
    return int(predict_table(model, np.atleast_2d(feature))[0])


# ---------------------------------------------------------------------------
# Cross-validated grid search
# ---------------------------------------------------------------------------


def default_c_grid() -> list[float]:
    """C = 2^i for i in [-15, 15] (31 values)."""
    return [float(2.0**i) for i in range(-15, 16)]


@dataclass
class CvReport:
    """Grid of (C, mean validation accuracy) and the selected C."""

    grid: list[tuple[float, float]]
    best_c: float


@dataclass
class SvmConfig:
    """Classifier choice for pipelines: a fixed C, or grid search when None."""

    c: float | None = None
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.c is not None and self.c <= 0:
            raise ParameterError(f"C must be positive, got {self.c}")
        if self.folds < 2:
            raise ParameterError(f"folds must be >= 2, got {self.folds}")


def _stratified_folds(labels: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    fold_of = np.empty(labels.shape[0], dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        fold_of[idx] = np.arange(idx.size) % folds
    return fold_of


def cross_validate(
    features: np.ndarray,
    labels: np.ndarray,
    folds: int = 5,
    seed: int = 0,
    grid: list[float] | None = None,
) -> CvReport:
    """Stratified k-fold accuracy over the C grid; ties prefer smaller C.

    Classes with fewer examples than folds land in distinct folds; a
    validation example whose class is absent from the training split is
    skipped in the count.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if np.unique(y).size < 2:
        raise DegenerateDataError("cross-validation needs at least two classes")
    grid = default_c_grid() if grid is None else list(grid)
    rng = np.random.default_rng(seed)
    fold_of = _stratified_folds(y, folds, rng)

    results = []
    best_c, best_acc = None, -1.0
    for c in grid:
        accs = []
        for f in range(folds):
            val = fold_of == f
            if not val.any() or val.all():
                continue
            y_tr = y[~val]
            present = set(int(v) for v in np.unique(y_tr))
            if len(present) < 2:
                continue
            model = train_multiclass(x[~val], y_tr, c)
            countable = np.array([int(v) in present for v in y[val]])
            if not countable.any():
                continue
            preds = predict_table(model, x[val][countable])
            accs.append(float(np.mean(preds == y[val][countable])))
        mean_acc = float(np.mean(accs)) if accs else 0.0
        results.append((float(c), mean_acc))
        if mean_acc > best_acc:
            best_acc, best_c = mean_acc, float(c)
    return CvReport(results, best_c)

