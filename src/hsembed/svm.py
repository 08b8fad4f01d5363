"""Linear C-SVM on explicit feature vectors.

A binary separator minimizes the L1-hinge objective

    min_w 0.5 ||w||^2 + C sum_i max(0, 1 - y_i (w.phi_i + b)),

with the bias handled as an appended constant-1 feature (so it is
regularized; this keeps the dual a simple box problem and the optimum
unique). That box-constrained dual is solved exactly by one active-set method in the
manner of More and Toraldo (SIAM J. Optim. 1991): projected Newton steps
on the face of free variables, and projected-gradient steps that release
bound variables once the face is optimal. ``train_binary`` checks its
inputs and forms Q; ``_solve`` runs the steps on Q. It draws no random
numbers.
Multiclass is one-vs-one with majority voting, ties resolved toward the
smallest class id. Model selection is a stratified 5-fold grid search
over C = 2^i, i in [-15, 15], each problem solved along ascending C from
the previous solution, on the rows of a triangular Gram factor.
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
    check_integer,
    check_real,
)

KKT_TOLERANCE = 1e-4
STEP_CAP_PER_ROW = 20
ARMIJO = 1e-4
_EPS = float(np.finfo(np.float64).eps)


@dataclass
class SolverDiagnostics:
    """Convergence record of one binary solve.

    ``epochs`` counts active-set steps (face and release steps), not passes
    over the data; the name stays because ``perfbench/spans.py`` reads it.
    """

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


def _projected_search(q, grad, alpha, direction, t, c, t_min):
    """Halve ``t`` from its given value until the step to
    clip(alpha + t * direction, 0, c) passes the Armijo test, or until
    ``t <= t_min``; returns the last ``t`` and its point."""
    while True:
        trial = (alpha + t * direction).clip(0.0, c)
        if t <= t_min:
            return t, trial
        d = trial - alpha
        slope = float(grad @ d)
        if slope + 0.5 * float(d @ q @ d) <= ARMIJO * slope:
            return t, trial
        t *= 0.5


def _solve(q: np.ndarray, c: float, alpha: np.ndarray, tol: float) -> SolverDiagnostics:
    """Minimize 0.5 a'Qa - 1'a over 0 <= a <= ``c`` by the steps that
    ``train_binary`` describes, from the feasible ``alpha``, which it may
    overwrite, until the largest projected gradient magnitude is at most
    ``tol`` or the step cap is reached."""
    n = alpha.size
    cap = STEP_CAP_PER_ROW * n
    grad = q @ alpha - 1.0
    objectives: list[float] = []
    steps = 0
    while True:
        low, high = alpha <= 0.0, alpha >= c
        pg = np.where(low, np.minimum(grad, 0.0), np.where(high, np.maximum(grad, 0.0), grad))
        kkt = float(np.abs(pg).max())
        if kkt <= tol or steps == cap:
            return SolverDiagnostics(alpha, objectives, kkt, steps, kkt <= tol)
        steps += 1
        free = (~(low | high)).nonzero()[0]
        g_f = grad[free]
        if free.size and np.abs(g_f).max() > tol:
            # face step
            if free.size == n:
                free, q_ff, a_f = slice(None), q, alpha
            else:
                q_ff, a_f = q[free[:, None], free], alpha[free]
            # split the gradient between the range and the null space of the
            # block, with least squares' cutoff; the null part is formed
            # directly, as Q p + g would lose it to cancellation when the
            # Newton step is large. eigh sorts lam ascending, so ``kept`` is
            # all true once its first entry is, and the null part is 0
            lam, vec = np.linalg.eigh(q_ff)
            kept = lam > lam[-1] * g_f.size * _EPS
            coef = vec.T @ g_f
            if kept[0]:
                # vec[:, kept] is a Fortran-ordered copy of vec; vec itself
                # would take another BLAS kernel and change the rounding
                p = -(vec[:, kept] @ (coef / lam))
            else:
                p = -(vec[:, ~kept] @ coef[~kept])
                if np.abs(p).max() <= tol:
                    p = -(vec[:, kept] @ (coef[kept] / lam[kept]))
            moving = p != 0.0
            limits = np.divide(
                np.where(p > 0.0, c, 0.0) - a_f, p, out=np.full(p.size, np.inf), where=moving
            )
            block = int(limits.argmin())
            first = float(limits[block])
            curvature = float(p @ q_ff @ p)
            t = -float(g_f @ p) / curvature if curvature > 0.0 else np.inf
            if t < first:
                alpha[free] = (a_f + t * p).clip(0.0, c)
            else:
                # search the projected path beyond the first bound (past the
                # last one nothing moves); if it fails, stop at the first
                t, trial = _projected_search(
                    q_ff, g_f, a_f, p, min(t, float(limits[moving].max())), c, first
                )
                if t <= first:
                    trial = (a_f + first * p).clip(0.0, c)
                    trial[block] = c if p[block] > 0.0 else 0.0
                alpha[free] = trial
        else:
            # release step
            s = -pg
            curvature = float(s @ q @ s)
            t = c / float(np.abs(s[s != 0.0]).min())  # every moving variable is clipped beyond this
            if curvature > 0.0:
                t = min(t, float(s @ s) / curvature)
            alpha = _projected_search(q, grad, alpha, -grad, t, c, 0.0)[1]
        grad = q @ alpha - 1.0
        objectives.append(0.5 * (float(alpha.sum()) - float(alpha @ grad)))


def train_binary(
    features: np.ndarray,
    labels: np.ndarray,
    c: float,
    tol: float = KKT_TOLERANCE,
    start: np.ndarray | None = None,
) -> BinarySeparator:
    """Train one hinge-loss separator by solving its dual box QP exactly.

    The dual is min 0.5 a'Qa - 1'a over 0 <= a <= C with
    Q = (y y') * (X X' + 1). Starting from a = 0, or from the feasible
    ``start`` (shape (n,), 0 <= start <= C), each step is either

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
    ``tol`` (finite and >= 0), so a start that is already optimal takes
    zero steps. A solve that reaches ``STEP_CAP_PER_ROW`` steps per
    example first is returned with ``converged=False`` and a
    ``RuntimeWarning``.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be a 2-D matrix, got {x.shape}")
    n, d = x.shape
    if y.shape != (n,):
        raise ShapeError(f"labels must be ({n},), got {y.shape}")
    if not np.isfinite(x).all():
        raise NumericalError("features contain non-finite values")
    check_real(c, "C")
    check_real(tol, "tol", positive=False)
    signs = y.tolist()
    positive, negative = signs.count(1.0), signs.count(-1.0)
    if positive + negative != n:
        raise ParameterError("labels must be +1 or -1")
    if not positive or not negative:
        raise DegenerateDataError("need at least one example of each sign")

    if start is None:
        alpha = np.zeros(n)
    else:
        alpha = np.array(start, dtype=np.float64)
        if alpha.shape != (n,) or not all(0.0 <= a <= c for a in alpha.tolist()):
            raise ParameterError(f"start must be ({n},) values in [0, C={c}]")
    xy = np.empty((n, d + 1))
    np.multiply(x, y[:, None], out=xy[:, :d])
    xy[:, d] = y
    diag = _solve(xy @ xy.T, c, alpha, tol)
    if not diag.converged:
        warnings.warn(
            "dual solver stopped at the step cap before reaching the KKT tolerance",
            RuntimeWarning,
            stacklevel=2,
        )
    w = xy.T @ diag.alphas
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


def _pair_rows(labels: np.ndarray, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of class pair (a, b) and their signs: the smaller class id,
    ``a``, plays the +1 role."""
    mask = (labels == a) | (labels == b)
    return mask, np.where(labels[mask] == a, 1.0, -1.0)


def train_multiclass(
    features: np.ndarray,
    labels: np.ndarray,
    c: float,
    classes: list[int] | None = None,
    tol: float = KKT_TOLERANCE,
) -> SvmModel:
    """Train one separator per unordered class pair.

    In each pair the smaller class id plays the +1 role (``_pair_rows``).
    ``classes`` may name the expected class set; a named class without
    examples is an error.
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
        mask, signs = _pair_rows(y, a, b)
        separators.append(train_binary(x[mask], signs, c, tol=tol))
    return SvmModel(tuple(classes), pairs, separators, x.shape[1])


def dual_coefficients(model: SvmModel, labels: np.ndarray) -> np.ndarray:
    """The (n, pairs) matrix A of alpha_i y_i of a model that
    ``train_multiclass`` trained on n rows X with these labels, zero off each
    pair's rows: X' A is the model's weights and A's column sums its biases."""
    labels = np.asarray(labels)
    coefs = np.zeros((labels.size, len(model.pairs)))
    for p, ((a, b), sep) in enumerate(zip(model.pairs, model.separators)):
        mask, signs = _pair_rows(labels, a, b)
        coefs[mask, p] = sep.diagnostics.alphas * signs
    return coefs


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
    to the smallest class id. A pair's win is a vote for its first class,
    a loss one for its second. So with +1 at each pair's first class and -1
    at its second, a row's votes are its wins times that (pairs, classes)
    matrix plus the count of pairs whose second class each class is: sums
    of integers below 2^24, exact in float32 in any order."""
    class_index = {cls: k for k, cls in enumerate(model.classes)}
    first, second = np.array([[class_index[a], class_index[b]] for a, b in model.pairs]).T
    pair = np.arange(len(model.pairs))
    shift = np.zeros((len(model.pairs), len(model.classes)), dtype=np.float32)
    shift[pair, first], shift[pair, second] = 1, -1
    votes = (decisions >= 0).astype(np.float32) @ shift
    votes += np.bincount(second, minlength=len(model.classes))
    # argmax takes the first maximum, i.e. the smallest class id
    return np.asarray(model.classes)[np.argmax(votes, axis=1)]


def predict_table(model: SvmModel, features: np.ndarray) -> np.ndarray:
    """Majority-vote class ids for each feature row."""
    return vote(model, decision_matrix(model, features))


# ---------------------------------------------------------------------------
# Cross-validated grid search
# ---------------------------------------------------------------------------


def default_c_grid() -> list[float]:
    """C = 2^i for i in [-15, 15] (31 values)."""
    return [float(2.0**i) for i in range(-15, 16)]


@dataclass
class CvReport:
    """Grid of (C, mean validation accuracy), the selected C, and the
    binary solves behind them: problems posed, solver steps, solves
    stopped unconverged, and the largest final KKT violation."""

    grid: list[tuple[float, float]]
    best_c: float
    problems: int
    steps: int
    unconverged: int
    max_kkt: float


@dataclass
class SvmConfig:
    """Classifier choice for pipelines: a fixed C, or grid search when None."""

    c: float | None = None
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.c is not None:
            check_real(self.c, "C")
        check_integer(self.folds, "folds", 2)
        check_integer(self.seed, "seed", 0)


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
) -> CvReport:
    """Stratified k-fold accuracy over ``default_c_grid()``; ties prefer
    smaller C.

    Classes with fewer examples than folds land in distinct folds; a
    validation example whose class is absent from the training split is
    skipped in the count, and a fold with nothing left to count is not
    trained. ``folds`` must be an integer of at least 2, and at least one fold must be
    trained (``DegenerateDataError`` otherwise).

    The solves see only the Gram matrix X X', so they run on the rows of
    its triangular factor (n x min(n, d)), which also give the validation
    decisions. Each (fold, pair) problem is solved along ascending C, each
    from the previous solution with every alpha at the old bound raised to
    the new C. Once no alpha sits at its bound, that start is already
    optimal, and the solve verifies it and returns after zero steps.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ShapeError(f"features {x.shape} and labels {y.shape} are inconsistent")
    if not np.isfinite(x).all():
        raise NumericalError("features contain non-finite values")
    check_integer(folds, "folds", 2)
    check_integer(seed, "seed", 0)
    if np.unique(y).size < 2:
        raise DegenerateDataError("cross-validation needs at least two classes")
    grid = default_c_grid()
    fold_of = _stratified_folds(y, folds, np.random.default_rng(seed))
    rows = np.linalg.qr(x.T, mode="r").T  # rows @ rows.T == x @ x.T

    accs: list[list[float]] = [[] for _ in grid]
    problems = steps = unconverged = 0
    max_kkt = 0.0
    for f in range(folds):
        val = fold_of == f
        if not val.any() or val.all():
            continue
        y_tr = y[~val]
        classes = sorted(int(v) for v in np.unique(y_tr))
        countable = np.isin(y[val], classes)
        if len(classes) < 2 or not countable.any():
            continue
        x_tr = rows[~val]
        pairs = list(combinations(classes, 2))
        separators: list[list[BinarySeparator]] = [[] for _ in grid]
        for a, b in pairs:
            mask, signs = _pair_rows(y_tr, a, b)
            x_pair = x_tr[mask]
            alphas, prev_c = None, None
            for k, c in enumerate(grid):
                start = None if alphas is None else np.where(alphas >= prev_c, c, alphas)
                sep = train_binary(x_pair, signs, c, start=start)
                diag = sep.diagnostics
                alphas, prev_c = diag.alphas, c
                problems += 1
                steps += diag.epochs
                unconverged += not diag.converged
                max_kkt = max(max_kkt, diag.kkt_violation)
                separators[k].append(sep)
        x_val, y_val = rows[val][countable], y[val][countable]
        # every C's validation decisions, voted in one call
        decisions = np.empty((len(x_val), len(grid), len(pairs)))
        for k, seps in enumerate(separators):
            model = SvmModel(tuple(classes), pairs, seps, rows.shape[1])
            decisions[:, k] = decision_matrix(model, x_val)
        preds = vote(model, decisions.reshape(-1, len(pairs))).reshape(-1, len(grid))
        for k, hits in enumerate((preds == y_val[:, None]).T):
            accs[k].append(float(np.mean(hits)))

    if not problems:
        raise DegenerateDataError(
            f"cross-validation trained no fold: none of the {folds} folds leaves two classes "
            "to train on and an example of them to validate; set svm.c to a fixed C"
        )
    results = []
    best_c, best_acc = None, -1.0
    for c, fold_accs in zip(grid, accs):
        mean_acc = float(np.mean(fold_accs))
        results.append((c, mean_acc))
        if mean_acc > best_acc:
            best_acc, best_c = mean_acc, c
    return CvReport(results, best_c, problems, steps, unconverged, max_kkt)
