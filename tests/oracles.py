"""Independent reference implementations shared by test modules."""

import itertools

import numpy as np

from hsembed.morphology import dilate, disk, erode, pca_reduce, square


def jacobi_eigh(a, sweeps=60):
    """Cyclic Jacobi eigensolver for small symmetric matrices.

    Deliberately independent of numpy.linalg: plain rotation sweeps until
    the off-diagonal mass vanishes. Returns eigenvalues descending and the
    eigenvector columns in matching order.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < 1e-14:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(1.0 + theta * theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    evals = np.diag(a).copy()
    order = np.argsort(evals)[::-1]
    return evals[order], v[:, order]


def brute_force_window(f, se, reducer):
    """Per-pixel loop over structuring-element offsets with clamped indexing."""
    h, w = f.shape
    out = np.empty_like(f)
    for r in range(h):
        for c in range(w):
            vals = []
            for dr, dc in se.offsets:
                rr = min(max(r - dr, 0), h - 1)
                cc = min(max(c - dc, 0), w - 1)
                vals.append(f[rr, cc])
            out[r, c] = reducer(vals)
    return out


def box_qp_brute_force(q, c):
    """Minimum of 0.5 a'Qa - 1'a over 0 <= a <= c by enumeration.

    Tries all 3^n patterns of variables held at 0, held at c, or free. For
    each, the free block takes the minimum-norm minimizer of the objective
    on that face, clipped into the box, and is scored. Every score belongs
    to a feasible point, so none is below the optimum; the optimal solution
    with the fewest free variables is the unique minimizer on its face, so
    the best score is the optimum. Returns (objective, alphas).
    """
    q = np.asarray(q, dtype=np.float64)
    best = (np.inf, None)
    for pattern in itertools.product((0, 1, 2), repeat=q.shape[0]):
        pattern = np.array(pattern)
        free = np.flatnonzero(pattern == 2)
        a = np.where(pattern == 1, c, 0.0)
        rhs = 1.0 - q[free] @ a
        a[free] = np.linalg.lstsq(q[np.ix_(free, free)], rhs, rcond=None)[0]
        a = np.clip(a, 0.0, c)
        value = 0.5 * a @ q @ a - a.sum()
        if value < best[0]:
            best = (value, a)
    return best


def _projected_search_reference(q, grad, alpha, direction, t, c, t_min):
    from hsembed.svm import ARMIJO

    while True:
        trial = np.clip(alpha + t * direction, 0.0, c)
        d = trial - alpha
        slope = grad @ d
        if slope + 0.5 * (d @ q @ d) <= ARMIJO * slope or t <= t_min:
            return t, trial
        t *= 0.5


def train_binary_reference(features, labels, c, tol, start=None):
    """The active-set dual solve of ``hsembed.svm.train_binary``, written
    as one loop over whole-array numpy expressions.

    ``train_binary`` runs the same steps with the same arithmetic on the
    same operand layouts but fewer numpy calls (no ``np.ix_`` gather or
    copy of a block that holds every variable, no null-space product for
    a full-rank block, one masked division for the step limits), so the
    two must agree byte for byte. Inputs are not checked. The step cap is
    read from ``hsembed.svm.STEP_CAP_PER_ROW`` at call time.
    """
    import warnings

    import hsembed.svm
    from hsembed.svm import BinarySeparator, SolverDiagnostics

    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = x.shape[0]
    alpha = np.zeros(n) if start is None else np.array(start, dtype=np.float64)
    xy = np.concatenate([x, np.ones((n, 1))], axis=1) * y[:, None]
    q = xy @ xy.T
    grad = q @ alpha - 1.0
    objectives = []
    converged = False
    steps = 0
    while True:
        low, high = alpha <= 0.0, alpha >= c
        pg = np.where(low, np.minimum(grad, 0.0), np.where(high, np.maximum(grad, 0.0), grad))
        kkt = float(np.abs(pg).max())
        if kkt <= tol:
            converged = True
            break
        if steps == hsembed.svm.STEP_CAP_PER_ROW * n:
            break
        steps += 1
        free = np.flatnonzero(~(low | high))
        if free.size and np.abs(grad[free]).max() > tol:
            # face step
            q_ff, g_f, a_f = q[np.ix_(free, free)], grad[free], alpha[free]
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
                t, trial = _projected_search_reference(
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
            t = c / np.abs(s[moving]).min()
            if curvature > 0.0:
                t = min(t, (s @ s) / curvature)
            alpha = _projected_search_reference(q, grad, alpha, -grad, t, c, 0.0)[1]
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


def cross_validate_reference(features, labels, folds=5, seed=0):
    """The C-outer, cold grid search on the original rows.

    For each C of the grid, and each fold, every class pair is trained
    from alpha = 0 on the full-width training rows and the validation rows
    are predicted from those rows. Folds and the skipping rules are those
    of ``hsembed.svm.cross_validate``. Returns (grid, best_c).
    """
    from hsembed.svm import _stratified_folds, default_c_grid, predict_table, train_multiclass

    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    fold_of = _stratified_folds(y, folds, np.random.default_rng(seed))
    results = []
    best_c, best_acc = None, -1.0
    for c in default_c_grid():
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
    return results, best_c


# float32 rounding of the random features. An entry of the unscaled
# [cos, sin] is within about 2.1 float32 eps of its float64 value: 1.57 eps
# from narrowing an angle in [-pi, pi], half an eps from rounding the result
# (1.3 eps measured). So cos^2 + sin^2, and with it a feature's squared
# norm, is within 2 * sqrt(2) * 2.1 eps (about 6 eps, 7e-7) of 1.
FLOAT32_TRIG_ENTRY = 3 * float(np.finfo(np.float32).eps)
UNIT_NORM_ATOL = 8 * float(np.finfo(np.float32).eps)


def feature_matrix_reference(fmap, xs):
    """Random features by whole-array float64 cos, sin, concatenation and
    scaling.

    One thread, no reduction, no in-place writes. ``hsembed.rff.feature_matrix``
    takes its cos and sin in float32; each of its entries is within
    ``FLOAT32_TRIG_ENTRY * sqrt(1/N)`` of this one.
    """
    proj = np.atleast_2d(np.asarray(xs, dtype=np.float64)) @ fmap.frequencies.T
    scale = np.sqrt(1.0 / fmap.n_frequencies)
    return scale * np.concatenate([np.cos(proj), np.sin(proj)], axis=1)


def sliding_window_mean_reference(stack, side, border):
    """Mean over side x side windows of an (H, W, K) stack, by whole-image
    summed-area tables over the replicated (clamp) or reflected (mirror)
    padding, one column block at a time, in place on ``stack``.

    The whole-image form of ``hsembed.embedding._window_means``, which
    must match it bit for bit.
    """
    if side == 1:
        return stack
    h, w, k = stack.shape
    lo = (side - 1) // 2
    hi = side - 1 - lo
    mode = "edge" if border == "clamp" else "symmetric"
    # ~32 MB of padded scratch per block
    block = max(1, 4_000_000 // ((h + side) * (w + side)))
    for start in range(0, k, block):
        chunk = stack[:, :, start : start + block]
        padded = np.pad(chunk, ((lo, hi), (lo, hi), (0, 0)), mode=mode)
        s = np.zeros((h + side, w + side, chunk.shape[2]))
        np.cumsum(padded, axis=0, out=s[1:, 1:])
        np.cumsum(s[1:, 1:], axis=1, out=s[1:, 1:])
        stack[:, :, start : start + block] = (
            s[side:, side:] - s[:-side, side:] - s[side:, :-side] + s[:-side, :-side]
        )
    stack /= side * side
    return stack


def synthetic_scene_reference(spec):
    """The scene of ``hsembed.hsi.generate_synthetic_scene`` in one shot: the
    whole-image distances to every centre, then the whole endmember cube plus
    one whole-cube noise draw. The generator fills its cube a row tile at a
    time and must match this bit for bit. Returns (cube, labels)."""
    n_pixels = spec.height * spec.width
    rng = np.random.default_rng(spec.seed)
    n_regions = int(np.clip(round(n_pixels / spec.region_scale**2), spec.classes, n_pixels))
    centers = rng.choice(n_pixels, size=n_regions, replace=False)
    region_class = np.concatenate(
        [
            rng.permutation(spec.classes),
            rng.integers(0, spec.classes, size=n_regions - spec.classes),
        ]
    )
    rows, cols = np.divmod(np.arange(n_pixels), spec.width)
    d2 = (rows[:, None] - centers // spec.width) ** 2 + (cols[:, None] - centers % spec.width) ** 2
    labels = region_class[np.argmin(d2, axis=1)].reshape(spec.height, spec.width) + 1
    cube = spec.class_spectra[labels - 1].astype(np.float64)
    if spec.noise_sigma > 0:
        cube = cube + rng.normal(0.0, spec.noise_sigma, size=cube.shape)
    return cube, labels


def augment(positions, spectra, beta, sigma):
    """[position / beta, spectrum / sigma] of each pixel (rows, or one vector):
    a unit-bandwidth Gaussian on these is a spatial Gaussian of bandwidth beta
    times a spectral Gaussian of bandwidth sigma."""
    return np.concatenate([np.asarray(positions) / beta, np.asarray(spectra) / sigma], axis=-1)


def reconstruct_reference(marker, mask, polarity="dilation"):
    """Geodesic reconstruction by the plain fixpoint loop on the float values.

    Each step is the elementary geodesic dilation (3x3 cross, clamped
    borders, then the elementwise minimum with the mask), or for
    ``polarity='erosion'`` its dual; the loop stops when a step changes
    nothing. Never returns for an input holding NaN.
    """
    cross = disk(1)
    marker = np.asarray(marker, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if polarity == "dilation":
        step = lambda m: np.minimum(dilate(m, cross), mask)  # noqa: E731
    else:
        step = lambda m: np.maximum(erode(m, cross), mask)  # noqa: E731
    current = marker
    while True:
        nxt = step(current)
        if np.array_equal(nxt, current):
            return nxt
        current = nxt


def profile_reference(image, config):
    """The morphological profile assembled column by column from
    ``pca_reduce``, the float erosion and dilation, and
    ``reconstruct_reference``."""
    factory = {"disk": disk, "square": square}[config.se_shape]
    elements = [factory(i) for i in range(1, config.n_scales + 1)]
    columns = []
    for band in pca_reduce(image, config.pca_dims).bands:
        columns += [reconstruct_reference(erode(band, se), band, "dilation") for se in elements]
        columns.append(band)
        columns += [reconstruct_reference(dilate(band, se), band, "erosion") for se in elements]
    return np.stack([c.ravel() for c in columns], axis=1)
