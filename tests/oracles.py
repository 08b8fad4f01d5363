"""Independent reference implementations shared by test modules."""

import itertools

import numpy as np


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


def feature_matrix_reference(fmap, xs):
    """Random features by whole-array cos, sin, concatenation and scaling.

    One thread, no in-place writes: the straightforward form of
    ``hsembed.rff.feature_matrix``, which must match it bit for bit.
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
