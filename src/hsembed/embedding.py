"""Per-pixel distribution embeddings in explicit random-feature space.

A pixel's spatial neighbourhood is treated as a sample from a local
distribution. Its mean-map feature is the average of the random Fourier
features of the neighbourhood spectra, so the dot product of two such
features is the empirical mean-map kernel of the two neighbourhoods.

The convolutional variant weights each neighbour by its spectral magnitude
and embeds an augmented vector [row/beta, col/beta, unit_spectrum/sigma],
so a unit-bandwidth Gaussian on the augmented vectors factors into a
spatial RBF (bandwidth beta) times a spectral RBF (bandwidth sigma).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, ParameterError, ShapeError, check_integer, check_real
from .hsi import (
    HyperspectralImage,
    PatchSpec,
    block_rows,
    equal_blocks,
    patch_indices,
    row_blocks,
    squared_distances,
    unit_rows,
    window_axis,
)
from .morphology import MorphoProfileConfig, morphological_profile
from .rff import RandomFeatureMap, feature_matrix, sample_frequencies

METHODS = ("raw", "rff", "meanmap", "convmeanmap", "mp", "mp_x_meanmap")
# methods that take the configured patch; the others are windows of side 1
WINDOWED = ("meanmap", "convmeanmap", "mp_x_meanmap")
# pivots per panel of ``_pivoted_cholesky``
_PANEL = 64

@dataclass(frozen=True)
class PixelFeature:
    """The mean-map feature vector of one pixel's patch."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 1:
            raise ShapeError(f"feature values must be 1-D, got shape {v.shape}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class EmbeddingConfig:
    """Knobs for feature construction.

    ``sigma`` is the spectral bandwidth and ``beta`` the spatial bandwidth
    of the convolutional variant; left unset, sigma falls back to the
    median heuristic and beta to the image diagonal at table-build time.
    ``n_features`` is the frequency count N (features have dimension 2N).
    ``normalize`` controls whether spectra are scaled to unit norm before
    being embedded by the raw-feature and mean-map methods; the
    convolutional method always normalizes and uses the magnitudes as
    weights.
    """

    patch: PatchSpec = field(default_factory=PatchSpec)
    sigma: float | None = None
    beta: float | None = None
    n_features: int = 1024
    seed: int = 0
    normalize: bool = True

    def __post_init__(self):
        for key in ("sigma", "beta"):
            if getattr(self, key) is not None:
                check_real(getattr(self, key), key)
        check_integer(self.n_features, "n_features", 1)
        check_integer(self.seed, "seed", 0)


def median_heuristic(image: HyperspectralImage, seed: int = 0) -> float:
    """Median pairwise distance of the unit spectra of up to 1,000 random pixels,
    equal bit for bit to ``np.median`` of scipy's ``pdist`` of them.

    Deterministic per seed; falls back to 1.0 if the sampled unit spectra
    are all identical, before any distance is summed. Only the pairs near
    the median are summed exactly: the Gram form a = |x|^2 + |y|^2 - 2 x.y
    of each squared distance e, whose error |a - e| is below delta =
    8 (d + 4) eps max|x|^2 (twice a first-order bound on both a's and e's
    rounding, with |x - y|^2 <= 4 max|x|^2), places the middle rank(s) of e
    within delta of those of a. So every pair whose
    a lies below the window of width 2 delta around them has e below the
    median's e and every pair above it e above, and the median's e are the
    middle of the window's exact e, summed coordinate by coordinate as
    ``pdist`` sums them (``hsi.squared_distances``); the square root is
    monotone, and the two middle distances are averaged as ``np.median``
    does. Holds the n(n - 1) / 2 values of ``pdist``'s output and one block.
    """
    check_integer(seed, "seed", 0)
    pixels = image.pixels()
    n = pixels.shape[0]
    rng = np.random.default_rng(seed)
    take = min(1000, n)
    idx = rng.choice(n, size=take, replace=False)
    sample = unit_rows(pixels[idx])[0]
    if (sample == sample[0]).all():  # every distance is 0, and so the median
        return 1.0
    norms = np.einsum("ij,ij->i", sample, sample)
    delta = 8 * (sample.shape[1] + 4) * np.finfo(np.float64).eps * norms.max()
    pairs = take * (take - 1) // 2
    middle = [(pairs - 1) // 2, pairs // 2]  # np.median's rank(s)

    def estimates():  # a of the pairs i < j, in blocks of rows i
        for a, b in row_blocks(take, 4 * take):
            est = sample[a:b] @ sample.T
            est *= -2.0
            est += norms[a:b, None]
            est += norms
            yield a, est, np.arange(take) > np.arange(a, b)[:, None]

    values, at = np.empty(pairs), 0
    for _, est, upper in estimates():
        block = est[upper]
        values[at : at + block.size] = block
        at += block.size
    values.partition(middle)
    low, high = values[middle[0]] - 2 * delta, values[middle[1]] + 2 * delta
    below, at = 0, 0  # pairs under the window; exact e of the window so far
    for a, est, upper in estimates():
        below += np.count_nonzero(upper & (est < low))
        rows, cols = np.nonzero(upper & (est >= low) & (est <= high))
        for c, d in row_blocks(rows.size, sample.shape[1]):
            values[at + c : at + d] = squared_distances(sample[rows[c:d] + a], sample[cols[c:d]])
        at += rows.size
    ranks = [r - below for r in middle]
    window = values[:at]
    window.partition(ranks)
    med = float(np.median(np.sqrt(window[ranks[0] : ranks[1] + 1])))
    return med if med > 0 else 1.0


# ---------------------------------------------------------------------------
# Single-pixel constructions
# ---------------------------------------------------------------------------


def _random_features(
    fmap: RandomFeatureMap,
    spectra: np.ndarray,
    normalize: bool,
    positions: np.ndarray | None = None,
    beta: float = 1.0,
    sigma: float = 1.0,
) -> np.ndarray:
    """Random features of pixels before any window mean.

    Without positions, the float32 z(x) of each spectrum, scaled to unit
    norm first when ``normalize`` is set. With positions (the
    convolutional variant), |x| z([position/beta, unit spectrum/sigma]),
    formed in float64. The one place that calls ``feature_matrix``.
    """
    if positions is None:
        return feature_matrix(fmap, unit_rows(spectra)[0] if normalize else spectra)
    unit, norms = unit_rows(spectra)
    augmented = np.concatenate([positions / beta, unit / sigma], axis=1)
    return feature_matrix(fmap, augmented) * norms[:, None]


def mean_map_feature(fmap: RandomFeatureMap, patch: np.ndarray) -> PixelFeature:
    """Average of the random features of the patch spectra."""
    patch = np.atleast_2d(np.asarray(patch, dtype=np.float64))
    if patch.shape[0] == 0:
        raise ContractViolation("patch must contain at least one spectrum")
    feats = _random_features(fmap, patch, normalize=False)
    return PixelFeature(feats.mean(axis=0, dtype=np.float64))


def conv_mean_map_feature(
    fmap: RandomFeatureMap,
    spectra: np.ndarray,
    positions: np.ndarray,
    config: EmbeddingConfig,
) -> PixelFeature:
    """Magnitude-weighted mean of random features of augmented patch pixels.

    ``fmap`` must act on dimension bands + 2. Each patch member contributes
    its spectral norm times the feature of [row/beta, col/beta, unit
    spectrum/sigma]; the sum is divided by the patch size.
    """
    if config.sigma is None or config.beta is None:
        raise ParameterError("config.sigma and config.beta must be resolved")
    spectra = np.atleast_2d(np.asarray(spectra, dtype=np.float64))
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    if spectra.shape[0] == 0:
        raise ContractViolation("patch must contain at least one spectrum")
    if positions.shape != (spectra.shape[0], 2):
        raise ShapeError(
            f"positions must be ({spectra.shape[0]}, 2), got {positions.shape}"
        )
    if fmap.input_dim != spectra.shape[1] + 2:
        raise ShapeError(
            f"map dimension {fmap.input_dim} != bands + 2 = {spectra.shape[1] + 2}"
        )
    weighted = _random_features(fmap, spectra, True, positions, config.beta, config.sigma)
    return PixelFeature(weighted.sum(axis=0) / spectra.shape[0])


# ---------------------------------------------------------------------------
# The dense feature table and the streamed feature space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureTable:
    """One feature row per pixel (row-major pixel order)."""

    values: np.ndarray
    meta: dict

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 2:
            raise ShapeError(f"table must be 2-D, got {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def _window_means(rows_of, height: int, width: int, k: int, patch: PatchSpec, band: int):
    """Means over the patch windows of an (height, width, k) image, in bands
    of ``band`` image rows from top to bottom: yields (first row, (rows, width,
    k) means) per band. ``rows_of(a, b, out)`` writes image rows a:b into the
    float64 ``out``, each row once and in order; ``hsi.window_axis`` maps each
    padded row and column to the pixel it reads, and a side-1 window yields
    those rows as they are. Other sides walk the padded rows once, top to
    bottom, keeping the running axis-0 sum of the rows so far and a ring of
    the last side + 1 summed-area prefix rows (the running sum summed along
    axis 1): each prefix row completes the means of the image row side rows
    above it, in a band's own means array. So each padded row is summed along
    axis 1 once, and every sum is the same sequential sum as over the whole
    image. A band holds the image rows its padded rows read, and keeps those
    that later bands read; the caller sizes the bands (``FeatureSpace.scores``
    keeps a band's new rows and its means within the size of the ring)."""
    side = patch.side
    if side == 1:
        for a in range(0, height, band):
            rows = np.empty((min(a + band, height) - a, width, k))
            rows_of(a, a + len(rows), rows)
            yield a, rows
            del rows
        return
    row_of, col_of = window_axis(height, patch), window_axis(width, patch)
    # the first image row that padded rows p and on read; past the last, none
    first_read = np.minimum.accumulate(np.append(row_of, height)[::-1])[::-1]
    # prefix row q at q % (side + 1): column j sums padded rows < q and columns < j
    ring = np.zeros((side + 1, width + side, k))
    held, held_from = np.empty((0, width, k)), 0  # image rows read and kept, from held_from
    for a in range(0, height, band):
        b = min(a + band, height)
        padded = range(a + side - 1 if a else 0, b + side - 1)  # each p adds prefix row p + 1
        read = row_of[padded.start : padded.stop].max() + 1 - held_from
        if read > len(held):
            grown = np.empty((read, width, k))
            grown[: len(held)] = held
            rows_of(held_from + len(held), held_from + read, grown[len(held) :])
            held = grown
            del grown
        means = np.empty((b - a, width, k))
        for p in padded:
            row = held[row_of[p] - held_from, col_of]
            down = np.add(down, row, out=row) if p else row
            prefix, top = ring[(p + 1) % (side + 1)], ring[(p + 1 - side) % (side + 1)]
            np.cumsum(down[None], axis=1, out=prefix[None, 1:])
            if p + 1 >= side:
                out = means[p + 1 - side - a]
                np.subtract(prefix[side:], top[side:], out=out)
                out -= prefix[:-side]
                out += top[:-side]
        means /= side * side
        keep = first_read[b + side - 1] - held_from
        held, held_from = held[keep:].copy(), held_from + keep
        yield a, means
        del means, out  # neither the band nor a view of it is held while the next is made


def _pivoted_cholesky(gram: np.ndarray) -> np.ndarray:
    """R (n, rank) with R R' = gram for a symmetric positive semi-definite
    gram, rows in input order, by LAPACK ``dpstrf``'s rule: the pivot is the
    largest remaining diagonal (the first of equals), and the factor stops
    at the first pivot that is not above n u max(diag gram), u = 2^-53 the
    unit roundoff. Runs in place in ``gram``'s upper triangle, whose row j
    becomes column j of the permuted factor: within a panel of
    ``_PANEL`` pivots the next row is updated by the panel's rows so far,
    and after it the trailing triangle by the whole panel, one block of rows
    at a time. So it holds the Gram and the factor only. Not bit for bit
    LAPACK's, whose blocking and summation order differ."""
    n = len(gram)
    top = gram.diagonal().max(initial=0.0)
    if not top > 0:
        return np.zeros((n, 0))
    stop = n * np.finfo(np.float64).eps / 2 * top
    perm, rank = np.arange(n), n
    for j in range(0, n, _PANEL):
        end = min(j + _PANEL, n)
        dots = np.zeros(n)  # squares of this panel's rows so far, by column
        for t in range(j, end):
            if t > j:
                dots[t:] += gram[t - 1, t:] ** 2
            rest = gram.diagonal()[t:] - dots[t:]
            p = t + int(np.argmax(rest))
            pivot = rest[p - t]
            if not pivot > stop:  # also NaN
                rank = t
                break
            if p != t:  # swap t and p in the upper triangle
                gram[p, p] = gram[t, t]
                gram[:t, [t, p]] = gram[:t, [p, t]]
                gram[[t, p], p + 1 :] = gram[[p, t], p + 1 :]
                gram[t, t + 1 : p], gram[t + 1 : p, p] = gram[t + 1 : p, p], gram[t, t + 1 : p].copy()
                dots[[t, p]], perm[[t, p]] = dots[[p, t]], perm[[p, t]]
            gram[t, t] = pivot = np.sqrt(pivot)
            if t > j:
                gram[t, t + 1 :] -= gram[j:t, t] @ gram[j:t, t + 1 :]
            gram[t, t + 1 :] /= pivot
        if rank < n:
            break
        for a, b in row_blocks(n - end, max(n - end, 1)):
            lead = gram[j:end, end + a :]
            gram[end + a : end + b, end + a :] -= lead[:, : b - a].T @ lead
    for i in range(1, rank):
        gram[i, :i] = 0.0
    return gram[:rank].T[np.argsort(perm)]


def _minmax_scale_columns(table: np.ndarray) -> np.ndarray:
    """Each column mapped onto [0, 1] (a constant column onto 0), in one new
    table: the differences are divided in place, so no second copy is held."""
    lows = table.min(axis=0)
    spans = table.max(axis=0) - lows
    spans = np.where(spans > 0, spans, 1.0)
    scaled = np.subtract(table, lows)
    scaled /= spans
    return scaled


def _fuse(profile_rows: np.ndarray, mean_map_rows: np.ndarray) -> np.ndarray:
    """Row-wise flattened outer products, profile index major."""
    n = profile_rows.shape[0]
    return (profile_rows[:, :, None] * mean_map_rows[:, None, :]).reshape(n, -1)


@dataclass(frozen=True, eq=False)
class FeatureSpace:
    """One method's features on one image, resolved but not materialized.

    A feature-table row is the mean of the pixel rows (spectra, z or profile
    rows) over the pixel's ``patch``: the configured patch for the
    ``WINDOWED`` methods, a window of side 1, the pixel row itself, for the
    others. Fusion's row would fuse that mean with the pixel's
    min-max-scaled profile row. The window mean is linear, so ``scores``
    window-means the pixel rows' scores (fusion: the z) in bands, never
    building a whole-image table, score image or mean map. Every method
    trains on ``patch_means``, summed one window row at a time; fusion
    builds no fused row: it trains on ``kernel_rows`` of them and scores
    through its factored kernel.
    """

    image: HyperspectralImage
    method: str
    meta: dict
    patch: PatchSpec
    normalize: bool = True
    fmap: RandomFeatureMap | None = None
    sigma: float = 1.0
    beta: float = 1.0
    profile: np.ndarray | None = None

    @property
    def dual(self) -> bool:
        """Whether ``scores`` takes dual coefficients and their support
        (fusion) instead of weights."""
        return self.method == "mp_x_meanmap"

    @property
    def row_dim(self) -> int:
        """Width of a pixel row (fusion: of its z)."""
        if self.method == "raw":
            return self.image.bands
        if self.method == "mp":
            return self.profile.shape[1]
        return self.fmap.feature_dim

    def pixel_rows(self, idx: np.ndarray | slice) -> np.ndarray:
        """Features of flat pixel indices (an index array, or a slice of
        contiguous pixels, read without a copy) before the window mean:
        spectra, profile rows, float32 z of unit (or raw) spectra, or
        (convmeanmap) |x| z of [position, spectrum]."""
        if self.method == "mp":
            return self.profile[idx]
        spectra = self.image.pixels()[idx]
        if self.method == "raw":
            return spectra
        if self.method != "convmeanmap":
            return _random_features(self.fmap, spectra, self.normalize)
        if isinstance(idx, slice):
            idx = np.arange(*idx.indices(self.image.height * self.image.width))
        positions = np.stack(np.divmod(idx, self.image.width), axis=1).astype(np.float64)
        return _random_features(self.fmap, spectra, True, positions, self.beta, self.sigma)

    def patch_means(self, idx: np.ndarray) -> np.ndarray:
        """Means of the pixel rows over the patches of the given flat pixel
        indices: every method's training rows (fusion's before
        ``kernel_rows``). The image rows that the windows touch are taken
        from top to bottom, and each pixel of their union is embedded once,
        in one call with those of as many consecutive image rows as make at
        most one image row of pixels (``width``). On image row r, each window
        row that reads r is summed member by member in window order, in
        float64 from zero; a pixel's sums on r (several when a border
        repeats r) are added in window order and then to its row, and the
        rows are divided by side^2 at the end. So a row does not depend on
        the other indices or on the block size. A side-1 window gives
        (0 + x) / 1, the pixel row x itself (up to the sign of a zero).
        Besides the rows it holds a mask of the image's pixels, the union's
        indices, one image row of pixel rows and one sum per window row on
        one image row."""
        side, width = self.patch.side, self.image.width
        windows = patch_indices(idx, self.patch, self.image.height, width).reshape(-1, side, side)
        image_row = windows[:, :, 0] // width
        rows = np.zeros((len(windows), self.row_dim))
        touched = np.zeros(self.image.height * width, dtype=bool)
        touched[windows.ravel()] = True
        # the union, image row after image row: a mask, not a sort of every
        # member, whose copies raised paper row 3's peak RSS by 10 MB
        members = np.flatnonzero(touched)
        counts = touched.reshape(-1, width).sum(axis=1)
        ends = np.cumsum(counts)  # of each image row's members
        starts = ends - counts
        stop = 0
        for r in np.unique(image_row):
            if r >= stop:  # embed the members of this and the next image rows, up to width
                stop = np.searchsorted(ends, starts[r] + width, side="right")
                z, z_from = self.pixel_rows(members[starts[r] : ends[stop - 1]]), starts[r]
            t, i = np.nonzero(image_row == r)  # pixel major
            where = np.searchsorted(members, windows[t, i]) - z_from
            sums = np.zeros((t.size, self.row_dim))
            for k in range(side):
                sums += z[where[:, k]]
            first = np.flatnonzero(np.diff(t, prepend=-1))
            rows[t[first]] += np.add.reduceat(sums, first)
        rows /= side * side
        return rows

    def kernel_rows(self, idx: np.ndarray, means: np.ndarray) -> np.ndarray:
        """Fusion's training rows of distinct flat pixel indices and their
        ``patch_means`` M: R with R R' = (P P') * (M M'), their fused rows' Gram
        (P: profile rows), as ``_pivoted_cholesky`` factors it, one column per
        pivot."""
        gram = self.profile[idx] @ self.profile[idx].T
        gram *= means @ means.T
        return _pivoted_cholesky(gram)

    def scores(self, weights, support: tuple | None = None):
        """Every pixel's table row times the (row_dim, K) weights, in one pass of row
        bands: yields (first flat pixel, (rows, K) scores) per band. A band is at
        most one block of its widest array and, for a patch of side s > 1, at
        most (s + 1) (W + s) / (2 W) image rows, so the new rows it reads and its
        means take no more than the filter's ring of s + 1 prefix rows (8 rows
        at s = 15 on both bench widths). Each row is embedded once, in equal
        blocks of at most one block of their widest array. The float32 z of
        ``rff`` and ``meanmap`` meet the weights, cast once, in float32; the
        products are widened to float64 before the window mean.

        Fusion scores in the dual and never builds a fused row. ``support`` is
        the (flat indices, patch means) of the training pixels of all runs, run
        after run, and ``weights`` the list of each run's (T_r, K_r) dual
        coefficients A_r (``svm.dual_coefficients``). A fused row's inner
        product factors, <p (x) m, p' (x) m'> = <p, p'> <m, m'>, so run r's K_r
        columns of a band are ((P P_r') * (M M_r')) A_r, with P the band's
        profile rows and M the window means of its z. A band is formed and
        yielded in equal sub-blocks (``hsi.equal_blocks``), whose Gram rows,
        the product multiplied into them and scores fill at most one block
        together."""
        h, w, fused = self.image.height, self.image.width, self.dual
        if fused and support is None:
            raise ContractViolation("fusion scores need the training pixels as support")
        # the ends of each run's support rows and score columns
        ends = np.cumsum([a_r.shape for a_r in weights], axis=0) if fused else None
        k = int(ends[-1, 1]) if fused else weights.shape[1]
        width = self.row_dim if fused else k
        spectra = 0 if self.method == "mp" else self.image.bands
        weights32 = None if fused else weights.astype(np.float32)

        def image_rows(a, b, out):
            # float64 rows: the band's z (fusion) or its scores, widened; a
            # float32 z meets the weights in float32, other rows in float64
            rows = out.reshape(-1, width)  # a view: out is contiguous
            for c, d in equal_blocks(len(rows), max(self.row_dim, k, spectra)):
                pixels = self.pixel_rows(slice(a * w + c, a * w + d))
                if not fused:
                    pixels = pixels @ (weights32 if pixels.dtype == np.float32 else weights)
                rows[c:d] = pixels

        if fused:
            train_idx, train_means = support
            train_profile = self.profile[train_idx].T
        # one block of the widest array (fusion: of its Gram rows), then the ring rule
        band = block_rows(w * max(width, k, len(train_idx) if fused else 0))
        side = self.patch.side
        if side > 1:
            band = min(band, max(1, (side + 1) * (w + side) // (2 * w)))
        for a, means in _window_means(image_rows, h, w, width, self.patch, band):
            means = means.reshape(-1, width)
            if not fused:
                yield a * w, means
            else:
                # a sub-block's Gram rows, the product multiplied into them and
                # its scores fill at most one block together
                for c, d in equal_blocks(len(means), 2 * len(train_idx) + k):
                    gram = self.profile[a * w + c : a * w + d] @ train_profile
                    gram *= means[c:d] @ train_means.T
                    scores = np.empty((d - c, k))
                    for a_r, (t, e) in zip(weights, ends):
                        np.matmul(gram[:, t - len(a_r) : t], a_r, out=scores[:, e - a_r.shape[1] : e])
                    del gram
                    yield a * w + c, scores
                    del scores  # not held while the next sub-block is made
            del means  # not held while the next band is made


def prepare_features(
    image: HyperspectralImage,
    method: str,
    config: EmbeddingConfig | None = None,
    mp_config: MorphoProfileConfig | None = None,
) -> FeatureSpace:
    """Resolve a method's features on ``image``: bandwidths (median
    heuristic, image diagonal), random frequencies and the morphological
    profile (min-max-scaled for fusion). ``meta`` records the settings.
    Deterministic for a fixed config seed.
    """
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    config = config or EmbeddingConfig()
    h, w, d = image.height, image.width, image.bands
    patch = config.patch if method in WINDOWED else PatchSpec(1)
    if method == "raw":
        return FeatureSpace(image, "raw", {"method": "raw", "rows": h * w, "dim": d}, patch)

    meta = {"method": method}
    profile = None
    if method in ("mp", "mp_x_meanmap"):
        mp_config = mp_config or MorphoProfileConfig()
        profile = morphological_profile(image, mp_config)
        meta.update(
            pca_dims=mp_config.pca_dims, n_scales=mp_config.n_scales, se_shape=mp_config.se_shape
        )
    if method == "mp":
        return FeatureSpace(image, "mp", meta, patch, profile=profile)

    sigma = config.sigma if config.sigma is not None else median_heuristic(image, seed=config.seed)
    beta = config.beta if config.beta is not None else float(np.hypot(h, w))
    meta.update(
        sigma=sigma,
        beta=beta,
        n_features=config.n_features,
        patch_side=config.patch.side,
        border=config.patch.border,
        seed=config.seed,
        normalize=config.normalize,
    )
    if method == "convmeanmap":
        fmap = sample_frequencies(d + 2, config.n_features, 1.0, config.seed)
    else:
        fmap = sample_frequencies(d, config.n_features, sigma, config.seed)
    if method == "mp_x_meanmap":
        profile = _minmax_scale_columns(profile)
    return FeatureSpace(image, method, meta, patch, config.normalize, fmap, sigma, beta, profile)


def build_feature_table(
    image: HyperspectralImage,
    method: str,
    config: EmbeddingConfig | None = None,
    mp_config: MorphoProfileConfig | None = None,
    space: FeatureSpace | None = None,
) -> FeatureTable:
    """The dense reference: one feature row per pixel for the requested
    method (raw spectra, random features, mean maps, convolutional mean
    maps, morphological profiles or their fusion with mean maps). The
    window mean is the banded box filter, in bands of about one block
    written into the table, so besides the table it holds a few blocks. The
    commands build this table only when it fits in one block (see
    ``evaluation.predict_runs``), from the ``space`` they already resolved
    for these arguments. Deterministic for a fixed config seed.
    """
    if space is None:
        space = prepare_features(image, method, config, mp_config)
    h, w, dim = image.height, image.width, space.row_dim

    def rows_of(a, b, out):
        out[...] = space.pixel_rows(slice(a * w, b * w)).reshape(out.shape)

    values = np.empty((h * w, dim))
    for a, means in _window_means(rows_of, h, w, dim, space.patch, block_rows(w * dim)):
        values[a * w : (a + len(means)) * w] = means.reshape(-1, dim)
        del means
    if space.dual:
        values = _fuse(space.profile, values)
    return FeatureTable(values, space.meta)
