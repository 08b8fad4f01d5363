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
from scipy.sparse import csc_matrix
from scipy.spatial.distance import pdist

from .errors import CapacityError, ContractViolation, ParameterError, ShapeError
from .hsi import HyperspectralImage, PatchSpec, patch_indices
from .morphology import MorphoProfileConfig, morphological_profile
from .rff import RandomFeatureMap, feature_matrix, sample_frequencies

FEATURE_KINDS = ("raw", "rff", "meanmap", "convmeanmap", "mp", "tensor")
METHODS = ("raw", "rff", "meanmap", "convmeanmap", "mp", "mp_x_meanmap")
# methods whose table rows are window means of per-pixel rows
WINDOWED = ("meanmap", "convmeanmap")

# float64 elements of pixel rows (or their scores) computed at once (32 MB)
_SCORE_BLOCK = 1 << 22


def block_rows(width: int) -> int:
    """How many rows of ``width`` float64 values make one score block."""
    return max(1, _SCORE_BLOCK // width)


@dataclass(frozen=True)
class PixelFeature:
    """A finite-dimensional feature vector for one pixel."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 1:
            raise ShapeError(f"feature values must be 1-D, got shape {v.shape}")
        if self.kind not in FEATURE_KINDS:
            raise ParameterError(f"kind must be one of {FEATURE_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


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
    tensor_cap: int = 65536

    def __post_init__(self):
        if self.sigma is not None and self.sigma <= 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if self.beta is not None and self.beta <= 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if self.n_features < 1:
            raise ParameterError(f"n_features must be >= 1, got {self.n_features}")
        if self.tensor_cap < 1:
            raise ParameterError(f"tensor_cap must be >= 1, got {self.tensor_cap}")


def _unit_rows(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit norm (zero rows stay zero), and the norms."""
    norms = np.linalg.norm(spectra, axis=1)
    return spectra / np.where(norms > 0, norms, 1.0)[:, None], norms


def median_heuristic(image: HyperspectralImage, sample_size: int = 1000, seed: int = 0) -> float:
    """Median pairwise distance of randomly sampled unit-normalized spectra.

    Deterministic per seed; falls back to 1.0 if the sampled spectra are
    all identical.
    """
    pixels = image.pixels()
    n = pixels.shape[0]
    rng = np.random.default_rng(seed)
    take = min(sample_size, n)
    idx = rng.choice(n, size=take, replace=False)
    sample = _unit_rows(pixels[idx])[0]
    if take < 2:
        return 1.0
    med = float(np.median(pdist(sample)))
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

    Without positions, z(x) of each spectrum, scaled to unit norm first
    when ``normalize`` is set. With positions (the convolutional
    variant), |x| z([position/beta, unit spectrum/sigma]). The one place
    that calls ``feature_matrix``.
    """
    if positions is None:
        return feature_matrix(fmap, _unit_rows(spectra)[0] if normalize else spectra)
    unit, norms = _unit_rows(spectra)
    augmented = np.concatenate([positions / beta, unit / sigma], axis=1)
    feats = feature_matrix(fmap, augmented)
    feats *= norms[:, None]
    return feats


def mean_map_feature(fmap: RandomFeatureMap, patch: np.ndarray) -> PixelFeature:
    """Average of the random features of the patch spectra."""
    patch = np.atleast_2d(np.asarray(patch, dtype=np.float64))
    if patch.shape[0] == 0:
        raise ContractViolation("patch must contain at least one spectrum")
    feats = _random_features(fmap, patch, normalize=False)
    return PixelFeature(feats.mean(axis=0), "meanmap")


def mean_map_kernel(a: PixelFeature, b: PixelFeature) -> float:
    """Dot product of two distribution embeddings."""
    for f in (a, b):
        if f.kind not in ("meanmap", "convmeanmap"):
            raise ContractViolation(f"expected mean-map features, got kind {f.kind!r}")
    if a.dim != b.dim:
        raise ShapeError(f"feature dims differ: {a.dim} vs {b.dim}")
    return float(a.values @ b.values)


def augment_pixel(
    position: np.ndarray, spectrum: np.ndarray, beta: float, sigma: float
) -> np.ndarray:
    """Stack scaled position and spectrum so one unit-bandwidth RBF factors
    into spatial (bandwidth beta) and spectral (bandwidth sigma) RBFs."""
    if beta <= 0 or sigma <= 0:
        raise ParameterError("beta and sigma must be positive")
    position = np.asarray(position, dtype=np.float64)
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if position.shape != (2,):
        raise ShapeError(f"position must be a 2-vector, got {position.shape}")
    return np.concatenate([position / beta, spectrum / sigma])


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
    return PixelFeature(weighted.sum(axis=0) / spectra.shape[0], "convmeanmap")


def tensor_product_features(
    u: PixelFeature, v: PixelFeature, cap: int = 65536
) -> PixelFeature:
    """Flattened outer product; its inner products factor exactly into the
    inner products of the inputs."""
    out_dim = u.dim * v.dim
    if out_dim > cap:
        raise CapacityError(
            f"tensor feature dimension {u.dim}*{v.dim}={out_dim} exceeds cap {cap}; "
            "reduce the input feature dimensions"
        )
    return PixelFeature(np.outer(u.values, v.values).ravel(), "tensor")


# ---------------------------------------------------------------------------
# The dense feature table and the streamed feature space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureTable:
    """One feature row per pixel (row-major pixel order)."""

    values: np.ndarray
    kind: str
    meta: dict

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 2:
            raise ShapeError(f"table must be 2-D, got {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def _window_means(rows_of, height: int, width: int, k: int, side: int, border: str, band: int):
    """Means over side x side windows of an (height, width, k) image, in bands
    of ``band`` image rows from top to bottom: yields (first row, (rows, width,
    k) means) per band. ``rows_of(a, b)`` gives image rows a:b, each once and in
    order; borders pad as ``np.pad``'s edge (clamp) or symmetric (mirror) mode.
    Sums are summed-area prefix sums over column groups of one score block; a
    band carries on the axis-0 sums of the last ``side`` padded rows, so each
    is the same sequential sum as over the whole image. A whole-image band is
    filtered in place, in the array that ``rows_of`` gave."""
    if side == 1:
        for a in range(0, height, band):
            yield a, rows_of(a, min(a + band, height))
        return
    lo = (side - 1) // 2
    mode = "edge" if border == "clamp" else "symmetric"
    row_of = np.pad(np.arange(height), (lo, side - 1 - lo), mode=mode)
    col_of = np.pad(np.arange(width), (lo, side - 1 - lo), mode=mode)
    first_read = np.minimum.accumulate(row_of[::-1])[::-1]  # by padded rows p and on
    group = max(1, min(k, _SCORE_BLOCK // ((band + side) * (width + side))))
    scratch = np.zeros((band + side, width + side, group))
    carry = np.empty((side, width + side, k))  # the last side rows of the axis-0 prefix
    held, held_from, fed = np.empty((0, width, k)), 0, 0  # scored rows kept; padded rows fed
    for a in range(0, height, band):
        b = min(a + band, height)
        new = row_of[fed : b + side - 1] - held_from
        if new.max() >= held.shape[0]:
            fresh = rows_of(held_from + held.shape[0], held_from + new.max() + 1)
            held = np.concatenate([held, fresh]) if held.size else fresh
            del fresh
        carried, fed = (side if fed else 1), b + side - 1
        # later bands read held rows from keep on; the means overwrite those before
        keep = first_read[fed] - held_from if b < height else held.shape[0]
        means = held[: b - a] if keep >= b - a else np.empty((b - a, width, k))
        for c in range(0, k, group):
            cols = slice(c, c + group)
            s = scratch[: b - a + side, :, : min(group, k - c)]
            s[:carried] = carry[:, :, cols] if carried > 1 else 0.0
            for i, r in enumerate(new, carried):
                s[i, 1:] = held[r, col_of, cols]
            down = s[max(1, carried - 1) :, 1:]  # from the last carried row on
            np.cumsum(down, axis=0, out=down)
            carry[:, :, cols] = s[-side:]
            np.cumsum(s[:, 1:], axis=1, out=s[:, 1:])
            out = means[:, :, cols]
            np.subtract(s[side:, side:], s[:-side, side:], out=out)
            out -= s[side:, :-side]
            out += s[:-side, :-side]
        means /= side * side
        if b < height:
            held, held_from = held[keep:].copy(), held_from + keep
        yield a, means
        del means  # not held while the next band is made


def _minmax_scale_columns(table: np.ndarray) -> np.ndarray:
    lows = table.min(axis=0)
    spans = table.max(axis=0) - lows
    spans = np.where(spans > 0, spans, 1.0)
    return (table - lows) / spans


def _fuse(profile_rows: np.ndarray, mean_map_rows: np.ndarray) -> np.ndarray:
    """Row-wise flattened outer products, profile index major."""
    n = profile_rows.shape[0]
    return (profile_rows[:, :, None] * mean_map_rows[:, None, :]).reshape(n, -1)


@dataclass(frozen=True, eq=False)
class FeatureSpace:
    """One method's features on one image, resolved but not materialized.

    A feature-table row of a windowed method (meanmap, convmeanmap) is the
    mean of the pixel rows (z) over the pixel's patch; fusion fuses it with
    the pixel's min-max-scaled profile row; other methods use the pixel
    row. The window mean is linear, so ``scores`` window-means the pixel
    rows' scores (fusion: the z) in bands, never building a whole-image
    table, score image or mean map.
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
    def row_dim(self) -> int:
        """Width of a table row."""
        if self.method == "raw":
            return self.image.bands
        if self.method == "mp":
            return self.profile.shape[1]
        if self.method == "mp_x_meanmap":
            return self.profile.shape[1] * self.fmap.feature_dim
        return self.fmap.feature_dim

    def pixel_rows(self, idx: np.ndarray) -> np.ndarray:
        """Features of flat pixel indices before the window mean: spectra, profile
        rows, z of unit (or raw) spectra, or (convmeanmap) |x| z of [position, spectrum]."""
        if self.method == "mp":
            return self.profile[idx]
        spectra = self.image.pixels()[idx]
        if self.method == "raw":
            return spectra
        if self.method != "convmeanmap":
            return _random_features(self.fmap, spectra, self.normalize)
        positions = np.stack(np.divmod(idx, self.image.width), axis=1).astype(np.float64)
        return _random_features(self.fmap, spectra, True, positions, self.beta, self.sigma)

    def table_rows(self, idx: np.ndarray) -> np.ndarray:
        """Feature-table rows of the given flat pixel indices. Patch means
        embed the union of the patches once, in blocks."""
        idx = np.asarray(idx, dtype=np.int64)
        if self.method not in WINDOWED and self.method != "mp_x_meanmap":
            return self.pixel_rows(idx)
        windows = patch_indices(idx, self.patch, self.image.height, self.image.width)
        members, where = np.unique(windows.ravel(), return_inverse=True)
        owners = np.repeat(np.arange(idx.size), windows.shape[1])
        counts = csc_matrix((np.ones(windows.size), (owners, where)), shape=(idx.size, members.size))
        rows = np.zeros((idx.size, self.fmap.feature_dim))
        step = block_rows(self.fmap.feature_dim)
        for start in range(0, members.size, step):
            block = members[start : start + step]
            rows += counts[:, start : start + block.size] @ self.pixel_rows(block)
        rows /= windows.shape[1]
        return _fuse(self.profile[idx], rows) if self.method == "mp_x_meanmap" else rows

    def scores(self, weights: np.ndarray):
        """Every pixel's table row times the (row_dim, K) weights, in one pass of row
        bands of about one score block (of K scores, or of fusion's 2N-wide z if wider):
        yields (first flat pixel, (rows, K) scores) per band. Each row is embedded once."""
        h, w, k = self.image.height, self.image.width, weights.shape[1]
        fused = self.method == "mp_x_meanmap"
        width = self.fmap.feature_dim if fused else k
        side = self.patch.side if fused or self.method in WINDOWED else 1

        def image_rows(a, b):
            idx = np.arange(a * w, b * w)
            rows = self.pixel_rows(idx) if fused else self._times(self.pixel_rows, idx, weights)
            return rows.reshape(b - a, w, width)

        band = max(1, _SCORE_BLOCK // (w * max(width, k)))
        for a, means in _window_means(image_rows, h, w, width, side, self.patch.border, band):
            scores = means = means.reshape(-1, width)
            if fused:
                profile = self.profile[a * w :]
                scores = self._times(
                    lambda i: _fuse(profile[i], means[i]), np.arange(len(means)), weights
                )
            yield a * w, scores
            del means, scores  # not held while the next band is made

    def _times(self, rows_of, idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``rows_of(block) @ weights`` over row blocks of ``idx``."""
        out = np.empty((idx.size, weights.shape[1]))
        step = block_rows(max(self.row_dim, weights.shape[1]))
        for start in range(0, idx.size, step):
            np.matmul(rows_of(idx[start : start + step]), weights, out=out[start : start + step])
        return out


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
    if method == "raw":
        return FeatureSpace(image, "raw", {"method": "raw", "rows": h * w, "dim": d}, config.patch)

    meta = {"method": method}
    profile = None
    if method in ("mp", "mp_x_meanmap"):
        mp_config = mp_config or MorphoProfileConfig()
        profile = morphological_profile(image, mp_config)
        meta.update(
            pca_dims=mp_config.pca_dims, n_scales=mp_config.n_scales, se_shape=mp_config.se_shape
        )
    if method == "mp":
        return FeatureSpace(image, "mp", meta, config.patch, profile=profile)

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
        out_dim = profile.shape[1] * fmap.feature_dim
        if out_dim > config.tensor_cap:
            raise CapacityError(
                f"tensor feature dimension {profile.shape[1]}*{fmap.feature_dim}={out_dim} "
                f"exceeds cap {config.tensor_cap}; reduce n_features or the profile size"
            )
        profile = _minmax_scale_columns(profile)
    return FeatureSpace(
        image, method, meta, config.patch, config.normalize, fmap, sigma, beta, profile
    )


def build_feature_table(
    image: HyperspectralImage,
    method: str,
    config: EmbeddingConfig | None = None,
    mp_config: MorphoProfileConfig | None = None,
) -> FeatureTable:
    """The dense reference: one feature row per pixel for the requested
    method (raw spectra, random features, mean maps, convolutional mean
    maps, morphological profiles or their fusion with mean maps). The
    window mean is the banded box filter run as one band, in place. The
    commands build this table only when it fits in one score block (see
    ``evaluation.predict_runs``). Deterministic for a fixed config seed.
    """
    space = prepare_features(image, method, config, mp_config)
    h, w = image.height, image.width
    values = space.pixel_rows(np.arange(h * w))
    if method in WINDOWED or method == "mp_x_meanmap":
        stack, side, border = values.reshape(h, w, -1), space.patch.side, space.patch.border
        ((_, means),) = _window_means(lambda a, b: stack[a:b], h, w, stack.shape[2], side, border, h)
        values = means.reshape(h * w, -1)
    if method == "mp_x_meanmap":
        values = _fuse(space.profile, values)
    kind = "tensor" if method == "mp_x_meanmap" else method
    return FeatureTable(values, kind, space.meta)
