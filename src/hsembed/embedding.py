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

from dataclasses import dataclass, field, replace

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
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def row(self, i: int) -> PixelFeature:
        return PixelFeature(self.values[i], self.kind)


def _sliding_window_mean(stack: np.ndarray, side: int, border: str) -> np.ndarray:
    """Mean over side x side windows of an (H, W, K) stack, honouring the
    border policy via replicated or reflected padding. Works in place on
    ``stack`` and returns it; column-blocked to bound the scratch."""
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

    ``pixel_rows`` gives any pixels' features before the window mean. A
    feature-table row of a windowed method (meanmap, convmeanmap) is the
    mean of the pixel rows over the pixel's patch; of any other method it
    is the pixel row itself. Since the window mean is linear, scores of
    the table rows against weights are window means of the pixel rows'
    scores, so no whole-image table is needed. Fusion keeps the
    whole-image mean map and the min-max-scaled profile, and forms their
    outer products one row block at a time.
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
    mean_map: np.ndarray | None = None

    @property
    def row_dim(self) -> int:
        """Width of a pixel row, which is also that of a table row."""
        if self.method == "raw":
            return self.image.bands
        if self.method == "mp":
            return self.profile.shape[1]
        if self.method == "mp_x_meanmap":
            return self.profile.shape[1] * self.fmap.feature_dim
        return self.fmap.feature_dim

    def random_features(self, idx: np.ndarray) -> np.ndarray:
        """z of the given pixels' unit (or raw) spectra; for convmeanmap,
        |x| z of their augmented position/spectrum vectors."""
        spectra = self.image.pixels()[idx]
        if self.method != "convmeanmap":
            return _random_features(self.fmap, spectra, self.normalize)
        positions = np.stack(np.divmod(idx, self.image.width), axis=1).astype(np.float64)
        return _random_features(self.fmap, spectra, True, positions, self.beta, self.sigma)

    def pixel_rows(self, idx: np.ndarray) -> np.ndarray:
        """Features of the given flat pixel indices before the window mean."""
        if self.method == "raw":
            return self.image.pixels()[idx]
        if self.method == "mp":
            return self.profile[idx]
        if self.method == "mp_x_meanmap":
            return _fuse(self.profile[idx], self.mean_map[idx])
        return self.random_features(idx)

    def table_rows(self, idx: np.ndarray) -> np.ndarray:
        """Feature-table rows of the given flat pixel indices.

        A windowed row is the mean of the pixel rows over its own patch;
        the pixel rows are computed once over the union of the patches,
        in blocks.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if self.method not in WINDOWED:
            return self.pixel_rows(idx)
        windows = patch_indices(idx, self.patch, self.image.height, self.image.width)
        members, where = np.unique(windows.ravel(), return_inverse=True)
        owners = np.repeat(np.arange(idx.size), windows.shape[1])
        counts = csc_matrix(
            (np.ones(windows.size), (owners, where)), shape=(idx.size, members.size)
        )
        rows = np.zeros((idx.size, self.row_dim))
        step = block_rows(self.row_dim)
        for start in range(0, members.size, step):
            block = members[start : start + step]
            rows += counts[:, start : start + block.size] @ self.pixel_rows(block)
        rows /= windows.shape[1]
        return rows

    def scores(self, weights: np.ndarray) -> np.ndarray:
        """Every pixel's table row times the (row_dim, K) weights, as an
        (H*W, K) array: pixel-row scores in row blocks, then their window
        mean for the windowed methods."""
        out = self._map_pixels(lambda idx: self.pixel_rows(idx) @ weights, weights.shape[1])
        return self._window_mean(out) if self.method in WINDOWED else out

    def _map_pixels(self, rows_of, width: int) -> np.ndarray:
        """``rows_of(idx)`` for every pixel in row blocks, into (H*W, width)."""
        n = self.image.height * self.image.width
        out = np.empty((n, width))
        step = block_rows(max(self.row_dim, width))
        for start in range(0, n, step):
            out[start : start + step] = rows_of(np.arange(start, min(start + step, n)))
        return out

    def _window_mean(self, values: np.ndarray) -> np.ndarray:
        """Window mean over the patch of each pixel, in place on (H*W, K) values."""
        h, w = self.image.height, self.image.width
        stack = values.reshape(h, w, -1)
        return _sliding_window_mean(stack, self.patch.side, self.patch.border).reshape(h * w, -1)


def prepare_features(
    image: HyperspectralImage,
    method: str,
    config: EmbeddingConfig | None = None,
    mp_config: MorphoProfileConfig | None = None,
) -> FeatureSpace:
    """Resolve a method's features on ``image``: bandwidths (median
    heuristic, image diagonal), random frequencies, the morphological
    profile and, for fusion, the whole-image mean map. ``meta`` records
    the settings. Deterministic for a fixed config seed.
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
    space = FeatureSpace(
        image, method, meta, config.patch, config.normalize, fmap, sigma, beta, profile
    )
    if method != "mp_x_meanmap":
        return space
    out_dim = profile.shape[1] * fmap.feature_dim
    if out_dim > config.tensor_cap:
        raise CapacityError(
            f"tensor feature dimension {profile.shape[1]}*{fmap.feature_dim}={out_dim} "
            f"exceeds cap {config.tensor_cap}; reduce n_features or the profile size"
        )
    z = space._map_pixels(space.random_features, fmap.feature_dim)
    return replace(space, profile=_minmax_scale_columns(profile), mean_map=space._window_mean(z))


def build_feature_table(
    image: HyperspectralImage,
    method: str,
    config: EmbeddingConfig | None = None,
    mp_config: MorphoProfileConfig | None = None,
) -> FeatureTable:
    """The dense reference: one feature row per pixel for the requested method.

    Methods: raw spectra, per-pixel random features, neighbourhood mean
    maps, magnitude-weighted convolutional mean maps, morphological
    profiles, and the tensor-product fusion of profiles with mean maps.
    The window mean runs over the whole (H, W, dim) feature image. The
    commands build this table only when it fits in one score block (see
    ``evaluation.predict_runs``); otherwise they train on
    ``FeatureSpace.table_rows`` and score through ``FeatureSpace.scores``.
    Deterministic for a fixed config seed.
    """
    space = prepare_features(image, method, config, mp_config)
    values = space.pixel_rows(np.arange(image.height * image.width))
    if method in WINDOWED:
        values = space._window_mean(values)
    kind = "tensor" if method == "mp_x_meanmap" else method
    return FeatureTable(values, kind, space.meta)
