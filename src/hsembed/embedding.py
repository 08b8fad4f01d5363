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
from scipy.spatial.distance import pdist

from .errors import CapacityError, ContractViolation, ParameterError, ShapeError
from .hsi import HyperspectralImage, PatchSpec
from .morphology import MorphoProfileConfig, morphological_profile
from .rff import RandomFeatureMap, feature_matrix, sample_frequencies

FEATURE_KINDS = ("raw", "rff", "meanmap", "convmeanmap", "mp", "tensor")
METHODS = ("raw", "rff", "meanmap", "convmeanmap", "mp", "mp_x_meanmap")


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
    sample = pixels[idx]
    norms = np.linalg.norm(sample, axis=1, keepdims=True)
    sample = sample / np.where(norms > 0, norms, 1.0)
    if take < 2:
        return 1.0
    med = float(np.median(pdist(sample)))
    return med if med > 0 else 1.0


# ---------------------------------------------------------------------------
# Single-pixel constructions
# ---------------------------------------------------------------------------

def mean_map_feature(fmap: RandomFeatureMap, patch: np.ndarray) -> PixelFeature:
    """Average of the random features of the patch spectra."""
    patch = np.atleast_2d(np.asarray(patch, dtype=np.float64))
    if patch.shape[0] == 0:
        raise ContractViolation("patch must contain at least one spectrum")
    feats = feature_matrix(fmap, patch)
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
    norms = np.linalg.norm(spectra, axis=1)
    unit = spectra / np.where(norms > 0, norms, 1.0)[:, None]
    augmented = np.concatenate([positions / config.beta, unit / config.sigma], axis=1)
    feats = feature_matrix(fmap, augmented)
    values = (norms[:, None] * feats).sum(axis=0) / spectra.shape[0]
    return PixelFeature(values, "convmeanmap")


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
# Whole-image feature tables
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
    border policy via replicated or reflected padding. Column-blocked to
    bound memory."""
    if side == 1:
        return stack
    h, w, k = stack.shape
    lo = (side - 1) // 2
    hi = side - 1 - lo
    mode = "edge" if border == "clamp" else "symmetric"
    out = np.empty_like(stack)
    # ~32 MB of padded scratch per block
    block = max(1, 4_000_000 // ((h + side) * (w + side)))
    for start in range(0, k, block):
        chunk = stack[:, :, start : start + block]
        padded = np.pad(chunk, ((lo, hi), (lo, hi), (0, 0)), mode=mode)
        s = np.zeros((h + side, w + side, chunk.shape[2]))
        np.cumsum(padded, axis=0, out=s[1:, 1:])
        np.cumsum(s[1:, 1:], axis=1, out=s[1:, 1:])
        out[:, :, start : start + block] = (
            s[side:, side:] - s[:-side, side:] - s[side:, :-side] + s[:-side, :-side]
        )
    out /= side * side
    return out


def _minmax_scale_columns(table: np.ndarray) -> np.ndarray:
    lows = table.min(axis=0)
    spans = table.max(axis=0) - lows
    spans = np.where(spans > 0, spans, 1.0)
    return (table - lows) / spans


def build_feature_table(
    image: HyperspectralImage,
    method: str,
    config: EmbeddingConfig | None = None,
    mp_config: MorphoProfileConfig | None = None,
) -> FeatureTable:
    """Build one feature row per pixel for the requested method.

    Methods: raw spectra, per-pixel random features, neighbourhood mean
    maps, magnitude-weighted convolutional mean maps, morphological
    profiles, and the tensor-product fusion of profiles with mean maps.
    Deterministic for a fixed config seed.
    """
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    config = config or EmbeddingConfig()
    h, w, d = image.height, image.width, image.bands
    spectra = image.pixels()

    if method == "raw":
        return FeatureTable(spectra.copy(), "raw", {"method": "raw", "rows": h * w, "dim": d})

    if method == "mp":
        mp_config = mp_config or MorphoProfileConfig()
        values = morphological_profile(image, mp_config)
        meta = {
            "method": "mp",
            "pca_dims": mp_config.pca_dims,
            "n_scales": mp_config.n_scales,
            "se_shape": mp_config.se_shape,
        }
        return FeatureTable(values, "mp", meta)

    sigma = config.sigma if config.sigma is not None else median_heuristic(image, seed=config.seed)
    beta = config.beta if config.beta is not None else float(np.hypot(h, w))
    meta = {
        "method": method,
        "sigma": sigma,
        "beta": beta,
        "n_features": config.n_features,
        "patch_side": config.patch.side,
        "border": config.patch.border,
        "seed": config.seed,
        "normalize": config.normalize,
    }

    norms = np.linalg.norm(spectra, axis=1)
    unit = spectra / np.where(norms > 0, norms, 1.0)[:, None]

    if method in ("rff", "meanmap", "mp_x_meanmap"):
        fmap = sample_frequencies(d, config.n_features, sigma, config.seed)
        base = feature_matrix(fmap, unit if config.normalize else spectra)
        if method == "rff":
            return FeatureTable(base, "rff", meta)
        side = config.patch.side
        stack = base.reshape(h, w, fmap.feature_dim)
        mm = _sliding_window_mean(stack, side, config.patch.border).reshape(h * w, -1)
        if method == "meanmap":
            return FeatureTable(mm, "meanmap", meta)
        # mp_x_meanmap: min-max scale profiles, then fuse row-wise.
        mp_config = mp_config or MorphoProfileConfig()
        mp_values = _minmax_scale_columns(morphological_profile(image, mp_config))
        out_dim = mp_values.shape[1] * mm.shape[1]
        if out_dim > config.tensor_cap:
            raise CapacityError(
                f"tensor feature dimension {mp_values.shape[1]}*{mm.shape[1]}={out_dim} "
                f"exceeds cap {config.tensor_cap}; reduce n_features or the profile size"
            )
        fused = (mp_values[:, :, None] * mm[:, None, :]).reshape(h * w, out_dim)
        meta.update(
            {
                "pca_dims": mp_config.pca_dims,
                "n_scales": mp_config.n_scales,
                "se_shape": mp_config.se_shape,
            }
        )
        return FeatureTable(fused, "tensor", meta)

    # convmeanmap
    fmap = sample_frequencies(d + 2, config.n_features, 1.0, config.seed)
    rows_grid, cols_grid = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    positions = np.stack([rows_grid.ravel(), cols_grid.ravel()], axis=1).astype(np.float64)
    augmented = np.concatenate([positions / beta, unit / sigma], axis=1)
    weighted = norms[:, None] * feature_matrix(fmap, augmented)
    side = config.patch.side
    stack = weighted.reshape(h, w, fmap.feature_dim)
    cm = _sliding_window_mean(stack, side, config.patch.border).reshape(h * w, -1)
    return FeatureTable(cm, "convmeanmap", meta)
