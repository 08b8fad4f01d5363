"""Flat grayscale morphology, geodesic reconstruction, PCA, morphological profiles.

All operators are pure functions on 2-D float arrays. Borders are handled
by clamping (edge replication), consistent with the patch policy used for
the distribution embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ParameterError, ShapeError
from .hsi import HyperspectralImage


@dataclass(frozen=True)
class StructuringElement:
    """Flat structuring element given by its offset support; must contain the
    origin and be symmetric under negation."""

    offsets: np.ndarray
    radius: int

    def __post_init__(self):
        offs = np.asarray(self.offsets, dtype=np.int64)
        if offs.ndim != 2 or offs.shape[1] != 2 or offs.shape[0] < 1:
            raise ShapeError(f"offsets must be a (k, 2) integer array, got {offs.shape}")
        as_set = {(int(r), int(c)) for r, c in offs}
        if len(as_set) != offs.shape[0]:
            raise ParameterError("duplicate offsets in structuring element")
        if (0, 0) not in as_set:
            raise ParameterError("structuring element must contain the origin")
        for r, c in as_set:
            if (-r, -c) not in as_set:
                raise ParameterError("structuring element must be symmetric")
        offs.flags.writeable = False
        object.__setattr__(self, "offsets", offs)

    @property
    def size(self) -> int:
        return self.offsets.shape[0]


def disk(radius: int) -> StructuringElement:
    """Discrete disk: offsets with dr^2 + dc^2 <= radius^2."""
    if radius < 0:
        raise ParameterError(f"radius must be >= 0, got {radius}")
    r = np.arange(-radius, radius + 1)
    rr, cc = np.meshgrid(r, r, indexing="ij")
    keep = rr**2 + cc**2 <= radius**2
    return StructuringElement(np.stack([rr[keep], cc[keep]], axis=1), radius)


def square(radius: int) -> StructuringElement:
    """Square of side 2*radius + 1."""
    if radius < 0:
        raise ParameterError(f"radius must be >= 0, got {radius}")
    r = np.arange(-radius, radius + 1)
    rr, cc = np.meshgrid(r, r, indexing="ij")
    return StructuringElement(np.stack([rr.ravel(), cc.ravel()], axis=1), radius)


_SE_FACTORIES = {"disk": disk, "square": square}

# 4-connected cross used for geodesic propagation.
_CROSS = disk(1)


def _check_gray(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2 or min(f.shape) < 1:
        raise ShapeError(f"expected a 2-D image, got shape {f.shape}")
    return f


def _windowed(f: np.ndarray, se: StructuringElement, reducer) -> np.ndarray:
    h, w = f.shape
    rmax = int(np.max(np.abs(se.offsets[:, 0])))
    cmax = int(np.max(np.abs(se.offsets[:, 1])))
    padded = np.pad(f, ((rmax, rmax), (cmax, cmax)), mode="edge")
    out = None
    for dr, dc in se.offsets:
        win = padded[rmax - dr : rmax - dr + h, cmax - dc : cmax - dc + w]
        out = win.copy() if out is None else reducer(out, win)
    return out


def erode(f: np.ndarray, se: StructuringElement) -> np.ndarray:
    """Pointwise minimum over the structuring element support (clamped borders)."""
    return _windowed(_check_gray(f), se, np.minimum)


def dilate(f: np.ndarray, se: StructuringElement) -> np.ndarray:
    """Pointwise maximum over the structuring element support (clamped borders)."""
    return _windowed(_check_gray(f), se, np.maximum)


def opening(f: np.ndarray, se: StructuringElement) -> np.ndarray:
    """Erosion followed by dilation; anti-extensive and idempotent."""
    return dilate(erode(f, se), se)


def closing(f: np.ndarray, se: StructuringElement) -> np.ndarray:
    """Dilation followed by erosion; extensive and idempotent."""
    return erode(dilate(f, se), se)


def reconstruct(marker: np.ndarray, mask: np.ndarray, polarity: str = "dilation") -> np.ndarray:
    """Geodesic reconstruction of ``marker`` under ``mask``.

    Iterates elementary geodesic dilation (3x3 cross, elementwise min with
    the mask) until a fixpoint; ``polarity='erosion'`` runs the dual. The
    result lies between marker and mask and is stable under re-application.
    """
    marker = _check_gray(marker)
    mask = _check_gray(mask)
    if marker.shape != mask.shape:
        raise ShapeError(f"marker {marker.shape} and mask {mask.shape} differ")
    if polarity == "dilation":
        if (marker > mask).any():
            raise ContractViolation("reconstruction by dilation requires marker <= mask")
        step = lambda m: np.minimum(dilate(m, _CROSS), mask)
    elif polarity == "erosion":
        if (marker < mask).any():
            raise ContractViolation("reconstruction by erosion requires marker >= mask")
        step = lambda m: np.maximum(erode(m, _CROSS), mask)
    else:
        raise ParameterError(f"polarity must be 'dilation' or 'erosion', got {polarity!r}")
    current = marker
    while True:
        nxt = step(current)
        if np.array_equal(nxt, current):
            return nxt
        current = nxt


def open_by_reconstruction(f: np.ndarray, scale: int, se_shape: str = "disk") -> np.ndarray:
    """Opening by reconstruction at the given scale index.

    Erodes with the scale-``i`` element, then floods back under ``f`` so
    surviving structures keep their exact shape. The family is decreasing
    in the scale index.
    """
    if scale < 1:
        raise ParameterError(f"scale index must be >= 1, got {scale}")
    se = _SE_FACTORIES[se_shape](scale)
    return reconstruct(erode(f, se), f, "dilation")


def close_by_reconstruction(f: np.ndarray, scale: int, se_shape: str = "disk") -> np.ndarray:
    """Dual of open_by_reconstruction; increasing in the scale index."""
    if scale < 1:
        raise ParameterError(f"scale index must be >= 1, got {scale}")
    se = _SE_FACTORIES[se_shape](scale)
    return reconstruct(dilate(f, se), f, "erosion")


# ---------------------------------------------------------------------------
# PCA band reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PcaResult:
    """Top-d principal component images of a cube.

    bands: (d, height, width) projections, variance-sorted descending.
    eigenvalues: the d leading eigenvalues of the spectral covariance.
    components: (d, bands) eigenvectors, sign-fixed so the largest-magnitude
    coordinate of each is positive.
    mean: the spectral mean removed before projection.
    """

    bands: np.ndarray
    eigenvalues: np.ndarray
    components: np.ndarray
    mean: np.ndarray


def pca_reduce(image: HyperspectralImage, dims: int) -> PcaResult:
    """Project pixels onto the top ``dims`` eigenvectors of the spectral covariance."""
    d_in = image.bands
    if not 1 <= dims <= d_in:
        raise ParameterError(f"dims must be in [1, {d_in}], got {dims}")
    x = image.pixels()
    n = x.shape[0]
    mean = x.mean(axis=0)
    xc = x - mean
    denom = max(n - 1, 1)
    cov = (xc.T @ xc) / denom
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:dims]
    evals = evals[order]
    comps = evecs[:, order].T.copy()
    for k in range(dims):
        pivot = int(np.argmax(np.abs(comps[k])))
        if comps[k, pivot] < 0:
            comps[k] = -comps[k]
    scores = xc @ comps.T
    bands = scores.T.reshape(dims, image.height, image.width)
    return PcaResult(bands, evals, comps, mean)


# ---------------------------------------------------------------------------
# Morphological profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MorphoProfileConfig:
    """PCA depth, number of scales, and structuring element family for MP stacks."""

    pca_dims: int = 4
    n_scales: int = 4
    se_shape: str = "disk"

    def __post_init__(self):
        if self.pca_dims < 1:
            raise ParameterError(f"pca_dims must be >= 1, got {self.pca_dims}")
        if self.n_scales < 0:
            raise ParameterError(f"n_scales must be >= 0, got {self.n_scales}")
        if self.se_shape not in _SE_FACTORIES:
            raise ParameterError(f"se_shape must be one of {sorted(_SE_FACTORIES)}")


def morphological_profile(image: HyperspectralImage, config: MorphoProfileConfig) -> np.ndarray:
    """Per-pixel morphological profile over PCA-reduced bands.

    For each of the ``pca_dims`` principal component images the profile is
    [openings by reconstruction at scales 1..n, the band itself, closings
    by reconstruction at scales 1..n]; bands are concatenated, giving rows
    of dimension pca_dims * (2 n + 1).
    """
    pca = pca_reduce(image, config.pca_dims)
    n = config.n_scales
    columns = []
    for band in pca.bands:
        for i in range(1, n + 1):
            columns.append(open_by_reconstruction(band, i, config.se_shape))
        columns.append(band)
        for i in range(1, n + 1):
            columns.append(close_by_reconstruction(band, i, config.se_shape))
    stacked = np.stack([c.ravel() for c in columns], axis=1)
    return stacked
