"""Flat grayscale morphology, geodesic reconstruction, PCA, morphological profiles.

All operators are pure functions on 2-D float arrays. Borders are handled
by clamping (edge replication), consistent with the patch policy used for
the distribution embeddings.

Erosion, dilation and reconstruction only compare and select values, so
they commute with any order-preserving map. Reconstruction therefore runs
on the int32 ranks of the values (one ``np.unique``) and maps back through
the sorted distinct values; in the profile one ranking per PCA band serves
all its openings and closings. Each Jacobi step writes into preallocated
buffers, and the loop stops when a step changes nothing. A zero of either
sign in a reconstruction comes out as +0.0; NaN, which has no place in the
order, raises NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericalError, ParameterError, ShapeError, check_integer
from .hsi import HyperspectralImage, row_blocks


@dataclass(frozen=True)
class StructuringElement:
    """Flat structuring element given by its offset support; must contain the
    origin and be symmetric under negation."""

    offsets: np.ndarray

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


def disk(radius: int) -> StructuringElement:
    """Discrete disk: offsets with dr^2 + dc^2 <= radius^2."""
    check_integer(radius, "radius", 0)
    r = np.arange(-radius, radius + 1)
    rr, cc = np.meshgrid(r, r, indexing="ij")
    keep = rr**2 + cc**2 <= radius**2
    return StructuringElement(np.stack([rr[keep], cc[keep]], axis=1))


def square(radius: int) -> StructuringElement:
    """Square of side 2*radius + 1."""
    check_integer(radius, "radius", 0)
    r = np.arange(-radius, radius + 1)
    rr, cc = np.meshgrid(r, r, indexing="ij")
    return StructuringElement(np.stack([rr.ravel(), cc.ravel()], axis=1))


_SE_FACTORIES = {"disk": disk, "square": square}


def _element(se_shape: str, scale: int) -> StructuringElement:
    """The structuring element of scale index ``scale`` (its radius)."""
    if se_shape not in _SE_FACTORIES:
        raise ParameterError(f"se_shape must be one of {sorted(_SE_FACTORIES)}, got {se_shape!r}")
    check_integer(scale, "scale index", 1)
    return _SE_FACTORIES[se_shape](scale)


def _check_gray(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2 or min(f.shape) < 1:
        raise ShapeError(f"expected a 2-D image, got shape {f.shape}")
    return f


def _ordered(f: np.ndarray, name: str) -> np.ndarray:
    """A 2-D image without NaN, which has no place in the order that
    reconstruction compares by."""
    f = _check_gray(f)
    if np.isnan(f).any():
        raise NumericalError(f"{name} holds NaN; reconstruction needs ordered values")
    return f


def _windowed(f: np.ndarray, se: StructuringElement, reducer) -> np.ndarray:
    h, w = f.shape
    rmax = int(np.max(np.abs(se.offsets[:, 0])))
    cmax = int(np.max(np.abs(se.offsets[:, 1])))
    padded = np.pad(f, ((rmax, rmax), (cmax, cmax)), mode="edge")
    out = None
    for dr, dc in se.offsets:
        win = padded[rmax - dr : rmax - dr + h, cmax - dc : cmax - dc + w]
        if out is None:
            out = win.copy()
        else:
            reducer(out, win, out=out)
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


def _ranks(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of ``f`` and the int32 rank of each of its
    pixels among them, so ``values[ranks]`` is ``f``; -0.0 becomes +0.0."""
    values, ranks = np.unique(f, return_inverse=True)
    # -0.0 == 0.0, so np.unique keeps whichever zero sorts first; adding
    # +0.0 turns a -0.0 into +0.0 and leaves every other value as it is
    return values + 0.0, ranks.reshape(f.shape).astype(np.int32)


# polarity: (propagation, bound by the mask, border value that never wins)
_POLARITIES = {
    "dilation": (np.maximum, np.minimum, np.iinfo(np.int32).min),
    "erosion": (np.minimum, np.maximum, np.iinfo(np.int32).max),
}


def _pads(shape: tuple[int, int]) -> list[np.ndarray]:
    """The three buffers of ``_flood`` for images of ``shape``."""
    return [np.empty((shape[0] + 2, shape[1] + 2), dtype=np.int32) for _ in range(3)]


def _flood(marker: np.ndarray, mask: np.ndarray, polarity: str, pads: list) -> np.ndarray:
    """Geodesic reconstruction of int32 ``marker`` under ``mask`` (see
    ``reconstruct``), stepped without allocating in ``pads``, whose contents
    it overwrites; returns a view into one of them, valid until their reuse.

    Marker and mask sit in buffers one pixel wider on each side, whose
    border holds a value that never wins the propagation: a clamped
    neighbour is the pixel itself, which the 3x3 cross already holds. Each
    step runs over the flat rows 1..h, border columns included, so each of
    its operations is one contiguous pass; the mask's border sends those
    columns back to the border value.
    """
    grow, bound, edge = _POLARITIES[polarity]
    h, w = mask.shape
    for pad in pads:
        pad.fill(edge)
    pads[0][1:-1, 1:-1] = marker
    pads[2][1:-1, 1:-1] = mask
    row = w + 2
    lo, hi = row, (h + 1) * row  # the flat rows 1..h
    src, dst = (pad.reshape(-1) for pad in pads[:2])
    limit = pads[2].reshape(-1)[lo:hi]
    total = int(src[lo:hi].sum(dtype=np.int64))
    while True:
        out = dst[lo:hi]
        grow(src[lo - row : hi - row], src[lo + row : hi + row], out=out)
        grow(out, src[lo - 1 : hi - 1], out=out)
        grow(out, src[lo + 1 : hi + 1], out=out)
        grow(out, src[lo:hi], out=out)
        bound(out, limit, out=out)
        # every step moves each pixel only towards the mask, so the image
        # is unchanged exactly when its (exact, int64) sum is
        step_total = int(out.sum(dtype=np.int64))
        if step_total == total:
            return dst.reshape(h + 2, w + 2)[1:-1, 1:-1]
        total = step_total
        src, dst = dst, src


def reconstruct(marker: np.ndarray, mask: np.ndarray, polarity: str = "dilation") -> np.ndarray:
    """Geodesic reconstruction of ``marker`` under ``mask``.

    Iterates elementary geodesic dilation (3x3 cross, elementwise min with
    the mask) until a fixpoint; ``polarity='erosion'`` runs the dual. The
    result lies between marker and mask and is stable under re-application.

    The steps only compare and select values, so they run on the int32
    ranks of the values of both images and the result maps back through
    them: each output value is an input value, except that a zero of
    either sign comes out as +0.0. ±inf are ordinary values; a NaN in
    either image raises NumericalError.
    """
    marker = _ordered(marker, "marker")
    mask = _ordered(mask, "mask")
    if marker.shape != mask.shape:
        raise ShapeError(f"marker {marker.shape} and mask {mask.shape} differ")
    if polarity == "dilation":
        if (marker > mask).any():
            raise ContractViolation("reconstruction by dilation requires marker <= mask")
    elif polarity == "erosion":
        if (marker < mask).any():
            raise ContractViolation("reconstruction by erosion requires marker >= mask")
    else:
        raise ParameterError(f"polarity must be 'dilation' or 'erosion', got {polarity!r}")
    values, ranks = _ranks(np.stack([marker, mask]))
    return values[_flood(ranks[0], ranks[1], polarity, _pads(mask.shape))]


def open_by_reconstruction(f: np.ndarray, scale: int, se_shape: str = "disk") -> np.ndarray:
    """Opening by reconstruction at the given scale index.

    Erodes with the scale-``i`` element, then floods back under ``f`` so
    surviving structures keep their exact shape. The family is decreasing
    in the scale index. NaN and signed zeros as in ``reconstruct``.
    """
    se = _element(se_shape, scale)
    f = _ordered(f, "f")
    return reconstruct(erode(f, se), f, "dilation")


def close_by_reconstruction(f: np.ndarray, scale: int, se_shape: str = "disk") -> np.ndarray:
    """Dual of open_by_reconstruction; increasing in the scale index."""
    se = _element(se_shape, scale)
    f = _ordered(f, "f")
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
    """Project pixels onto the top ``dims`` eigenvectors of the spectral covariance.

    The image is read three times, a row block at a time, and taken an image
    row at a time: the mean's sequential sum runs on from row to row, and the
    pixels are centred into one buffer of one image row, the covariance
    summed and the scores projected row by row. So no centred cube is made,
    and no sum depends on the block size."""
    d_in = image.bands
    check_integer(dims, "dims", 1)
    if dims > d_in:
        raise ParameterError(f"dims must be in [1, {d_in}], got {dims}")
    h, w = image.height, image.width

    def image_rows():  # each image row in turn, read a row block at a time
        for a, b in row_blocks(h, w * d_in):
            yield from image.rows(a, b)

    mean = None  # one band, which numpy sums pairwise, is summed at once
    for x in image_rows() if d_in > 1 else [image.rows(0, h).reshape(-1, 1)]:
        mean = np.add.reduce(x if mean is None else np.concatenate([mean[None], x]))
    mean /= h * w
    centred = np.empty((w, d_in))
    cov = np.zeros((d_in, d_in))
    for row in image_rows():
        xc = np.subtract(row, mean, out=centred)
        cov += xc.T @ xc
    cov /= max(h * w - 1, 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:dims]
    evals, comps = evals[order], evecs[:, order].T.copy()
    comps *= np.sign(comps[np.arange(dims), np.abs(comps).argmax(axis=1)])[:, None]
    scores = np.empty((h, w, dims))
    for row, out in zip(image_rows(), scores):
        np.matmul(np.subtract(row, mean, out=centred), comps.T, out=out)
    return PcaResult(scores.transpose(2, 0, 1), evals, comps, mean)


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
        check_integer(self.pca_dims, "pca_dims", 1)
        check_integer(self.n_scales, "n_scales", 0)
        if self.se_shape not in _SE_FACTORIES:
            raise ParameterError(f"se_shape must be one of {sorted(_SE_FACTORIES)}")


def morphological_profile(image: HyperspectralImage, config: MorphoProfileConfig) -> np.ndarray:
    """Per-pixel morphological profile over PCA-reduced bands.

    For each of the ``pca_dims`` principal component images the profile is
    [openings by reconstruction at scales 1..n, the band itself, closings
    by reconstruction at scales 1..n]; bands are concatenated, giving rows
    of dimension pca_dims * (2 n + 1).

    One set of int32 ranks per band serves its 2 n markers and
    reconstructions (see ``reconstruct``), since erosion and dilation only
    select values of the band. A zero of either sign in an opening or
    closing is +0.0; a band holding NaN raises NumericalError.
    """
    pca = pca_reduce(image, config.pca_dims)
    n = config.n_scales
    elements = [_element(config.se_shape, i) for i in range(1, n + 1)]
    shape = pca.bands.shape[1:]
    profile = np.empty((shape[0] * shape[1], config.pca_dims * (2 * n + 1)))
    columns = profile.reshape(*shape, -1)  # columns[..., j] is column j as an image
    pads = _pads(shape)
    for k, band in enumerate(pca.bands):
        values, ranks = _ranks(_ordered(band, f"PCA band {k}"))
        first = k * (2 * n + 1)
        columns[..., first + n] = band
        for i, se in enumerate(elements):
            opened = _flood(_windowed(ranks, se, np.minimum), ranks, "dilation", pads)
            columns[..., first + i] = values[opened]
            closed = _flood(_windowed(ranks, se, np.maximum), ranks, "erosion", pads)
            columns[..., first + n + 1 + i] = values[closed]
    return profile
