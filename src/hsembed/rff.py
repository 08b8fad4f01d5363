"""Gaussian random Fourier feature maps.

A map holds N frequency vectors drawn i.i.d. from the spectral measure of
a Gaussian RBF kernel with bandwidth sigma, i.e. each coordinate is
Normal(0, 1/sigma^2). The explicit feature of a point x is

    z(x) = sqrt(1/N) * [cos(w_1.x), ..., cos(w_N.x), sin(w_1.x), ..., sin(w_N.x)]

which always has unit Euclidean norm, and z(x).z(y) is an unbiased
estimate of exp(-||x - y||^2 / (2 sigma^2)).

Reproducibility contract: frequencies are ``standard_normal((count, dim))``
from ``numpy.random.Generator(PCG64(seed))`` (row-major draw order,
ziggurat normals), divided by the bandwidth. Rebuilding from
(seed, count, dim, bandwidth) is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError


@dataclass(frozen=True)
class RandomFeatureMap:
    """Sampled frequencies plus the bandwidth of the kernel they approximate."""

    frequencies: np.ndarray
    bandwidth: float
    seed: int

    def __post_init__(self):
        freqs = np.ascontiguousarray(np.asarray(self.frequencies, dtype=np.float64))
        if freqs.ndim != 2 or min(freqs.shape) < 1:
            raise ShapeError(f"frequencies must be a (count, dim) matrix, got {freqs.shape}")
        if self.bandwidth <= 0:
            raise ParameterError(f"bandwidth must be positive, got {self.bandwidth}")
        freqs.flags.writeable = False
        object.__setattr__(self, "frequencies", freqs)

    @property
    def n_frequencies(self) -> int:
        return self.frequencies.shape[0]

    @property
    def input_dim(self) -> int:
        return self.frequencies.shape[1]

    @property
    def feature_dim(self) -> int:
        return 2 * self.frequencies.shape[0]


def sample_frequencies(
    input_dim: int, count: int, bandwidth: float, seed: int = 0
) -> RandomFeatureMap:
    """Draw ``count`` spectral frequencies for a Gaussian RBF of the given bandwidth."""
    if input_dim < 1:
        raise ParameterError(f"input_dim must be >= 1, got {input_dim}")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if bandwidth <= 0:
        raise ParameterError(f"bandwidth must be positive, got {bandwidth}")
    rng = np.random.Generator(np.random.PCG64(seed))
    freqs = rng.standard_normal((count, input_dim)) / bandwidth
    return RandomFeatureMap(freqs, float(bandwidth), int(seed))


def _check_dim(fmap: RandomFeatureMap, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != fmap.input_dim:
        raise ShapeError(
            f"input dimension {x.shape[-1]} does not match map dimension {fmap.input_dim}"
        )
    return x


def feature(fmap: RandomFeatureMap, x: np.ndarray) -> np.ndarray:
    """Explicit 2N-dimensional feature of one point; Euclidean norm is 1."""
    x = _check_dim(fmap, x)
    if x.ndim != 1:
        raise ShapeError(f"expected a single vector, got shape {x.shape}")
    return feature_matrix(fmap, x[None, :])[0]


def feature_matrix(fmap: RandomFeatureMap, xs: np.ndarray) -> np.ndarray:
    """Features of many points: rows of a ``(n, 2N)`` matrix."""
    xs = _check_dim(fmap, np.atleast_2d(xs))
    proj = xs @ fmap.frequencies.T
    scale = np.sqrt(1.0 / fmap.n_frequencies)
    return scale * np.concatenate([np.cos(proj), np.sin(proj)], axis=1)


def approx_kernel(fmap: RandomFeatureMap, x: np.ndarray, y: np.ndarray) -> float:
    """Feature-space inner product z(x).z(y); always in [-1, 1]."""
    return float(feature(fmap, x) @ feature(fmap, y))


def exact_gaussian_kernel(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """exp(-||x - y||^2 / (2 bandwidth^2))."""
    if bandwidth <= 0:
        raise ParameterError(f"bandwidth must be positive, got {bandwidth}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {y.shape}")
    d2 = float(np.sum((x - y) ** 2))
    return float(np.exp(-0.5 * d2 / bandwidth**2))
