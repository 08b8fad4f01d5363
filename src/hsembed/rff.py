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

The cos and sin of a feature matrix run on every available core, in
contiguous row chunks; each element is computed by the same ufunc call on
the same projection, so the result does not depend on the core count.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
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


# fewest projection elements (about 1 ms of cos and sin) worth a thread
_TRIG_CHUNK = 1 << 15


def _core_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cos_sin_rows(proj: np.ndarray, out: np.ndarray, scale: float, lo: int, hi: int) -> None:
    """Write scale * [cos, sin] of rows lo:hi of ``proj`` into ``out``."""
    n_freq = proj.shape[1]
    np.cos(proj[lo:hi], out=out[lo:hi, :n_freq])
    np.sin(proj[lo:hi], out=out[lo:hi, n_freq:])
    out[lo:hi] *= scale


def feature_matrix(fmap: RandomFeatureMap, xs: np.ndarray) -> np.ndarray:
    """Features of many points: rows of a ``(n, 2N)`` matrix.

    The projection is one matrix product; cos and sin are written in place
    into the result, one contiguous row chunk per core. Each chunk runs in
    a copy of the caller's context (so ``np.errstate`` holds in it), and
    its exception or error-level warning is raised here.
    """
    xs = _check_dim(fmap, np.atleast_2d(xs))
    if xs.ndim != 2:
        raise ShapeError(f"expected a (n, dim) matrix of points, got shape {xs.shape}")
    proj = xs @ fmap.frequencies.T
    n, n_freq = proj.shape
    out = np.empty((n, 2 * n_freq))
    scale = np.sqrt(1.0 / n_freq)
    chunks = max(1, min(_core_count(), n, proj.size // _TRIG_CHUNK))
    if chunks == 1:
        _cos_sin_rows(proj, out, scale, 0, n)
        return out
    edges = [n * i // chunks for i in range(chunks + 1)]
    with ThreadPoolExecutor(max_workers=chunks) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, _cos_sin_rows, proj, out, scale, lo, hi)
            for lo, hi in zip(edges, edges[1:])
        ]
    for future in futures:
        future.result()
    return out


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
