"""Gaussian random Fourier feature maps.

A map holds N frequency vectors drawn i.i.d. from the spectral measure of
a Gaussian RBF kernel with bandwidth sigma, i.e. each coordinate is
Normal(0, 1/sigma^2). The explicit feature of a point x is

    z(x) = sqrt(1/N) * [cos(w_1.x), ..., cos(w_N.x), sin(w_1.x), ..., sin(w_N.x)]

which has unit Euclidean norm to within float32 rounding (about 1e-6),
and z(x).z(y) is an unbiased estimate of exp(-||x - y||^2 / (2 sigma^2)).

Reproducibility contract: frequencies are ``standard_normal((count, dim))``
from ``numpy.random.Generator(PCG64(seed))`` (row-major draw order,
ziggurat normals), divided by the bandwidth. Rebuilding from
(seed, count, dim, bandwidth) is bit-identical.

z is float32. The projection w.x and its reduction to [-pi, pi] run in
float64; cos and sin of the reduced angle run in float32, and each entry
is the float64 product of that value and sqrt(1/N) rounded once to
float32: widened, the same bytes as a float64 result when sqrt(1/N) is a
power of two (N a power of 4), and within half a float32 ulp of it
otherwise. That puts each entry within about 2e-7 / sqrt(N) of its
float64 value, far below the O(1/sqrt(N)) error of the random features
themselves, at a quarter of the cost of float64 trig and half its
memory. Whatever sums z itself (mean maps, training rows, window means)
widens it and sums in float64; only its product with the weights of a
trained model runs in float32. Everything runs on the calling thread.
The BLAS product gives a row's projection the same bytes whatever other
rows share the call, and the rest is elementwise, so a feature row does
not depend on how the caller splits its points into blocks (the tests
check this at odd row splits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, check_integer, check_real

# float64 values of the reduction's scratch: one chunk of rows, 256 KiB, in cache
_CHUNK = 1 << 15


@dataclass(frozen=True)
class RandomFeatureMap:
    """Sampled frequencies plus the bandwidth of the kernel they approximate."""

    frequencies: np.ndarray
    bandwidth: float

    def __post_init__(self):
        freqs = np.ascontiguousarray(np.asarray(self.frequencies, dtype=np.float64))
        if freqs.ndim != 2 or min(freqs.shape) < 1:
            raise ShapeError(f"frequencies must be a (count, dim) matrix, got {freqs.shape}")
        check_real(self.bandwidth, "bandwidth")
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
    check_integer(input_dim, "input_dim", 1)
    check_integer(count, "count", 1)
    check_real(bandwidth, "bandwidth")
    check_integer(seed, "seed", 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    freqs = rng.standard_normal((count, input_dim)) / bandwidth
    return RandomFeatureMap(freqs, float(bandwidth))


def feature_matrix(fmap: RandomFeatureMap, xs: np.ndarray) -> np.ndarray:
    """Features of many points: rows of a float32 ``(n, 2N)`` matrix.

    The projection is one matrix product, written as float64 into the
    result's own bytes (n*2N float32 values take the space of n*N float64
    values): row i of the (n, N) float64 view is row i of the result.
    Chunks of rows of ``_CHUNK`` values are then reduced to [-pi, pi] in
    float64 scratch, narrowed to float32 once into their cos half, and
    cos and sin are taken there and multiplied by sqrt(1/N) in float64,
    rounded to float32 once, while the chunk is in cache. A call
    allocates its result and one chunk of scratch. All of it runs on the
    calling thread, so the caller's ``np.errstate`` holds, and the bytes
    of a row do not depend on the other rows of ``xs``.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if xs.ndim != 2:
        raise ShapeError(f"expected a (n, dim) matrix of points, got shape {xs.shape}")
    if xs.shape[1] != fmap.input_dim:
        raise ShapeError(
            f"input dimension {xs.shape[1]} does not match map dimension {fmap.input_dim}"
        )
    n, n_freq = xs.shape[0], fmap.n_frequencies
    out = np.empty((n, 2 * n_freq), dtype=np.float32)
    proj = out.view(np.float64)
    np.matmul(xs, fmap.frequencies.T, out=proj)
    scale = np.sqrt(1.0 / n_freq)
    step = max(1, _CHUNK // n_freq)
    turns = np.empty((min(step, n), n_freq))
    for a in range(0, n, step):
        p, t = proj[a : a + step], turns[: min(step, n - a)]
        np.multiply(p, 1.0 / (2.0 * np.pi), out=t)
        np.rint(t, out=t)
        t *= 2.0 * np.pi
        np.subtract(p, t, out=t)
        # p is spent: its bytes take the narrowed angles, then cos and sin
        rows = out[a : a + step]
        cos, sin = rows[:, :n_freq], rows[:, n_freq:]
        cos[...] = t
        np.sin(cos, out=sin)
        np.cos(cos, out=cos)
        np.multiply(rows, scale, out=rows, dtype=np.float64)
    return out


def exact_gaussian_kernel(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """exp(-||x - y||^2 / (2 bandwidth^2))."""
    check_real(bandwidth, "bandwidth")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {y.shape}")
    d2 = float(np.sum((x - y) ** 2))
    return float(np.exp(-0.5 * d2 / bandwidth**2))
