"""Random Fourier feature maps: sampling, features, kernel fidelity."""

import threading

import numpy as np
import pytest

from hsembed import (
    ParameterError,
    ShapeError,
    approx_kernel,
    exact_gaussian_kernel,
    feature,
    feature_matrix,
    rff,
    sample_frequencies,
)
from oracles import feature_matrix_reference


class TestSampling:
    def test_law_of_large_numbers_variance(self):
        fmap = sample_frequencies(1, 100_000, 1.0, seed=12)
        assert np.var(fmap.frequencies) == pytest.approx(1.0, abs=0.02)

    def test_same_seed_identical(self):
        a = sample_frequencies(4, 64, 0.7, seed=5)
        b = sample_frequencies(4, 64, 0.7, seed=5)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)

    def test_bandwidth_two_halves_frequencies(self):
        a = sample_frequencies(4, 64, 1.0, seed=5)
        b = sample_frequencies(4, 64, 2.0, seed=5)
        np.testing.assert_array_equal(b.frequencies, a.frequencies / 2.0)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            sample_frequencies(4, 64, 0.0)
        with pytest.raises(ParameterError):
            sample_frequencies(4, 64, -1.0)
        with pytest.raises(ParameterError):
            sample_frequencies(0, 64, 1.0)
        with pytest.raises(ParameterError):
            sample_frequencies(4, 0, 1.0)

    def test_feature_dim(self):
        fmap = sample_frequencies(3, 17, 1.0, seed=0)
        assert fmap.feature_dim == 34
        assert fmap.input_dim == 3


class TestFeature:
    def test_unit_norm(self):
        fmap = sample_frequencies(6, 128, 0.9, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = feature(fmap, rng.normal(size=6))
            assert abs(np.linalg.norm(z) - 1.0) < 1e-12

    def test_zero_input(self):
        n = 32
        fmap = sample_frequencies(4, n, 1.0, seed=2)
        z = feature(fmap, np.zeros(4))
        np.testing.assert_allclose(z[:n], np.sqrt(1.0 / n))
        np.testing.assert_allclose(z[n:], 0.0)

    def test_matches_exact_kernel(self):
        fmap = sample_frequencies(5, 4096, 1.3, seed=7)
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=5), rng.normal(size=5)
        estimate = feature(fmap, x) @ feature(fmap, y)
        assert estimate == pytest.approx(exact_gaussian_kernel(x, y, 1.3), abs=0.05)

    def test_dimension_mismatch(self):
        fmap = sample_frequencies(5, 8, 1.0, seed=0)
        with pytest.raises(ShapeError):
            feature(fmap, np.zeros(4))

    def test_feature_matrix_rows(self):
        # batched BLAS paths may differ from single-vector paths in the
        # last bit, nothing more
        fmap = sample_frequencies(3, 16, 1.0, seed=1)
        xs = np.random.default_rng(2).normal(size=(7, 3))
        batch = feature_matrix(fmap, xs)
        for i in range(7):
            np.testing.assert_allclose(batch[i], feature(fmap, xs[i]), atol=1e-14)


class TestApproxKernel:
    def test_self_kernel_is_one(self):
        fmap = sample_frequencies(4, 256, 1.0, seed=3)
        x = np.random.default_rng(4).normal(size=4)
        assert approx_kernel(fmap, x, x) == pytest.approx(1.0, abs=1e-12)

    def test_far_points_near_zero(self):
        fmap = sample_frequencies(4, 4096, 1.0, seed=5)
        x = np.full(4, 50.0)
        y = -x
        assert abs(approx_kernel(fmap, x, y)) <= 0.05

    def test_unbiased_over_seeds(self):
        # Monte-Carlo oracle: averaging over independent frequency draws
        # converges to the exact kernel
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=6), rng.normal(size=6)
        exact = exact_gaussian_kernel(x, y, 1.1)
        mean = np.mean(
            [approx_kernel(sample_frequencies(6, 1024, 1.1, seed=s), x, y)
             for s in range(50)]
        )
        assert mean == pytest.approx(exact, abs=0.02)

    def test_bounded(self):
        fmap = sample_frequencies(3, 64, 0.5, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(50):
            v = approx_kernel(fmap, rng.normal(size=3), rng.normal(size=3))
            assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


class TestExactKernel:
    def test_self(self):
        x = np.array([1.0, 2.0])
        assert exact_gaussian_kernel(x, x, 2.0) == 1.0

    def test_distance_sigma_sqrt_two(self):
        sigma = 1.7
        x = np.zeros(3)
        y = np.array([sigma * np.sqrt(2.0), 0.0, 0.0])
        assert exact_gaussian_kernel(x, y, sigma) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_brute_force_sum_of_squares(self):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=8), rng.normal(size=8)
        d2 = sum((float(a) - float(b)) ** 2 for a, b in zip(x, y))
        expected = np.exp(-d2 / (2 * 0.8**2))
        assert exact_gaussian_kernel(x, y, 0.8) == pytest.approx(expected, rel=1e-12)

    def test_parameter_and_shape_errors(self):
        with pytest.raises(ParameterError):
            exact_gaussian_kernel(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ShapeError):
            exact_gaussian_kernel(np.zeros(2), np.zeros(3), 1.0)


class TestProperties:
    def test_uniform_error_decay(self):
        # max |k_hat - k| over fixed pairs should roughly halve when N quadruples
        rng = np.random.default_rng(12)
        pairs = rng.normal(size=(100, 2, 6))
        sigma = 1.4

        def max_err(n):
            errors = []
            for s in range(3):
                fmap = sample_frequencies(6, n, sigma, seed=100 + s)
                za = feature_matrix(fmap, pairs[:, 0])
                zb = feature_matrix(fmap, pairs[:, 1])
                est = np.einsum("ij,ij->i", za, zb)
                exact = np.array(
                    [exact_gaussian_kernel(a, b, sigma) for a, b in pairs]
                )
                errors.append(np.max(np.abs(est - exact)))
            return np.mean(errors)

        e1, e4 = max_err(256), max_err(1024)
        assert e4 <= e1 / 2.0 * 1.5

    def test_gram_psd(self):
        fmap = sample_frequencies(5, 128, 1.0, seed=13)
        pts = np.random.default_rng(14).normal(size=(50, 5))
        z = feature_matrix(fmap, pts)
        gram = z @ z.T
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-8


@pytest.fixture(params=[1, 2, 3, 5])
def cores(request, monkeypatch):
    """Pretend to run on this many cores, with no minimum chunk size."""
    monkeypatch.setattr(rff, "_core_count", lambda: request.param)
    monkeypatch.setattr(rff, "_TRIG_CHUNK", 1)
    return request.param


class TestRowChunks:
    @pytest.mark.parametrize("rows", [1, 2, 4, 7, 16, 101])
    def test_bit_identical_to_reference(self, cores, rows):
        # 1 row, fewer rows than workers, and counts the workers do not divide
        fmap = sample_frequencies(6, 37, 0.8, seed=rows)
        xs = np.random.default_rng(rows).normal(scale=4.0, size=(rows, 6))
        xs[rows // 2] = 0.0
        got = feature_matrix(fmap, xs)
        want = feature_matrix_reference(fmap, xs)
        assert got.shape == want.shape == (rows, 74)
        assert got.tobytes() == want.tobytes()

    def test_large_block_bit_identical(self, cores):
        fmap = sample_frequencies(103, 256, 1.0, seed=4)
        xs = np.random.default_rng(5).normal(size=(997, 103))
        assert feature_matrix(fmap, xs).tobytes() == feature_matrix_reference(fmap, xs).tobytes()

    def test_default_chunking_bit_identical(self):
        # the real core count and minimum chunk size
        fmap = sample_frequencies(50, 128, 1.0, seed=6)
        xs = np.random.default_rng(7).normal(size=(3000, 50))
        assert feature_matrix(fmap, xs).tobytes() == feature_matrix_reference(fmap, xs).tobytes()

    def test_no_rows(self, cores):
        fmap = sample_frequencies(3, 8, 1.0, seed=0)
        assert feature_matrix(fmap, np.empty((0, 3))).shape == (0, 16)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_input_fails_as_reference(self, cores, bad):
        # RuntimeWarning is an error under the test settings
        fmap = sample_frequencies(4, 8, 1.0, seed=1)
        xs = np.random.default_rng(2).normal(size=(9, 4))
        xs[-1, 2] = bad
        with pytest.raises(RuntimeWarning) as want:
            feature_matrix_reference(fmap, xs)
        with pytest.raises(RuntimeWarning) as got:
            feature_matrix(fmap, xs)
        assert str(got.value) == str(want.value)

    def test_nan_input_gives_reference_nan_rows(self, cores):
        fmap = sample_frequencies(4, 8, 1.0, seed=1)
        xs = np.random.default_rng(2).normal(size=(9, 4))
        xs[-1, 2] = np.nan
        got = feature_matrix(fmap, xs)
        assert np.isnan(got[-1]).all() and np.isfinite(got[:-1]).all()
        assert got.tobytes() == feature_matrix_reference(fmap, xs).tobytes()

    def test_caller_errstate_reaches_every_chunk(self, cores):
        fmap = sample_frequencies(4, 8, 1.0, seed=1)
        xs = np.random.default_rng(2).normal(size=(9, 4))
        xs[:, 0] = np.inf
        with np.errstate(invalid="ignore"):
            got = feature_matrix(fmap, xs)
            want = feature_matrix_reference(fmap, xs)
        assert np.isnan(got).all()
        assert got.tobytes() == want.tobytes()

    def test_no_thread_outlives_the_call(self, cores):
        fmap = sample_frequencies(5, 64, 1.0, seed=3)
        xs = np.random.default_rng(4).normal(size=(50, 5))
        before = threading.active_count()
        feature_matrix(fmap, xs)
        assert threading.active_count() == before

    def test_chunk_exception_reaches_caller(self, cores, monkeypatch):
        calls = []

        def failing(proj, out, scale, lo, hi):
            calls.append((lo, hi))
            if lo == 0:
                raise MemoryError("chunk 0")

        monkeypatch.setattr(rff, "_cos_sin_rows", failing)
        fmap = sample_frequencies(5, 16, 1.0, seed=3)
        with pytest.raises(MemoryError, match="chunk 0"):
            feature_matrix(fmap, np.ones((10, 5)))
        # every chunk ran, and together they cover the rows once
        assert sorted(calls)[0][0] == 0 and sorted(calls)[-1][1] == 10
        assert sum(hi - lo for lo, hi in calls) == 10
        assert len(calls) == cores

    def test_three_dimensional_input_rejected(self):
        fmap = sample_frequencies(3, 8, 1.0, seed=0)
        with pytest.raises(ShapeError):
            feature_matrix(fmap, np.zeros((2, 2, 3)))
