"""Random Fourier feature maps: sampling, features, kernel fidelity."""

import threading

import numpy as np
import pytest

from hsembed import (
    ParameterError,
    ShapeError,
    exact_gaussian_kernel,
    feature_matrix,
    hsi,
    rff,
    sample_frequencies,
)
from oracles import (
    FLOAT32_TRIG_ENTRY,
    UNIT_NORM_ATOL,
    feature_matrix_float64,
    feature_matrix_reference,
)
from tracing import traced_peak


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


def feature(fmap, x):
    """The feature row of one point."""
    return feature_matrix(fmap, x[None, :])[0]


class TestFeature:
    def test_unit_norm(self):
        fmap = sample_frequencies(6, 128, 0.9, seed=2)
        z = feature_matrix(fmap, np.random.default_rng(3).normal(size=(20, 6)))
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, rtol=0, atol=UNIT_NORM_ATOL)

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
            feature_matrix(fmap, np.zeros((1, 4)))

    def test_feature_matrix_rows(self):
        # batched BLAS paths may differ from single-vector paths in the
        # last bit, nothing more
        fmap = sample_frequencies(3, 16, 1.0, seed=1)
        xs = np.random.default_rng(2).normal(size=(7, 3))
        batch = feature_matrix(fmap, xs)
        for i in range(7):
            np.testing.assert_allclose(batch[i], feature(fmap, xs[i]), atol=1e-14)


class TestApproxKernel:
    """The approximate kernel z(x).z(y) of two feature rows."""

    def test_self_kernel_is_one(self):
        fmap = sample_frequencies(4, 256, 1.0, seed=3)
        z = feature(fmap, np.random.default_rng(4).normal(size=4))
        assert z @ z == pytest.approx(1.0, abs=UNIT_NORM_ATOL)

    def test_far_points_near_zero(self):
        fmap = sample_frequencies(4, 4096, 1.0, seed=5)
        z = feature_matrix(fmap, np.stack([np.full(4, 50.0), np.full(4, -50.0)]))
        assert abs(z[0] @ z[1]) <= 0.05

    def test_unbiased_over_seeds(self):
        # Monte-Carlo oracle: averaging over independent frequency draws
        # converges to the exact kernel
        rng = np.random.default_rng(6)
        xy = rng.normal(size=(2, 6))
        exact = exact_gaussian_kernel(xy[0], xy[1], 1.1)
        estimates = []
        for s in range(50):
            z = feature_matrix(sample_frequencies(6, 1024, 1.1, seed=s), xy)
            estimates.append(z[0] @ z[1])
        assert np.mean(estimates) == pytest.approx(exact, abs=0.02)

    def test_bounded(self):
        fmap = sample_frequencies(3, 64, 0.5, seed=9)
        z = feature_matrix(fmap, np.random.default_rng(10).normal(size=(100, 3)))
        assert np.abs(z @ z.T).max() <= 1.0 + UNIT_NORM_ATOL


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

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf])
    def test_non_finite_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ParameterError, match="positive and finite"):
            exact_gaussian_kernel(np.zeros(2), np.ones(2), bandwidth)


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
def pieces(request):
    """``feature_matrix`` of the rows embedded in this many row blocks, one
    after another, as the commands embed an image."""

    def run(fmap, xs):
        blocks = np.array_split(xs, request.param)
        return np.vstack([feature_matrix(fmap, block) for block in blocks])

    return run


class TestRowBlocks:
    @pytest.mark.parametrize("n_pieces", [2, 3, 5, 8])
    @pytest.mark.parametrize("rows", [1, 2, 4, 7, 16, 101])
    def test_pieces_bit_identical_to_one_block(self, rows, n_pieces):
        # 1 row, fewer rows than pieces (some pieces empty), and counts
        # the pieces do not divide
        fmap = sample_frequencies(6, 37, 0.8, seed=rows)
        xs = np.random.default_rng(rows).normal(scale=4.0, size=(rows, 6))
        xs[rows // 2] = 0.0
        blocks = np.array_split(xs, n_pieces)
        got = np.vstack([feature_matrix(fmap, block) for block in blocks])
        want = feature_matrix(fmap, xs)
        assert got.shape == want.shape == (rows, 74)
        assert got.tobytes() == want.tobytes()

    def test_blocks_bit_identical_to_their_row_pieces(self):
        # the commands embed an image in row blocks whose size follows the
        # block; a row's bytes must not depend on where a block starts
        fmap = sample_frequencies(103, 256, 1.0, seed=4)
        xs = np.random.default_rng(5).normal(scale=4.0, size=(2048, 103))
        xs[500] = 0.0
        pieces = np.split(xs, [1, 7, 101, 997])
        stacked = np.vstack([feature_matrix(fmap, piece) for piece in pieces])
        assert stacked.tobytes() == feature_matrix(fmap, xs).tobytes()

    @pytest.mark.parametrize("n_freq", [256, 512, 1024])
    def test_score_block_rows_bit_identical_to_one_block(self, n_freq):
        # the feature blocks the commands take at the default block:
        # 2,048, 1,024 and 512 rows, so 3,000 rows span 2 to 6 blocks
        step = hsi.block_rows(2 * n_freq)
        fmap = sample_frequencies(50, n_freq, 1.0, seed=6)
        xs = np.random.default_rng(7).normal(size=(3000, 50))
        assert step < len(xs)
        blocks = [feature_matrix(fmap, xs[i:i + step]) for i in range(0, len(xs), step)]
        assert np.vstack(blocks).tobytes() == feature_matrix(fmap, xs).tobytes()

    @pytest.mark.parametrize("rows", [1, 127, 2048, 8192])
    def test_starts_no_thread(self, monkeypatch, rows):
        # a single row, and blocks below, at and past the default block
        # of features at N=256
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        fmap = sample_frequencies(103, 256, 1.0, seed=3)
        feature_matrix(fmap, np.random.default_rng(4).normal(size=(rows, 103)))
        assert started == []

    def test_entry_error_against_float64_reference(self, pieces):
        # projections up to a few hundred radians, so an unreduced float32
        # angle would be off by about 1e-5; measured maximum 1.6e-7
        # (1.3 float32 eps) before the 1/sqrt(N) scale
        fmap = sample_frequencies(20, 256, 0.5, seed=8)
        xs = np.random.default_rng(9).normal(scale=6.0, size=(300, 20))
        assert np.abs(xs @ fmap.frequencies.T).max() > 200.0
        err = np.abs(pieces(fmap, xs) - feature_matrix_reference(fmap, xs))
        assert err.max() <= FLOAT32_TRIG_ENTRY * np.sqrt(1.0 / 256)

    def test_no_rows(self, pieces):
        fmap = sample_frequencies(3, 8, 1.0, seed=0)
        assert pieces(fmap, np.empty((0, 3))).shape == (0, 16)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_input_fails_in_any_row(self, pieces, bad):
        # the reduction of an infinite angle is invalid; RuntimeWarning is
        # an error under the test settings, whichever row (and so whichever
        # block) holds the value
        fmap = sample_frequencies(4, 8, 1.0, seed=1)
        for row in range(9):
            xs = np.random.default_rng(2).normal(size=(9, 4))
            xs[row, 2] = bad
            with pytest.raises(RuntimeWarning, match="invalid value"):
                pieces(fmap, xs)

    def test_nan_input_gives_nan_rows(self, pieces):
        fmap = sample_frequencies(4, 8, 1.0, seed=1)
        xs = np.random.default_rng(2).normal(size=(9, 4))
        xs[-1, 2] = np.nan
        got = pieces(fmap, xs)
        assert np.isnan(got[-1]).all() and np.isfinite(got[:-1]).all()
        # the NaN row leaves the other rows' bytes alone
        assert got[:-1].tobytes() == feature_matrix(fmap, xs[:-1]).tobytes()

    def test_caller_errstate_holds(self, pieces):
        fmap = sample_frequencies(4, 8, 1.0, seed=1)
        xs = np.random.default_rng(2).normal(size=(9, 4))
        xs[:, 0] = np.inf
        with np.errstate(invalid="ignore"):
            got = pieces(fmap, xs)
        assert np.isnan(got).all()

    def test_peak_is_projection_and_result(self):
        # the projection lives in the result's bytes and the reduction in
        # one chunk of scratch: on a 2,048-row block (one 8 MB block of
        # features at N=256) the peak is the float32 (n, 2N) result and
        # a 256 KiB chunk, with 192 KiB of slack for numpy's cast buffers
        # (the float64 scaling buffers its float32 input and output, 8,192
        # values each; measured 131 KiB); a separate projection would add
        # 4 MB, a float64 result 4 MB more
        n, n_freq = 2048, 256
        fmap = sample_frequencies(103, n_freq, 1.0, seed=3)
        xs = np.random.default_rng(4).normal(size=(n, 103))
        out = n * 2 * n_freq * 4
        chunk = rff._CHUNK // n_freq * n_freq * 8
        peak = traced_peak(lambda: feature_matrix(fmap, xs))
        assert out + chunk <= peak <= out + chunk + 3 * (1 << 16)

    @pytest.mark.parametrize("chunk", [rff._CHUNK, 1000])
    @pytest.mark.parametrize("n_freq", [3, 256])
    def test_bytes_equal_the_reduction_in_the_cos_half(self, n_freq, chunk, monkeypatch):
        # the float32 form in whole arrays: one reduction of the whole
        # projection, one cast, cos and sin into a new matrix, the scale
        # rounded once; an odd row count, one chunk or chunks that do not
        # divide it, large and zero angles
        monkeypatch.setattr(rff, "_CHUNK", chunk)
        fmap = sample_frequencies(17, n_freq, 0.5, seed=n_freq)
        xs = np.random.default_rng(10).normal(scale=6.0, size=(1001, 17))
        xs[3] = 0.0
        proj = xs @ fmap.frequencies.T
        turns = np.rint(proj * (1.0 / (2.0 * np.pi))) * (2.0 * np.pi)
        angles = (proj - turns).astype(np.float32)
        want = np.concatenate([np.cos(angles), np.sin(angles)], axis=1)
        want = (want.astype(np.float64) * np.sqrt(1.0 / n_freq)).astype(np.float32)
        assert feature_matrix(fmap, xs).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_freq", [3, 64, 256, 512, 1024])
    def test_float64_result_rounded_once(self, n_freq):
        # each entry is the float64-result form's entry rounded to float32:
        # widened, those bytes when sqrt(1/N) is a power of two (the
        # benchmark's N = 64, 256 and 1024), else within half a float32 ulp
        fmap = sample_frequencies(17, n_freq, 0.5, seed=n_freq)
        xs = np.random.default_rng(11).normal(scale=6.0, size=(301, 17))
        xs[3] = 0.0
        got = feature_matrix(fmap, xs)
        want = feature_matrix_float64(fmap, xs)
        assert got.dtype == np.float32
        assert got.tobytes() == want.astype(np.float32).tobytes()
        widened = got.astype(np.float64)
        if n_freq in (64, 256, 1024):
            assert widened.tobytes() == want.tobytes()
        else:
            assert not np.array_equal(widened, want)
            half_ulp = np.spacing(np.abs(want).astype(np.float32)).astype(np.float64) / 2
            assert np.all(np.abs(widened - want) <= half_ulp)

    def test_three_dimensional_input_rejected(self):
        fmap = sample_frequencies(3, 8, 1.0, seed=0)
        with pytest.raises(ShapeError):
            feature_matrix(fmap, np.zeros((2, 2, 3)))


class TestFloat32Trig:
    """The host's float32 cos and sin give each angle the same bytes
    wherever it sits: at odd start offsets and in the cos half of float32
    rows of any width, as ``feature_matrix`` feeds them. Row blocks depend
    on that; a host whose SIMD path breaks it fails here."""

    @pytest.fixture(scope="class")
    def angles(self):
        rng = np.random.default_rng(15)
        # several ufunc buffers (8,192 values each) of reduced angles,
        # with the edges of the range and the quarter turns among them
        x = rng.uniform(-np.pi, np.pi, size=3 * 8192 + 7)
        x[:9] = [0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 1e-30, -1e-30, 3.0]
        return rng.permutation(x)

    @pytest.mark.parametrize("ufunc", [np.cos, np.sin])
    def test_same_bytes_in_the_cos_half_of_float32_rows(self, angles, ufunc):
        small = angles.astype(np.float32)
        want = ufunc(small)
        for start in (1, 3, 5, 7, 13, 31, 8191):
            assert ufunc(small[start:]).tobytes() == want[start:].tobytes(), start
        for cols in (1, 3, 7, 37, 103, 256):
            rows = len(small) // cols
            # cos in place, sin into the second half of each row
            out = np.empty((rows, 2 * cols), dtype=np.float32)
            out[:, :cols] = small[: rows * cols].reshape(rows, cols)
            target = out[:, :cols] if ufunc is np.cos else out[:, cols:]
            ufunc(out[:, :cols], out=target)
            assert target.tobytes() == want[: rows * cols].tobytes(), cols
