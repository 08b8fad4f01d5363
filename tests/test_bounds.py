"""Risk functionals, embedding deviations, Rademacher estimates, bound checks."""

import math

import numpy as np
import pytest

from hsembed import (
    BoundConfig,
    LossSpec,
    MetaSampleSpec,
    ParameterError,
    UndefinedInputError,
    check_combined_risk_bound,
    check_embedding_gap_bound,
    draw_meta_sample,
    embedding_deviation_gaussian,
    empirical_risk,
    rademacher_estimate,
    sample_frequencies,
)
from hsembed.bounds import (
    assemble_combined_rhs,
    empirical_embeddings,
    expected_kernel_between_gaussians,
    expected_kernel_to_gaussian,
    gaussian_gram,
    population_embeddings,
    population_feature_embedding,
    rkhs_ball_rademacher,
    sample_linear_predictors,
)
from hsembed.rff import feature_matrix


class TestLossAndRisk:
    def test_hinge_all_margins_at_least_one(self):
        loss = LossSpec("hinge")
        assert empirical_risk(np.array([2.0, 1.0, 5.0]), np.array([1, 1, 1]), loss) == 0.0

    def test_hinge_zero_margin(self):
        loss = LossSpec("hinge")
        assert empirical_risk(np.array([0.0]), np.array([1]), loss) == 1.0

    def test_hand_loop_oracle(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=17)
        labels = np.sign(rng.normal(size=17))
        labels[labels == 0] = 1.0
        for loss in (LossSpec("hinge"), LossSpec("logistic")):
            expected = sum(
                float(loss.values(np.array([v * y]))[0]) for v, y in zip(values, labels)
            ) / 17.0
            assert empirical_risk(values, labels, loss) == pytest.approx(expected, rel=1e-12)

    def test_empty_sample(self):
        with pytest.raises(UndefinedInputError):
            empirical_risk(np.array([]), np.array([]), LossSpec("hinge"))

    def test_logistic_at_zero(self):
        assert LossSpec("logistic").at_zero() == pytest.approx(math.log(2.0))

    def test_lipschitz_constant_is_fixed(self):
        # both losses are 1-Lipschitz; the constant is not a settable field
        assert LossSpec("logistic").lipschitz_constant == 1.0
        with pytest.raises(TypeError):
            LossSpec("hinge", 2.0)


class TestGaussianClosedForms:
    def test_expected_kernel_to_gaussian_monte_carlo(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4))
        mean = np.array([0.5, -0.2, 0.0, 1.0])
        sigma, bw = 0.6, 1.1
        draws = mean + sigma * rng.standard_normal((200_000, 4))
        mc = gaussian_gram(x, draws, bw).mean(axis=1)
        closed = expected_kernel_to_gaussian(x, mean, sigma, bw)
        np.testing.assert_allclose(closed, mc, atol=5e-3)

    def test_expected_kernel_between_gaussians_monte_carlo(self):
        rng = np.random.default_rng(2)
        sigma, bw, dim = 0.8, 1.0, 3
        a = sigma * rng.standard_normal((2000, dim))
        b = sigma * rng.standard_normal((2000, dim))
        mc = gaussian_gram(a, b, bw).mean()
        closed = expected_kernel_between_gaussians(sigma, bw, dim)
        assert closed == pytest.approx(mc, abs=5e-3)


    @pytest.mark.parametrize("call", [
        lambda: gaussian_gram(np.zeros((1, 2)), np.ones((1, 2)), np.nan),
        lambda: expected_kernel_to_gaussian(np.zeros((1, 2)), np.zeros(2), np.nan, 1.0),
        lambda: expected_kernel_between_gaussians(np.nan, 1.0, 2),
        lambda: expected_kernel_between_gaussians(np.inf, 1.0, 2),
        lambda: expected_kernel_between_gaussians(0.5, np.inf, 2),
        lambda: MetaSampleSpec(group_sigma=np.nan),
        lambda: MetaSampleSpec(center_scale=np.inf),
        lambda: MetaSampleSpec(n_groups=True),
        lambda: MetaSampleSpec(n_groups=2.5),
        lambda: MetaSampleSpec(seed=-1),
        lambda: BoundConfig(r_bound=np.nan),
        lambda: BoundConfig(r_bound=np.inf),
        lambda: BoundConfig(rademacher_draws=2.5),
        lambda: BoundConfig(seed=-1),
    ])
    def test_non_finite_scales_and_non_integer_counts_rejected(self, call):
        with pytest.raises(ParameterError):
            call()


class TestEmbeddingDeviation:
    def test_point_mass_gives_zero(self):
        assert embedding_deviation_gaussian(20, 0.0, 1.0, 4, seed=3) == 0.0

    def test_nonnegative(self):
        for seed in range(10):
            assert embedding_deviation_gaussian(32, 1.0, 1.0, 3, seed=seed) >= 0.0

    def test_rate_slope(self):
        pts = []
        for s in range(8):
            for n in (16, 64, 256, 1024):
                d = embedding_deviation_gaussian(n, 1.0, 1.0, 3, seed=31 * s + n)
                pts.append((math.log(n), math.log(d)))
        pts = np.array(pts)
        slope = np.polyfit(pts[:, 0], pts[:, 1], 1)[0]
        assert -0.65 <= slope <= -0.35

    def test_against_large_reference_sample_mmd(self):
        # brute-force two-sample check with a 10^6-point reference sample:
        # population terms replaced by reference-sample averages
        n, p_sigma, k_sigma, dim, seed = 64, 0.9, 1.2, 3, 17
        closed = embedding_deviation_gaussian(n, p_sigma, k_sigma, dim, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, p_sigma, size=(n, dim))
        ref_rng = np.random.default_rng(seed + 1)
        m = 1_000_000
        ref = ref_rng.normal(0.0, p_sigma, size=(m, dim))
        term_sample = gaussian_gram(x, x, k_sigma).mean()
        cross = 0.0
        for start in range(0, m, 100_000):
            cross += gaussian_gram(x, ref[start : start + 100_000], k_sigma).sum()
        cross /= n * m
        # disjoint-pair average for the reference self-term
        pair_a, pair_b = ref[: m // 2], ref[m // 2 :]
        d2 = np.sum((pair_a - pair_b) ** 2, axis=1)
        ref_self = float(np.mean(np.exp(-0.5 * d2 / k_sigma**2)))
        brute = math.sqrt(max(term_sample - 2 * cross + ref_self, 0.0))
        assert closed == pytest.approx(brute, abs=1e-2)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            embedding_deviation_gaussian(0, 1.0, 1.0, 3)
        with pytest.raises(ParameterError):
            embedding_deviation_gaussian(10, -1.0, 1.0, 3)
        with pytest.raises(ParameterError):
            embedding_deviation_gaussian(10, 1.0, 0.0, 3)


class TestRademacher:
    def test_zero_function(self):
        assert rademacher_estimate(np.zeros((1, 16)), draws=200, seed=0) == 0.0

    def test_constant_class_closed_form(self):
        # sup over {+1, -1 constants} of (1/n) sum eps_i g(z_i) is |mean(eps)|;
        # E|mean| ~ sqrt(2 / (pi n))
        n = 64
        est = rademacher_estimate(np.ones((1, n)), draws=10_000, seed=4)
        assert est == pytest.approx(math.sqrt(2.0 / (math.pi * n)), rel=0.15)

    def test_decreases_with_n(self):
        est_n = rademacher_estimate(np.ones((1, 50)), draws=20_000, seed=5)
        est_2n = rademacher_estimate(np.ones((1, 100)), draws=20_000, seed=6)
        assert est_2n <= est_n * 1.1

    def test_empty_matrix(self):
        with pytest.raises(UndefinedInputError):
            rademacher_estimate(np.zeros((0, 0)))

    def test_rkhs_ball_scaling(self):
        # i.i.d. points, unit-ball complexity ~ sqrt(E k(x,x) / n) = sqrt(1/n)
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(64, 3))
        gram = gaussian_gram(pts, pts, 1.0)
        est = rkhs_ball_rademacher(gram, draws=4000, seed=8)
        assert 0.0 < est <= math.sqrt(1.0 / 64) * 1.5


class TestPopulationEmbedding:
    def test_monte_carlo_oracle(self):
        fmap = sample_frequencies(4, 128, 1.0, seed=9)
        mean = np.array([0.3, -0.5, 0.0, 0.8])
        sigma = 0.7
        rng = np.random.default_rng(10)
        draws = mean + sigma * rng.standard_normal((200_000, 4))
        mc = feature_matrix(fmap, draws).mean(axis=0)
        closed = population_feature_embedding(fmap, mean, sigma)
        np.testing.assert_allclose(closed, mc, atol=2e-3)

    def test_zero_sigma_is_point_feature(self):
        fmap = sample_frequencies(3, 32, 1.0, seed=11)
        x = np.array([0.1, 0.2, -0.3])
        np.testing.assert_allclose(
            population_feature_embedding(fmap, x, 0.0),
            feature_matrix(fmap, x[None, :])[0],
            atol=1e-14,
        )


class TestMetaSample:
    def test_deterministic(self):
        spec = MetaSampleSpec(seed=12)
        a, b = draw_meta_sample(spec), draw_meta_sample(spec)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_point_mass_groups(self):
        spec = MetaSampleSpec(group_sigma=0.0, seed=13)
        meta = draw_meta_sample(spec)
        for i in range(meta.n_groups):
            np.testing.assert_array_equal(
                meta.samples[i], np.tile(meta.means[i], (meta.group_size, 1))
            )

    def test_labels_pm_one(self):
        meta = draw_meta_sample(MetaSampleSpec(n_groups=10, seed=14))
        assert set(np.unique(meta.labels)) <= {-1.0, 1.0}


GAP_SPEC = MetaSampleSpec(
    n_groups=5, group_size=16, dim=5, group_sigma=0.4,
    center_scale=1.0, mean_spread=0.5, seed=21,
)


class TestEmbeddingGapBound:
    def test_large_groups_shrink_lhs(self):
        fmap = sample_frequencies(5, 128, 1.0, seed=20)
        loss = LossSpec("hinge")
        config = BoundConfig(seed=20)
        w = sample_linear_predictors(fmap.feature_dim, 1, 5.0, 5.0, seed=20)[0]
        lhs = []
        for size in (10, 10_000):
            meta = draw_meta_sample(
                MetaSampleSpec(n_groups=5, group_size=size, dim=5,
                               group_sigma=0.4, seed=22)
            )
            report = check_embedding_gap_bound(meta, fmap, w, loss, config)
            lhs.append(abs(report.lhs))
        assert lhs[1] < lhs[0]
        assert lhs[1] < 0.05
        assert report.slack >= 0.0

    def test_zero_predictor(self):
        fmap = sample_frequencies(5, 64, 1.0, seed=23)
        meta = draw_meta_sample(MetaSampleSpec(n_groups=1, seed=23))
        report = check_embedding_gap_bound(
            meta, fmap, np.zeros(fmap.feature_dim), LossSpec("hinge"), BoundConfig()
        )
        assert report.lhs == 0.0
        assert report.rhs >= 0.0

    def test_hundred_random_predictors_nonnegative_slack(self):
        fmap = sample_frequencies(5, 256, 1.0, seed=21)
        meta = draw_meta_sample(GAP_SPEC)
        predictors = sample_linear_predictors(fmap.feature_dim, 100, 50.0, 100.0, seed=21)
        loss = LossSpec("hinge")
        config = BoundConfig(seed=21)
        slacks = [
            check_embedding_gap_bound(meta, fmap, w, loss, config).slack
            for w in predictors
        ]
        assert min(slacks) >= 0.0

    def test_proof_form_is_n_squared_times_statement(self):
        fmap = sample_frequencies(5, 64, 1.0, seed=24)
        meta = draw_meta_sample(GAP_SPEC)
        w = sample_linear_predictors(fmap.feature_dim, 1, 10.0, 10.0, seed=24)[0]
        loss = LossSpec("hinge")
        stmt = check_embedding_gap_bound(meta, fmap, w, loss, BoundConfig(rhs_form="statement"))
        proof = check_embedding_gap_bound(meta, fmap, w, loss, BoundConfig(rhs_form="proof"))
        assert proof.rhs == pytest.approx(stmt.rhs * meta.n_groups**2, rel=1e-12)

    def test_report_determinism(self):
        fmap = sample_frequencies(5, 64, 1.0, seed=25)
        meta = draw_meta_sample(GAP_SPEC)
        w = sample_linear_predictors(fmap.feature_dim, 1, 10.0, 10.0, seed=25)[0]
        a = check_embedding_gap_bound(meta, fmap, w, LossSpec("hinge"), BoundConfig(seed=2))
        b = check_embedding_gap_bound(meta, fmap, w, LossSpec("hinge"), BoundConfig(seed=2))
        assert a.to_dict() == b.to_dict()


class TestCombinedRiskBound:
    def test_degenerate_point_mass_zero_predictor(self):
        spec = MetaSampleSpec(n_groups=8, group_size=4, dim=3, group_sigma=0.0, seed=26)
        meta = draw_meta_sample(spec)
        fmap = sample_frequencies(3, 64, 1.0, seed=26)
        report = check_combined_risk_bound(
            meta, fmap, np.zeros(fmap.feature_dim), LossSpec("hinge"), BoundConfig(seed=26)
        )
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.slack >= 0.0

    def test_twenty_trials_mostly_nonnegative(self):
        fmap = sample_frequencies(5, 128, 1.0, seed=27)
        loss = LossSpec("hinge")
        nonneg = 0
        for t in range(20):
            spec = MetaSampleSpec(n_groups=50, group_size=32, dim=5,
                                  group_sigma=0.4, seed=300 + t)
            meta = draw_meta_sample(spec)
            w = sample_linear_predictors(fmap.feature_dim, 1, 1.0, 1.0, seed=400 + t)[0]
            report = check_combined_risk_bound(
                meta, fmap, w, loss, BoundConfig(seed=500 + t, rademacher_draws=500,
                                                 holdout_draws=2000, dictionary_size=128)
            )
            nonneg += report.slack >= 0
        assert nonneg >= 19

    def test_rhs_monotone_in_group_count(self):
        fmap = sample_frequencies(5, 64, 1.0, seed=28)
        meta = draw_meta_sample(MetaSampleSpec(n_groups=50, group_size=16, seed=28))
        w = sample_linear_predictors(fmap.feature_dim, 1, 1.0, 1.0, seed=28)[0]
        report = check_combined_risk_bound(meta, fmap, w, LossSpec("hinge"), BoundConfig(seed=28))
        values = [assemble_combined_rhs(report.components, n, 0.05) for n in (50, 100, 200, 800)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_components_present_and_nonvacuity_flag(self):
        fmap = sample_frequencies(4, 64, 1.0, seed=29)
        meta = draw_meta_sample(MetaSampleSpec(n_groups=10, dim=4, seed=29))
        w = sample_linear_predictors(fmap.feature_dim, 1, 1.0, 1.0, seed=29)[0]
        report = check_combined_risk_bound(meta, fmap, w, LossSpec("hinge"), BoundConfig(seed=29))
        for key in (
            "moment_term",
            "deviation_term",
            "loss_class_rademacher",
            "loss_class_variance_bound",
            "rkhs_ball_rademacher",
        ):
            assert key in report.components
        assert report.nonvacuous == (report.rhs < 1.0)


class TestEmbeddingHelpers:
    def test_empirical_embeddings_match_loop(self):
        fmap = sample_frequencies(5, 32, 1.0, seed=30)
        meta = draw_meta_sample(MetaSampleSpec(n_groups=3, group_size=7, seed=30))
        table = empirical_embeddings(fmap, meta)
        for i in range(3):
            expected = feature_matrix(fmap, meta.samples[i]).astype(np.float64).mean(axis=0)
            np.testing.assert_allclose(table[i], expected, atol=1e-12)

    def test_population_embeddings_shape(self):
        fmap = sample_frequencies(5, 16, 1.0, seed=31)
        meta = draw_meta_sample(MetaSampleSpec(n_groups=4, seed=31))
        assert population_embeddings(fmap, meta).shape == (4, 32)
