"""Confusion-matrix metrics and the Monte-Carlo protocol."""

from collections import Counter

import numpy as np
import pytest

from hsembed import (
    ClassifierSpec,
    ContractViolation,
    DegenerateDataError,
    EmbeddingConfig,
    HyperspectralImage,
    GroundTruthMap,
    McProtocol,
    ParameterError,
    PatchSpec,
    SceneSpec,
    UndefinedInputError,
    average_accuracy,
    confusion_matrix,
    generate_synthetic_scene,
    kappa,
    monte_carlo_protocol,
    overall_accuracy,
)
from hsembed import embedding, evaluation, hsi
from hsembed.embedding import build_feature_table
from hsembed.evaluation import format_summary_table, protocol_split, run_split
from hsembed.morphology import MorphoProfileConfig
from hsembed.svm import SvmConfig, predict_table, train_multiclass

HAND_MATRIX = np.array([[3, 1], [2, 4]])


class TestConfusionMatrix:
    def test_perfect_prediction(self):
        cm = confusion_matrix([1, 1, 2, 2], [1, 1, 2, 2], 2)
        np.testing.assert_array_equal(cm, [[2, 0], [0, 2]])

    def test_hand_counted_matrix(self):
        truth = [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]
        pred = [1, 1, 1, 2, 2, 2, 2, 2, 1, 1]
        np.testing.assert_array_equal(confusion_matrix(pred, truth, 2), HAND_MATRIX)

    def test_unlabeled_pixels_excluded(self):
        cm = confusion_matrix([1, 2, 1], [0, 0, 1], 2)
        np.testing.assert_array_equal(cm, [[1, 0], [0, 0]])

    def test_empty_labeled_set(self):
        cm = confusion_matrix([1, 1], [0, 0], 2)
        assert cm.sum() == 0
        with pytest.raises(UndefinedInputError):
            overall_accuracy(cm)
        with pytest.raises(UndefinedInputError):
            kappa(cm)

    def test_out_of_range_labels(self):
        with pytest.raises(ContractViolation):
            confusion_matrix([3], [1], 2)
        with pytest.raises(ContractViolation):
            confusion_matrix([1], [3], 2)


class TestMetrics:
    def test_overall_accuracy(self):
        assert overall_accuracy(np.diag([2, 2])) == 1.0
        assert overall_accuracy(HAND_MATRIX) == pytest.approx(0.7)
        assert overall_accuracy(np.array([[0, 5], [5, 0]])) == 0.0

    def test_average_accuracy(self):
        assert average_accuracy(np.diag([2, 2])) == 1.0
        assert average_accuracy(HAND_MATRIX) == pytest.approx(0.5 * (3 / 4 + 4 / 6))
        assert average_accuracy(np.array([[3, 0], [4, 0]])) == 0.5

    def test_average_accuracy_names_empty_class(self):
        with pytest.raises(UndefinedInputError, match="class 2"):
            average_accuracy(np.array([[3, 0], [0, 0]]))

    def test_kappa_hand_value(self):
        # Po = 0.7, Pe = (4*5 + 6*5)/100 = 0.5, kappa = 0.4
        assert kappa(HAND_MATRIX) == pytest.approx(0.4)

    def test_kappa_extremes(self):
        assert kappa(np.diag([5, 5])) == 1.0
        constant_pred = np.array([[5, 0], [5, 0]])
        assert kappa(constant_pred) == 0.0

    def test_kappa_pe_one_convention(self):
        assert kappa(np.array([[4]])) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            cm = rng.integers(0, 9, size=(n, n))
            cm[0, 0] += 1  # keep row 0 non-empty
            if (cm.sum(axis=1) == 0).any():
                cm += 1
            perm = rng.permutation(n)
            pm = cm[np.ix_(perm, perm)]
            assert overall_accuracy(pm) == pytest.approx(overall_accuracy(cm))
            assert average_accuracy(pm) == pytest.approx(average_accuracy(cm))
            assert kappa(pm) == pytest.approx(kappa(cm))

    def test_kappa_at_most_one_and_one_iff_diagonal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            cm = rng.integers(0, 8, size=(n, n)) + np.eye(n, dtype=int)
            k = kappa(cm)
            assert k <= 1.0 + 1e-12
            is_diag = np.all(cm == np.diag(np.diag(cm)))
            assert (k == pytest.approx(1.0)) == bool(is_diag)

    def test_additivity_of_counts(self):
        rng = np.random.default_rng(1)
        t1, p1 = rng.integers(1, 4, 30), rng.integers(1, 4, 30)
        t2, p2 = rng.integers(1, 4, 40), rng.integers(1, 4, 40)
        a = confusion_matrix(p1, t1, 3)
        b = confusion_matrix(p2, t2, 3)
        pooled = confusion_matrix(np.concatenate([p1, p2]), np.concatenate([t1, t2]), 3)
        np.testing.assert_array_equal(a + b, pooled)
        assert overall_accuracy(a + b) == pytest.approx(overall_accuracy(pooled))
        assert kappa(a + b) == pytest.approx(kappa(pooled))


@pytest.fixture(scope="module")
def blob_scene():
    rng = np.random.default_rng(30)
    spectra = rng.random((3, 6)) + np.array([[0.0], [1.0], [2.0]])
    spec = SceneSpec(16, 16, 6, 3, spectra, region_scale=6.0, noise_sigma=0.05, seed=30)
    return generate_synthetic_scene(spec)


def classifier(method="raw", side=1, c=32.0):
    return ClassifierSpec(
        method,
        EmbeddingConfig(patch=PatchSpec(side), n_features=64, seed=3),
        None,
        SvmConfig(c=c, seed=3),
    )


class TestMonteCarloProtocol:
    def test_eval_on_train_separable_is_perfect(self, blob_scene):
        image, gt = blob_scene
        protocol = McProtocol(runs=1, per_class=5, seed=1, eval_on_train=True)
        summary = monte_carlo_protocol(image, gt, protocol, classifier())
        assert summary.oa[0] == 1.0
        assert summary.aa[0] == 1.0
        assert summary.kappa[0] == 1.0

    def test_deterministic(self, blob_scene):
        image, gt = blob_scene
        protocol = McProtocol(runs=3, per_class=5, seed=5)
        a = monte_carlo_protocol(image, gt, protocol, classifier())
        b = monte_carlo_protocol(image, gt, protocol, classifier())
        assert a.oa == b.oa and a.aa == b.aa and a.kappa == b.kappa

    def test_aggregates_recomputable(self, blob_scene):
        image, gt = blob_scene
        protocol = McProtocol(runs=4, per_class=5, seed=6)
        s = monte_carlo_protocol(image, gt, protocol, classifier())
        assert s.mean()["oa"] == pytest.approx(np.mean(s.oa))
        assert s.std()["oa"] == pytest.approx(np.std(s.oa, ddof=1))
        d = s.to_dict()
        assert len(d["runs"]) == 4
        assert d["mean"]["oa"] == pytest.approx(100 * np.mean(s.oa))

    def test_single_run_std_zero(self, blob_scene):
        image, gt = blob_scene
        protocol = McProtocol(runs=1, per_class=5, seed=7)
        s = monte_carlo_protocol(image, gt, protocol, classifier())
        assert s.std() == {"oa": 0.0, "aa": 0.0, "kappa": 0.0}

    def test_class_too_small_rejected(self):
        labels = np.ones((4, 4), dtype=int)
        labels[0, 0] = 2  # class 2 has one pixel; needs per_class + 1
        gt = GroundTruthMap(labels)
        image = HyperspectralImage(np.random.default_rng(2).random((4, 4, 3)))
        with pytest.raises(DegenerateDataError, match="class 2"):
            monte_carlo_protocol(image, gt, McProtocol(runs=1, per_class=1), classifier())

    def test_fixed_test_indices(self, blob_scene):
        image, gt = blob_scene
        labeled = np.flatnonzero(gt.labels.ravel() > 0)
        fixed = labeled[::3]
        protocol = McProtocol(runs=2, per_class=5, seed=8, fixed_test=fixed)
        s = monte_carlo_protocol(image, gt, protocol, classifier())
        assert len(s.oa) == 2
        assert all(0.0 <= v <= 1.0 for v in s.oa)

    @pytest.mark.parametrize(
        "extra",
        [-1, 1.7, "repeat", 256],
        ids=["negative", "not-an-integer", "repeated", "past-the-last-pixel"],
    )
    def test_bad_fixed_test_indices_are_rejected(self, blob_scene, extra):
        # a valid fixed test set and one bad index, which is not wrapped,
        # truncated, scored twice or left to numpy's IndexError: the scene
        # has 16 x 16 = 256 pixels
        image, gt = blob_scene
        fixed = np.flatnonzero(gt.labels.ravel() > 0)[::3]
        fixed = np.append(fixed, fixed[0] if extra == "repeat" else extra)
        with pytest.raises(ParameterError, match="fixed_test"):
            protocol = McProtocol(runs=1, per_class=5, fixed_test=fixed)
            monte_carlo_protocol(image, gt, protocol, classifier())

    @pytest.mark.parametrize("which", ["empty", "unlabeled"])
    def test_fixed_test_without_a_labeled_pixel_is_refused_before_training(
        self, blob_scene, monkeypatch, which
    ):
        image, gt = blob_scene
        labels = gt.labels.copy()
        labels[:2] = 0  # two unlabeled image rows
        gt = GroundTruthMap(labels)
        unlabeled = np.flatnonzero(labels.ravel() == 0)
        fixed = np.array([], dtype=np.int64) if which == "empty" else unlabeled
        protocol = McProtocol(runs=2, per_class=5, fixed_test=fixed)

        def trained(*args):
            raise AssertionError("trained before the fixed test was checked")

        monkeypatch.setattr(evaluation, "predict_runs", trained)
        with pytest.raises(DegenerateDataError, match="fixed_test holds no labeled pixel"):
            monte_carlo_protocol(image, gt, protocol, classifier())

    def test_grid_search_path(self, blob_scene):
        image, gt = blob_scene
        protocol = McProtocol(runs=1, per_class=5, seed=9)
        s = monte_carlo_protocol(image, gt, protocol, classifier(c=None))
        assert s.best_c[0] in [2.0**i for i in range(-15, 16)]

    @pytest.mark.parametrize(
        "method, profiles, medians, tables",
        # fusion streams whatever its size: no command builds a fused row
        [("mp", 1, 0, 1), ("meanmap", 0, 1, 1), ("mp_x_meanmap", 1, 1, 0)],
    )
    def test_dense_branch_resolves_the_features_once(
        self, blob_scene, monkeypatch, method, profiles, medians, tables
    ):
        image, gt = blob_scene
        calls = Counter()

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(embedding, "morphological_profile")
        count(embedding, "median_heuristic")
        count(evaluation, "build_feature_table")
        spec = ClassifierSpec(
            method,
            EmbeddingConfig(patch=PatchSpec(3), n_features=16, seed=3),
            MorphoProfileConfig(2, 1),
            SvmConfig(c=32.0, seed=3),
        )
        monte_carlo_protocol(image, gt, McProtocol(runs=2, per_class=5, seed=1), spec)
        assert calls == Counter(
            build_feature_table=tables, morphological_profile=profiles, median_heuristic=medians
        )

    def test_table_formatting(self, blob_scene):
        image, gt = blob_scene
        protocol = McProtocol(runs=2, per_class=5, seed=10)
        s = monte_carlo_protocol(image, gt, protocol, classifier("meanmap", 3))
        text = format_summary_table([s])
        assert "kernel" in text and "OA" in text and "meanmap" in text
        assert "s=3" in text


class TestProtocolSplit:
    def test_disjoint_split_of_the_labeled_pixels(self, blob_scene):
        _, gt = blob_scene
        train, test = protocol_split(gt, McProtocol(runs=3, per_class=5, seed=4), 2)
        assert np.bincount(gt.labels.ravel()[train]).tolist() == [0, 5, 5, 5]
        assert np.intersect1d(train, test).size == 0
        assert train.size + test.size == np.count_nonzero(gt.labels)

    def test_fixed_test_and_eval_on_train(self, blob_scene):
        _, gt = blob_scene
        fixed = np.flatnonzero(gt.labels.ravel() > 0)[::3]
        train, test = protocol_split(gt, McProtocol(per_class=5, fixed_test=fixed), 0)
        np.testing.assert_array_equal(test, fixed)
        assert np.intersect1d(train, fixed).size == 0
        assert np.unique(train).size == train.size  # distinct, as kernel_rows needs
        train, test = protocol_split(gt, McProtocol(per_class=5, eval_on_train=True), 0)
        np.testing.assert_array_equal(test, train)
        assert np.unique(train).size == train.size


class TestRunSplit:
    def test_blocked_prediction_matches_one_call(self, blob_scene, monkeypatch):
        image, gt = blob_scene
        table = build_feature_table(image, "raw")
        labels = gt.labels.ravel()
        train, test = protocol_split(gt, McProtocol(per_class=5, seed=2), 0)
        model = train_multiclass(table.values[train], labels[train], 32.0, classes=[1, 2, 3])
        expected = predict_table(model, table.values[test])
        calls = []

        def counted(model, features):
            calls.append(features.shape[0])
            return predict_table(model, features)

        monkeypatch.setattr(evaluation, "predict_table", counted)
        monkeypatch.setattr(hsi, "_BLOCK", 4 * table.dim)
        preds, c = run_split(table, labels, train, test, 3, SvmConfig(c=32.0))
        np.testing.assert_array_equal(preds, expected)
        assert c == 32.0
        assert max(calls) == 4 and sum(calls) == test.size
