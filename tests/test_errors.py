"""Argument checks: every numeric and seed argument of a public call goes
through ``errors.check_integer`` or ``errors.check_real``."""

import math

import numpy as np
import pytest

from hsembed import (
    BoundConfig,
    HyperspectralImage,
    MetaSampleSpec,
    ParameterError,
    SvmConfig,
    confusion_matrix,
    cross_validate,
    draw_meta_sample,
    embedding_deviation_gaussian,
    median_heuristic,
    pca_reduce,
    rademacher_estimate,
    sample_frequencies,
    train_binary,
)
from hsembed.bounds import (
    assemble_combined_rhs,
    expected_kernel_between_gaussians,
    population_feature_embedding,
    rkhs_ball_rademacher,
    sample_linear_predictors,
)
from hsembed.errors import check_integer, check_real

IMAGE = HyperspectralImage(np.arange(48.0).reshape(4, 4, 3) % 7 + 1.0)
FMAP = sample_frequencies(3, 4, 1.0)
X = np.array([[0.0], [1.0], [2.0], [3.0]])
Y = np.array([1.0, 1.0, -1.0, -1.0])
LABELS = np.array([1, 2, 1, 2])
COMPONENTS = dict.fromkeys(
    ("moment_term", "deviation_term", "loss_class_rademacher", "loss_class_variance_bound"), 0.1
)

CALLS = {
    "sample_frequencies seed -1": lambda: sample_frequencies(3, 4, 1.0, seed=-1),
    "sample_frequencies bandwidth '1'": lambda: sample_frequencies(3, 4, "1"),
    "draw_meta_sample seed -1": lambda: draw_meta_sample(MetaSampleSpec(), seed=-1),
    "sample_linear_predictors seed -1": lambda: sample_linear_predictors(3, 2, 0.0, 1.0, seed=-1),
    "sample_linear_predictors count 2.5": lambda: sample_linear_predictors(3, 2.5, 0.0, 1.0),
    "sample_linear_predictors norm inf": lambda: sample_linear_predictors(3, 2, 0.0, math.inf),
    "rademacher_estimate draws 2.5": lambda: rademacher_estimate(np.ones((2, 3)), draws=2.5),
    "rademacher_estimate seed -1": lambda: rademacher_estimate(np.ones((2, 3)), seed=-1),
    "rkhs_ball_rademacher seed -1": lambda: rkhs_ball_rademacher(np.eye(3), seed=-1),
    "embedding_deviation_gaussian n 2.5": lambda: embedding_deviation_gaussian(2.5, 1.0, 1.0, 2),
    "embedding_deviation_gaussian seed -1":
        lambda: embedding_deviation_gaussian(3, 1.0, 1.0, 2, seed=-1),
    "median_heuristic seed -1": lambda: median_heuristic(IMAGE, seed=-1),
    "BoundConfig dictionary_norm nan": lambda: BoundConfig(dictionary_norm=math.nan),
    "BoundConfig delta '0.1'": lambda: BoundConfig(delta="0.1"),
    "MetaSampleSpec label_flip '0.1'": lambda: MetaSampleSpec(label_flip="0.1"),
    "expected_kernel_between_gaussians dim 2.5":
        lambda: expected_kernel_between_gaussians(1.0, 1.0, 2.5),
    "assemble_combined_rhs n_groups 0": lambda: assemble_combined_rhs(COMPONENTS, 0, 0.05),
    "population_feature_embedding sigma nan":
        lambda: population_feature_embedding(FMAP, np.zeros(3), math.nan),
    "confusion_matrix n_classes 2.5": lambda: confusion_matrix(LABELS, LABELS, 2.5),
    "pca_reduce dims 2.5": lambda: pca_reduce(IMAGE, 2.5),
    "train_binary C True": lambda: train_binary(X, Y, True),
    "SvmConfig C '1'": lambda: SvmConfig(c="1"),
    "cross_validate seed -1": lambda: cross_validate(X, LABELS, folds=2, seed=-1),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_public_calls_refuse_values_outside_their_domain(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
def test_integers_of_any_width_pass(value):
    check_integer(value, "n", 1)


@pytest.mark.parametrize("value", [True, 3.0, "3", None, np.float64(3.0), 0])
def test_non_integers_and_integers_below_the_least_are_refused(value):
    with pytest.raises(ParameterError, match=r"n must be an integer >= 1"):
        check_integer(value, "n", 1)


@pytest.mark.parametrize("value", [0.5, 2, np.float32(0.5), np.int64(2)])
def test_finite_reals_of_any_type_pass(value):
    check_real(value, "x")
    check_real(value, "x", positive=False)


@pytest.mark.parametrize("value", [0, 0.0, -1.0, math.nan, math.inf, True, "1", None])
def test_positive_refuses_zero_negatives_non_finite_and_non_numbers(value):
    with pytest.raises(ParameterError, match="x must be positive and finite"):
        check_real(value, "x")


@pytest.mark.parametrize("value", [-1e-300, -math.inf, math.nan, False, "0"])
def test_non_negative_refuses_negatives_non_finite_and_non_numbers(value):
    with pytest.raises(ParameterError, match="x must be finite and >= 0"):
        check_real(value, "x", positive=False)


def test_zero_is_non_negative():
    check_real(0.0, "x", positive=False)
