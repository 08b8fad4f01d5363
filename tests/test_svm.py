"""Exact dual SVM solver, one-vs-one multiclass, CV grid search."""

import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hsembed.svm
from hsembed import (
    BinarySeparator,
    DegenerateDataError,
    ParameterError,
    ShapeError,
    cross_validate,
    default_c_grid,
    predict_table,
    train_binary,
    train_multiclass,
)
from hsembed.svm import SvmConfig, SvmModel, decision_matrix, dual_coefficients
from oracles import (
    box_qp_brute_force,
    cross_validate_reference,
    train_binary_reference,
    vote_reference,
)


def decision_values(sep, x):
    """The separator's decision values w.x + b on the rows of x."""
    return x @ sep.weights + sep.bias


def make_blobs(n_per_class, centers, scale, seed):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for k, center in enumerate(centers):
        xs.append(rng.normal(scale=scale, size=(n_per_class, len(center))) + center)
        ys.append(np.full(n_per_class, k + 1))
    return np.concatenate(xs), np.concatenate(ys)


class TestTrainBinary:
    def test_symmetric_pair_analytic_solution(self):
        # +1 at x=+1, -1 at x=-1 with large C: w = 1, b = 0
        sep = train_binary(np.array([[1.0], [-1.0]]), np.array([1, -1]), 1024.0)
        assert sep.weights[0] == pytest.approx(1.0, abs=1e-9)
        assert sep.bias == pytest.approx(0.0, abs=1e-9)

    def test_separable_set_trains_perfectly(self):
        # 200 points in 2-D separated by a margin of 0.5
        rng = np.random.default_rng(1)
        n = 100
        x = rng.normal(size=(2 * n, 2))
        x[:n, 0] = np.abs(x[:n, 0]) + 0.25
        x[n:, 0] = -np.abs(x[n:, 0]) - 0.25
        y = np.concatenate([np.ones(n), -np.ones(n)])
        sep = train_binary(x, y, 2.0**10)
        assert np.all(np.sign(decision_values(sep, x)) == y)

    def test_duplication_matches_doubled_c(self):
        # objective equivalence: duplicating every point doubles the loss
        # term, the same as doubling C
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        y = np.sign(x[:, 0] + 0.3 * rng.normal(size=40))
        y[y == 0] = 1.0
        base = train_binary(x, y, 4.0, tol=1e-9)
        doubled = train_binary(
            np.concatenate([x, x]), np.concatenate([y, y]), 2.0, tol=1e-9
        )
        np.testing.assert_allclose(doubled.weights, base.weights, atol=1e-6)
        assert doubled.bias == pytest.approx(base.bias, abs=1e-6)

    def test_dual_feasibility_and_complementary_slackness(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 4))
        y = np.sign(x @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.5 * rng.normal(size=60))
        y[y == 0] = 1.0
        c = 8.0
        sep = train_binary(x, y, c)
        alphas = sep.diagnostics.alphas
        assert np.all(alphas >= -1e-12) and np.all(alphas <= c + 1e-12)
        margins = y * decision_values(sep, x)
        viol = alphas * np.maximum(0.0, margins - 1.0) + (c - alphas) * np.maximum(
            0.0, 1.0 - margins
        )
        assert viol.max() <= 1e-4 * c + 1e-12

    def test_objective_monotone_nondecreasing(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(80, 5))
        y = np.sign(rng.normal(size=80))
        y[y == 0] = 1.0
        for c in (0.1, 4.0, 256.0):
            objs = train_binary(x, y, c).diagnostics.dual_objectives
            diffs = np.diff(objs)
            assert np.all(diffs >= -1e-9 * (1.0 + np.abs(objs[:-1])))

    def test_permutation_robustness(self):
        rng = np.random.default_rng(5)
        x, y = make_blobs(150, [(0.8, 0), (-0.8, 0)], 1.0, 6)
        y = np.where(y == 1, 1.0, -1.0)
        sep = train_binary(x, y, 1.0)
        acc = np.mean(np.sign(decision_values(sep, x)) == y)
        perm = rng.permutation(len(y))
        sep2 = train_binary(x[perm], y[perm], 1.0)
        acc2 = np.mean(np.sign(decision_values(sep2, x[perm])) == y[perm])
        assert abs(acc - acc2) <= 0.005

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 3))
        y = np.sign(rng.normal(size=30))
        y[y == 0] = 1.0
        a = train_binary(x, y, 2.0)
        b = train_binary(x, y, 2.0)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_step_cap_reports_unconverged(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 3))
        y = np.tile([1.0, -1.0], 5)
        assert train_binary(x, y, 1.0).diagnostics.epochs > 10
        monkeypatch.setattr(hsembed.svm, "STEP_CAP_PER_ROW", 1)
        with pytest.warns(RuntimeWarning, match="step cap"):
            diag = train_binary(x, y, 1.0).diagnostics
        assert not diag.converged
        assert diag.epochs == 10
        assert diag.kkt_violation > 1e-4

    def test_errors(self):
        x = np.ones((3, 2))
        with pytest.raises(DegenerateDataError):
            train_binary(x, np.ones(3), 1.0)
        for c in (0.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                train_binary(x, np.array([1, -1, 1]), c)
        with pytest.raises(ParameterError):
            train_binary(x, np.array([1, 2, 3]), 1.0)
        bad = x.copy()
        bad[0, 0] = np.inf
        from hsembed import NumericalError

        with pytest.raises(NumericalError):
            train_binary(bad, np.array([1, -1, 1]), 1.0)

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, np.nan, np.inf])
    def test_tol_must_be_finite_and_non_negative(self, tol):
        x, y = np.array([[1.0], [-1.0]]), np.array([1.0, -1.0])
        with pytest.raises(ParameterError, match="tol must be finite and >= 0"):
            train_binary(x, y, 1.0, tol=tol)

    def test_zero_tol_is_allowed(self):
        sep = train_binary(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]), 1024.0, tol=0.0)
        assert sep.diagnostics.converged and sep.diagnostics.kkt_violation == 0.0


class TestMulticlass:
    def test_two_classes_single_separator(self):
        x, y = make_blobs(20, [(2, 0), (-2, 0)], 0.3, 7)
        model = train_multiclass(x, y, 4.0)
        assert len(model.separators) == 1
        preds = predict_table(model, x)
        sep = model.separators[0]
        sign_rule = np.where(decision_values(sep, x) >= 0, 1, 2)
        np.testing.assert_array_equal(preds, sign_rule)

    def test_sixteen_classes_give_120_separators(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(64, 3))
        y = np.repeat(np.arange(1, 17), 4)
        model = train_multiclass(x, y, 1.0)
        assert len(model.separators) == 16 * 15 // 2

    def test_three_blobs_train_perfectly(self):
        x, y = make_blobs(30, [(3, 0), (-3, 0), (0, 3)], 0.4, 9)
        model = train_multiclass(x, y, 2.0**8)
        assert np.mean(predict_table(model, x) == y) == 1.0

    def test_missing_declared_class(self):
        x, y = make_blobs(5, [(1, 0), (-1, 0)], 0.1, 10)
        with pytest.raises(DegenerateDataError):
            train_multiclass(x, y, 1.0, classes=[1, 2, 3])

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataError):
            train_multiclass(np.ones((4, 2)), np.ones(4), 1.0)

    def test_dual_coefficients_give_the_weights_and_biases(self):
        # shuffled rows, so each pair's rows interleave with the others'
        x, y = make_blobs(6, [(2, 0, 1), (-2, 0, 0), (0, 2, -1), (0, -2, 0)], 0.8, 11)
        order = np.random.default_rng(12).permutation(y.size)
        x, y = x[order], y[order]
        model = train_multiclass(x, y, 4.0)
        coefs = dual_coefficients(model, y)
        assert coefs.shape == (y.size, 6)
        np.testing.assert_allclose(x.T @ coefs, model.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(coefs.sum(axis=0), model.biases, rtol=0, atol=1e-12)
        for p, (a, b) in enumerate(model.pairs):
            # zero off the pair's rows; the smaller class id has the + sign
            assert not coefs[(y != a) & (y != b), p].any()
            assert (coefs[y == a, p] >= 0).all() and (coefs[y == b, p] <= 0).all()


class TestPredict:
    def test_binary_sign(self):
        model = SvmModel(
            (1, 2), [(1, 2)], [BinarySeparator(np.array([1.0, 0.0]), 0.0, 1.0)], 2
        )
        np.testing.assert_array_equal(
            predict_table(model, np.array([[0.5, 0.0], [-0.5, 0.0]])), [1, 2]
        )

    def test_three_way_tie_breaks_to_smallest(self):
        # hand-built separators produce a 1-1-1 vote cycle at x = 0:
        # pair (1,2) -> 1, pair (1,3) -> 3, pair (2,3) -> 2
        model = SvmModel(
            (1, 2, 3),
            [(1, 2), (1, 3), (2, 3)],
            [
                BinarySeparator(np.array([0.0]), 1.0, 1.0),
                BinarySeparator(np.array([0.0]), -1.0, 1.0),
                BinarySeparator(np.array([0.0]), 1.0, 1.0),
            ],
            1,
        )
        assert predict_table(model, np.zeros((1, 1)))[0] == 1

    def test_vote_recount_oracle(self):
        x, y = make_blobs(25, [(2, 0), (-2, 0), (0, 2)], 0.8, 11)
        model = train_multiclass(x, y, 4.0)
        test_x, _ = make_blobs(10, [(2, 0), (-2, 0), (0, 2)], 0.8, 12)
        preds = predict_table(model, test_x)
        decisions = decision_matrix(model, test_x)
        for i, row in enumerate(test_x):
            votes = {c: 0 for c in model.classes}
            for p, ((a, b), sep) in enumerate(zip(model.pairs, model.separators)):
                d = float(decision_values(sep, row))
                assert decisions[i, p] == pytest.approx(d, rel=1e-12, abs=1e-12)
                votes[a if d >= 0 else b] += 1
            best = max(sorted(votes), key=lambda c: votes[c])
            assert preds[i] == best

    @pytest.mark.parametrize("n_rows", [0, 1, 300])
    @pytest.mark.parametrize("n_classes", [2, 3, 16])
    def test_vote_is_the_per_pair_loop(self, n_classes, n_rows):
        rng = np.random.default_rng(n_classes * 1000 + n_rows)
        classes = tuple(sorted(rng.choice(np.arange(1, 40), n_classes, replace=False).tolist()))
        pairs = list(combinations(classes, 2))
        model = SvmModel(classes, pairs, [], 1)
        decisions = rng.normal(size=(n_rows, len(pairs)))
        # exact zeros of both signs, which vote for the pair's first class
        decisions[rng.random(decisions.shape) < 0.1] = 0.0
        decisions[rng.random(decisions.shape) < 0.05] = -0.0
        if n_rows:
            # ties: class i beats class j > i when j - i is odd, so the
            # classes at even positions (and, at 3 classes, all) tie on top
            odd = np.array([(j - i) % 2 for i, j in combinations(range(n_classes), 2)])
            decisions[: n_rows // 3] = np.where(odd == 1, 1.0, -1.0)
            decisions[0] = 0.0  # every pair to its first class
        got = hsembed.svm.vote(model, decisions)
        np.testing.assert_array_equal(got, vote_reference(model, decisions))
        assert got.shape == (n_rows,)
        # a column slice of a wider array votes as its copy
        wide = np.hstack([decisions, rng.normal(size=(n_rows, 2))])
        np.testing.assert_array_equal(hsembed.svm.vote(model, wide[:, : len(pairs)]), got)

    def test_dim_mismatch(self):
        x, y = make_blobs(5, [(1, 0), (-1, 0)], 0.1, 13)
        model = train_multiclass(x, y, 1.0)
        with pytest.raises(ShapeError):
            predict_table(model, np.zeros((1, 3)))


class TestCrossValidate:
    def test_grid_has_31_points(self):
        grid = default_c_grid()
        assert len(grid) == 31
        assert grid[0] == 2.0**-15
        assert grid[-1] == 2.0**15
        x, y = make_blobs(10, [(2, 0), (-2, 0)], 0.3, 14)
        report = cross_validate(x, y, seed=0)
        assert len(report.grid) == 31
        assert [c for c, _ in report.grid] == grid

    def test_separable_data_reaches_perfect_accuracy(self):
        x, y = make_blobs(15, [(3, 0), (-3, 0)], 0.3, 15)
        report = cross_validate(x, y, seed=1)
        assert max(acc for _, acc in report.grid) == 1.0

    def test_uninformative_features_near_chance(self):
        x = np.ones((40, 2))
        y = np.repeat([1, 2], 20)
        report = cross_validate(x, y, seed=2)
        for _, acc in report.grid:
            assert acc == pytest.approx(0.5, abs=0.1)

    def test_ties_prefer_smaller_c(self):
        x = np.ones((40, 2))
        y = np.repeat([1, 2], 20)
        report = cross_validate(x, y, seed=3)
        accs = [acc for _, acc in report.grid]
        first_best = report.grid[int(np.argmax(accs))][0]
        assert report.best_c == first_best

    def test_deterministic_per_seed(self):
        x, y = make_blobs(12, [(1, 0), (-1, 0)], 0.8, 16)
        a = cross_validate(x, y, seed=5)
        b = cross_validate(x, y, seed=5)
        assert a.grid == b.grid and a.best_c == b.best_c

    def test_tiny_classes_degrade_gracefully(self):
        # class 3 has a single example: it lands in one fold and cannot
        # be trained on when that fold validates; no crash
        x = np.concatenate([make_blobs(6, [(2, 0), (-2, 0)], 0.3, 17)[0],
                            [[0.0, 5.0]]])
        y = np.concatenate([np.repeat([1, 2], 6), [3]])
        report = cross_validate(x, y, folds=5, seed=6)
        assert report.best_c is not None

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataError):
            cross_validate(np.ones((5, 2)), np.ones(5), seed=0)

    @pytest.mark.parametrize("folds", [1, 0, -2])
    def test_fewer_than_two_folds_rejected(self, folds):
        x, y = make_blobs(6, [(2, 0), (-2, 0)], 0.3, 21)
        with pytest.raises(ParameterError, match="folds must be an integer >= 2"):
            cross_validate(x, y, folds=folds)

    @pytest.mark.parametrize("folds", [2.5, 5.0, True])
    def test_non_integer_folds_rejected(self, folds):
        x, y = make_blobs(6, [(2, 0), (-2, 0)], 0.3, 21)
        with pytest.raises(ParameterError, match="folds must be an integer >= 2"):
            cross_validate(x, y, folds=folds)

    @pytest.mark.parametrize("folds", [2.5, 5.0, True, 1])
    def test_svm_config_rejects_non_integer_folds(self, folds):
        with pytest.raises(ParameterError, match="folds must be an integer >= 2"):
            SvmConfig(folds=folds)
        assert SvmConfig(folds=np.int64(3)).folds == 3

    @pytest.mark.parametrize("folds", [2, 5])
    def test_no_trainable_fold_rejected(self, folds):
        # one example per class: the fold that validates an example lacks
        # its class in training, so no fold is trained and no C is chosen
        x, y = make_blobs(1, [(2, 0), (-2, 0), (0, 2)], 0.3, 22)
        with pytest.raises(DegenerateDataError, match="set svm.c"):
            cross_validate(x, y, folds=folds)


class TestScaleEquivariance:
    def test_scaled_features_and_c_keep_predictions(self):
        x, y = make_blobs(40, [(2, 0), (-2, 0), (0, 2)], 0.5, 18)
        test_x, _ = make_blobs(15, [(2, 0), (-2, 0), (0, 2)], 0.5, 19)
        alpha = 4.0
        base = train_multiclass(x, y, 2.0, tol=1e-8)
        scaled = train_multiclass(x * alpha, y, 2.0 / alpha**2, tol=1e-8)
        np.testing.assert_array_equal(
            predict_table(base, test_x), predict_table(scaled, test_x * alpha)
        )


@st.composite
def box_qp_problems(draw):
    n = draw(st.integers(2, 7))
    dim = draw(st.integers(1, 11))
    x = draw(arrays(np.float64, (n, dim), elements=st.floats(-2.0, 2.0, width=32)))
    rest = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n - 2, max_size=n - 2))
    c = 2.0 ** draw(st.integers(-6, 7))
    return x, np.array([1.0, -1.0] + rest), c


class TestExactSolverOracle:
    @settings(max_examples=150, deadline=None)
    @given(box_qp_problems())
    # a gradient of 4e-11, inside tol, that leaves the objective 2e-11 short
    @example((np.array([[6.27858598e-11], [1.0], [0.0], [0.0]]),
              np.array([1.0, -1.0, 1.0, 1.0]), 1.0))
    def test_matches_brute_force_and_meets_kkt(self, problem):
        # dim < n makes Q rank-deficient
        x, y, c = problem
        tol = 1e-9
        assert_optimal(train_binary(x, y, c, tol=tol), x, y, c, tol)


def assert_optimal(sep, x, y, c, tol):
    """``sep`` is feasible, meets KKT at ``tol`` and matches the brute-force
    optimum of its box QP."""
    alphas = sep.diagnostics.alphas
    assert sep.diagnostics.converged
    assert np.all((alphas >= 0.0) & (alphas <= c))
    xy = np.concatenate([x, np.ones((len(y), 1))], axis=1) * y[:, None]
    q = xy @ xy.T
    grad = q @ alphas - 1.0
    pg = np.where(alphas <= 0.0, np.minimum(grad, 0.0),
                  np.where(alphas >= c, np.maximum(grad, 0.0), grad))
    assert np.abs(pg).max() <= tol
    # by convexity, f(a) - f* <= grad'(a - a*) <= c * sum|pg|: exact to
    # 1e-12 when the solve ends on its exact face, within the KKT
    # tolerance's reach otherwise
    best, _ = box_qp_brute_force(q, c)
    value = 0.5 * alphas @ q @ alphas - alphas.sum()
    slack = 1e-12 * max(1.0, abs(best))
    assert best - slack <= value <= best + slack + c * np.abs(pg).sum()


class TestWarmStart:
    @settings(max_examples=100, deadline=None)
    @given(box_qp_problems(), st.data())
    def test_feasible_start_reaches_the_brute_force_optimum(self, problem, data):
        x, y, c = problem
        tol = 1e-9
        # floats(0, 1) draws the bounds 0 and 1 too
        start = c * data.draw(arrays(np.float64, len(y), elements=st.floats(0.0, 1.0)))
        assert_optimal(train_binary(x, y, c, tol=tol, start=start), x, y, c, tol)

    @settings(max_examples=50, deadline=None)
    @given(box_qp_problems())
    def test_start_at_the_optimum_takes_zero_steps(self, problem):
        x, y, c = problem
        cold = train_binary(x, y, c, tol=1e-9)
        warm = train_binary(x, y, c, tol=1e-9, start=cold.diagnostics.alphas)
        assert warm.diagnostics.epochs == 0 and warm.diagnostics.converged
        assert warm.diagnostics.dual_objectives == []
        np.testing.assert_array_equal(warm.diagnostics.alphas, cold.diagnostics.alphas)
        assert warm.weights.tolist() == cold.weights.tolist() and warm.bias == cold.bias

    def test_start_is_copied(self):
        x, y = np.array([[1.0], [-1.0]]), np.array([1.0, -1.0])
        start = np.array([0.5, 0.5])
        train_binary(x, y, 1.0, start=start)
        assert start.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize(
        "start",
        [[0.1, 0.1, 0.1], [0.1], [[0.1, 0.1]], [-1e-12, 0.1], [0.1, 1.0 + 1e-12],
         [np.nan, 0.1], [np.inf, 0.1]],
    )
    def test_infeasible_start_rejected(self, start):
        x, y = np.array([[1.0], [-1.0]]), np.array([1.0, -1.0])
        with pytest.raises(ParameterError, match="start"):
            train_binary(x, y, 1.0, start=np.array(start))


@st.composite
def solver_problems(draw):
    """A binary problem and a start for ``train_binary``.

    Rows are Gaussian or on a half-integer lattice, with some copied, so
    Q's blocks are often singular (also whenever d + 1 < n); blocks of 16
    rows and more reach BLAS's vectorized kernels. The start is
    cold (None), a feasible point with entries at 0, at C and between,
    the next start of a C path (the solution at C/2 with its bound entries
    raised to C, as ``cross_validate`` makes it), or the solution itself."""
    n = draw(st.one_of(st.integers(2, 12), st.sampled_from([24, 40])))
    dim = draw(st.sampled_from([1, 2, 3, 5, 8, 30]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = rng.normal(size=(n, dim))
    else:
        x = 0.5 * rng.integers(-2, 3, size=(n, dim))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        x[j] = x[i]
    rest = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n - 2, max_size=n - 2))
    y = np.array([1.0, -1.0] + rest)
    c = 2.0 ** draw(st.integers(-6, 8))
    tol = draw(st.sampled_from([hsembed.svm.KKT_TOLERANCE, 1e-9]))
    kind = draw(st.sampled_from(["cold", "feasible", "c_path", "optimal"]))
    start = None
    if kind == "feasible":
        start = c * rng.choice([0.0, 1.0, rng.uniform()], size=n)
    elif kind == "c_path":
        alphas = train_binary_reference(x, y, c / 2, tol=tol).diagnostics.alphas
        start = np.where(alphas >= c / 2, c, alphas)
    elif kind == "optimal":
        start = train_binary_reference(x, y, c, tol=tol).diagnostics.alphas
    return x, y, c, tol, start


def assert_same_solve(got, ref):
    """Two separators are equal in every byte of their solve."""
    g, r = got.diagnostics, ref.diagnostics
    for a, b in ((g.alphas, r.alphas), (got.weights, ref.weights)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.float64(got.bias).tobytes() == np.float64(ref.bias).tobytes()
    assert np.array(g.dual_objectives).tobytes() == np.array(r.dual_objectives).tobytes()
    assert len(g.dual_objectives) == len(r.dual_objectives) == g.epochs
    assert np.float64(g.kkt_violation).tobytes() == np.float64(r.kkt_violation).tobytes()
    assert (g.epochs, g.converged) == (r.epochs, r.converged)


class TestSolverBytes:
    """``train_binary`` (through ``_solve``) takes the reference loop's
    steps with the same operations on the same operand layouts."""

    @settings(max_examples=300, deadline=None)
    @given(solver_problems(), st.sampled_from([None, None, 0, 1]))
    # a singular block (d + 1 < n, a copied row) that needs a null-space step
    @example((np.array([[1.0], [1.0], [-1.0], [0.5]]), np.array([1.0, -1.0, 1.0, -1.0]),
              4.0, 1e-9, None), None)
    def test_matches_the_reference_loop_byte_for_byte(self, problem, cap):
        # cap: STEP_CAP_PER_ROW as it is (None), or 0 or 1 step per row
        x, y, c, tol, start = problem
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            if cap is not None:
                mp.setattr(hsembed.svm, "STEP_CAP_PER_ROW", cap)
            got = train_binary(x, y, c, tol=tol, start=start)
            warned = len(caught)
            ref = train_binary_reference(x, y, c, tol=tol, start=start)
        assert_same_solve(got, ref)
        assert warned == len(caught) - warned == (not got.diagnostics.converged)


@st.composite
def cv_problems(draw):
    """Two or three classes, the last of which may hold a single example;
    rows narrower or wider than their count, some copied within a class.

    The rows are Gaussian: a decision that is 0 in exact arithmetic, as
    for a row repeated under two labels or on a small integer lattice, has
    its sign set by rounding, which differs between the two row sets."""
    sizes = [draw(st.integers(2, 6))]
    sizes += [draw(st.integers(1, 6)) for _ in range(draw(st.integers(1, 2)))]
    n = sum(sizes)
    y = np.repeat([3, 5, 8][: len(sizes)], sizes)
    dim = draw(st.sampled_from([1, 2, max(1, n // 2), n, n + 5]))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, dim))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        if y[i] == y[j]:
            x[j] = x[i]
    return x, y, draw(st.sampled_from([2, 3, 5])), draw(st.integers(0, 5))


def expected_solves(y, folds, seed):
    """31 per class pair of each fold that is trained: the validation fold
    and the training split are non-empty, the split holds two classes and
    the fold holds an example of one of them."""
    fold_of = hsembed.svm._stratified_folds(y, folds, np.random.default_rng(seed))
    total = 0
    for f in range(folds):
        val = fold_of == f
        classes = np.unique(y[~val])
        if val.any() and not val.all() and classes.size >= 2 and np.isin(y[val], classes).any():
            total += len(list(combinations(classes, 2)))
    return len(default_c_grid()) * total


class TestCrossValidateReference:
    @settings(max_examples=25, deadline=None)
    @given(cv_problems())
    # d > n, a duplicated row and a one-example class
    @example((np.array([[1.0, 0.5, -1.0, 2.0, 0.0, 0.25, 1.5, -0.5, 0.75],
                        [1.0, 0.5, -1.0, 2.0, 0.0, 0.25, 1.5, -0.5, 0.75],
                        [-1.0, 0.0, 0.5, -2.0, 1.0, 0.0, -1.5, 0.5, 0.0],
                        [-0.5, 0.25, 1.0, -1.5, 0.5, 0.5, -1.0, 0.0, 0.5],
                        [0.0, 2.0, 0.0, 0.0, -1.0, 1.0, 0.0, 1.0, -1.0]]),
              np.array([3, 3, 5, 5, 8]), 2, 0))
    def test_matches_the_cold_c_outer_loop(self, problem):
        x, y, folds, seed = problem
        solves = []
        cold = hsembed.svm.train_binary

        def counted(*args, **kwargs):
            sep = cold(*args, **kwargs)
            solves.append(sep.diagnostics)
            return sep

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hsembed.svm, "train_binary", counted)
            report = cross_validate(x, y, folds=folds, seed=seed)
        grid, best_c = cross_validate_reference(x, y, folds=folds, seed=seed)
        assert report.grid == grid and report.best_c == best_c
        assert len(solves) == report.problems == expected_solves(y, folds, seed)
        assert report.steps == sum(d.epochs for d in solves)
        assert report.unconverged == sum(not d.converged for d in solves) == 0
        assert report.max_kkt == max((d.kkt_violation for d in solves), default=0.0)
        assert report.max_kkt <= hsembed.svm.KKT_TOLERANCE

    def test_warm_starts_cut_the_steps(self):
        x, y = make_blobs(8, [(1, 0), (-1, 0), (0, 1)], 0.8, 20)
        report = cross_validate(x, y, seed=7)
        cold_steps = 0
        fold_of = hsembed.svm._stratified_folds(y, 5, np.random.default_rng(7))
        for f in range(5):
            train = fold_of != f
            for c in default_c_grid():
                model = train_multiclass(x[train], y[train], c)
                cold_steps += sum(sep.diagnostics.epochs for sep in model.separators)
        assert report.problems == 31 * 5 * 3
        assert report.steps < cold_steps / 2
