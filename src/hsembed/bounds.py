"""Empirical verification lab for the generalization bounds.

Works on synthetic meta-samples: a list of groups, each a Gaussian cloud
with a +/-1 label, where every population quantity (mean embedding in the
random-feature space, within-group embedding scatter, expected kernel
values) has a closed form, so both sides of each inequality can be
evaluated and the slack reported.

Two inequalities are checked:

* the embedding-gap bound: the increase in empirical risk caused by
  replacing population mean embeddings with their empirical estimates is
  at most (1/n) C_l C_f^2 * mean ||mu - mu_hat||^2 * mean y^2;
* the combined risk bound: empirical risk on empirical embeddings minus
  the population risk is bounded by a moment term, an embedding-deviation
  term, and Rademacher/variance/log terms at confidence 1 - delta.

Reports are descriptive: each records both sides, the named component
terms, and whether the bound is non-vacuous (below the trivial risk at
margin zero).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ParameterError, ShapeError, UndefinedInputError, check_integer, check_real
from .hsi import squared_distances
from .rff import RandomFeatureMap, feature_matrix


@dataclass(frozen=True)
class LossSpec:
    """Hinge or logistic loss; both are 1-Lipschitz, so the constant is fixed."""

    kind: str
    lipschitz_constant = 1.0  # a class constant, not a field

    def __post_init__(self):
        if self.kind not in ("hinge", "logistic"):
            raise ParameterError(f"loss kind must be 'hinge' or 'logistic', got {self.kind!r}")

    def values(self, margins: np.ndarray) -> np.ndarray:
        margins = np.asarray(margins, dtype=np.float64)
        if self.kind == "hinge":
            return np.maximum(0.0, 1.0 - margins)
        return np.logaddexp(0.0, -margins)

    def at_zero(self) -> float:
        return float(self.values(np.array([0.0]))[0])


def empirical_risk(values: np.ndarray, labels: np.ndarray, loss: LossSpec) -> float:
    """Mean loss of predictor values against +/-1 labels."""
    values = np.asarray(values, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if values.size == 0:
        raise UndefinedInputError("empirical risk is undefined on an empty sample")
    if values.shape != labels.shape:
        raise ShapeError(f"length mismatch: {values.shape} vs {labels.shape}")
    return float(np.mean(loss.values(values * labels)))


# ---------------------------------------------------------------------------
# Gaussian closed forms
# ---------------------------------------------------------------------------


def gaussian_gram(x: np.ndarray, y: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian RBF kernel matrix between two point sets."""
    check_real(bandwidth, "bandwidth")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.ndim != 2 or x.shape[1:] != y.shape[1:]:
        raise ShapeError(f"point sets must be 2-D with equal dimension, got {x.shape} and {y.shape}")
    d2 = squared_distances(x[:, None, :], y[None, :, :])
    return np.exp(-0.5 * d2 / bandwidth**2)


def expected_kernel_to_gaussian(
    x: np.ndarray, mean: np.ndarray, sigma: float, bandwidth: float
) -> np.ndarray:
    """E_y k(x, y) for y ~ N(mean, sigma^2 I) under a Gaussian RBF kernel."""
    check_real(bandwidth, "bandwidth")
    check_real(sigma, "sigma", positive=False)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    mean = np.asarray(mean, dtype=np.float64)
    dim = x.shape[1]
    s2 = bandwidth**2 + sigma**2
    factor = (bandwidth**2 / s2) ** (dim / 2.0)
    d2 = np.sum((x - mean) ** 2, axis=1)
    return factor * np.exp(-0.5 * d2 / s2)


def expected_kernel_between_gaussians(sigma: float, bandwidth: float, dim: int) -> float:
    """E k(x, y) for independent x, y ~ N(m, sigma^2 I) (any common mean m)."""
    check_integer(dim, "dim", 1)
    check_real(bandwidth, "bandwidth")
    check_real(sigma, "sigma", positive=False)
    return float((bandwidth**2 / (bandwidth**2 + 2 * sigma**2)) ** (dim / 2.0))


def embedding_deviation_gaussian(
    n: int, p_sigma: float, k_sigma: float, dim: int, seed: int = 0
) -> float:
    """RKHS distance between the empirical and population mean embeddings
    of an n-sample from N(0, p_sigma^2 I), computed with the Gaussian
    convolution closed forms for the population terms."""
    check_integer(n, "n", 1)
    check_integer(dim, "dim", 1)
    check_real(p_sigma, "p_sigma", positive=False)
    check_real(k_sigma, "k_sigma")
    check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, p_sigma, size=(n, dim)) if p_sigma > 0 else np.zeros((n, dim))
    term_sample = float(gaussian_gram(x, x, k_sigma).mean())
    term_cross = float(expected_kernel_to_gaussian(x, np.zeros(dim), p_sigma, k_sigma).mean())
    term_pop = expected_kernel_between_gaussians(p_sigma, k_sigma, dim)
    dev2 = term_sample - 2.0 * term_cross + term_pop
    return math.sqrt(max(dev2, 0.0))


def population_feature_embedding(
    fmap: RandomFeatureMap, mean: np.ndarray, sigma: float
) -> np.ndarray:
    """Exact expectation of the random feature vector under N(mean, sigma^2 I).

    Each cosine/sine coordinate picks up the factor exp(-sigma^2 ||w||^2 / 2).
    """
    mean = np.asarray(mean, dtype=np.float64)
    if mean.shape != (fmap.input_dim,):
        raise ShapeError(f"mean must be ({fmap.input_dim},), got {mean.shape}")
    check_real(sigma, "sigma", positive=False)
    proj = fmap.frequencies @ mean
    atten = np.exp(-0.5 * sigma**2 * np.sum(fmap.frequencies**2, axis=1))
    scale = np.sqrt(1.0 / fmap.n_frequencies)
    return scale * np.concatenate([np.cos(proj) * atten, np.sin(proj) * atten])


# ---------------------------------------------------------------------------
# Rademacher estimates
# ---------------------------------------------------------------------------


def rademacher_estimate(values: np.ndarray, draws: int = 2000, seed: int = 0) -> float:
    """Monte-Carlo Rademacher complexity of a finite function dictionary.

    ``values[j, i]`` is function j evaluated at point i. The dictionary is
    symmetrized with its negations, so the estimate is non-negative.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        raise UndefinedInputError("rademacher estimate needs a non-empty value matrix")
    check_integer(draws, "draws", 1)
    check_integer(seed, "seed", 0)
    m, n = values.shape
    sym = np.concatenate([values, -values], axis=0)
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(draws, n))
    sums = signs @ sym.T / n
    return float(np.mean(np.max(sums, axis=1)))


def rkhs_ball_rademacher(gram: np.ndarray, draws: int = 2000, seed: int = 0) -> float:
    """Rademacher average of the unit ball of the RKHS on given points.

    For each sign vector the supremum over the ball is the RKHS norm of
    the signed sum, sqrt(e' K e) / n, computable from the Gram matrix.
    """
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or gram.shape[0] < 1:
        raise ShapeError(f"gram must be square and non-empty, got {gram.shape}")
    check_integer(draws, "draws", 1)
    check_integer(seed, "seed", 0)
    n = gram.shape[0]
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(draws, n))
    quad = np.einsum("di,ij,dj->d", signs, gram, signs)
    return float(np.mean(np.sqrt(np.maximum(quad, 0.0)) / n))


# ---------------------------------------------------------------------------
# Synthetic meta-samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetaSampleSpec:
    """Two labeled clusters of Gaussian groups.

    Groups with label +1 (resp. -1) have means drawn around
    +center_scale*e1 (resp. -center_scale*e1) with spread ``mean_spread``;
    every group is an isotropic Gaussian with std ``group_sigma`` (its
    within-group variance is carried here even where a bound does not use
    it). ``label_flip`` flips each label independently.
    """

    n_groups: int = 5
    group_size: int = 32
    dim: int = 5
    group_sigma: float = 0.4
    center_scale: float = 1.0
    mean_spread: float = 0.5
    label_flip: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for key in ("n_groups", "group_size", "dim"):
            check_integer(getattr(self, key), key, 1)
        check_integer(self.seed, "seed", 0)
        for key in ("group_sigma", "mean_spread", "center_scale"):
            check_real(getattr(self, key), key, positive=False)
        check_real(self.label_flip, "label_flip", positive=False)
        if self.label_flip > 1.0:
            raise ParameterError(f"label_flip must be in [0, 1], got {self.label_flip}")


@dataclass(frozen=True)
class MetaSample:
    """Drawn groups: means (l, d), labels (l,), samples (l, m, d)."""

    means: np.ndarray
    labels: np.ndarray
    samples: np.ndarray
    spec: MetaSampleSpec

    @property
    def n_groups(self) -> int:
        return self.means.shape[0]

    @property
    def group_size(self) -> int:
        return self.samples.shape[1]


def draw_meta_sample(spec: MetaSampleSpec, seed: int | None = None) -> MetaSample:
    """Draw a meta-sample; ``seed`` overrides the spec seed when given."""
    seed = spec.seed if seed is None else seed
    check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    l, m, d = spec.n_groups, spec.group_size, spec.dim
    labels = np.where(np.arange(l) % 2 == 0, 1.0, -1.0)
    labels = rng.permutation(labels)
    center = np.zeros(d)
    center[0] = spec.center_scale
    means = labels[:, None] * center + spec.mean_spread * rng.standard_normal((l, d))
    if spec.label_flip > 0:
        flips = rng.random(l) < spec.label_flip
        labels = np.where(flips, -labels, labels)
    noise = rng.standard_normal((l, m, d)) if spec.group_sigma > 0 else np.zeros((l, m, d))
    samples = means[:, None, :] + spec.group_sigma * noise
    return MetaSample(means, labels, samples, spec)


def empirical_embeddings(fmap: RandomFeatureMap, meta: MetaSample) -> np.ndarray:
    """Per-group empirical mean embeddings, rows of an (l, 2N) matrix."""
    flat = meta.samples.reshape(-1, meta.samples.shape[2])
    feats = feature_matrix(fmap, flat)
    return feats.reshape(meta.n_groups, meta.group_size, -1).mean(axis=1, dtype=np.float64)


def population_embeddings(fmap: RandomFeatureMap, meta: MetaSample) -> np.ndarray:
    """Per-group population mean embeddings in closed form."""
    return np.stack(
        [
            population_feature_embedding(fmap, meta.means[i], meta.spec.group_sigma)
            for i in range(meta.n_groups)
        ]
    )


def sample_linear_predictors(
    dim: int, count: int, norm_low: float, norm_high: float, seed: int = 0
) -> np.ndarray:
    """Random directions with norms uniform in [norm_low, norm_high]."""
    check_integer(dim, "dim", 1)
    check_integer(count, "count", 1)
    check_real(norm_low, "norm_low", positive=False)
    check_real(norm_high, "norm_high", positive=False)
    if norm_low > norm_high:
        raise ParameterError(f"need norm_low <= norm_high, got {norm_low} > {norm_high}")
    check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((count, dim))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return w * rng.uniform(norm_low, norm_high, size=(count, 1))


# ---------------------------------------------------------------------------
# Bound checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundConfig:
    """Shared settings for the bound checks.

    ``rhs_form`` selects the embedding-gap right-hand side: 'statement'
    (the stated 1/n with empirical means) or 'proof' (unnormalized sums,
    i.e. the statement value times n^2).
    """

    delta: float = 0.05
    r_bound: float = 1.0
    rademacher_draws: int = 2000
    dictionary_size: int = 256
    dictionary_norm: float = 1.0
    holdout_draws: int = 4000
    rhs_form: str = "statement"
    seed: int = 0

    def __post_init__(self):
        check_real(self.delta, "delta")
        if self.delta >= 1.0:
            raise ParameterError(f"delta must be in (0, 1), got {self.delta}")
        for key in ("r_bound", "dictionary_norm"):
            check_real(getattr(self, key), key, positive=False)
        if self.rhs_form not in ("statement", "proof"):
            raise ParameterError("rhs_form must be 'statement' or 'proof'")
        for key in ("rademacher_draws", "dictionary_size", "holdout_draws"):
            check_integer(getattr(self, key), key, 1)
        check_integer(self.seed, "seed", 0)


@dataclass
class BoundReport:
    """Both sides of one inequality plus its named component terms."""

    name: str
    lhs: float
    rhs: float
    components: dict
    nonvacuous: bool
    seed: int

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {**asdict(self), "slack": self.slack}


def format_bound_report(report: BoundReport) -> str:
    """Plain-text summary listing each component term."""
    lines = [
        f"{report.name} (seed {report.seed})",
        f"  lhs   = {report.lhs:.6g}",
        f"  rhs   = {report.rhs:.6g}",
        f"  slack = {report.slack:.6g}",
        f"  nonvacuous = {report.nonvacuous}",
        "  components:",
    ]
    for key in sorted(report.components):
        lines.append(f"    {key} = {report.components[key]}")
    return "\n".join(lines) + "\n"


def check_embedding_gap_bound(
    meta: MetaSample,
    fmap: RandomFeatureMap,
    predictor: np.ndarray,
    loss: LossSpec,
    config: BoundConfig,
) -> BoundReport:
    """Risk gap from replacing population embeddings by empirical ones,
    against its quadratic deviation bound.

    The predictor is linear on the feature space, so its Lipschitz
    constant is its norm.
    """
    w = np.asarray(predictor, dtype=np.float64).ravel()
    if w.shape != (fmap.feature_dim,):
        raise ShapeError(f"predictor must be ({fmap.feature_dim},), got {w.shape}")
    mu_hat = empirical_embeddings(fmap, meta)
    mu_pop = population_embeddings(fmap, meta)
    y = meta.labels
    n = meta.n_groups

    risk_hat = empirical_risk(mu_hat @ w, y, loss)
    risk_pop = empirical_risk(mu_pop @ w, y, loss)
    lhs = risk_hat - risk_pop

    c_f = float(np.linalg.norm(w))
    c_l = loss.lipschitz_constant
    gap2 = float(np.mean(np.sum((mu_pop - mu_hat) ** 2, axis=1)))
    y2 = float(np.mean(y**2))
    rhs = (1.0 / n) * c_l * c_f**2 * gap2 * y2
    if config.rhs_form == "proof":
        rhs *= n**2

    components = {
        "risk_empirical_embeddings": risk_hat,
        "risk_population_embeddings": risk_pop,
        "mean_squared_embedding_gap": gap2,
        "label_second_moment": y2,
        "predictor_lipschitz": c_f,
        "loss_lipschitz": c_l,
        "n_groups": n,
        "rhs_form": config.rhs_form,
    }
    return BoundReport(
        "embedding_gap_bound", lhs, rhs, components, rhs < loss.at_zero(), config.seed
    )


def assemble_combined_rhs(components: dict, n_groups: int, delta: float) -> float:
    """Evaluate the combined bound's right-hand side from fixed component
    estimates at a given group count (used for monotonicity checks)."""
    check_integer(n_groups, "n_groups", 1)
    check_real(delta, "delta")
    log2d = math.log(2.0 / delta)
    return float(
        components["moment_term"]
        + components["deviation_term"]
        + 8.0 * components["loss_class_rademacher"]
        + components["loss_class_variance_bound"] * math.sqrt(8.0 * log2d / n_groups)
        + 3.0 * log2d / n_groups
    )


def check_combined_risk_bound(
    meta: MetaSample,
    fmap: RandomFeatureMap,
    predictor: np.ndarray,
    loss: LossSpec,
    config: BoundConfig,
) -> BoundReport:
    """Empirical-embedding risk minus estimated population risk, against
    the assembled bound at confidence 1 - delta.

    Components: a within-group moment term and an embedding-deviation term
    (both scaled by the Lipschitz constants and label second moments), a
    dictionary estimate of the loss-class Rademacher complexity and its
    variance bound, and the explicit log-confidence terms."""
    w = np.asarray(predictor, dtype=np.float64).ravel()
    if w.shape != (fmap.feature_dim,):
        raise ShapeError(f"predictor must be ({fmap.feature_dim},), got {w.shape}")
    spec = meta.spec
    n = meta.n_groups
    m = meta.group_size
    c_f = float(np.linalg.norm(w))
    c_l = loss.lipschitz_constant
    delta = config.delta
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xB0CD]))

    # LHS: risk on empirical embeddings vs population risk on held-out raw draws.
    mu_hat = empirical_embeddings(fmap, meta)
    risk_hat = empirical_risk(mu_hat @ w, meta.labels, loss)
    holdout = draw_meta_sample(
        replace(spec, n_groups=config.holdout_draws, group_size=1),
        seed=int(rng.integers(2**32)),
    )
    points = holdout.samples[:, 0, :]
    risk_holdout = empirical_risk(feature_matrix(fmap, points) @ w, holdout.labels, loss)
    lhs = risk_hat - risk_holdout

    # Moment term: within-group scatter of single-point embeddings around the
    # group mean embedding, in closed form for Gaussian groups.
    moment = 1.0 - expected_kernel_between_gaussians(spec.group_sigma, fmap.bandwidth, spec.dim)
    y2_pop = 1.0  # labels are +/-1
    moment_term = c_l * c_f**2 * moment * y2_pop

    # Deviation term: unit-ball Rademacher average on one group's points
    # (averaged over groups) plus the sup-norm confidence part, at the
    # group sample size.
    rad_h = float(
        np.mean(
            [
                rkhs_ball_rademacher(
                    gaussian_gram(meta.samples[i], meta.samples[i], fmap.bandwidth),
                    draws=config.rademacher_draws,
                    seed=int(rng.integers(2**32)),
                )
                for i in range(n)
            ]
        )
    )
    y2_emp = float(np.mean(meta.labels**2))
    deviation = 2.0 * rad_h + config.r_bound * math.sqrt(math.log(1.0 / delta) / m)
    deviation_term = c_l * c_f**2 * deviation * y2_emp

    # Loss-class terms over a sampled dictionary of ball predictors.
    dict_w = sample_linear_predictors(
        fmap.feature_dim,
        config.dictionary_size,
        0.0,
        config.dictionary_norm,
        seed=int(rng.integers(2**32)),
    )
    margins = (mu_hat @ dict_w.T) * meta.labels[:, None]
    g_values = loss.values(margins).T  # (dictionary, n_groups)
    rad_g = rademacher_estimate(
        g_values, draws=config.rademacher_draws, seed=int(rng.integers(2**32))
    )
    sigma_g = float(np.sqrt(np.max(np.mean(g_values**2, axis=1))))

    components = {
        "moment_term": moment_term,
        "deviation_term": deviation_term,
        "loss_class_rademacher": rad_g,
        "loss_class_variance_bound": sigma_g,
        "rkhs_ball_rademacher": rad_h,
        "within_group_embedding_scatter": moment,
        "sup_norm_bound": config.r_bound,
        "predictor_lipschitz": c_f,
        "loss_lipschitz": c_l,
        "risk_empirical_embeddings": risk_hat,
        "risk_holdout_estimate": risk_holdout,
        "n_groups": n,
        "group_size": m,
        "delta": delta,
    }
    rhs = assemble_combined_rhs(components, n, delta)
    return BoundReport(
        "combined_risk_bound", lhs, rhs, components, rhs < loss.at_zero(), config.seed
    )
