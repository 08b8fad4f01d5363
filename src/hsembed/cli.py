"""Batch command-line orchestrator.

Commands: classify (run 0 of the protocol, also predicting every pixel
into a map), evaluate (full Monte-Carlo protocol), synth (write a
synthetic scene), theory (bound-check reports), render (label grid to
PPM). Configuration is a single JSON document; a few flags override its
fields. Every artifact byte is determined by the master seed.

Exit codes: 0 success, 1 usage/parameter error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import colorsys
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds
from .embedding import (
    EmbeddingConfig,
    build_feature_table,  # noqa: F401  (unused here; benchmark tracing wraps this name)
)
from .errors import (
    CapacityError,
    ContractViolation,
    DegenerateDataError,
    FormatError,
    HsembedError,
    NumericalError,
    ParameterError,
    ShapeError,
    StageError,
    UndefinedInputError,
    reject_unknown_keys,
)
from .evaluation import (
    ClassifierSpec,
    McProtocol,
    McSummary,
    format_summary_table,
    monte_carlo_protocol,
    predict_runs,
    protocol_split,
    run_split,  # noqa: F401  (unused here; benchmark tracing wraps this name)
)
from .hsi import (
    GroundTruthMap,
    HyperspectralImage,
    PatchSpec,
    generate_synthetic_scene,
    load_envi,
    load_ground_truth,
    read_label_grid,
    save_envi,
    save_ground_truth,
    scene_spec_from_json,
)
from .morphology import MorphoProfileConfig
from .rff import sample_frequencies
from .svm import SvmConfig

OUTPUT_DIR_ENV = "HSEMBED_OUT"
THEORY_CHECKS = ("embedding_gap", "combined_risk")


class UsageError(HsembedError):
    """Bad command line or config document."""


_DATA_ERRORS = (
    FormatError,
    ShapeError,
    DegenerateDataError,
    UndefinedInputError,
    ContractViolation,
    FileNotFoundError,
)
_NUMERIC_ERRORS = (NumericalError, FloatingPointError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; we want 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Palettes and PPM rendering
# ---------------------------------------------------------------------------


def default_palette(n_classes: int) -> list[tuple[int, int, int]]:
    """Black for class 0 plus n distinct colors on an HSV wheel."""
    palette = [(0, 0, 0)]
    seen = {(0, 0, 0)}
    for i in range(n_classes):
        hue = i / max(n_classes, 1)
        sat = 0.95 if i % 2 == 0 else 0.6
        val = 0.95 if i % 4 < 2 else 0.65
        rgb = tuple(int(round(255 * c)) for c in colorsys.hsv_to_rgb(hue, sat, val))
        while rgb in seen:
            rgb = (rgb[0], rgb[1], (rgb[2] + 13) % 256)
        seen.add(rgb)
        palette.append(rgb)
    return palette


def render_map(
    labels: np.ndarray, palette: list[tuple[int, int, int]], path: str | Path
) -> Path:
    """Write a binary P6 PPM where pixel (r, c) gets palette[label[r, c]]."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ShapeError(f"label grid must be 2-D, got {labels.shape}")
    if labels.min() < 0 or labels.max() >= len(palette):
        raise ContractViolation(
            f"labels must lie in [0, {len(palette) - 1}] for this palette"
        )
    lut = np.asarray(palette, dtype=np.uint8)
    pixels = lut[labels]
    height, width = labels.shape
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
    return path


def read_ppm(path: str | Path) -> np.ndarray:
    """Read back a binary P6 PPM as an (H, W, 3) uint8 array (for checks)."""
    data = Path(path).read_bytes()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P6":
        raise FormatError(f"{path}: not a P6 PPM")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    pos += 1  # single whitespace after maxval
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height * 3, offset=pos)
    return pixels.reshape(height, width, 3)


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class PipelineConfig:
    """JSON-backed pipeline settings; CLI flags override individual fields."""

    seed: int = 0
    image: str | None = None
    ground_truth: str | None = None
    synthetic: dict | None = None
    method: str = "meanmap"
    patch_side: int = 3
    border: str = "clamp"
    n_features: int = 1024
    sigma: float | None = None
    beta: float | None = None
    normalize: bool = True
    tensor_cap: int = 65536
    mp_dims: int = 4
    mp_scales: int = 4
    mp_shape: str = "disk"
    svm_c: float | None = None
    folds: int = 5
    runs: int = 20
    per_class: int = 5
    eval_on_train: bool = False
    fixed_test: str | None = None
    output_dir: str | None = None

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        obj = _read_json(path, "config file")
        reject_unknown_keys(
            obj,
            ("seed", "data", "method", "embedding", "mp", "svm", "protocol", "output_dir"),
            "config",
        )
        cfg = cls()
        cfg.seed = _json_int(obj, "seed", cfg.seed, "config")
        data = obj.get("data", {})
        reject_unknown_keys(data, ("image", "ground_truth", "synthetic"), "config 'data'")
        cfg.image = _json_typed(data, "image", str, "config 'data'")
        cfg.ground_truth = _json_typed(data, "ground_truth", str, "config 'data'")
        cfg.synthetic = _json_typed(data, "synthetic", dict, "config 'data'")
        cfg.method = obj.get("method", cfg.method)
        emb = obj.get("embedding", {})
        reject_unknown_keys(
            emb,
            ("patch_side", "border", "n_features", "sigma", "beta", "normalize", "tensor_cap"),
            "config 'embedding'",
        )
        cfg.patch_side = _json_int(emb, "patch_side", cfg.patch_side, "config 'embedding'")
        cfg.border = emb.get("border", cfg.border)
        cfg.n_features = _json_int(emb, "n_features", cfg.n_features, "config 'embedding'")
        cfg.sigma = _json_positive(emb, "sigma", "config 'embedding'")
        cfg.beta = _json_positive(emb, "beta", "config 'embedding'")
        cfg.normalize = _json_bool(emb, "normalize", cfg.normalize, "config 'embedding'")
        cfg.tensor_cap = _json_int(emb, "tensor_cap", cfg.tensor_cap, "config 'embedding'")
        mp = obj.get("mp", {})
        reject_unknown_keys(mp, ("pca_dims", "n_scales", "se_shape"), "config 'mp'")
        cfg.mp_dims = _json_int(mp, "pca_dims", cfg.mp_dims, "config 'mp'")
        cfg.mp_scales = _json_int(mp, "n_scales", cfg.mp_scales, "config 'mp'")
        cfg.mp_shape = mp.get("se_shape", cfg.mp_shape)
        svm = obj.get("svm", {})
        reject_unknown_keys(svm, ("c", "folds"), "config 'svm'")
        cfg.svm_c = _json_positive(svm, "c", "config 'svm'")
        cfg.folds = _json_int(svm, "folds", cfg.folds, "config 'svm'")
        proto = obj.get("protocol", {})
        reject_unknown_keys(
            proto, ("runs", "per_class", "eval_on_train", "fixed_test"), "config 'protocol'"
        )
        cfg.runs = _json_int(proto, "runs", cfg.runs, "config 'protocol'")
        cfg.per_class = _json_int(proto, "per_class", cfg.per_class, "config 'protocol'")
        cfg.eval_on_train = _json_bool(
            proto, "eval_on_train", cfg.eval_on_train, "config 'protocol'"
        )
        cfg.fixed_test = _json_typed(proto, "fixed_test", str, "config 'protocol'")
        cfg.output_dir = _json_typed(obj, "output_dir", str, "config")
        return cfg

    def apply_overrides(self, args: argparse.Namespace) -> None:
        for attr, key in [
            ("seed", "seed"),
            ("method", "method"),
            ("patch_side", "scale"),
            ("n_features", "features"),
            ("output_dir", "output"),
            ("runs", "runs"),
            ("per_class", "per_class"),
        ]:
            value = getattr(args, key, None)
            if value is not None:
                setattr(self, attr, value)
        if getattr(args, "c", None) is not None:
            self.svm_c = args.c
        if getattr(args, "c_grid", False):
            self.svm_c = None

    def protocol(self, image: HyperspectralImage) -> McProtocol:
        """The Monte-Carlo protocol; ``fixed_test`` becomes the flat indices
        of the labeled pixels of its label file."""
        fixed_test = None
        if self.fixed_test:
            mask_gt = load_ground_truth(self.fixed_test, image.height, image.width)
            fixed_test = np.flatnonzero(mask_gt.labels.ravel() > 0)
        return McProtocol(
            runs=self.runs,
            per_class=self.per_class,
            seed=self.seed,
            eval_on_train=self.eval_on_train,
            fixed_test=fixed_test,
        )

    def classifier_spec(self) -> ClassifierSpec:
        embedding = EmbeddingConfig(
            patch=PatchSpec(self.patch_side, self.border),
            sigma=self.sigma,
            beta=self.beta,
            n_features=self.n_features,
            seed=self.seed,
            normalize=self.normalize,
            tensor_cap=self.tensor_cap,
        )
        mp = MorphoProfileConfig(self.mp_dims, self.mp_scales, self.mp_shape)
        svm_cfg = SvmConfig(c=self.svm_c, folds=self.folds, seed=self.seed)
        return ClassifierSpec(self.method, embedding, mp, svm_cfg)

    def resolve_output_dir(self) -> Path:
        out = self.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "out"
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        return path


def _read_json(path: str | Path, what: str):
    """The JSON document at ``path``; a missing or malformed ``what`` is a UsageError."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"{what} not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} {path} is not valid JSON: {exc}")


def _json_bool(obj: dict, key: str, default: bool, where: str) -> bool:
    """``obj[key]`` if it is a JSON true or false, ``default`` if absent."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ParameterError(f"{where} key {key!r} must be true or false, got {value!r}")
    return value


def _json_int(obj: dict, key: str, default: int, where: str) -> int:
    """``obj[key]`` if it is a JSON integer (a bool is not), ``default`` if absent."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{where} key {key!r} must be an integer, got {value!r}")
    return value


def _json_float(obj: dict, key: str, default: float, where: str) -> float:
    """``obj[key]`` as a float if it is a finite JSON number (a bool is not),
    ``default`` if absent."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ParameterError(f"{where} key {key!r} must be a finite number, got {value!r}")
    return float(value)


def _json_typed(obj: dict, key: str, kind: type, where: str):
    """``obj[key]`` if it is a JSON string (``kind`` str) or object (dict), None if absent."""
    if key in obj and not isinstance(obj[key], kind):
        noun = "a string" if kind is str else "an object"
        raise ParameterError(f"{where} key {key!r} must be {noun}, got {obj[key]!r}")
    return obj.get(key)


def _json_positive(obj: dict, key: str, where: str) -> float | None:
    """``obj[key]`` if it is a positive finite JSON number (a bool is not),
    None if it is null or absent."""
    value = obj.get(key)
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf
    ):
        raise ParameterError(
            f"{where} key {key!r} must be null or a positive number, got {value!r}"
        )
    return value


def _load_data(cfg: PipelineConfig) -> tuple[HyperspectralImage, GroundTruthMap]:
    if cfg.synthetic is not None:
        spec = scene_spec_from_json(dict(cfg.synthetic, seed=cfg.synthetic.get("seed", cfg.seed)))
        return generate_synthetic_scene(spec)
    if not cfg.image or not cfg.ground_truth:
        raise UsageError("config needs either data.synthetic or data.image + data.ground_truth")
    image = load_envi(cfg.image)
    gt = load_ground_truth(cfg.ground_truth, image.height, image.width)
    return image, gt


def _stage(name: str):
    """Context manager tagging errors with the failing pipeline stage."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and isinstance(exc, Exception):
                raise StageError(name, exc) from exc
            return False

    return _Ctx()


def _write_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    """Run 0 of the protocol, predicting every pixel instead of the test set."""
    cfg = PipelineConfig.from_json(args.config)
    cfg.runs = 1
    cfg.apply_overrides(args)
    out = cfg.resolve_output_dir()
    with _stage("data"):
        image, gt = _load_data(cfg)
        protocol = cfg.protocol(image)
        train_idx, test_idx = protocol_split(gt, protocol, 0)
    spec = cfg.classifier_spec()
    with _stage("features and training"):
        labels_flat = gt.labels.ravel()
        every_pixel = np.arange(labels_flat.size)
        features, (preds_all,), (c_used,) = predict_runs(
            image, spec, labels_flat, [(train_idx, every_pixel)], gt.n_classes
        )
    with _stage("metrics"):
        summary = McSummary.empty(spec.method, features, protocol)
        summary.add_run(preds_all[test_idx], labels_flat[test_idx], gt.n_classes, c_used)
    with _stage("write"):
        pred_grid = preds_all.reshape(gt.labels.shape)
        palette = default_palette(gt.n_classes)
        render_map(pred_grid, palette, out / "map.ppm")
        save_ground_truth(GroundTruthMap(pred_grid), out / "predictions.csv")
        _write_json(summary.to_dict(), out / "metrics.json")
    print(f"wrote {out / 'map.ppm'}, {out / 'predictions.csv'}, {out / 'metrics.json'}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = PipelineConfig.from_json(args.config)
    cfg.apply_overrides(args)
    out = cfg.resolve_output_dir()
    with _stage("data"):
        image, gt = _load_data(cfg)
        protocol = cfg.protocol(image)
    spec = cfg.classifier_spec()
    with _stage("protocol"):
        summary = monte_carlo_protocol(image, gt, protocol, spec)
    with _stage("write"):
        _write_json(summary.to_dict(), out / "metrics.json")
        table_text = format_summary_table([summary])
        (out / "table.txt").write_text(table_text)
    print(table_text, end="")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    obj = _read_json(args.config, "scene spec")
    if args.seed is not None:
        obj["seed"] = args.seed
    out = Path(args.output or os.environ.get(OUTPUT_DIR_ENV) or "out")
    out.mkdir(parents=True, exist_ok=True)
    with _stage("synth"):
        spec = scene_spec_from_json(obj)
        image, gt = generate_synthetic_scene(spec)
        header = save_envi(image, out / "scene.hdr")
        save_ground_truth(gt, out / "gt.csv")
    print(f"wrote {header}, {header.with_suffix('.img')}, {out / 'gt.csv'}")
    return 0


def cmd_theory(args: argparse.Namespace) -> int:
    obj = _read_json(args.config, "config file") if args.config else {}
    reject_unknown_keys(
        obj,
        ("seed", "output_dir", "checks", "meta", "features", "bound", "predictors", "loss",
         "trials"),
        "theory config",
    )
    seed = _json_int(obj, "seed", 0, "theory config")
    if args.seed is not None:
        seed = args.seed
    out_dir = _json_typed(obj, "output_dir", str, "theory config")
    out = Path(args.output or out_dir or os.environ.get(OUTPUT_DIR_ENV) or "out")
    checks = obj.get("checks", list(THEORY_CHECKS))
    if not (isinstance(checks, list) and checks and all(c in THEORY_CHECKS for c in checks)):
        raise ParameterError(
            f"theory config 'checks' must be a non-empty list of {THEORY_CHECKS}, got {checks!r}"
        )

    trials = _json_int(obj, "trials", 20, "theory config")
    if trials < 1:
        raise ParameterError(f"theory config key 'trials' must be >= 1, got {trials}")

    meta_obj, meta_where = obj.get("meta", {}), "theory config 'meta'"
    reject_unknown_keys(
        meta_obj,
        ("n_groups", "group_size", "dim", "group_sigma", "center_scale", "mean_spread",
         "label_flip"),
        meta_where,
    )
    feat_obj, feat_where = obj.get("features", {}), "theory config 'features'"
    reject_unknown_keys(feat_obj, ("count", "bandwidth"), feat_where)
    bound_obj, bound_where = obj.get("bound", {}), "theory config 'bound'"
    reject_unknown_keys(
        bound_obj,
        ("delta", "r_bound", "rademacher_draws", "dictionary_size", "dictionary_norm",
         "holdout_draws", "rhs_form"),
        bound_where,
    )
    pred_obj, pred_where = obj.get("predictors", {}), "theory config 'predictors'"
    reject_unknown_keys(pred_obj, ("count", "norm_low", "norm_high", "combined_norm"), pred_where)
    loss = bounds.LossSpec(obj.get("loss", "hinge"))

    spec = bounds.MetaSampleSpec(
        n_groups=_json_int(meta_obj, "n_groups", 5, meta_where),
        group_size=_json_int(meta_obj, "group_size", 16, meta_where),
        dim=_json_int(meta_obj, "dim", 5, meta_where),
        group_sigma=_json_float(meta_obj, "group_sigma", 0.4, meta_where),
        center_scale=_json_float(meta_obj, "center_scale", 1.0, meta_where),
        mean_spread=_json_float(meta_obj, "mean_spread", 0.5, meta_where),
        label_flip=_json_float(meta_obj, "label_flip", 0.0, meta_where),
        seed=seed,
    )
    fmap = sample_frequencies(
        spec.dim,
        _json_int(feat_obj, "count", 256, feat_where),
        _json_float(feat_obj, "bandwidth", 1.0, feat_where),
        seed=seed,
    )
    config = bounds.BoundConfig(
        delta=_json_float(bound_obj, "delta", 0.05, bound_where),
        r_bound=_json_float(bound_obj, "r_bound", 1.0, bound_where),
        rademacher_draws=_json_int(bound_obj, "rademacher_draws", 2000, bound_where),
        dictionary_size=_json_int(bound_obj, "dictionary_size", 256, bound_where),
        dictionary_norm=_json_float(bound_obj, "dictionary_norm", 1.0, bound_where),
        holdout_draws=_json_int(bound_obj, "holdout_draws", 4000, bound_where),
        rhs_form=bound_obj.get("rhs_form", "statement"),
        seed=seed,
    )
    n_predictors = _json_int(pred_obj, "count", 100, pred_where)
    norm_low = _json_float(pred_obj, "norm_low", 50.0, pred_where)
    norm_high = _json_float(pred_obj, "norm_high", 100.0, pred_where)
    predictor_norm = _json_float(pred_obj, "combined_norm", 1.0, pred_where)

    out.mkdir(parents=True, exist_ok=True)
    with _stage("theory"):
        written = []
        if "embedding_gap" in checks:
            meta = bounds.draw_meta_sample(spec)
            predictors = bounds.sample_linear_predictors(
                fmap.feature_dim,
                n_predictors,
                norm_low,
                norm_high,
                seed=seed,
            )
            full_reports = [
                bounds.check_embedding_gap_bound(meta, fmap, w, loss, config)
                for w in predictors
            ]
            reports = [r.to_dict() for r in full_reports]
            slacks = [r["slack"] for r in reports]
            doc = {
                "check": "embedding_gap_bound",
                "seed": seed,
                "predictors": len(reports),
                "min_slack": min(slacks),
                "all_nonnegative": bool(min(slacks) >= 0),
                "reports": reports,
            }
            path = out / "embedding_gap_bound.json"
            _write_json(doc, path)
            worst = min(full_reports, key=lambda r: r.slack)
            (out / "embedding_gap_bound.txt").write_text(
                f"predictors checked: {len(reports)}, min slack {min(slacks):.6g}\n"
                "tightest case:\n" + bounds.format_bound_report(worst)
            )
            written.append(path)
        if "combined_risk" in checks:
            reports = []
            for t in range(trials):
                trial_rng = np.random.default_rng([seed, 977, t])
                meta_t = bounds.draw_meta_sample(spec, seed=int(trial_rng.integers(2**32)))
                w = bounds.sample_linear_predictors(
                    fmap.feature_dim,
                    1,
                    predictor_norm,
                    predictor_norm,
                    seed=int(trial_rng.integers(2**32)),
                )[0]
                cfg_t = dataclasses.replace(config, seed=int(trial_rng.integers(2**32)))
                reports.append(
                    bounds.check_combined_risk_bound(meta_t, fmap, w, loss, cfg_t)
                )
            nonneg = sum(1 for r in reports if r.slack >= 0)
            doc = {
                "check": "combined_risk_bound",
                "seed": seed,
                "trials": trials,
                "nonnegative_slacks": nonneg,
                "reports": [r.to_dict() for r in reports],
            }
            path = out / "combined_risk_bound.json"
            _write_json(doc, path)
            worst = min(reports, key=lambda r: r.slack)
            (out / "combined_risk_bound.txt").write_text(
                f"trials: {trials}, nonnegative slacks: {nonneg}\n"
                "tightest case:\n" + bounds.format_bound_report(worst)
            )
            written.append(path)
    print("wrote " + ", ".join(str(p) for p in written))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    with _stage("render"):
        labels = read_label_grid(args.labels)
        n = args.classes if args.classes is not None else int(labels.max())
        palette = default_palette(n)
        out = Path(args.output)
        render_map(labels, palette, out)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hsembed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--output", type=str, default=None, help="output directory")

    p = sub.add_parser("classify", help="train once and write a classification map")
    p.add_argument("--config", required=True)
    add_common(p)
    p.add_argument("--method", type=str, default=None)
    p.add_argument("--scale", type=int, default=None, help="patch side s")
    p.add_argument("--features", type=int, default=None, help="frequency count N")
    p.add_argument("--c", type=float, default=None, help="fixed SVM C")
    p.add_argument("--c-grid", action="store_true", help="grid-search C")
    p.add_argument("--per-class", dest="per_class", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="run the Monte-Carlo protocol")
    p.add_argument("--config", required=True)
    add_common(p)
    p.add_argument("--method", type=str, default=None)
    p.add_argument("--scale", type=int, default=None)
    p.add_argument("--features", type=int, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--c-grid", action="store_true")
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--per-class", dest="per_class", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--config", required=True, help="scene spec JSON")
    add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("theory", help="run the bound checks")
    p.add_argument("--config", default=None, help="theory config JSON (optional)")
    add_common(p)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("render", help="render a label CSV as a PPM map")
    p.add_argument("--labels", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--classes", type=int, default=None)
    p.set_defaults(func=cmd_render)

    return parser


def _exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, StageError):
        return _exit_code_for(exc.cause)
    if isinstance(exc, (UsageError, ParameterError, CapacityError)):
        return 1
    if isinstance(exc, _DATA_ERRORS):
        return 2
    if isinstance(exc, _NUMERIC_ERRORS):
        return 3
    return 2


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except HsembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
