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
import contextlib
import dataclasses
import json
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
    POSITIVE,
    SEED,
    ContractViolation,
    FormatError,
    HsembedError,
    NumericalError,
    ParameterError,
    ShapeError,
    StageError,
    check_integer,
    read_section,
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
    save_envi,  # noqa: F401  (unused here; benchmark tracing wraps this name)
    save_ground_truth,
    scene_spec_from_json,
    write_synthetic_scene,
)
from .morphology import MorphoProfileConfig
from .rff import sample_frequencies
from .svm import SvmConfig

OUTPUT_DIR_ENV = "HSEMBED_OUT"
THEORY_CHECKS = ("embedding_gap", "combined_risk")


class UsageError(HsembedError):
    """Bad command line or config document."""


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
    """Read back a map that ``render_map`` wrote, as an (H, W, 3) uint8 array
    (for checks). Its header is ``P6``, ``<width> <height>`` and ``255``, one
    line each; anything else raises FormatError."""
    fields = Path(path).read_bytes().split(b"\n", 3)
    size = fields[1].split(b" ") if len(fields) == 4 else []
    if (fields[0] != b"P6" or len(size) != 2 or fields[2] != b"255"
            or not all(v.isdigit() for v in size)):
        raise FormatError(f"{path}: not a P6 PPM as render_map writes it")
    width, height = int(size[0]), int(size[1])
    pixels = np.frombuffer(fields[3], dtype=np.uint8, count=width * height * 3)
    return pixels.reshape(height, width, 3)


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------


# The keys of a pipeline config and their kinds (see errors.read_section);
# a dict of kinds is a section. Each value goes to the dataclass that holds
# its default and its range check.
PIPELINE_KEYS = dict(
    seed=SEED,
    data=dict(image=str, ground_truth=str, synthetic=dict),
    method=str,
    embedding=dict(
        patch_side=int, border=str, n_features=int, sigma=POSITIVE, beta=POSITIVE,
        normalize=bool,
    ),
    mp=dict(pca_dims=int, n_scales=int, se_shape=str),
    svm=dict(c=POSITIVE, folds=int),
    protocol=dict(runs=int, per_class=int, eval_on_train=bool, fixed_test=str),
    output_dir=str,
)


def _read_json(path: str | Path, what: str) -> dict:
    """The JSON object at ``path``; a missing or malformed ``what`` is a UsageError."""
    try:
        obj = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"{what} not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise UsageError(f"{what} {path} must hold a JSON object")
    return obj


def _config(args: argparse.Namespace, what: str) -> dict:
    """The JSON object in ``args.config`` (no config: empty), with its 'seed'
    set by ``--seed`` if given, so that the flag is checked as the key is."""
    obj = _read_json(args.config, what) if args.config else {}
    if args.seed is not None:
        obj["seed"] = args.seed
    return obj


def _override(values: dict, args: argparse.Namespace, **flags: str) -> None:
    """Set each key of ``values`` to the value of the flag that ``flags`` names
    for it, where that flag was given."""
    for key, flag in flags.items():
        if getattr(args, flag, None) is not None:
            values[key] = getattr(args, flag)


def _pop(values: dict, *keys: str, **renamed: str) -> dict:
    """The ``keys`` and ``renamed`` keys that ``values`` has, removed from it;
    a ``renamed`` key comes out under its new name."""
    names = dict(zip(keys, keys), **renamed)
    return {name: values.pop(key) for key, name in names.items() if key in values}


def pipeline_settings(
    args: argparse.Namespace, **fixed: int
) -> tuple[dict, ClassifierSpec, McProtocol, Path]:
    """The checked pipeline config with the flags applied: the data section
    (with the protocol's ``fixed_test`` label file), the classifier, the
    protocol without its fixed test pixels, and the output directory, made.
    ``fixed`` sets protocol fields whatever the config says."""
    cfg = read_section(_config(args, "config file"), "config", **PIPELINE_KEYS)
    emb, mp, svm, proto = (cfg.get(k, {}) for k in ("embedding", "mp", "svm", "protocol"))
    _override(cfg, args, method="method", output_dir="output")
    _override(emb, args, patch_side="scale", n_features="features")
    _override(svm, args, c="c")
    _override(proto, args, runs="runs", per_class="per_class")
    if args.c_grid:
        svm["c"] = None
    proto.update(fixed)
    data = dict(cfg.get("data", {}), **_pop(proto, "fixed_test"))
    protocol = McProtocol(**proto, **_pop(cfg, "seed"))
    embedding = EmbeddingConfig(
        PatchSpec(**_pop(emb, "border", patch_side="side")), **emb, seed=protocol.seed
    )
    spec = ClassifierSpec(
        **_pop(cfg, "method"),
        embedding=embedding,
        mp=MorphoProfileConfig(**mp),
        svm=SvmConfig(**svm, seed=protocol.seed),
    )
    return data, spec, protocol, _output_dir(cfg.get("output_dir"))


def _output_dir(named: str | None) -> Path:
    """``named``, else the ``HSEMBED_OUT`` directory, else ./out; made if absent."""
    path = Path(named or os.environ.get(OUTPUT_DIR_ENV) or "out")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_data(
    data: dict, protocol: McProtocol
) -> tuple[HyperspectralImage, GroundTruthMap, McProtocol]:
    """The image and ground truth the data section names, and the protocol
    with its fixed test pixels: the labeled pixels of the ``fixed_test`` file."""
    if "synthetic" in data:
        spec = scene_spec_from_json({"seed": protocol.seed, **data["synthetic"]})
        image, gt = generate_synthetic_scene(spec)
    elif data.get("image") and data.get("ground_truth"):
        image = load_envi(data["image"])
        gt = load_ground_truth(data["ground_truth"], image.height, image.width)
    else:
        raise UsageError("config needs either data.synthetic or data.image + data.ground_truth")
    if data.get("fixed_test"):
        mask = load_ground_truth(data["fixed_test"], image.height, image.width).labels
        protocol = dataclasses.replace(protocol, fixed_test=np.flatnonzero(mask.ravel() > 0))
    return image, gt, protocol


@contextlib.contextmanager
def _stage(name: str):
    """Tag errors raised inside with the failing pipeline stage."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


def _write_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    """Run 0 of the protocol, predicting every pixel instead of the test set."""
    data, spec, protocol, out = pipeline_settings(args, runs=1)
    with _stage("data"):
        image, gt, protocol = _load_data(data, protocol)
        train_idx, test_idx = protocol_split(gt, protocol, 0)
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
    data, spec, protocol, out = pipeline_settings(args)
    with _stage("data"):
        image, gt, protocol = _load_data(data, protocol)
    with _stage("protocol"):
        summary = monte_carlo_protocol(image, gt, protocol, spec)
    with _stage("write"):
        _write_json(summary.to_dict(), out / "metrics.json")
        table_text = format_summary_table([summary])
        (out / "table.txt").write_text(table_text)
    print(table_text, end="")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    obj = _config(args, "scene spec")
    out = _output_dir(args.output)
    with _stage("synth"):
        spec = scene_spec_from_json(obj)
        header, gt = write_synthetic_scene(spec, out / "scene.hdr")
        save_ground_truth(gt, out / "gt.csv")
    print(f"wrote {header}, {header.with_suffix('.img')}, {out / 'gt.csv'}")
    return 0


# The keys of a theory config and their kinds (see errors.read_section)
THEORY_KEYS = dict(
    seed=SEED,
    output_dir=str,
    checks=(
        f"a non-empty list of {THEORY_CHECKS}",
        lambda v: isinstance(v, list) and v and all(c in THEORY_CHECKS for c in v),
    ),
    meta=dict(
        n_groups=int, group_size=int, dim=int, group_sigma=float, center_scale=float,
        mean_spread=float, label_flip=float,
    ),
    features=dict(count=int, bandwidth=float),
    bound=dict(
        delta=float, r_bound=float, rademacher_draws=int, dictionary_size=int,
        dictionary_norm=float, holdout_draws=int, rhs_form=str,
    ),
    predictors=dict(count=int, norm_low=float, norm_high=float, combined_norm=float),
    loss=str,
    trials=int,
)


def _write_check(stem: Path, reports: list, summary: str, **fields) -> Path:
    """Write one bound check: ``stem``.json holds the check's name, ``fields``
    and every report; ``stem``.txt the ``summary`` line and the report with
    the least slack. Returns the JSON path."""
    path = stem.with_suffix(".json")
    _write_json({"check": stem.name, **fields, "reports": [r.to_dict() for r in reports]}, path)
    worst = min(reports, key=lambda r: r.slack)
    stem.with_suffix(".txt").write_text(
        f"{summary}\ntightest case:\n" + bounds.format_bound_report(worst)
    )
    return path


def cmd_theory(args: argparse.Namespace) -> int:
    cfg = read_section(_config(args, "config file"), "theory config", **THEORY_KEYS)
    # the values no library dataclass holds a default for; meta.group_size
    # is smaller here than in MetaSampleSpec
    cfg = {"checks": list(THEORY_CHECKS), "loss": "hinge", "trials": 20, **cfg}
    feats = {"count": 256, "bandwidth": 1.0, **cfg.get("features", {})}
    preds = {"count": 100, "norm_low": 50.0, "norm_high": 100.0, "combined_norm": 1.0,
             **cfg.get("predictors", {})}
    trials = cfg["trials"]
    check_integer(trials, "theory config key 'trials'", 1)
    loss = bounds.LossSpec(cfg["loss"])
    spec = bounds.MetaSampleSpec(
        **{"group_size": 16, **cfg.get("meta", {})}, **_pop(cfg, "seed")
    )
    seed = spec.seed
    fmap = sample_frequencies(spec.dim, feats["count"], feats["bandwidth"], seed=seed)
    config = bounds.BoundConfig(**cfg.get("bound", {}), seed=seed)
    out = _output_dir(args.output or cfg.get("output_dir"))
    with _stage("theory"):
        written = []
        if "embedding_gap" in cfg["checks"]:
            meta = bounds.draw_meta_sample(spec)
            predictors = bounds.sample_linear_predictors(
                fmap.feature_dim,
                preds["count"],
                preds["norm_low"],
                preds["norm_high"],
                seed=seed,
            )
            reports = [
                bounds.check_embedding_gap_bound(meta, fmap, w, loss, config)
                for w in predictors
            ]
            min_slack = min(r.slack for r in reports)
            written.append(_write_check(
                out / "embedding_gap_bound", reports,
                f"predictors checked: {len(reports)}, min slack {min_slack:.6g}",
                seed=seed, predictors=len(reports), min_slack=min_slack,
                all_nonnegative=bool(min_slack >= 0),
            ))
        if "combined_risk" in cfg["checks"]:
            reports = []
            for t in range(trials):
                trial_rng = np.random.default_rng([seed, 977, t])
                meta_t = bounds.draw_meta_sample(spec, seed=int(trial_rng.integers(2**32)))
                w = bounds.sample_linear_predictors(
                    fmap.feature_dim,
                    1,
                    preds["combined_norm"],
                    preds["combined_norm"],
                    seed=int(trial_rng.integers(2**32)),
                )[0]
                cfg_t = dataclasses.replace(config, seed=int(trial_rng.integers(2**32)))
                reports.append(
                    bounds.check_combined_risk_bound(meta_t, fmap, w, loss, cfg_t)
                )
            nonneg = sum(1 for r in reports if r.slack >= 0)
            written.append(_write_check(
                out / "combined_risk_bound", reports,
                f"trials: {trials}, nonnegative slacks: {nonneg}",
                seed=seed, trials=trials, nonnegative_slacks=nonneg,
            ))
    print("wrote " + ", ".join(str(p) for p in written))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    with _stage("render"):
        if args.classes is not None:
            check_integer(args.classes, "--classes", 0)
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

    def add_pipeline(name, help, func):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True)
        add_common(p)
        p.add_argument("--method", type=str, default=None)
        p.add_argument("--scale", type=int, default=None, help="patch side s")
        p.add_argument("--features", type=int, default=None, help="frequency count N")
        p.add_argument("--c", type=float, default=None, help="fixed SVM C")
        p.add_argument("--c-grid", action="store_true", help="grid-search C")
        p.add_argument("--per-class", dest="per_class", type=int, default=None)
        p.set_defaults(func=func)
        return p

    add_pipeline("classify", "train once and write a classification map", cmd_classify)
    p = add_pipeline("evaluate", "run the Monte-Carlo protocol", cmd_evaluate)
    p.add_argument("--runs", type=int, default=None)

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
    if isinstance(exc, (UsageError, ParameterError)):
        return 1
    if isinstance(exc, _NUMERIC_ERRORS):
        return 3
    return 2


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (HsembedError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
