"""In-memory span recording around calls into the hsembed layers.

A traced worker wraps public functions at the module attributes their
callers resolve (``hsembed.svm.train_binary`` is looked up in
``hsembed.svm`` by ``train_multiclass``; ``build_feature_table`` is looked
up in ``hsembed.cli`` by ``classify`` and in ``hsembed.evaluation`` by the
protocol). Nothing under ``src/`` is modified: the wrappers replace module
attributes in the worker process only.

Each span is (id, name, start, end, parent id, attrs). ``attrs`` holds
counters read from the call's arguments or result; the byte counters are
computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.attrs]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


class Recorder:
    """Single-threaded span stack; spans stay in memory until dumped."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, time.perf_counter(), None, parent)
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")


def _nbytes(array) -> int:
    """Bytes of an array computed from its shape and item size."""
    count = 1
    for n in array.shape:
        count *= int(n)
    return count * array.dtype.itemsize


def _train_binary_attrs(args, kwargs, result) -> dict:
    diag = result.diagnostics
    return {
        "epochs": int(diag.epochs),
        "converged": bool(diag.converged),
        "kkt": float(diag.kkt_violation),
    }


def _predict_table_attrs(args, kwargs, result) -> dict:
    return {"rows": int(result.shape[0])}


def _array_result_bytes(args, kwargs, result) -> dict:
    return {"bytes": _nbytes(result)}


def _table_bytes(args, kwargs, result) -> dict:
    return {"bytes": _nbytes(result.values)}


def _image_bytes(args, kwargs, result) -> dict:
    return {"bytes": _nbytes(result.data)}


# (module, attribute, span name, attrs hook). Several attributes may map to
# one span name when different callers resolve the same function.
WRAP_SITES = [
    ("hsembed.cli", "load_envi", "hsi.load_envi", _image_bytes),
    ("hsembed.cli", "load_ground_truth", "hsi.load_ground_truth", None),
    ("hsembed.cli", "save_ground_truth", "hsi.save_ground_truth", None),
    ("hsembed.cli", "save_envi", "hsi.save_envi", None),
    ("hsembed.cli", "generate_synthetic_scene", "hsi.generate_synthetic_scene", None),
    ("hsembed.cli", "build_feature_table", "embedding.build_feature_table", _table_bytes),
    ("hsembed.evaluation", "build_feature_table", "embedding.build_feature_table", _table_bytes),
    ("hsembed.embedding", "feature_matrix", "rff.feature_matrix", _array_result_bytes),
    ("hsembed.embedding", "median_heuristic", "embedding.median_heuristic", None),
    ("hsembed.embedding", "morphological_profile", "morphology.morphological_profile", None),
    ("hsembed.cli", "monte_carlo_protocol", "evaluation.monte_carlo_protocol", None),
    ("hsembed.cli", "run_split", "evaluation.run_split", None),
    ("hsembed.evaluation", "run_split", "evaluation.run_split", None),
    ("hsembed.evaluation", "cross_validate", "svm.cross_validate", None),
    ("hsembed.evaluation", "train_multiclass", "svm.final_train", None),
    ("hsembed.evaluation", "predict_table", "svm.predict_table", _predict_table_attrs),
    ("hsembed.svm", "train_binary", "svm.train_binary", _train_binary_attrs),
]

ROOT_SPAN = "cli.main"


def traced(recorder: Recorder, name: str, fn, hook=None):
    """``fn`` wrapped in a span named ``name``; ``hook`` fills its attrs."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if hook is not None:
            span.attrs.update(hook(args, kwargs, result))
        return result

    return wrapper


def install(recorder: Recorder) -> None:
    """Replace every wrap site's module attribute with a traced wrapper.

    A missing attribute raises: the per-layer numbers would otherwise
    silently read zero after the library moves a call.
    """
    for module_name, attr, name, hook in WRAP_SITES:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            raise AttributeError(f"wrap site {module_name}.{attr} does not exist")
        setattr(module, attr, traced(recorder, name, getattr(module, attr), hook))


# ---------------------------------------------------------------------------
# Arithmetic over recorded spans
# ---------------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        inside = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.id, [])
            if min(b, s.end) > max(a, s.start)
        ]
        out[s.id] = s.duration - covered(inside)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one sample's spans (the command, not its setup)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, []))

    def self_total(name):
        return sum(own[s.id] for s in by_name.get(name, []))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, []))

    solves = by_name.get("svm.train_binary", [])
    converged = sum(1 for s in solves if s.attrs["converged"])
    return {
        "svm.train_binary.calls": len(solves),
        "svm.train_binary.s": total("svm.train_binary"),
        "svm.train_binary.epochs": attr_sum("svm.train_binary", "epochs"),
        "svm.train_binary.unconverged": len(solves) - converged,
        "svm.train_binary.converged_ratio": converged / len(solves) if solves else 0.0,
        "svm.train_binary.max_kkt": max((s.attrs["kkt"] for s in solves), default=0.0),
        "svm.cross_validate.s": total("svm.cross_validate"),
        "svm.final_train.s": total("svm.final_train"),
        "svm.predict_table.s": total("svm.predict_table"),
        "svm.predict_table.rows": attr_sum("svm.predict_table", "rows"),
        "rff.feature_matrix.s": total("rff.feature_matrix"),
        "rff.feature_matrix.bytes_out": attr_sum("rff.feature_matrix", "bytes"),
        "embedding.build_feature_table.s": total("embedding.build_feature_table"),
        "embedding.build_feature_table.self_s": self_total("embedding.build_feature_table"),
        "embedding.table_bytes": attr_sum("embedding.build_feature_table", "bytes"),
        "embedding.median_heuristic.s": total("embedding.median_heuristic"),
        "morphology.morphological_profile.s": total("morphology.morphological_profile"),
        "evaluation.monte_carlo_protocol.s": total("evaluation.monte_carlo_protocol"),
        "evaluation.run_split.calls": len(by_name.get("evaluation.run_split", [])),
        "evaluation.run_split.self_s": self_total("evaluation.run_split"),
        "hsi.load_envi.s": total("hsi.load_envi"),
        "hsi.load_envi.bytes": attr_sum("hsi.load_envi", "bytes"),
        "hsi.load_ground_truth.s": total("hsi.load_ground_truth"),
        "hsi.save_ground_truth.s": total("hsi.save_ground_truth"),
        "cli.self_s": self_total(ROOT_SPAN),
    }


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced ``synth`` setup."""
    return {
        name + ".s": sum(s.duration for s in spans if s.name == name)
        for name in ("hsi.generate_synthetic_scene", "hsi.save_envi")
    }
