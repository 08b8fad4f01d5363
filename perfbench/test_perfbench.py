"""Tests of the benchmark's own logic: span arithmetic, metric names,
the output checks and the traced call counts. They run the library on a
tiny scene, never a benchmark workload."""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from hsembed import cli
from perfbench import run, spans, verify

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _span(i, name, start, end, parent, **attrs):
    return spans.Span(i, name, start, end, parent, attrs)


def test_covered_merges_overlaps_and_gaps():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert spans.covered([(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(10.0)


def test_self_time_excludes_direct_children_only():
    tree = [
        _span(0, "root", 0.0, 10.0, None),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "b", 3.0, 6.0, 0),  # overlaps a: the union is counted once
        _span(3, "a.child", 2.0, 3.0, 1),  # a grandchild of root
        _span(4, "late", 9.5, 11.0, 0),  # ends after its parent: clipped
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 5.0 - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_layer_metrics_totals_and_ratios():
    tree = [
        _span(0, spans.ROOT_SPAN, 0.0, 10.0, None),
        _span(1, "embedding.build_feature_table", 0.0, 4.0, 0, bytes=800),
        _span(2, "rff.feature_matrix", 0.5, 2.0, 1, bytes=800),
        _span(3, "evaluation.run_split", 4.0, 9.0, 0),
        _span(4, "svm.final_train", 4.5, 7.0, 3),
        _span(5, "svm.train_binary", 4.5, 5.5, 4, epochs=3, converged=True, kkt=1e-5),
        _span(6, "svm.train_binary", 5.5, 7.0, 4, epochs=1000, converged=False, kkt=0.5),
        _span(7, "svm.predict_table", 7.0, 8.0, 3, rows=12),
    ]
    m = spans.layer_metrics(tree)
    assert m["svm.train_binary.calls"] == 2
    assert m["svm.train_binary.s"] == pytest.approx(2.5)
    assert m["svm.train_binary.epochs"] == 1003
    assert m["svm.train_binary.unconverged"] == 1
    assert m["svm.train_binary.converged_ratio"] == pytest.approx(0.5)
    assert m["svm.train_binary.max_kkt"] == pytest.approx(0.5)
    assert m["svm.predict_table.rows"] == 12
    assert m["embedding.build_feature_table.self_s"] == pytest.approx(2.5)
    assert m["embedding.table_bytes"] == 800
    assert m["evaluation.run_split.self_s"] == pytest.approx(5.0 - 2.5 - 1.0)
    assert m["cli.self_s"] == pytest.approx(10.0 - 4.0 - 5.0)
    assert m["svm.cross_validate.s"] == 0.0


def test_benchmark_json_names_units_and_bounds():
    doc = json.loads(BENCHMARK.read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS)
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_traced_metric_names_cover_per_layer():
    produced = set(spans.layer_metrics([])) | set(spans.setup_metrics([]))
    produced |= {"trace.overhead_s", "trace.overhead_pct"}
    assert produced == set(run.PER_LAYER)


def test_expected_solve_counts():
    counts = {name: w.expected_solves() for name, w in run.WORKLOADS.items()}
    assert counts == {
        "ip-evaluate-grid": 31 * 5 * 120 + 120,
        "pu-classify": 36,
        "ip-fusion-evaluate": 5 * 120,
    }


# ---------------------------------------------------------------------------
# Output checks on a tiny scene
# ---------------------------------------------------------------------------

SEED = 5


@pytest.fixture
def scene(tmp_path):
    spec = {"height": 24, "width": 24, "bands": 8, "classes": 3,
            "region_scale": 8.0, "noise_sigma": 0.4, "seed": SEED}
    (tmp_path / "scene.json").write_text(json.dumps(spec))
    out = tmp_path / "scene"
    assert cli.main(["synth", "--config", str(tmp_path / "scene.json"), "--output", str(out)]) == 0
    config = {
        "seed": SEED,
        "data": {"image": str(out / "scene.hdr"), "ground_truth": str(out / "gt.csv")},
        "method": "meanmap",
        "embedding": {"patch_side": 3, "n_features": 32},
        "svm": {"c": 32.0},
        "protocol": {"runs": 2, "per_class": 5},
    }
    (tmp_path / "pipeline.json").write_text(json.dumps(config))
    return tmp_path


def _tamper_metrics(out: Path, key: str = "oa", delta: float = 0.5):
    path = out / "metrics.json"
    doc = json.loads(path.read_text())
    doc["mean"][key] += delta
    path.write_text(json.dumps(doc))


def test_classify_checks_pass_then_fail_on_tampering(scene):
    out = scene / "out"
    argv = ["classify", "--config", str(scene / "pipeline.json"), "--output", str(out)]
    assert cli.main(argv) == 0
    gt = scene / "scene" / "gt.csv"
    train_idx = verify.classify_training_indices(gt, SEED, 5)
    assert verify.check_classify(out, gt, train_idx, 3) == []

    # training pixels must be left out of the recomputed accuracy
    assert verify.check_classify(out, gt, np.array([], dtype=np.int64), 3) != []

    _tamper_metrics(out, "kappa", 1e-6)
    assert any("kappa" in p for p in verify.check_classify(out, gt, train_idx, 3))

    assert cli.main(argv) == 0
    ppm = (out / "map.ppm").read_bytes()
    (out / "map.ppm").write_bytes(ppm[:-1] + bytes([ppm[-1] ^ 0xFF]))
    assert verify.check_classify(out, gt, train_idx, 3) == ["map.ppm does not match predictions.csv"]

    (out / "metrics.json").unlink()
    assert verify.check_classify(out, gt, train_idx, 3) != []


def test_evaluate_checks_pass_then_fail_on_tampering(scene):
    out = scene / "out"
    argv = ["evaluate", "--config", str(scene / "pipeline.json"), "--output", str(out)]
    assert cli.main(argv) == 0
    assert verify.check_evaluate(out, 2) == []
    assert verify.check_evaluate(out, 3) != []
    _tamper_metrics(out, "oa")
    assert any("oa" in p for p in verify.check_evaluate(out, 2))
    (out / "metrics.json").write_text('{"runs": []}')
    assert verify.check_evaluate(out, 2) != []


def test_accuracy_matches_library_definitions():
    from hsembed.evaluation import average_accuracy, confusion_matrix, kappa, overall_accuracy

    rng = np.random.default_rng(0)
    truth = rng.integers(1, 5, size=500)
    pred = np.where(rng.random(500) < 0.7, truth, rng.integers(1, 5, size=500))
    cm = confusion_matrix(pred, truth, 4)
    got = verify.accuracy_pct(pred, truth, 4)
    assert got["oa"] == pytest.approx(100 * overall_accuracy(cm), abs=1e-12)
    assert got["aa"] == pytest.approx(100 * average_accuracy(cm), abs=1e-12)
    assert got["kappa"] == pytest.approx(100 * kappa(cm), abs=1e-12)


def test_install_wraps_every_site_and_counts_solves(scene, monkeypatch):
    for module_name, attr, _, _ in spans.WRAP_SITES:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored after the test
    recorder = spans.Recorder()
    spans.install(recorder)
    root = recorder.open(spans.ROOT_SPAN)
    argv = ["evaluate", "--config", str(scene / "pipeline.json"), "--output", str(scene / "out")]
    assert cli.main(argv) == 0
    recorder.close(root)

    m = spans.layer_metrics(recorder.spans)
    assert m["svm.train_binary.calls"] == 2 * 3  # 2 runs x 3 class pairs, fixed C
    assert m["evaluation.run_split.calls"] == 2
    assert m["svm.predict_table.rows"] == 2 * (24 * 24 - 3 * 5)
    assert m["embedding.table_bytes"] == 24 * 24 * 64 * 8
    assert m["hsi.load_envi.bytes"] == 24 * 24 * 8 * 8
    assert m["cli.self_s"] >= 0.0
    parents = {s.id: s for s in recorder.spans}
    for s in recorder.spans:
        if s.name == "svm.train_binary":
            assert parents[s.parent].name == "svm.final_train"
