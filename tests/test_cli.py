"""Command-line pipeline: classify, evaluate, synth, theory, render."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from hsembed.cli import (
    PIPELINE_KEYS,
    build_parser,
    default_palette,
    main,
    pipeline_settings,
    read_ppm,
    render_map,
)
from hsembed.errors import read_section
from hsembed.hsi import SCENE_KEYS, scene_spec_from_json


def settings(path, *flags):
    """What ``evaluate --config path flags`` reads: data, classifier, protocol, output."""
    return pipeline_settings(build_parser().parse_args(["evaluate", "--config", str(path), *flags]))


@pytest.fixture()
def scene_config(tmp_path):
    cfg = {
        "seed": 11,
        "data": {
            "synthetic": {
                "height": 14,
                "width": 14,
                "bands": 5,
                "classes": 3,
                "region_scale": 5.0,
                "noise_sigma": 0.1,
                "seed": 11,
            }
        },
        "method": "meanmap",
        "embedding": {"patch_side": 3, "n_features": 32},
        "svm": {"c": 32.0},
        "protocol": {"runs": 2, "per_class": 5},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "out", cfg


class TestRender:
    def test_single_black_pixel_bytes(self, tmp_path):
        # byte-level oracle from the P6 grammar:
        # "P6\n<w> <h>\n255\n" header then 3 payload bytes
        out = tmp_path / "one.ppm"
        render_map(np.array([[0]]), default_palette(1), out)
        assert out.read_bytes() == b"P6\n1 1\n255\n\x00\x00\x00"

    def test_palette_bijective_on_reread(self, tmp_path):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 5, size=(9, 7))
        palette = default_palette(4)
        out = tmp_path / "map.ppm"
        render_map(labels, palette, out)
        pixels = read_ppm(out)
        assert pixels.shape == (9, 7, 3)
        for label in range(5):
            mask = labels == label
            if mask.any():
                expected = np.array(palette[label], dtype=np.uint8)
                assert np.all(pixels[mask] == expected)
        # distinct labels map to distinct colors
        colors = {tuple(c) for c in pixels.reshape(-1, 3)}
        assert len(colors) == len(np.unique(labels))

    def test_uniform_map(self, tmp_path):
        out = tmp_path / "uniform.ppm"
        render_map(np.full((4, 4), 2), default_palette(3), out)
        pixels = read_ppm(out)
        assert len({tuple(c) for c in pixels.reshape(-1, 3)}) == 1

    def test_label_out_of_palette(self, tmp_path):
        from hsembed import ContractViolation

        with pytest.raises(ContractViolation):
            render_map(np.array([[7]]), default_palette(3), tmp_path / "bad.ppm")

    def test_default_palette_properties(self):
        palette = default_palette(20)
        assert palette[0] == (0, 0, 0)
        assert len(palette) == 21
        assert len(set(palette)) == 21

    def test_render_command(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("0,1\n2,1\n")
        out = tmp_path / "render.ppm"
        assert main(["render", "--labels", str(labels), "--output", str(out)]) == 0
        assert read_ppm(out).shape == (2, 2, 3)

    def test_render_refuses_a_negative_class_count(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("0,0\n0,0\n")
        out = tmp_path / "render.ppm"
        assert main(["render", "--labels", str(labels), "--output", str(out), "--classes", "-3"]) == 1
        assert "--classes must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_render_non_integer_cell_names_the_line(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("0,1\n2,x\n")
        out = tmp_path / "render.ppm"
        assert main(["render", "--labels", str(labels), "--output", str(out)]) == 2
        assert "labels.csv:2" in capsys.readouterr().err
        assert not out.exists()

    def test_render_envi_label_raster(self, tmp_path):
        from hsembed import HyperspectralImage, save_envi

        labels = np.array([[0, 1, 3], [2, 2, 1]])
        header = save_envi(
            HyperspectralImage(labels[:, :, None].astype(np.float64)), tmp_path / "gt.hdr"
        )
        out = tmp_path / "render.ppm"
        assert main(["render", "--labels", str(header), "--output", str(out)]) == 0
        palette = np.asarray(default_palette(3), dtype=np.uint8)
        np.testing.assert_array_equal(read_ppm(out), palette[labels])

    def test_reread_of_payload_bytes_that_are_newlines(self, tmp_path):
        # the header ends at its third newline; payload bytes of 10 stay pixels
        out = tmp_path / "nl.ppm"
        palette = [(10, 10, 10), (0, 10, 255)]
        labels = np.array([[0, 1], [1, 0]])
        render_map(labels, palette, out)
        np.testing.assert_array_equal(read_ppm(out), np.asarray(palette, dtype=np.uint8)[labels])

    @pytest.mark.parametrize(
        "header",
        [
            b"",
            b"P5\n1 1\n255\n",
            b"P3\n1 1\n255\n",
            b"P6\n# a comment\n1 1\n255\n",
            b"P6 1 1 255\n",
            b"P6\n1\n1\n255\n",
            b"P6\n1  1\n255\n",
            b"P6\n-1 1\n255\n",
            b"P6\n1 1\n65535\n",
            b"P6\r\n1 1\r\n255\r\n",
        ],
    )
    def test_read_ppm_refuses_headers_render_map_does_not_write(self, tmp_path, header):
        from hsembed import FormatError

        bad = tmp_path / "bad.ppm"
        bad.write_bytes(header + b"\x00\x00\x00")
        with pytest.raises(FormatError, match="not a P6 PPM as render_map writes it"):
            read_ppm(bad)


class TestClassify:
    def test_smoke_and_outputs(self, scene_config):
        config, out, _ = scene_config
        assert main(["classify", "--config", str(config)]) == 0
        assert (out / "map.ppm").is_file()
        assert (out / "predictions.csv").is_file()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["method"] == "meanmap"
        assert 0.0 <= metrics["mean"]["oa"] <= 100.0

    def test_byte_identical_reruns(self, scene_config):
        config, out, _ = scene_config
        assert main(["classify", "--config", str(config)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["classify", "--config", str(config)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_tensor_cap_exit_code_and_message(self, tmp_path, scene_config, capsys):
        # the cap went with the fused rows: the key is unknown now
        _, _, cfg = scene_config
        cfg["method"] = "mp_x_meanmap"
        cfg["embedding"]["tensor_cap"] = 1000
        cfg["mp"] = {"pca_dims": 2, "n_scales": 1}
        path = tmp_path / "over.json"
        path.write_text(json.dumps(cfg))
        code = main(["classify", "--config", str(path)])
        assert code == 1
        assert "unknown key 'tensor_cap'" in capsys.readouterr().err

    def test_metrics_equal_evaluate_run_zero(self, scene_config, tmp_path):
        config, out, _ = scene_config
        assert main(["classify", "--config", str(config)]) == 0
        classify = json.loads((out / "metrics.json").read_text())
        evaluate_out = tmp_path / "evaluate"
        assert main(["evaluate", "--config", str(config), "--runs", "1",
                     "--output", str(evaluate_out)]) == 0
        evaluate = json.loads((evaluate_out / "metrics.json").read_text())
        assert classify["runs"] == evaluate["runs"]
        assert classify["best_c"] == evaluate["best_c"] == [32.0]
        assert classify["params"] == evaluate["params"]
        assert classify["params"]["runs"] == 1 and "c" not in classify["params"]

    def test_fixed_test_trains_outside_and_scores_only_it(
        self, tmp_path, scene_config, monkeypatch
    ):
        import hsembed.cli as cli
        from hsembed.evaluation import average_accuracy, confusion_matrix, kappa
        from hsembed.evaluation import overall_accuracy
        from hsembed.hsi import generate_synthetic_scene, scene_spec_from_json

        _, out, cfg = scene_config
        rows, cols = np.indices((14, 14))
        fixed_mask = ((rows + cols) % 3 == 0).astype(int)
        fixed_path = tmp_path / "fixed.csv"
        fixed_path.write_text("\n".join(",".join(map(str, r)) for r in fixed_mask) + "\n")
        cfg["protocol"]["fixed_test"] = str(fixed_path)
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps(cfg))
        train_splits = []
        predict_runs = cli.predict_runs

        def recorded(image, spec, labels_flat, splits, *rest):
            train_splits.extend(train for train, _ in splits)
            return predict_runs(image, spec, labels_flat, splits, *rest)

        monkeypatch.setattr(cli, "predict_runs", recorded)
        assert main(["classify", "--config", str(path)]) == 0
        fixed = np.flatnonzero(fixed_mask.ravel())
        assert np.intersect1d(train_splits[0], fixed).size == 0

        _, gt = generate_synthetic_scene(scene_spec_from_json(cfg["data"]["synthetic"]))
        pred = np.loadtxt(out / "predictions.csv", delimiter=",", dtype=int).ravel()
        cm = confusion_matrix(pred[fixed], gt.labels.ravel()[fixed], gt.n_classes)
        (run,) = json.loads((out / "metrics.json").read_text())["runs"]
        assert run == {
            "oa": 100.0 * overall_accuracy(cm),
            "aa": 100.0 * average_accuracy(cm),
            "kappa": 100.0 * kappa(cm),
        }

    def test_flag_overrides_change_output(self, scene_config):
        config, out, _ = scene_config
        assert main(["classify", "--config", str(config), "--method", "raw"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["method"] == "raw"


class TestEvaluate:
    def test_metrics_schema_and_table(self, scene_config):
        config, out, _ = scene_config
        assert main(["evaluate", "--config", str(config)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) >= {"method", "params", "runs", "mean", "std"}
        assert len(metrics["runs"]) == 2
        for run in metrics["runs"]:
            assert set(run) == {"oa", "aa", "kappa"}
        table = (out / "table.txt").read_text()
        assert "kernel" in table and "OA" in table

    def test_deterministic(self, scene_config):
        config, out, _ = scene_config
        assert main(["evaluate", "--config", str(config)]) == 0
        first = (out / "metrics.json").read_bytes()
        assert main(["evaluate", "--config", str(config)]) == 0
        assert (out / "metrics.json").read_bytes() == first


class TestBlock:
    # the old 32 MB block, and blocks below today's 8 MB one: 4,096 and
    # 256 values give bands of a few image rows and feature blocks of a few
    # pixels, 1 value bands of one row and feature blocks of one pixel, so
    # the streamed pass runs in many bands; the synth step fills the cube
    # and takes its centre distances in blocks of as few rows
    @pytest.mark.parametrize("block", [1 << 22, 4096, 256, 1])
    @pytest.mark.parametrize("method", ["meanmap", "convmeanmap"])
    @pytest.mark.parametrize(
        "command, files",
        [("classify", ("predictions.csv", "map.ppm", "metrics.json")),
         ("evaluate", ("metrics.json", "table.txt"))],
    )
    def test_outputs_byte_identical_for_any_block(
        self, scene_config, monkeypatch, tmp_path, method, command, files, block
    ):
        from hsembed import hsi

        _, out, cfg = scene_config
        cfg["method"] = method
        config = tmp_path / f"{method}.json"
        config.write_text(json.dumps(cfg))
        spec = tmp_path / "scene.json"
        spec.write_text(json.dumps(cfg["data"]["synthetic"]))
        scene = tmp_path / "scene"
        outputs = []
        # today's block first (it holds the 14 x 14 x 64 table, so that run
        # goes through the dense table), then the block under test
        for size in (hsi._BLOCK, block):
            monkeypatch.setattr(hsi, "_BLOCK", size)
            assert main(["synth", "--config", str(spec), "--output", str(scene)]) == 0
            assert main([command, "--config", str(config)]) == 0
            outputs.append(
                {name: (scene / name).read_bytes() for name in ("scene.img", "gt.csv")}
                | {name: (out / name).read_bytes() for name in files}
            )
        assert outputs[0] == outputs[1]


class TestSynth:
    def test_writes_scene_and_round_trips(self, tmp_path):
        spec = {"height": 8, "width": 9, "bands": 4, "classes": 2,
                "region_scale": 4.0, "noise_sigma": 0.2, "seed": 3}
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(spec))
        out = tmp_path / "scene_out"
        assert main(["synth", "--config", str(cfg), "--output", str(out)]) == 0
        from hsembed import load_envi, load_ground_truth

        image = load_envi(out / "scene.hdr")
        assert (image.height, image.width, image.bands) == (8, 9, 4)
        gt = load_ground_truth(out / "gt.csv", 8, 9)
        assert gt.n_classes == 2

    # a scale below 1 means one region per pixel, one above the 72 pixels
    # as few regions as classes; past the float range these used to fail
    @pytest.mark.parametrize("scale, bound", [
        (1e-200, 1.0), (1e-160, 1.0), (1e160, 72.0), (1e200, 72.0),
    ])
    def test_extreme_region_scale_writes_bound_scene(self, tmp_path, scale, bound):
        written = []
        for value in (scale, bound):
            spec = {"height": 8, "width": 9, "bands": 2, "classes": 2, "region_scale": value}
            cfg = tmp_path / "scene.json"
            cfg.write_text(json.dumps(spec))
            out = tmp_path / f"scene_{value}"
            assert main(["synth", "--config", str(cfg), "--output", str(out)]) == 0
            written.append(
                {name: (out / name).read_bytes() for name in ("scene.img", "scene.hdr", "gt.csv")}
            )
        assert written[0] == written[1]


class TestTheory:
    def test_reports_written_with_slack(self, tmp_path):
        cfg = tmp_path / "theory.json"
        cfg.write_text(json.dumps({
            "seed": 5,
            "meta": {"n_groups": 5, "group_size": 8, "dim": 3},
            "features": {"count": 32},
            "predictors": {"count": 5, "norm_low": 50.0, "norm_high": 100.0},
            "trials": 2,
            "bound": {"rademacher_draws": 200, "holdout_draws": 500,
                      "dictionary_size": 32},
        }))
        out = tmp_path / "theory_out"
        assert main(["theory", "--config", str(cfg), "--output", str(out)]) == 0
        gap = json.loads((out / "embedding_gap_bound.json").read_text())
        assert gap["predictors"] == 5
        assert all("slack" in r for r in gap["reports"])
        combined = json.loads((out / "combined_risk_bound.json").read_text())
        assert combined["trials"] == 2
        assert all("slack" in r for r in combined["reports"])
        gap_text = (out / "embedding_gap_bound.txt").read_text()
        assert "slack" in gap_text and "components" in gap_text
        combined_text = (out / "combined_risk_bound.txt").read_text()
        assert "moment_term" in combined_text

    def test_deterministic(self, tmp_path):
        cfg = tmp_path / "theory.json"
        cfg.write_text(json.dumps({
            "seed": 6,
            "meta": {"n_groups": 4, "group_size": 8, "dim": 3},
            "features": {"count": 16},
            "predictors": {"count": 3},
            "trials": 1,
            "bound": {"rademacher_draws": 100, "holdout_draws": 200,
                      "dictionary_size": 16},
        }))
        out = tmp_path / "theory_out"
        assert main(["theory", "--config", str(cfg), "--output", str(out)]) == 0
        first = (out / "combined_risk_bound.json").read_bytes()
        assert main(["theory", "--config", str(cfg), "--output", str(out)]) == 0
        assert (out / "combined_risk_bound.json").read_bytes() == first


class TestOutputDirEnvVar:
    def test_env_var_supplies_default_output_dir(self, tmp_path, monkeypatch, scene_config):
        config, _, cfg = scene_config
        cfg.pop("output_dir")
        path = tmp_path / "noout.json"
        path.write_text(json.dumps(cfg))
        env_out = tmp_path / "from_env"
        monkeypatch.setenv("HSEMBED_OUT", str(env_out))
        assert main(["classify", "--config", str(path)]) == 0
        assert (env_out / "metrics.json").is_file()


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["classify"]) == 1  # missing --config
        assert main(["notacommand"]) == 1

    def test_numerical_error_maps_to_three(self):
        from hsembed import NumericalError
        from hsembed.cli import _exit_code_for
        from hsembed.errors import (
            ContractViolation,
            DegenerateDataError,
            FormatError,
            ShapeError,
            StageError,
            UndefinedInputError,
        )

        assert _exit_code_for(NumericalError("nan")) == 3
        assert _exit_code_for(StageError("train", NumericalError("nan"))) == 3
        # data errors exit 2, as does anything else that is neither
        for exc in (FormatError("x"), ShapeError("x"), DegenerateDataError("x"),
                    UndefinedInputError("x"), ContractViolation("x"), FileNotFoundError("x"),
                    StageError("data", FormatError("x"))):
            assert _exit_code_for(exc) == 2

    def test_missing_config_file_is_one(self, tmp_path):
        assert main(["classify", "--config", str(tmp_path / "absent.json")]) == 1

    def test_data_error_is_two(self, tmp_path, capsys):
        cfg = {
            "seed": 1,
            "data": {"image": str(tmp_path / "missing.hdr"),
                     "ground_truth": str(tmp_path / "missing.csv")},
            "method": "raw",
            "svm": {"c": 1.0},
            "protocol": {"runs": 1, "per_class": 2},
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["classify", "--config", str(path)]) == 2
        assert "stage 'data'" in capsys.readouterr().err

    def test_grid_search_without_a_trainable_fold_is_two(self, tmp_path, scene_config, capsys):
        # one training pixel per class: every fold that validates a pixel
        # lacks its class in training, so no C can be chosen
        _, out, cfg = scene_config
        cfg["svm"] = {"c": None}
        cfg["protocol"] = {"runs": 1, "per_class": 1}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(cfg))
        assert main(["evaluate", "--config", str(path)]) == 2
        assert "set svm.c" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "section, key",
        [(None, "seeds"), ("data", "ground_thruth"), ("embedding", "n_feature"),
         ("mp", "pca_dim"), ("svm", "grid"), ("protocol", "run")],
    )
    def test_pipeline_config_key_exits_one(self, tmp_path, scene_config, capsys, section, key):
        _, _, cfg = scene_config
        (cfg if section is None else cfg.setdefault(section, {}))[key] = 1
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(cfg))
        assert main(["evaluate", "--config", str(path)]) == 1
        assert repr(key) in capsys.readouterr().err

    def test_scene_spec_key_exits_one(self, tmp_path, capsys):
        spec = {"height": 8, "width": 9, "bands": 4, "classes": 2, "noise": 0.3}
        cfg = tmp_path / "scene.json"
        cfg.write_text(json.dumps(spec))
        out = tmp_path / "scene_out"
        assert main(["synth", "--config", str(cfg), "--output", str(out)]) == 1
        assert "'noise'" in capsys.readouterr().err

    def test_synthetic_data_key_exits_one(self, tmp_path, scene_config, capsys):
        _, _, cfg = scene_config
        cfg["data"]["synthetic"]["region"] = 5.0
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(cfg))
        assert main(["classify", "--config", str(path)]) == 1
        assert "'region'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key",
        [(None, "trial"), ("meta", "n_group"), ("features", "counts"),
         ("bound", "delt"), ("predictors", "norm")],
    )
    def test_theory_config_key_exits_one(self, tmp_path, capsys, section, key):
        obj = {"seed": 1}
        (obj if section is None else obj.setdefault(section, {}))[key] = 1
        cfg = tmp_path / "theory.json"
        cfg.write_text(json.dumps(obj))
        out = tmp_path / "theory_out"
        assert main(["theory", "--config", str(cfg), "--output", str(out)]) == 1
        assert repr(key) in capsys.readouterr().err
        assert not (out / "embedding_gap_bound.json").exists()


def readme_pipeline_example() -> dict:
    """README's "Pipeline config" example, its // comments stripped."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text[text.index("### Pipeline config") :]
    start = section.index("```jsonc\n") + len("```jsonc\n")
    block = section[start : section.index("\n```", start)]
    return json.loads(re.sub(r"//[^\n]*", "", block))


def key_paths(obj: dict, kinds: dict, prefix=()) -> set:
    """The key paths of ``obj``, descending into the sections ``kinds`` nests."""
    paths = set()
    for key, value in obj.items():
        paths.add(prefix + (key,))
        if isinstance(kinds.get(key), dict):
            paths |= key_paths(value, kinds[key], prefix + (key,))
    return paths


def test_readme_pipeline_example_shows_exactly_the_keys_the_reader_accepts():
    example = readme_pipeline_example()
    read_section(example, "config", **PIPELINE_KEYS)  # accepts every key shown
    scene = example["data"]["synthetic"]
    scene_spec_from_json(scene)
    assert key_paths(example, PIPELINE_KEYS) == key_paths(PIPELINE_KEYS, PIPELINE_KEYS)
    assert set(scene) == set(SCENE_KEYS)


class TestStrictValues:
    @pytest.mark.parametrize(
        "section, key, value",
        [("embedding", "normalize", "false"), ("embedding", "normalize", 0),
         ("protocol", "eval_on_train", "no"), ("protocol", "eval_on_train", 1)],
    )
    def test_non_boolean_flag_exits_one(self, tmp_path, scene_config, capsys, section, key,
                                        value):
        _, _, cfg = scene_config
        cfg[section][key] = value
        path = tmp_path / "flag.json"
        path.write_text(json.dumps(cfg))
        assert main(["evaluate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert repr(key) in err and repr(value) in err

    def test_boolean_flags_load(self, tmp_path, scene_config):
        _, _, cfg = scene_config
        cfg["embedding"]["normalize"] = False
        cfg["protocol"]["eval_on_train"] = True
        path = tmp_path / "flag.json"
        path.write_text(json.dumps(cfg))
        _, spec, protocol, _ = settings(path)
        assert spec.embedding.normalize is False and protocol.eval_on_train is True

    @pytest.mark.parametrize(
        "section, key, value",
        [(None, "seed", 1.5), (None, "seed", True), ("embedding", "patch_side", 3.0),
         ("embedding", "n_features", 8.5), ("embedding", "n_features", "1000"),
         ("mp", "pca_dims", None), ("mp", "n_scales", 2.0), ("svm", "folds", "5"),
         ("protocol", "runs", 1.9), ("protocol", "per_class", False),
         ("svm", "c", True), ("svm", "c", "8"), ("svm", "c", 0), ("svm", "c", -1.0),
         ("svm", "c", [8.0]), ("svm", "c", float("nan")), ("svm", "c", float("inf")),
         ("embedding", "sigma", "1"), ("embedding", "sigma", True),
         ("embedding", "beta", -2.0)],
    )
    def test_non_integer_count_or_bad_positive_exits_one(self, tmp_path, scene_config,
                                                         capsys, section, key, value):
        _, _, cfg = scene_config
        (cfg if section is None else cfg.setdefault(section, {}))[key] = value
        path = tmp_path / "number.json"
        path.write_text(json.dumps(cfg))
        assert main(["evaluate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert repr(key) in err and repr(value) in err

    @pytest.mark.parametrize(
        "section, key, value",
        [("data", "image", 5), ("data", "ground_truth", 7), ("data", "image", None),
         ("data", "synthetic", [1]), ("data", "synthetic", "scene"), ("data", "synthetic", None),
         ("protocol", "fixed_test", 7), ("protocol", "fixed_test", ["mask.csv"]),
         (None, "output_dir", 5), (None, "output_dir", False), (None, "output_dir", None)],
    )
    @pytest.mark.parametrize("command", ["classify", "evaluate"])
    def test_non_string_path_or_non_object_scene_exits_one(self, tmp_path, scene_config, capsys,
                                                           command, section, key, value):
        _, _, cfg = scene_config
        (cfg if section is None else cfg.setdefault(section, {}))[key] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert repr(key) in err and repr(value) in err and "Traceback" not in err

    def test_theory_output_dir_must_be_a_string(self, tmp_path, capsys):
        path = tmp_path / "theory.json"
        path.write_text(json.dumps({"output_dir": 5}))
        assert main(["theory", "--config", str(path)]) == 1
        assert "'output_dir'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_c_flag_must_be_positive_and_finite(self, scene_config, capsys, value):
        path, _, _ = scene_config
        assert main(["evaluate", "--config", str(path), "--c", value]) == 1
        assert "C must be positive and finite" in capsys.readouterr().err

    def test_integer_counts_and_numeric_c_load(self, tmp_path, scene_config):
        _, _, cfg = scene_config
        cfg["mp"] = {"pca_dims": 2, "n_scales": 1}
        path = tmp_path / "number.json"
        for c in (8, 0.5, None):
            cfg["svm"] = {"c": c, "folds": 3}
            path.write_text(json.dumps(cfg))
            _, spec, protocol, _ = settings(path)
            assert spec.svm.c == c and type(spec.svm.c) is type(c)
            assert spec.embedding.sigma is None and spec.embedding.beta is None
            assert (protocol.seed, spec.embedding.n_features, spec.svm.folds, spec.mp.pca_dims) == (
                11, 32, 3, 2
            )
            assert spec.embedding.seed == spec.svm.seed == 11
        cfg["embedding"].update(sigma=2, beta=0.5)
        path.write_text(json.dumps(cfg))
        _, spec, _, _ = settings(path)
        assert (spec.embedding.sigma, spec.embedding.beta) == (2, 0.5)
        assert type(spec.embedding.sigma) is int

    def test_defaults_of_an_empty_config(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        data, spec, protocol, _ = settings(path, "--output", str(tmp_path / "out"))
        assert data == {}
        assert (protocol.runs, protocol.per_class, protocol.seed) == (20, 5, 0)
        assert protocol.eval_on_train is False and protocol.fixed_test is None
        emb = spec.embedding
        assert (spec.method, emb.patch.side, emb.patch.border, emb.n_features) == (
            "meanmap", 3, "clamp", 1024
        )
        assert (emb.sigma, emb.beta, emb.normalize, emb.seed) == (None, None, True, 0)
        assert (spec.mp.pca_dims, spec.mp.n_scales, spec.mp.se_shape) == (4, 4, "disk")
        assert (spec.svm.c, spec.svm.folds, spec.svm.seed) == (None, 5, 0)

    @pytest.mark.parametrize(
        "key, value",
        [("height", 8.7), ("height", True), ("height", "8"), ("classes", 2.5), ("seed", 1.9),
         ("noise_sigma", "0.3"), ("noise_sigma", float("nan")),
         ("region_scale", float("inf")), ("seed", "x"), ("seed", -1),
         ("class_spectra", [[1, "a"], [2, 3]]), ("class_spectra", [[1, True], [2, 3]]),
         ("class_spectra", [1, 2]), ("class_spectra", "drawn")],
    )
    def test_scene_spec_value_exits_one(self, tmp_path, scene_config, capsys, key, value):
        spec = {"height": 8, "width": 9, "bands": 2, "classes": 2, key: value}
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "scene_out"
        assert main(["synth", "--config", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert repr(key) in err and repr(value) in err and "Traceback" not in err
        assert not (out / "scene.hdr").exists()

        _, _, cfg = scene_config
        cfg["data"]["synthetic"][key] = value
        path.write_text(json.dumps(cfg))
        assert main(["classify", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert repr(key) in err and repr(value) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value, bands",
        [("classes", -1, 2), ("classes", 0, 2), ("bands", -2, 2), ("width", 0, 2),
         ("class_spectra", [[1, 2], [3, 4]], 3), ("class_spectra", [[1, 2], [3]], 2)],
    )
    def test_scene_spec_size_exits_one_naming_the_key(self, tmp_path, capsys, key, value, bands):
        spec = {"height": 8, "width": 9, "bands": bands, "classes": 2, key: value}
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "scene_out"
        assert main(["synth", "--config", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert repr(key) in err and "Traceback" not in err
        assert not (out / "scene.hdr").exists()

    def test_more_classes_than_pixels_exits_one_naming_the_key(self, tmp_path, capsys,
                                                                scene_config):
        spec = {"height": 2, "width": 2, "bands": 3, "classes": 5}
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "scene_out"
        assert main(["synth", "--config", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "'classes'" in err and "Traceback" not in err
        assert not (out / "scene.hdr").exists()

        _, _, cfg = scene_config
        cfg["data"]["synthetic"] = spec
        path.write_text(json.dumps(cfg))
        assert main(["evaluate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "'classes'" in err and "Traceback" not in err

    def test_null_class_spectra_are_drawn_from_the_seed(self, tmp_path):
        spec = {"height": 8, "width": 9, "bands": 2, "classes": 2, "seed": 4}
        outputs = []
        for name, doc in (("omitted", spec), ("null", dict(spec, class_spectra=None))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / name
            assert main(["synth", "--config", str(path), "--output", str(out)]) == 0
            outputs.append([(out / f).read_bytes() for f in ("scene.hdr", "scene.img", "gt.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "command, flags",
        [(command, flags) for flags in (["--scale", "0"], ["--features", "0"],
                                        ["--per-class", "0"], ["--seed", "-1"])
         for command in ("classify", "evaluate")] + [("evaluate", ["--runs", "0"])],
    )
    def test_flag_is_checked_as_its_key_before_the_data_loads(self, tmp_path, capsys, command,
                                                             flags):
        cfg = {"data": {"image": str(tmp_path / "absent.hdr"),
                        "ground_truth": str(tmp_path / "absent.csv")}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path), *flags]) == 1  # 2 if the data loaded
        err = capsys.readouterr().err
        assert "Traceback" not in err and "stage 'data'" not in err

    @pytest.mark.parametrize("command", ["classify", "evaluate"])
    def test_negative_config_seed_exits_one_before_the_data_loads(self, tmp_path, capsys,
                                                                   command):
        cfg = {"seed": -1, "data": {"image": str(tmp_path / "absent.hdr"),
                                    "ground_truth": str(tmp_path / "absent.csv")}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "'seed'" in err and "-1" in err and "stage 'data'" not in err

    @pytest.mark.parametrize("command", ["classify", "evaluate"])
    def test_negative_seed_flag_names_the_seed(self, scene_config, capsys, command):
        path, _, _ = scene_config
        assert main([command, "--config", str(path), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "'seed'" in err and "-1" in err and "Traceback" not in err

    @pytest.mark.parametrize("by_flag", [False, True])
    def test_negative_synth_seed_exits_one(self, tmp_path, capsys, by_flag):
        spec = {"height": 8, "width": 9, "bands": 2, "classes": 2}
        if not by_flag:
            spec["seed"] = -2
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(spec))
        argv = ["synth", "--config", str(path), "--output", str(tmp_path / "scene_out")]
        assert main(argv + (["--seed", "-2"] if by_flag else [])) == 1
        err = capsys.readouterr().err
        assert "'seed'" in err and "-2" in err

    @pytest.mark.parametrize("by_flag", [False, True])
    def test_negative_theory_seed_exits_one(self, tmp_path, capsys, by_flag):
        path = tmp_path / "theory.json"
        path.write_text(json.dumps({} if by_flag else {"seed": -3}))
        out = tmp_path / "theory_out"
        argv = ["theory", "--config", str(path), "--output", str(out)]
        assert main(argv + (["--seed", "-3"] if by_flag else [])) == 1
        err = capsys.readouterr().err
        assert "'seed'" in err and "-3" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, named",
        [("loss", "hinj", "'hinj'"), ("checks", ["embeding_gap"], "'embeding_gap'"),
         ("checks", ["combined_risk", "gap"], "'gap'"), ("checks", [], "[]"),
         ("checks", "embedding_gap", "'embedding_gap'"),
         ("seed", 1.5, "'seed'"), ("seed", "1", "'1'"), ("seed", True, "True"),
         ("trials", 1.9, "1.9"), ("trials", "2", "'2'"), ("trials", 0, "'trials'"),
         ("meta", {"n_groups": 2.0}, "'n_groups'"), ("meta", {"group_size": "6"}, "'6'"),
         ("meta", {"dim": True}, "'dim'"), ("meta", {"group_sigma": "0.4"}, "'0.4'"),
         ("meta", {"center_scale": False}, "'center_scale'"),
         ("meta", {"mean_spread": None}, "'mean_spread'"),
         ("meta", {"label_flip": [0.1]}, "'label_flip'"),
         ("meta", {"label_flip": 1.5}, "label_flip"),
         ("features", {"count": "8"}, "'8'"), ("features", {"count": 8.0}, "'count'"),
         ("features", {"bandwidth": True}, "'bandwidth'"),
         ("features", {"bandwidth": "inf"}, "'inf'"),
         ("bound", {"delta": "0.1"}, "'delta'"), ("bound", {"delta": 1.5}, "delta"),
         ("bound", {"r_bound": True}, "'r_bound'"),
         ("bound", {"rademacher_draws": 50.5}, "'rademacher_draws'"),
         ("bound", {"dictionary_size": "8"}, "'dictionary_size'"),
         ("bound", {"dictionary_norm": None}, "'dictionary_norm'"),
         ("bound", {"holdout_draws": True}, "'holdout_draws'"),
         ("predictors", {"count": 3.5}, "'count'"),
         ("predictors", {"norm_low": "1"}, "'norm_low'"),
         ("predictors", {"norm_high": False}, "'norm_high'"),
         ("predictors", {"combined_norm": "1"}, "'combined_norm'")],
    )
    def test_theory_value_exits_one(self, tmp_path, capsys, key, value, named):
        cfg = tmp_path / "theory.json"
        cfg.write_text(json.dumps({"seed": 1, key: value}))
        out = tmp_path / "theory_out"
        assert main(["theory", "--config", str(cfg), "--output", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("group_sigma", float("nan")),
                                            ("center_scale", float("inf"))])
    def test_theory_non_finite_exits_one(self, tmp_path, capsys, key, value):
        # Python's JSON reader accepts NaN and Infinity
        cfg = tmp_path / "theory.json"
        cfg.write_text(json.dumps({"meta": {key: value}}))
        out = tmp_path / "theory_out"
        assert main(["theory", "--config", str(cfg), "--output", str(out)]) == 1
        assert f"{key!r} must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_theory_loss_and_bound_settings_reach_every_trial(self, tmp_path):
        lhs = {}
        for loss in ("hinge", "logistic"):
            cfg = tmp_path / f"{loss}.json"
            cfg.write_text(json.dumps({
                "seed": 2, "loss": loss, "checks": ["combined_risk"], "trials": 2,
                "meta": {"n_groups": 4, "group_size": 6, "dim": 3},
                "features": {"count": 16},
                "bound": {"delta": 0.2, "rademacher_draws": 50, "holdout_draws": 100,
                          "dictionary_size": 8},
            }))
            out = tmp_path / loss
            assert main(["theory", "--config", str(cfg), "--output", str(out)]) == 0
            assert not (out / "embedding_gap_bound.json").exists()
            reports = json.loads((out / "combined_risk_bound.json").read_text())["reports"]
            assert [r["components"]["delta"] for r in reports] == [0.2, 0.2]
            lhs[loss] = [r["lhs"] for r in reports]
        assert lhs["hinge"] != lhs["logistic"]
