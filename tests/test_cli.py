"""Command-line pipeline: classify, evaluate, synth, theory, render."""

import json
import threading

import numpy as np
import pytest

from hsembed.cli import default_palette, main, read_ppm, render_map


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
        _, _, cfg = scene_config
        cfg["method"] = "mp_x_meanmap"
        cfg["embedding"]["n_features"] = 512
        cfg["embedding"]["tensor_cap"] = 1000
        cfg["mp"] = {"pca_dims": 2, "n_scales": 1}
        path = tmp_path / "over.json"
        path.write_text(json.dumps(cfg))
        code = main(["classify", "--config", str(path)])
        assert code == 1
        assert "1000" in capsys.readouterr().err

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


class TestCoreCount:
    @pytest.mark.parametrize("method", ["meanmap", "convmeanmap"])
    @pytest.mark.parametrize(
        "command, files",
        [("classify", ("predictions.csv", "map.ppm", "metrics.json")),
         ("evaluate", ("metrics.json", "table.txt"))],
    )
    def test_outputs_byte_identical_for_any_core_count(
        self, scene_config, monkeypatch, tmp_path, method, command, files
    ):
        from hsembed import rff

        _, out, cfg = scene_config
        cfg["method"] = method
        config = tmp_path / f"{method}.json"
        config.write_text(json.dumps(cfg))
        monkeypatch.setattr(rff, "_TRIG_CHUNK", 1)
        threads = threading.active_count()
        outputs = []
        for cores in (1, 3):
            monkeypatch.setattr(rff, "_core_count", lambda cores=cores: cores)
            assert main([command, "--config", str(config)]) == 0
            outputs.append({name: (out / name).read_bytes() for name in files})
        assert outputs[0] == outputs[1]
        assert threading.active_count() == threads


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
        from hsembed.errors import StageError

        assert _exit_code_for(NumericalError("nan")) == 3
        assert _exit_code_for(StageError("train", NumericalError("nan"))) == 3

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
        from hsembed.cli import PipelineConfig

        _, _, cfg = scene_config
        cfg["embedding"]["normalize"] = False
        cfg["protocol"]["eval_on_train"] = True
        path = tmp_path / "flag.json"
        path.write_text(json.dumps(cfg))
        loaded = PipelineConfig.from_json(path)
        assert loaded.normalize is False and loaded.eval_on_train is True

    @pytest.mark.parametrize(
        "section, key, value",
        [(None, "seed", 1.5), (None, "seed", True), ("embedding", "patch_side", 3.0),
         ("embedding", "n_features", 8.5), ("embedding", "tensor_cap", "1000"),
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
        from hsembed.cli import PipelineConfig

        _, _, cfg = scene_config
        cfg["mp"] = {"pca_dims": 2, "n_scales": 1}
        path = tmp_path / "number.json"
        for c in (8, 0.5, None):
            cfg["svm"] = {"c": c, "folds": 3}
            path.write_text(json.dumps(cfg))
            loaded = PipelineConfig.from_json(path)
            assert loaded.svm_c == c and type(loaded.svm_c) is type(c)
            assert loaded.sigma is None and loaded.beta is None
            assert (loaded.seed, loaded.n_features, loaded.folds, loaded.mp_dims) == (11, 32, 3, 2)
        cfg["embedding"].update(sigma=2, beta=0.5)
        path.write_text(json.dumps(cfg))
        loaded = PipelineConfig.from_json(path)
        assert (loaded.sigma, loaded.beta) == (2, 0.5)

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
