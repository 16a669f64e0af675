import contextlib
import csv
import io
import json
import math
import re
import shutil
import struct
import tempfile
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from tailshare import cli
from tailshare.cli import main
from tailshare.datagen import LongTailDataset, load_csv, save_csv
from tailshare.presets import toy_config_dict
from tailshare.store import (load_container, load_model, load_params, load_stage1, save_container,
                             save_params, save_stage1)


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(tmp_path, **overrides):
    cfg = toy_config_dict(out_dir=str(tmp_path / "run"))
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


# About 100 KB of JSON nested deeper than json's parser goes.
DEEP = "[" * 100_000


def strict_json(path):
    """The JSON document at `path`, read by a parser that refuses NaN and Infinity."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestVerifyLemma:
    def test_passes_on_random_instances(self, runner):
        result = runner.invoke(main, ["verify-lemma", "--trials", "300", "--seed", "1"])
        assert result.exit_code == 0
        assert "PASS" in result.output
        assert "max |residual|" in result.output

    @pytest.mark.parametrize("args, named", [
        (["--trials", "0"], "--trials must be >= 1, got 0"),
        (["--trials", "-3"], "--trials must be >= 1, got -3"),
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--max-y", "1"], "--max-y must be >= 2, got 1"),
        (["--max-outcomes", "1"], "--max-outcomes must be >= 2, got 1"),
        (["--max-outcomes", "2000"],
         "--max-y * --max-outcomes * --max-outcomes = 4 * 2000 * 2000 = 16000000 table entries per "
         "instance, above the cap of 1048576"),
        (["--max-y", "1000", "--max-outcomes", "1000"],
         "--max-y * --max-outcomes * --max-outcomes = 1000 * 1000 * 1000 = 1000000000 table entries per "
         "instance, above the cap of 1048576"),
    ])
    def test_degenerate_input_is_a_config_error_naming_its_flag(self, runner, args, named):
        with runner.isolated_filesystem() as cwd:
            result = runner.invoke(main, ["verify-lemma"] + args)
            assert list(Path(cwd).iterdir()) == []
        assert result.exit_code == 2, result.output
        assert result.output == f"error[config]: {named}\n"

    def test_residual_at_or_above_the_bound_exits_6(self, runner, monkeypatch):
        monkeypatch.setattr(cli.infotheory, "residual_sweep", lambda *args: 2e-10)
        result = runner.invoke(main, ["verify-lemma"])
        assert result.exit_code == 6, result.output
        assert "max |residual| over 1000 trials: 2.000e-10" in result.output
        assert "FAIL: residual above 1e-10" in result.output
        assert "PASS" not in result.output


class TestGenData:
    def test_writes_dataset_sidecar_and_snapshot(self, runner, tmp_path):
        config, cfg = write_config(tmp_path)
        result = runner.invoke(main, ["gen-data", "--config", str(config)])
        assert result.exit_code == 0, result.output
        run_dir = tmp_path / "run"
        assert (run_dir / "dataset_v001.csv").exists()
        assert (run_dir / "dataset_v001.generator.json").exists()
        assert (run_dir / "config_v001.json").exists()

    @pytest.mark.parametrize("key", ["noise_sigma", "class_mean_scale"])
    def test_settings_that_draw_a_non_finite_feature_write_no_dataset(self, runner, tmp_path, key):
        """Features that overflow would be refused by every reader of the
        dataset: gen-data refuses them, naming both settings, and writes no
        dataset or sidecar (warnings fail the suite)."""
        config, cfg = write_config(tmp_path)
        cfg["generator"][key] = 1e308
        config.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["gen-data", "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert "error[config]: generator: class_mean_scale" in result.output
        assert "noise_sigma" in result.output and "non-finite feature" in result.output
        assert not list((tmp_path / "run").glob("dataset_v*"))


class TestStagedCommands:
    def test_stage_by_stage_flow(self, runner, tmp_path):
        config, cfg = write_config(tmp_path)
        for args in (["gen-data"], ["stage1"], ["search"], ["stage2"], ["assemble"],
                     ["refine"], ["eval"]):
            result = runner.invoke(main, args + ["--config", str(config)])
            assert result.exit_code == 0, (args, result.output)
        run_dir = tmp_path / "run"
        assert (run_dir / "stage1_v001.bin").exists()
        assert (run_dir / "proxy_grid_v001.csv").exists()
        assert (run_dir / "selection_v001.json").exists()
        assert (run_dir / "stage2_v001.bin").exists()
        assert (run_dir / "model_v001.bin").exists()
        assert (run_dir / "model_v002.bin").exists()  # refine appends a version
        assert (run_dir / "metrics_v001.csv").exists()

    def test_search_respects_grid_flags(self, runner, tmp_path):
        config, _ = write_config(tmp_path)
        assert runner.invoke(main, ["gen-data", "--config", str(config)]).exit_code == 0
        assert runner.invoke(main, ["stage1", "--config", str(config)]).exit_code == 0
        result = runner.invoke(main, ["search", "--config", str(config),
                                      "--grid-c", "0,1", "--grid-w", "0.4,0.6"])
        assert result.exit_code == 0
        sel = json.loads((tmp_path / "run" / "selection_v001.json").read_text())
        assert sel["c_star"] in (0, 1)
        assert sel["w_star"] in (0.4, 0.6)


class TestFullRun:
    def test_produces_selection_and_metrics(self, runner, tmp_path):
        config, cfg = write_config(tmp_path)
        result = runner.invoke(main, ["full-run", "--config", str(config)])
        assert result.exit_code == 0, result.output
        run_dir = tmp_path / "run"
        sel = json.loads((run_dir / "selection_v001.json").read_text())
        assert 0 <= sel["c_star"] <= len(cfg["model"]["trunk_widths"])
        assert sel["w_star"] in sel["w_values"]
        metrics = (run_dir / "metrics_v001.csv").read_text().strip().splitlines()
        assert len(metrics) >= 2

    def test_rerun_reproduces_numeric_outputs(self, runner, tmp_path):
        config, _ = write_config(tmp_path)
        assert runner.invoke(main, ["full-run", "--config", str(config)]).exit_code == 0
        assert runner.invoke(main, ["full-run", "--config", str(config)]).exit_code == 0
        run_dir = tmp_path / "run"
        for stem, ext in (("selection", ".json"), ("model", ".bin"), ("metrics", ".csv"),
                          ("proxy_grid", ".csv"), ("stage2", ".bin")):
            first = (run_dir / f"{stem}_v001{ext}").read_bytes()
            second = (run_dir / f"{stem}_v002{ext}").read_bytes()
            assert first == second, f"{stem}{ext} differs between reruns"

    @pytest.mark.parametrize("fraction, eval_sets", [(0.25, ["holdout", "balanced"]),
                                                     (0.0, ["balanced"])])
    def test_scores_each_eval_set_once(self, runner, tmp_path, monkeypatch, fraction, eval_sets):
        """One evaluation per metrics row; the training rows are not scored."""
        from tailshare import pipeline
        calls = []
        evaluate = pipeline.evaluate

        def counted(model, features, labels):
            calls.append(len(features))
            return evaluate(model, features, labels)

        monkeypatch.setattr(pipeline, "evaluate", counted)
        config, cfg = write_config(tmp_path, holdout_fraction=fraction)
        assert runner.invoke(main, ["full-run", "--config", str(config)]).exit_code == 0
        with (tmp_path / "run" / "metrics_v001.csv").open(newline="") as fh:
            assert [row["eval_set"] for row in csv.DictReader(fh)] == eval_sets
        assert len(calls) == len(eval_sets), calls
        assert calls[-1] == cfg["generator"]["n_classes"] * cfg["eval_per_class"]

    def test_zero_eval_per_class_leaves_the_balanced_row_out(self, runner, tmp_path):
        """Like holdout_fraction 0 for the holdout row; no NaN row, and no
        "Mean of empty slice" warning (warnings fail the suite)."""
        config, _ = write_config(tmp_path, eval_per_class=0)
        for command in ("full-run", "eval"):
            result = runner.invoke(main, [command, "--config", str(config)])
            assert result.exit_code == 0, (command, result.output)
        for version in ("v001", "v002"):
            with (tmp_path / "run" / f"metrics_{version}.csv").open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [row.pop("eval_set") for row in rows] == ["holdout"]
            assert all(math.isfinite(float(v)) for v in rows[0].values())

    def test_diverging_stage2_leaves_only_config_and_dataset(self, runner, tmp_path):
        """A relu net whose Stage 2 diverges exits 4; every stage has run
        before any stage artifact is written, so the run directory holds
        only the config snapshot and the dataset."""
        toy = json.loads(TOY.read_text())
        config = toy_copy(tmp_path, "diverging", model=dict(toy["model"], activation="relu"),
                          stage2=dict(toy["stage2"], learning_rate=1e300))
        run_dir = tmp_path / "run"
        result = invoke(runner, run_dir, "full-run", config=config)
        assert result.exit_code == 4, result.output
        assert "error[training]" in result.output
        assert sorted(run_dir_state(run_dir)) == ["config_v001.json", "dataset_v001.csv",
                                                  "dataset_v001.generator.json"]


class TestStagedMatchesFullRun:
    def test_staged_chain_and_full_run_write_identical_artifacts(self, runner, tmp_path):
        """On the reference config, the staged chain (versions 1) and
        full-run (versions 2; refinement makes the staged model_v002) write
        the same bytes for every artifact they share."""
        config = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
        common = ["--config", str(config), "--out", str(tmp_path), "--seed", "3"]
        for command in ("gen-data", "stage1", "search", "stage2", "assemble", "refine", "eval",
                        "full-run"):
            result = runner.invoke(main, [command] + common)
            assert result.exit_code == 0, (command, result.output)
        pairs = [(f"{stem}_v001{ext}", f"{stem}_v002{ext}") for stem, ext in (
            ("stage1", ".bin"), ("proxy_grid", ".csv"), ("selection", ".json"),
            ("stage2", ".bin"), ("metrics", ".csv"))]
        pairs.append(("model_v002.bin", "model_v003.bin"))
        for staged, full in pairs:
            assert (tmp_path / staged).read_bytes() == (tmp_path / full).read_bytes(), (staged, full)
        assert "search_seconds" not in json.loads((tmp_path / "selection_v001.json").read_text())

    def test_zero_epoch_refine_writes_full_runs_model(self, runner, tmp_path):
        """configs/toy.json refines for 0 epochs: the staged refine records
        refined: false, as full-run does, and the two models have the same
        bytes."""
        config = Path(__file__).resolve().parent.parent / "configs" / "toy.json"
        common = ["--config", str(config), "--out", str(tmp_path)]
        for command in ("gen-data", "stage1", "search", "stage2", "assemble", "refine", "eval",
                        "full-run"):
            result = runner.invoke(main, [command] + common)
            assert result.exit_code == 0, (command, result.output)
        staged, full = tmp_path / "model_v002.bin", tmp_path / "model_v003.bin"
        assert load_model(staged)[1]["refined"] is False
        assert load_model(full)[1]["refined"] is False
        assert staged.read_bytes() == full.read_bytes()


class TestErrorPaths:
    def test_non_object_document_is_echoed_cut_short(self, runner, tmp_path):
        path = tmp_path / "array.json"
        held = list(range(10_000))
        path.write_text(json.dumps(held))
        result = runner.invoke(main, ["gen-data", "--config", str(path), "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        assert result.output == (f"error[config]: {path}: the config must be a JSON object, "
                                 f"got {json.dumps(held)[:80]}...\n")
        assert len(result.output) < 300
        assert not (tmp_path / "run").exists()

    def test_an_unmapped_exception_exits_1_with_the_exception(self, runner, tmp_path, monkeypatch):
        """An exception no exit code maps is not dressed as a refusal: the
        command exits 1 with the exception itself."""
        from tailshare import pipeline

        def boom(*args):
            raise RuntimeError("boom")

        config, _ = write_config(tmp_path)
        assert runner.invoke(main, ["gen-data", "--config", str(config)]).exit_code == 0
        monkeypatch.setattr(pipeline, "stage1", boom)
        result = runner.invoke(main, ["stage1", "--config", str(config)])
        assert result.exit_code == 1 and isinstance(result.exception, RuntimeError)
        assert "error[" not in result.output

    def test_stage1_whose_fisher_overflows_writes_no_container(self, runner, tmp_path):
        """Features near 1e200 train, but their squares overflow the Fisher,
        which search would refuse: stage1 refuses it, naming it, and writes
        no container (warnings fail the suite). The toy dataset is scaled
        into an external CSV, since no generator draws such features."""
        config, cfg = write_config(tmp_path)
        assert runner.invoke(main, ["gen-data", "--config", str(config)]).exit_code == 0
        ds = load_csv(tmp_path / "run" / "dataset_v001.csv")
        save_csv(LongTailDataset(ds.features * 1e200, ds.labels, ds.class_counts), tmp_path / "huge.csv")
        result = runner.invoke(main, ["stage1", "--config", str(config), "--data", str(tmp_path / "huge.csv")])
        assert result.exit_code == 2, result.output
        assert re.search(r"error\[config\]: fisher_[ab] has a non-finite entry", result.output)
        assert not list((tmp_path / "run").glob("stage1_v*"))

    def test_missing_artifact_exit_code(self, runner, tmp_path):
        config, _ = write_config(tmp_path)
        result = runner.invoke(main, ["eval", "--config", str(config)])
        assert result.exit_code == 3

    def test_missing_config_file_exits_3_writing_nothing(self, runner, tmp_path):
        missing = tmp_path / "missing.json"
        result = runner.invoke(main, ["stage1", "--config", str(missing), "--out", str(tmp_path / "run")])
        assert result.exit_code == 3, result.output
        assert result.output == f"error[missing-artifact]: config file not found: {missing}\n"
        assert not (tmp_path / "run").exists()

    def test_unknown_config_key_exit_code(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not_a_key": 1}))
        result = runner.invoke(main, ["gen-data", "--config", str(path)])
        assert result.exit_code == 2

    def test_invalid_generator_exit_code(self, runner, tmp_path):
        config, _ = write_config(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["generator"]["imbalance_ratio"] = 0.2
        config.write_text(json.dumps(cfg))
        result = runner.invoke(main, ["gen-data", "--config", str(config)])
        assert result.exit_code == 2

    def test_sweep_without_balanced_rows_exit_code(self, runner, tmp_path):
        config, _ = write_config(tmp_path, eval_per_class=0)
        result = runner.invoke(main, ["sweep", "--config", str(config), "--resamples", "2",
                                      "--train-size", "200", "--grid-w", "0.3,0.7"])
        assert result.exit_code == 2, result.output
        assert "error[config]" in result.output
        assert "eval_per_class" in result.output

    @pytest.mark.parametrize("key, value", [("eval_per_class", -1), ("holdout_fraction", 1.5)])
    @pytest.mark.parametrize("command", ["full-run", "eval"])
    def test_bad_eval_setting_exits_before_any_artifact(self, runner, tmp_path, command, key, value):
        config, _ = write_config(tmp_path, **{key: value})
        result = runner.invoke(main, [command, "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert "error[config]" in result.output
        assert key in result.output
        written = [p.name for p in (tmp_path / "run").glob("*")]
        assert not [name for name in written if name.startswith(
            ("stage1", "proxy_grid", "selection", "stage2", "model", "metrics"))], written

    @pytest.mark.parametrize("text, named", [
        (b'{"seed": 1', "unreadable config (JSONDecodeError"),
        (b"\xff\xfe", "unreadable config (UnicodeDecodeError"),
        pytest.param(DEEP.encode(), "unreadable config (RecursionError", id="nested-too-deep"),
    ])
    def test_unreadable_config_exits_before_any_file(self, runner, tmp_path, text, named):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        result = runner.invoke(main, ["gen-data", "--config", str(path), "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        assert "error[config]" in result.output and f"{path}: {named}" in result.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, text, named", [
        ("stage1", '{"model": null}', "model must be an object, got null"),
        ("stage1", '{"tau": null}', "tau must be a number, got null"),
        ("stage1", '{"stage1": {"epochs": "x"}}', 'stage1.epochs must be an int, got "x"'),
        ("gen-data", "[1, 2]", "the config must be a JSON object, got [1, 2]"),
        ("full-run", '{"logit_adjust": true}', "unknown config key 'logit_adjust'"),
        ("gen-data", '{"seed": true}', "seed must be an int, got true"),
        ("gen-data", '{"generator": {"n_classes": 2.5}}', "generator.n_classes must be an int, got 2.5"),
        ("oracle", '{"oracle": {"resamples": "3"}}', 'oracle.resamples must be an int, got "3"'),
        ("full-run", '{"model": {"trunk_widths": [8, 0]}}', "model.trunk_widths must be a nonempty"),
        ("full-run", '{"model": {"activation": 1}}', "model.activation must be a string, got 1"),
        ("full-run", '{"select": {"w_values": ["0.5"]}}', 'select.w_values must be null or a list'),
        ("gen-data", '{"out": 3}', "out must be a string, got 3"),
    ])
    def test_config_value_of_the_wrong_type_exits_before_any_file(self, runner, tmp_path, command,
                                                                   text, named):
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = runner.invoke(main, [command, "--config", str(path), "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        assert "error[config]" in result.output and named in result.output
        assert not list((tmp_path / "run").glob("*"))

    @pytest.mark.parametrize("command, text, named", [
        ("gen-data", '{"seed": -1}', "seed must be >= 0, got -1"),
        ("stage1", '{"stage1": {"learning_rate": NaN}}', "stage1.learning_rate must be finite, got NaN"),
        ("full-run", '{"tau": Infinity}', "tau must be finite, got Infinity"),
        ("full-run", '{"select": {"w_values": [0.5, -Infinity]}}',
         "select.w_values must be finite, got [0.5, -Infinity]"),
        ("gen-data", '{"generator": {"n_classes": 1}}', "generator: n_classes must be >= 2, got 1"),
        ("stage1", '{"stage1": {"batch_size": 0}}', "stage1: batch_size must be >= 1"),
        ("full-run", '{"refine": {"momentum": 1.0}}', "refine: momentum must lie in [0, 1)"),
        ("full-run", '{"model": {"activation": "sigmoid"}}', "unsupported activation 'sigmoid'"),
        ("full-run", '{"tau": -1}', "tau: tau must be >= 0, got -1.0"),
        ("oracle", '{"oracle": {"resamples": 0}}', "oracle.resamples must be >= 1, got 0"),
        ("sweep", '{"oracle": {"train_size": -2}}', "oracle.train_size must be >= 1, got -2"),
    ])
    def test_config_objects_would_refuse_exits_before_any_file(self, runner, tmp_path, command,
                                                                text, named):
        path = tmp_path / "bad.json"
        path.write_text(text)
        result = runner.invoke(main, [command, "--config", str(path), "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        assert "error[config]" in result.output and named in result.output
        assert not list((tmp_path / "run").glob("*"))

    @pytest.mark.parametrize("command, args, named", [
        ("full-run", ["--seed", "-1"], "--seed must be >= 0, got -1"),
        ("gen-data", ["--seed", "-1"], "--seed must be >= 0, got -1"),
        ("full-run", ["--tau", "nan"], "tau must be finite, got NaN"),
        ("full-run", ["--tau", "-1"], "--tau: tau must be >= 0, got -1.0"),
        ("oracle", ["--resamples", "0"], "--resamples must be >= 1, got 0"),
        ("sweep", ["--resamples", "-1"], "--resamples must be >= 1, got -1"),
    ])
    def test_bad_flag_override_exits_before_any_file(self, runner, tmp_path, command, args, named):
        """A refusal names the flag that set the value."""
        config, _ = write_config(tmp_path)
        result = runner.invoke(main, [command, "--config", str(config)] + args)
        assert result.exit_code == 2, result.output
        assert "error[config]" in result.output and named in result.output
        assert not list((tmp_path / "run").glob("*"))

    @pytest.mark.parametrize("command, section", [("stage1", "stage1"), ("full-run", "stage2")])
    def test_zero_epoch_stage_exits_before_any_file(self, runner, tmp_path, command, section):
        """The library trains 0 epochs; the CLI, which reports each stage's
        last loss, refuses them before writing anything."""
        config, cfg = write_config(tmp_path)
        assert runner.invoke(main, ["gen-data", "--config", str(config)]).exit_code == 0
        written = sorted((tmp_path / "run").iterdir())
        cfg[section]["epochs"] = 0
        config.write_text(json.dumps(cfg))
        result = runner.invoke(main, [command, "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert f"{section}.epochs must be >= 1, got 0" in result.output
        assert sorted((tmp_path / "run").iterdir()) == written

    def test_oracle_with_empty_training_sets_exit_code(self, runner, tmp_path):
        config, _ = write_config(tmp_path)
        result = runner.invoke(main, ["oracle", "--config", str(config), "--resamples", "2",
                                      "--train-size", "0", "--grid-c", "0", "--grid-w", "0.5"])
        assert result.exit_code == 2, result.output
        assert "error[config]: --train-size must be >= 1, got 0" in result.output

    def test_malformed_dataset_exit_code(self, runner, tmp_path):
        config, _ = write_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,не-число,0\n")
        result = runner.invoke(main, ["stage1", "--config", str(config), "--data", str(bad)])
        assert result.exit_code == 5

    def test_truncated_stage1_container_exit_code(self, runner, tmp_path):
        config, _ = write_config(tmp_path)
        for command in ("gen-data", "stage1"):
            assert runner.invoke(main, [command, "--config", str(config)]).exit_code == 0
        path = tmp_path / "run" / "stage1_v001.bin"
        path.write_bytes(path.read_bytes()[:-100])
        result = runner.invoke(main, ["search", "--config", str(config)])
        assert result.exit_code == 5, result.output
        assert "error[data]" in result.output
        assert not (tmp_path / "run" / "selection_v001.json").exists()

    def test_stage1_container_without_spec_exit_code(self, runner, tmp_path):
        config, _ = write_config(tmp_path)
        (tmp_path / "run").mkdir()
        save_container(tmp_path / "run" / "stage1_v001.bin", {"kind": "stage1"}, {})
        result = runner.invoke(main, ["search", "--config", str(config)])
        assert result.exit_code == 5, result.output
        assert "error[data]" in result.output

    @pytest.mark.parametrize("sidecar", [
        '{"means": [[0',
        '{"noise_sigma": 1.0, "priors": [1.0]}',
        '{"means": [[0.0]], "noise_sigma": 1.0, "priors": [0.5, 0.5]}',
        '{"means": [[0.0]], "noise_sigma": 1.0, "priors": [1.0], "config": {"colour": 1}}',
        pytest.param('{"means": [0.0, 1.0], "noise_sigma": 1.0, "priors": [1.0]}', id="flat-means"),
        pytest.param(DEEP, id="nested-too-deep"),
    ])
    def test_bad_generator_sidecar_exit_code(self, runner, tmp_path, sidecar):
        config, _ = write_config(tmp_path)
        assert runner.invoke(main, ["gen-data", "--config", str(config)]).exit_code == 0
        data = tmp_path / "run" / "dataset_v001.csv"
        (tmp_path / "run" / "dataset_v001.generator.json").write_text(sidecar)
        before = tree_state(tmp_path)
        result = runner.invoke(main, ["stage1", "--config", str(config), "--data", str(data)])
        assert result.exit_code == 5, result.output
        assert "error[data]" in result.output
        assert "dataset_v001.generator.json" in result.output
        assert tree_state(tmp_path) == before

    def test_sidecar_means_one_column_wider_than_the_data_exit_code(self, runner, tmp_path):
        config, _ = write_config(tmp_path)
        assert runner.invoke(main, ["gen-data", "--config", str(config)]).exit_code == 0
        sidecar = tmp_path / "run" / "dataset_v001.generator.json"
        held = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps(dict(held, means=[row + [0.0] for row in held["means"]])))
        before = tree_state(tmp_path)
        result = runner.invoke(main, ["stage1", "--config", str(config)])
        assert result.exit_code == 5, result.output
        assert (f"error[data]: {sidecar}: generator has 6 classes of dimension 5, "
                "the data 6 of dimension 4") in result.output
        assert tree_state(tmp_path) == before

    def test_dataset_with_an_empty_class_exit_code(self, runner, tmp_path):
        config, _ = write_config(tmp_path)
        data = tmp_path / "gap.csv"
        data.write_text("".join(f"{i * 0.1},{-i * 0.2},{0 if i % 3 else 3}\n" for i in range(30)))
        result = runner.invoke(main, ["stage1", "--config", str(config), "--data", str(data)])
        assert result.exit_code == 5, result.output
        assert "gap.csv" in result.output
        assert "class label(s) 1, 2" in result.output

    def test_seed_override_changes_dataset(self, runner, tmp_path):
        config, _ = write_config(tmp_path)
        assert runner.invoke(main, ["gen-data", "--config", str(config)]).exit_code == 0
        assert runner.invoke(main, ["gen-data", "--config", str(config),
                                    "--seed", "99"]).exit_code == 0
        run_dir = tmp_path / "run"
        a = (run_dir / "dataset_v001.csv").read_text()
        b = (run_dir / "dataset_v002.csv").read_text()
        assert a != b


class TestOracleCommands:
    def test_oracle_and_sweep_write_the_bytes_of_the_direct_library_calls(self, runner, tmp_path):
        """The toy oracle and sweep run the library's grid_compare and
        weight_sweep on the config's generator and model, with the seeds the
        CLI documents: generator seed, init seed + 1, shuffles seed + 2 for
        both stages and + 4 for refinement, study seed + 7; sweep's depth is
        the trunk's."""
        from tailshare.datagen import GenConfig, build_generator, split_classes
        from tailshare.nn import ModelSpec, OptConfig
        from tailshare.oracle import grid_compare, weight_sweep
        from tailshare.pipeline import RunConfig

        run_dir = tmp_path / "run"
        for command in ("oracle", "sweep"):
            result = runner.invoke(main, [command, "--config", str(TOY), "--out", str(run_dir)])
            assert result.exit_code == 0, (command, result.output)
        cfg = json.loads(TOY.read_text())
        seed, sizes = cfg["seed"], cfg["oracle"]
        gen = build_generator(GenConfig(**cfg["generator"], seed=seed))
        split = split_classes(gen.priors)
        spec = ModelSpec(gen.input_dim, tuple(cfg["model"]["trunk_widths"]),
                         (len(split.head_classes), len(split.tail_classes)), cfg["model"]["activation"])
        opts = [OptConfig(**cfg[section], seed=seed + k) for section, k in (("stage1", 2), ("stage2", 2),
                                                                             ("refine", 4))]
        run = RunConfig(spec, *opts, init_seed=seed + 1, tau=cfg["tau"])
        study = dict(m_resamples=sizes["resamples"], n_train=sizes["train_size"], seed=seed + 7,
                     n_eval=sizes["eval_points"])
        grid = grid_compare(gen, run, cfg["select"]["c_values"], cfg["select"]["w_values"], **study)
        assert (run_dir / "oracle_summary_v001.json").read_text() == grid.to_json()
        sweep = weight_sweep(gen, run, spec.depth, cfg["select"]["w_values"],
                             eval_per_class=cfg["eval_per_class"], **study)
        assert (run_dir / "sweep_summary_v001.json").read_text() == sweep.to_json()
        for report, name in ((grid, "oracle_grid_v001.csv"), (sweep, "sweep_v001.csv")):
            report.to_csv(tmp_path / name)
            assert (run_dir / name).read_bytes() == (tmp_path / name).read_bytes()

    @staticmethod
    def resolved_study(runner, tmp_path, monkeypatch, command, *args):
        """Run the toy `command` at 2 resamples of 200 rows and weights 0.3
        and 0.7; returns the Inputs that _resolve gave it."""
        resolved, real = [], cli._resolve
        monkeypatch.setattr(cli, "_resolve",
                            lambda *args, **kw: resolved.append(real(*args, **kw)) or resolved[-1])
        result = runner.invoke(main, [command, "--config", str(TOY), "--out", str(tmp_path / "run"),
                                      "--resamples", "2", "--train-size", "200", "--grid-w", "0.3,0.7", *args])
        assert result.exit_code == 0, result.output
        (r,) = resolved
        return r

    def test_oracle_summary_holds_the_study_the_cli_resolved(self, runner, tmp_path, monkeypatch):
        """The summary's study is the oracle.Study that _resolve built, key
        for key, and holds no worker count: --jobs runs the study beside it."""
        r = self.resolved_study(runner, tmp_path, monkeypatch, "oracle")
        summary = json.loads((tmp_path / "run" / "oracle_summary_v001.json").read_text())
        assert summary["format"] == "tailshare-oracle-report-v2"
        assert summary["study"] == r.study.as_dict()
        assert "jobs" not in summary["study"]
        assert (r.jobs, r.study.seed, r.study.eval_per_class, r.study.refine) == (1, 7 + 7, None, False)

    def test_sweep_summary_holds_the_study_the_cli_resolved(self, runner, tmp_path, monkeypatch):
        """Like the oracle's, the sweep summary's study is the oracle.Study
        that _resolve built, at the trunk's depth and the config's
        eval_per_class, with no worker count."""
        r = self.resolved_study(runner, tmp_path, monkeypatch, "sweep", "--jobs", "2")
        summary = json.loads((tmp_path / "run" / "sweep_summary_v001.json").read_text())
        assert summary["format"] == "tailshare-sweep-report-v2"
        assert summary["study"] == r.study.as_dict()
        assert "jobs" not in summary["study"]
        assert (r.jobs, r.study.c_values, r.study.seed, r.study.eval_per_class, r.study.refine) == (
            2, (2,), 7 + 7, 50, False)

    @pytest.mark.parametrize("command, engine", [("oracle", "compare"), ("sweep", "sweep")])
    def test_the_engine_runs_the_study_object_the_cli_resolved(self, runner, tmp_path, monkeypatch,
                                                                command, engine):
        """oracle and sweep hand the study engine the very Study that
        _resolve checked before the config snapshot, and their report
        carries it."""
        from tailshare import oracle

        calls, real = [], getattr(oracle, engine)

        def spy(gen, run_cfg, study, jobs):
            report = real(gen, run_cfg, study, jobs)
            calls.append((study, jobs, report))
            return report

        monkeypatch.setattr(oracle, engine, spy)
        r = self.resolved_study(runner, tmp_path, monkeypatch, command)
        ((study, jobs, report),) = calls
        assert study is r.study and report.study is r.study and jobs == r.jobs == 1

    @pytest.mark.parametrize("command", ["oracle", "sweep"])
    def test_a_summary_is_strict_json_with_null_for_a_non_finite_number(self, runner, tmp_path, command):
        """One resample leaves every standard error undefined: the summary
        holds null there, which a parser refusing NaN and Infinity reads,
        and the CSV keeps nan."""
        run_dir, grid = tmp_path / "run", command == "oracle"
        result = runner.invoke(main, [command, "--config", str(TOY), "--out", str(run_dir), "--resamples", "1",
                                      "--train-size", "200", "--grid-w", "0.3,0.7"]
                               + (["--grid-c", "0,1"] if grid else []))
        assert result.exit_code == 0, result.output
        table, stem = ("oracle_grid", "oracle_summary") if grid else ("sweep", "sweep_summary")
        summary = strict_json(run_dir / f"{stem}_v001.json")
        assert summary["risk_stderr"] == ([[None, None], [None, None]] if grid else [None, None])
        assert all(math.isfinite(v) for v in np.ravel(summary["risk_mean"]))
        with (run_dir / f"{table}_v001.csv").open(newline="") as fh:
            assert {row["risk_stderr"] for row in csv.DictReader(fh)} == {"nan"}

    def test_oracle_and_sweep_smoke(self, runner, tmp_path):
        config, _ = write_config(tmp_path)
        result = runner.invoke(main, ["oracle", "--config", str(config),
                                      "--grid-c", "0,1", "--grid-w", "0.3,0.7",
                                      "--resamples", "3", "--train-size", "250"])
        assert result.exit_code == 0, result.output
        run_dir = tmp_path / "run"
        assert (run_dir / "oracle_grid_v001.csv").exists()
        assert (run_dir / "oracle_summary_v001.json").exists()
        result = runner.invoke(main, ["sweep", "--config", str(config),
                                      "--grid-w", "0.2,0.8", "--resamples", "2",
                                      "--train-size", "250"])
        assert result.exit_code == 0, result.output
        assert (run_dir / "sweep_v001.csv").exists()

    def test_oracle_and_sweep_csv_cells_parse_as_numbers(self, runner, tmp_path):
        config, _ = write_config(tmp_path)
        common = ["--config", str(config), "--resamples", "2", "--train-size", "200"]
        assert runner.invoke(main, ["oracle", "--grid-c", "0,2", "--grid-w", "0.3,0.5"]
                             + common).exit_code == 0
        assert runner.invoke(main, ["sweep", "--grid-w", "0.3,0.5"] + common).exit_code == 0
        for name, n_rows in (("oracle_grid_v001.csv", 4), ("sweep_v001.csv", 2)):
            with (tmp_path / "run" / name).open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 1 + n_rows
            for row in rows[1:]:
                assert len(row) == len(rows[0])
                for cell in row:
                    float(cell)

    @staticmethod
    def diverging_config(tmp_path, learning_rate):
        """The toy run with a ReLU trunk and a Stage-2 step of the given size."""
        config = tmp_path / "diverging.json"
        config.write_text(json.dumps({
            "model": {"activation": "relu"}, "stage2": {"learning_rate": learning_rate},
            "oracle": {"resamples": 2, "train_size": 200, "eval_points": 100}}))
        return ["--config", str(config), "--out", str(tmp_path / "run")]

    def test_sweep_with_no_finite_cell_reports_undefined(self, runner, tmp_path):
        """Every Stage 2 diverges at every weight: like oracle, sweep writes
        its table and reports no best weight."""
        result = runner.invoke(main, ["sweep", "--grid-w", "0.7"] + self.diverging_config(tmp_path, 1e300))
        assert result.exit_code == 0, result.output
        assert "best w_A=undefined" in result.output
        with (tmp_path / "run" / "sweep_v001.csv").open(newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["n_ok"] == "0" and math.isnan(float(row["overall_mean"]))

    @pytest.mark.parametrize("n_ok, best", [([2, 1, 2], "best w_A=0.8 overall=0.6000"),
                                            ([1, 1, 0], "best w_A=undefined")])
    def test_sweep_picks_its_best_weight_among_valid_weights(self, runner, tmp_path, monkeypatch,
                                                             n_ok, best):
        """Like oracle's cells, a weight is valid when at least 80% of its
        resamples succeeded; one that succeeded on 1 of 2 never wins."""
        from tailshare import oracle

        def one_lucky_weight(gen, run_cfg, study, jobs):
            acc = np.array([0.5, 0.9, 0.6])
            return oracle.SweepReport(study, *([acc] * 8), np.array(n_ok))

        monkeypatch.setattr(oracle, "sweep", one_lucky_weight)
        result = runner.invoke(main, ["sweep", "--grid-w", "0.2,0.5,0.8", "--resamples", "2",
                                      "--config", str(TOY), "--out", str(tmp_path / "run")])
        assert result.exit_code == 0, result.output
        assert best in result.output

    @pytest.mark.parametrize("command", ["oracle", "sweep"])
    def test_overflow_while_scoring_is_no_warning(self, runner, tmp_path, command):
        """Stage-2 trunks with huge finite parameters overflow on the
        evaluation points; the study still ends with exit 0 (the suite turns
        RuntimeWarnings into errors)."""
        result = runner.invoke(main, [command, "--grid-w", "0.5,0.7"]
                               + self.diverging_config(tmp_path, 1e30))
        assert result.exit_code == 0, result.output


TOY = Path(__file__).resolve().parent.parent / "configs" / "toy.json"


def run_dir_state(run_dir):
    """Name and bytes of every file in the run directory."""
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())} if run_dir.exists() else {}


def test_every_command_on_the_toy_config_leaves_no_empty_file_and_only_strict_json(runner, tmp_path):
    """Every command on the toy config, into one run directory: each
    command's artifacts are there, none of them is empty, and every JSON
    document (config snapshots, selections, generator sidecars and study
    summaries) parses without NaN or Infinity."""
    run_dir = tmp_path / "run"
    for command in ("gen-data", "stage1", "search", "stage2", "assemble", "refine", "eval", "full-run", "oracle",
                    "sweep"):
        result = invoke(runner, run_dir, command)
        assert result.exit_code == 0, (command, result.output)
    paths = sorted(run_dir.iterdir())
    assert {p.name.split("_v")[0] for p in paths} == {
        "config", "dataset", "stage1", "proxy_grid", "selection", "stage2", "model", "metrics", "oracle_grid",
        "oracle_summary", "sweep", "sweep_summary"}
    assert [p.name for p in paths if p.stat().st_size == 0] == []
    documents = [p.name for p in paths if p.suffix == ".json"]
    assert {"config_v001.json", "selection_v001.json", "dataset_v001.generator.json"} <= set(documents)
    for name in documents:
        strict_json(run_dir / name)


@pytest.fixture()
def searched(runner, tmp_path):
    """A toy run directory through gen-data, stage1 and search."""
    run_dir = tmp_path / "run"
    for command in ("gen-data", "stage1", "search"):
        result = runner.invoke(main, [command, "--config", str(TOY), "--out", str(run_dir)])
        assert result.exit_code == 0, (command, result.output)
    return run_dir


@pytest.fixture()
def assembled(runner, searched):
    """The searched toy run directory through stage2 and assemble."""
    for step in ("stage2", "assemble"):
        assert invoke(runner, searched, step).exit_code == 0, step
    return searched


class TestInputsResolvedBeforeAnyWrite:
    """Every config value and flag is checked before the command writes its
    config snapshot or any artifact."""

    @pytest.mark.parametrize("args, named", [
        (["sweep", "--c", "9"], "--c: shared depth 9 out of range 0..2"),
        (["sweep", "--c", "-1"], "--c: shared depth -1 out of range 0..2"),
        (["oracle", "--grid-c", "0,99"], "--grid-c: shared depth 99 out of range 0..2"),
        (["search", "--grid-c", "7"], "--grid-c: shared depth 7 out of range 0..2"),
        (["search", "--grid-w", "1.5"], "--grid-w: w_a candidates must lie in [0, 1], got 1.5"),
        (["stage2", "--w-star", "2"], "--w-star: w_a candidates must lie in [0, 1], got 2.0"),
        (["stage2", "--c-star", "99"], "--c-star: shared depth 99 out of range 0..2"),
        (["stage2", "--c-star", "-1"], "--c-star: shared depth -1 out of range 0..2"),
        (["oracle", "--jobs", "0"], "--jobs must be >= 1, got 0"),
        (["oracle", "--resamples", "0"], "--resamples must be >= 1, got 0"),
        (["stage1", "--tau", "-1"], "--tau: tau must be >= 0, got -1.0"),
    ])
    def test_flag_out_of_range_leaves_the_run_directory_unchanged(self, runner, searched, args, named):
        before = run_dir_state(searched)
        result = runner.invoke(main, args + ["--config", str(TOY), "--out", str(searched)])
        assert result.exit_code == 2, result.output
        assert f"error[config]: {named}" in result.output
        assert run_dir_state(searched) == before

    @pytest.mark.parametrize("command", ["oracle", "sweep"])
    @pytest.mark.parametrize("generator", [{"noise_sigma": 1e200}, {"class_mean_scale": 1e308},
                                           {"noise_sigma": 1e-200}])
    def test_generator_whose_posterior_overflows_leaves_the_run_directory_unchanged(
            self, runner, searched, tmp_path, command, generator):
        """Such a generator ended the study in an OverflowError, wrote all-NaN
        cells or divided by 2 sigma^2 = 0: refused before anything is
        written, naming the generator section (warnings fail the suite)."""
        toy = json.loads(TOY.read_text())
        config = toy_copy(tmp_path, "generator", generator=dict(toy["generator"], **generator))
        before = run_dir_state(searched)
        result = runner.invoke(main, [command, "--config", str(config), "--out", str(searched),
                                      "--resamples", "2"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error[config]: generator: class_mean_scale")
        assert "non-finite feature or posterior" in result.output
        assert run_dir_state(searched) == before

    @pytest.mark.parametrize("command", ["stage1", "stage2", "full-run", "oracle"])
    @pytest.mark.parametrize("by_flag", [True, False])
    def test_tau_whose_offsets_overflow_leaves_the_run_directory_unchanged(self, runner, searched, tmp_path,
                                                                          command, by_flag):
        """tau * log(prior) overflows at tau 1e308: refused before anything
        is written, naming --tau or the config's tau (warnings fail the
        suite)."""
        args = ["--tau", "1e308"] if by_flag else []
        config = TOY if by_flag else toy_copy(tmp_path, "tau", tau=1e308)
        before = run_dir_state(searched)
        result = runner.invoke(main, [command, "--config", str(config), "--out", str(searched)] + args)
        assert result.exit_code == 2, result.output
        named = "--tau" if by_flag else "tau"
        assert f"error[config]: {named}: the offsets tau * log(prior) overflow at tau 1e+308" in result.output
        assert run_dir_state(searched) == before

    def test_stage2_checks_the_selection_it_reads(self, runner, searched):
        sel = searched / "selection_v001.json"
        sel.write_text(json.dumps(dict(json.loads(sel.read_text()), c_star=4)))
        before = run_dir_state(searched)
        result = runner.invoke(main, ["stage2", "--config", str(TOY), "--out", str(searched)])
        assert result.exit_code == 2, result.output
        assert f"{sel}: c_star: shared depth 4 out of range 0..2" in result.output
        assert run_dir_state(searched) == before

    def test_stage2_with_both_flags_reads_no_selection(self, runner, tmp_path):
        run_dir = tmp_path / "run"
        for args in (["gen-data"], ["stage2", "--c-star", "1", "--w-star", "0.5"]):
            result = runner.invoke(main, args + ["--config", str(TOY), "--out", str(run_dir)])
            assert result.exit_code == 0, (args, result.output)
        assert load_params(run_dir / "stage2_v001.bin")[2]["c_star"] == 1

    @pytest.mark.parametrize("command", ["oracle", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_writes_nothing(self, runner, tmp_path, command, jobs):
        result = runner.invoke(main, [command, "--config", str(TOY), "--out", str(tmp_path / "run"),
                                      "--jobs", jobs, "--resamples", "2", "--train-size", "50"])
        assert result.exit_code == 2, result.output
        assert f"--jobs must be >= 1, got {jobs}" in result.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, args, text, named", [
        ("oracle", ["--grid-c", ","], None, "--grid-c: candidate grids must be nonempty"),
        ("oracle", ["--grid-w", ","], None, "--grid-w: candidate grids must be nonempty"),
        ("sweep", ["--grid-w", " "], None, "--grid-w: candidate grids must be nonempty"),
        ("search", ["--grid-c", "1,x"], None, "--grid-c: bad grid '1,x': invalid literal for int()"),
        ("oracle", ["--grid-w", "0.5,y"], None, "--grid-w: bad grid '0.5,y': could not convert"),
        ("full-run", [], '{"select": {"c_values": []}}', "select.c_values: candidate grids must be nonempty"),
        ("full-run", [], '{"select": {"w_values": []}}', "select.w_values: candidate grids must be nonempty"),
        ("full-run", [], '{"select": {"w_values": [2.0]}}',
         "select.w_values: w_a candidates must lie in [0, 1], got 2.0"),
        ("full-run", [], '{"select": {"c_values": [0, 3]}}', "select.c_values: shared depth 3 out of range"),
        ("full-run", [], '{"select": {"c_values": [0.5]}}',
         "select.c_values must be null or a list of ints, got [0.5]"),
    ])
    def test_empty_or_bad_grid_writes_nothing(self, runner, tmp_path, command, args, text, named):
        config = TOY
        if text is not None:
            config = tmp_path / "grid.json"
            config.write_text(text)
        result = runner.invoke(main, [command, "--config", str(config), "--out", str(tmp_path / "run")]
                               + args)
        assert result.exit_code == 2, result.output
        assert "error[config]" in result.output and named in result.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["stage1", "stage2", "refine", "eval"])
    def test_missing_dataset_writes_nothing(self, runner, tmp_path, command):
        result = runner.invoke(main, [command, "--config", str(TOY), "--out", str(tmp_path / "run")])
        assert result.exit_code == 3, result.output
        assert "dataset" in result.output
        assert run_dir_state(tmp_path / "run") == {}

    @pytest.mark.parametrize("text, named", [
        (b'{"c_star": 1, "w_st', "unreadable selection (JSONDecodeError"),
        (b"[1, 0.5]", "the selection must be a JSON object, got [1, 0.5]"),
        (b'"c_star"', 'the selection must be a JSON object, got "c_star"'),
        (b"\xff\xfe", "unreadable selection (UnicodeDecodeError"),
        pytest.param(DEEP.encode(), "unreadable selection (RecursionError", id="nested-too-deep"),
    ])
    def test_unreadable_selection_exits_5_writing_nothing(self, runner, searched, text, named):
        (searched / "selection_v001.json").write_bytes(text)
        before = run_dir_state(searched)
        result = runner.invoke(main, ["stage2", "--config", str(TOY), "--out", str(searched)])
        assert result.exit_code == 5, result.output
        assert "error[data]" in result.output and f"selection_v001.json: {named}" in result.output
        assert run_dir_state(searched) == before

    @pytest.mark.parametrize("command, sizes, args, named", [
        ("gen-data", {"generator": {"n_max": 10**12}}, [], "generator.n_max * generator.n_classes"),
        ("stage1", {"model": {"trunk_widths": [100_000, 100_000]}}, [], "model.trunk_widths"),
        ("oracle", {"oracle": {"eval_points": 10**11}}, ["--resamples", "2", "--train-size", "50"],
         "oracle.eval_points"),
        ("full-run", {"eval_per_class": 10**11}, [], "eval_per_class * generator.n_classes"),
    ], ids=["gen-data", "stage1", "oracle", "full-run"])
    def test_size_past_the_cap_leaves_the_run_directory_unchanged(self, runner, tmp_path, command, sizes,
                                                                  args, named):
        """A size whose arrays numpy cannot allocate (18.5 TiB of dataset,
        74.5 GiB of parameters, 745 GiB of evaluation points, 4.37 TiB of
        balanced rows) exits 2 naming its key, before the config snapshot."""
        run_dir = tmp_path / "run"
        assert invoke(runner, run_dir, "gen-data").exit_code == 0
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(sizes))
        before = run_dir_state(run_dir)
        result = invoke(runner, run_dir, command, *args, config=config)
        assert result.exit_code == 2, result.output
        assert f"error[config]: {named}" in result.output and f"cap of {cli._MAX_ENTRIES}" in result.output
        assert run_dir_state(run_dir) == before

    @pytest.mark.parametrize("cap, code", [(17280, 0), (17279, 2)])
    def test_the_largest_size_may_reach_the_cap(self, runner, tmp_path, monkeypatch, cap, code):
        """The toy's largest array is its dataset bound: n_max 120 * n_classes
        6 rows of max(input_dim + n_classes, input_dim * n_classes, 8) = 24
        entries, 17280 in all."""
        monkeypatch.setattr(cli, "_MAX_ENTRIES", cap)
        result = invoke(runner, tmp_path / "run", "gen-data")
        assert result.exit_code == code, result.output
        refusal = "generator.n_max * generator.n_classes = 720 rows of up to 24 entries"
        assert (refusal in result.output) == bool(code)

    @pytest.mark.parametrize("command", ["oracle", "sweep"])
    def test_zero_eval_points_writes_nothing(self, runner, tmp_path, command):
        config = tmp_path / "eval_points.json"
        config.write_text(json.dumps({"oracle": {"eval_points": 0}}))
        result = runner.invoke(main, [command, "--config", str(config), "--out", str(tmp_path / "run"),
                                      "--resamples", "2", "--train-size", "50"])
        assert result.exit_code == 2, result.output
        assert "error[config]" in result.output and "oracle.eval_points" in result.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("upstream, command, stem", [
        ((), "search", "stage1"),
        (("gen-data",), "assemble", "stage1"),
        (("gen-data", "stage1", "search"), "assemble", "stage2"),
        (("gen-data",), "refine", "model"),
        (("gen-data",), "eval", "model"),
    ])
    def test_missing_container_writes_nothing(self, runner, tmp_path, upstream, command, stem):
        run_dir = tmp_path / "run"
        for step in upstream:
            assert runner.invoke(main, [step, "--config", str(TOY), "--out", str(run_dir)]).exit_code == 0
        before = run_dir_state(run_dir)
        result = runner.invoke(main, [command, "--config", str(TOY), "--out", str(run_dir)])
        assert result.exit_code == 3, result.output
        assert f"no {stem}_vNNN.bin artifact" in result.output
        assert run_dir_state(run_dir) == before

    @pytest.mark.parametrize("command, stem", [
        ("search", "stage1"),
        ("assemble", "stage1"),
        ("assemble", "stage2"),
        ("refine", "model"),
        ("eval", "model"),
    ])
    def test_truncated_container_exits_5_writing_nothing(self, runner, assembled, command, stem):
        path = assembled / f"{stem}_v001.bin"
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        before = run_dir_state(assembled)
        result = invoke(runner, assembled, command)
        assert result.exit_code == 5, result.output
        assert "error[data]" in result.output and f"{path}: " in result.output
        assert run_dir_state(assembled) == before

    def test_stage1_metadata_nested_too_deep_exits_5_writing_nothing(self, runner, searched):
        path = searched / "stage1_v001.bin"
        # Magic and version kept, then the metadata length and the metadata.
        path.write_bytes(path.read_bytes()[:12] + struct.pack("<Q", len(DEEP)) + DEEP.encode())
        before = run_dir_state(searched)
        result = runner.invoke(main, ["search", "--config", str(TOY), "--out", str(searched)])
        assert result.exit_code == 5, result.output
        assert f"error[data]: {path}: unreadable metadata (RecursionError" in result.output
        assert run_dir_state(searched) == before

    # A cell held in a file, each refused the same way from either source.
    CELLS = pytest.mark.parametrize("cell, code, named", [
        ({}, 5, "no c_star in its metadata"),
        ({"c_star": 1}, 5, "no w_star in its metadata"),
        ({"c_star": 1.0, "w_star": 0.5}, 5, "c_star must be an int, got 1.0"),
        ({"c_star": True, "w_star": 0.5}, 5, "c_star must be an int, got true"),
        ({"c_star": 1, "w_star": "0.5"}, 5, 'w_star must be a number, got "0.5"'),
        ({"c_star": 1, "w_star": None}, 5, "w_star must be a number, got null"),
        ({"c_star": 3, "w_star": 0.5}, 2, "c_star: shared depth 3 out of range 0..2"),
        ({"c_star": -1, "w_star": 0.5}, 2, "c_star: shared depth -1 out of range 0..2"),
        ({"c_star": 1, "w_star": 7}, 2, "w_star: w_a candidates must lie in [0, 1], got 7.0"),
    ])

    @CELLS
    def test_selection_cell_is_refused_writing_nothing(self, runner, searched, cell, code, named):
        """stage2 reads its cell from the latest selection file."""
        path = searched / "selection_v002.json"
        path.write_text(json.dumps(cell))
        before = run_dir_state(searched)
        result = runner.invoke(main, ["stage2", "--config", str(TOY), "--out", str(searched)])
        assert result.exit_code == code, result.output
        assert f"{path}: {named}" in result.output
        assert run_dir_state(searched) == before

    @CELLS
    def test_stage2_container_cell_is_refused_writing_nothing(self, runner, searched, cell, code, named):
        """assemble reads its cell from the stage-2 container's metadata,
        which only the CLI's writer adds: a container written by the
        library's saver without it is refused too."""
        result = runner.invoke(main, ["stage2", "--config", str(TOY), "--out", str(searched)])
        assert result.exit_code == 0, result.output
        spec, params, _ = load_params(searched / "stage2_v001.bin")
        path = searched / "stage2_v002.bin"
        save_params(path, spec, params, cell)
        before = run_dir_state(searched)
        result = runner.invoke(main, ["assemble", "--config", str(TOY), "--out", str(searched)])
        assert result.exit_code == code, result.output
        assert f"{path}: {named}" in result.output
        assert run_dir_state(searched) == before

    def test_library_stage1_container_searches_like_the_clis(self, runner, searched):
        """search takes N from the container's sample_count, which the
        library's saver writes: its container selects what the CLI's does."""
        spec, s1, split, priors, _ = load_stage1(searched / "stage1_v001.bin")
        save_stage1(searched / "stage1_v002.bin", spec, s1, split, priors)
        result = runner.invoke(main, ["search", "--config", str(TOY), "--out", str(searched)])
        assert result.exit_code == 0, result.output
        for stem, ext in (("selection", ".json"), ("proxy_grid", ".csv")):
            cli_file, library_file = (searched / f"{stem}_v{v}{ext}" for v in ("001", "002"))
            assert cli_file.read_bytes() == library_file.read_bytes(), stem

    @pytest.mark.parametrize("sample_count, named", [
        (None, "no sample_count in the container's metadata"),
        (0, "sample_count must be an int >= 1, got 0"),
        ("x", 'sample_count must be an int >= 1, got "x"'),
        (True, "sample_count must be an int >= 1, got true"),
        (1.5, "sample_count must be an int >= 1, got 1.5"),
    ])
    def test_stage1_container_without_a_sample_count_writes_nothing(self, runner, searched,
                                                                   sample_count, named):
        meta, arrays = load_container(searched / "stage1_v001.bin")
        meta.pop("sample_count")
        if sample_count is not None:
            meta["sample_count"] = sample_count
        path = searched / "stage1_v002.bin"
        save_container(path, meta, arrays)
        before = run_dir_state(searched)
        result = runner.invoke(main, ["search", "--config", str(TOY), "--out", str(searched)])
        assert result.exit_code == 5, result.output
        assert "error[data]" in result.output and f"{path}: {named}" in result.output
        assert run_dir_state(searched) == before

    def test_grids_default_to_the_select_section(self, runner, tmp_path):
        """Without --grid-c/--grid-w, oracle and sweep take select.* like
        search and full-run do."""
        config = tmp_path / "select.json"
        config.write_text(json.dumps({"out": str(tmp_path / "run"),
                                      "select": {"c_values": [0, 2], "w_values": [0.3]},
                                      "oracle": {"resamples": 2, "train_size": 100, "eval_points": 50}}))
        for command in ("oracle", "sweep"):
            result = runner.invoke(main, [command, "--config", str(config)])
            assert result.exit_code == 0, (command, result.output)
        summary = json.loads((tmp_path / "run" / "oracle_summary_v001.json").read_text())
        assert (summary["study"]["c_values"], summary["study"]["w_values"]) == ([0, 2], [0.3])
        with (tmp_path / "run" / "sweep_v001.csv").open(newline="") as fh:
            assert [row["w_A"] for row in csv.DictReader(fh)] == ["0.3"]


def toy_copy(tmp_path, name, **sections):
    """A copy of the toy config with the given sections replaced."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(json.loads(TOY.read_text()), **sections)))
    return path


def invoke(runner, run_dir, *args, config=TOY):
    return runner.invoke(main, list(args) + ["--config", str(config), "--out", str(run_dir)])


def trunk(tmp_path, widths):
    """A copy of the toy config whose model has these trunk widths."""
    return toy_copy(tmp_path, "trunk", model={"trunk_widths": widths, "activation": "tanh"})


def stage1_of_depth(runner, tmp_path, widths):
    """A run directory holding a toy dataset and a stage-1 container of
    these trunk widths."""
    run_dir = tmp_path / "run"
    assert invoke(runner, run_dir, "gen-data").exit_code == 0
    assert invoke(runner, run_dir, "stage1", config=trunk(tmp_path, widths)).exit_code == 0
    return run_dir


class TestCommandsUseTheirContainersModel:
    """A command that reads a container takes the model it holds, not the
    config's: depths are checked against it, a dataset must fit it, and
    assemble's two containers must share one layout. Each refusal exits 2
    naming the files, with the run directory unchanged."""

    @pytest.mark.parametrize("widths, flags, c_values", [
        ([8], [], [0, 1]),
        ([8, 8, 8], ["--grid-c", "3"], [3]),
    ])
    def test_search_grid_follows_its_stage1_container(self, runner, tmp_path, widths, flags, c_values):
        run_dir = stage1_of_depth(runner, tmp_path, widths)
        result = invoke(runner, run_dir, "search", *flags)
        assert result.exit_code == 0, result.output
        assert json.loads((run_dir / "selection_v001.json").read_text())["c_values"] == c_values

    def test_search_depth_beyond_its_stage1_container_writes_nothing(self, runner, tmp_path):
        run_dir = stage1_of_depth(runner, tmp_path, [8])
        before = run_dir_state(run_dir)
        result = invoke(runner, run_dir, "search", "--grid-c", "0,2")
        assert result.exit_code == 2, result.output
        assert "--grid-c: shared depth 2 out of range 0..1" in result.output
        assert run_dir_state(run_dir) == before

    @pytest.mark.parametrize("command", ["refine", "eval"])
    @pytest.mark.parametrize("generator, fit", [({"input_dim": 3}, "6 classes of dimension 3"),
                                                ({"n_classes": 5}, "5 classes of dimension 4")])
    def test_dataset_that_does_not_fit_the_model_writes_nothing(self, runner, tmp_path, searched,
                                                                command, generator, fit):
        for step in ("stage2", "assemble"):
            assert invoke(runner, searched, step).exit_code == 0
        toy_generator = json.loads(TOY.read_text())["generator"]
        other = toy_copy(tmp_path, "other", generator=dict(toy_generator, **generator))
        assert invoke(runner, tmp_path / "other", "gen-data", config=other).exit_code == 0
        data = tmp_path / "other" / "dataset_v001.csv"
        before = run_dir_state(searched)
        result = invoke(runner, searched, command, "--data", str(data))
        assert result.exit_code == 2, result.output
        model = searched / "model_v001.bin"
        assert f"{data} does not fit the model in {model}: {fit}, not 6 of 4" in result.output
        assert run_dir_state(searched) == before

    @pytest.mark.parametrize("model", [{"trunk_widths": [8, 6], "activation": "tanh"},
                                       {"trunk_widths": [8, 8], "activation": "relu"}])
    def test_assemble_of_two_models_writes_nothing(self, runner, tmp_path, searched, model):
        """The stage-2 net must be the stage-1 container's model: its
        layout and its activation."""
        other = toy_copy(tmp_path, "other", model=model)
        assert invoke(runner, searched, "stage2", "--c-star", "2", config=other).exit_code == 0
        before = run_dir_state(searched)
        result = invoke(runner, searched, "assemble")
        assert result.exit_code == 2, result.output
        stage1, stage2 = searched / "stage1_v001.bin", searched / "stage2_v001.bin"
        assert f"{stage2} and {stage1} hold different models" in result.output
        assert f"activation={model['activation']!r}" in result.output
        assert run_dir_state(searched) == before


class TestModelContainer:
    """eval and refine read the latest model container: its depth must be
    an int and its split must fit the heads, and one written with a priors
    array, as every model container once was, still loads with the priors
    ignored."""

    @pytest.mark.parametrize("command", ["eval", "refine"])
    @pytest.mark.parametrize("c", [True, 1.0, "1", None])
    def test_depth_that_is_not_an_int_writes_nothing(self, runner, assembled, command, c):
        meta, arrays = load_container(assembled / "model_v001.bin")
        path = assembled / "model_v002.bin"
        save_container(path, {k: v for k, v in meta.items() if k != "arrays"} | {"c": c}, arrays)
        before = run_dir_state(assembled)
        result = invoke(runner, assembled, command)
        assert result.exit_code == 5, result.output
        assert f"{path}: c must be an int, got {json.dumps(c)}" in result.output
        assert run_dir_state(assembled) == before

    def test_split_that_does_not_fit_the_heads_writes_nothing(self, runner, assembled):
        """Eight classes in groups of 4 and 4 against heads of 3 and 3."""
        meta, arrays = load_container(assembled / "model_v001.bin")
        path = assembled / "model_v002.bin"
        split = {"head_classes": [0, 1, 2, 3], "tail_classes": [4, 5, 6, 7]}
        save_container(path, {k: v for k, v in meta.items() if k != "arrays"} | {"split": split}, arrays)
        before = run_dir_state(assembled)
        result = invoke(runner, assembled, "eval")
        assert result.exit_code == 5, result.output
        assert f"{path}: inconsistent artifact" in result.output and "head widths (3, 3)" in result.output
        assert run_dir_state(assembled) == before

    def test_trailing_bytes_exit_5_writing_nothing(self, runner, assembled):
        path = assembled / "model_v001.bin"
        path.write_bytes(path.read_bytes() + bytes(8))
        before = run_dir_state(assembled)
        result = invoke(runner, assembled, "eval")
        assert result.exit_code == 5, result.output
        assert f"error[data]: {path}: trailing bytes after declared arrays" in result.output
        assert run_dir_state(assembled) == before

    def test_an_array_declared_twice_exits_5_writing_nothing(self, runner, assembled):
        meta, arrays = load_container(assembled / "model_v001.bin")
        meta["arrays"].append({"name": "branch_a", "length": int(arrays["branch_a"].size)})
        blob = json.dumps(meta).encode()
        path = assembled / "model_v002.bin"
        path.write_bytes(b"TSCONT01" + struct.pack("<IQ", 1, len(blob)) + blob
                         + b"".join(arrays[name].tobytes() for name in ("branch_a", "branch_b", "branch_a")))
        before = run_dir_state(assembled)
        result = invoke(runner, assembled, "eval")
        assert result.exit_code == 5, result.output
        assert f"error[data]: {path}: array 'branch_a' is declared twice" in result.output
        assert run_dir_state(assembled) == before

    def test_branches_that_differ_inside_the_encoder_exit_5_writing_nothing(self, runner, assembled):
        meta, arrays = load_container(assembled / "model_v001.bin")
        meta = {k: v for k, v in meta.items() if k != "arrays"} | {"c": max(meta["c"], 1)}
        branch_b = arrays["branch_b"].copy()
        branch_b[0] = arrays["branch_a"][0] + 1.0
        path = assembled / "model_v002.bin"
        save_container(path, meta, dict(arrays, branch_b=branch_b))
        before = run_dir_state(assembled)
        result = invoke(runner, assembled, "eval")
        assert result.exit_code == 5, result.output
        assert (f"error[data]: {path}: inconsistent artifact (StructuralError: branches must share the "
                "encoder slice bit-exactly)") in result.output
        assert run_dir_state(assembled) == before

    def test_container_with_priors_evaluates_as_without(self, runner, assembled):
        meta, arrays = load_container(assembled / "model_v001.bin")
        assert sorted(arrays) == ["branch_a", "branch_b"]
        priors = np.full(sum(meta["spec"]["head_dims"]), 1.0 / sum(meta["spec"]["head_dims"]))
        assert invoke(runner, assembled, "eval").exit_code == 0
        save_container(assembled / "model_v002.bin", {k: v for k, v in meta.items() if k != "arrays"},
                       dict(arrays, priors=priors))
        result = invoke(runner, assembled, "eval")
        assert result.exit_code == 0, result.output
        assert (assembled / "metrics_v001.csv").read_bytes() == (assembled / "metrics_v002.csv").read_bytes()


def _split_of_eight(meta, arrays):
    meta["split"] = {"head_classes": [0, 1, 2, 3], "tail_classes": [4, 5, 6, 7]}


def _cut_fisher_a(meta, arrays):
    arrays["fisher_a"] = arrays["fisher_a"][:-3]


def _nan_in_fisher_b(meta, arrays):
    arrays["fisher_b"][0] = np.nan


def _inf_in_fisher_a(meta, arrays):
    arrays["fisher_a"][5] = np.inf


class TestDamagedStage1Container:
    """search and assemble read the latest stage-1 container: a split that
    does not fit its heads (3 + 3 on the toy model), or a Fisher that does
    not hold one finite entry per parameter (166), exits 5 naming the file,
    with nothing written."""

    @pytest.mark.parametrize("command", ["search", "assemble"])
    @pytest.mark.parametrize("damage, named", [
        (_split_of_eight, "inconsistent artifact (StructuralError: the split's group sizes must be "
                          "the head widths (3, 3))"),
        (_cut_fisher_a, "fisher_a holds 163 entries, not one per parameter (166)"),
        (_nan_in_fisher_b, "fisher_b has a non-finite entry"),
        (_inf_in_fisher_a, "fisher_a has a non-finite entry"),
    ], ids=["split", "short-fisher", "nan-fisher", "inf-fisher"])
    def test_writes_nothing(self, runner, searched, command, damage, named):
        assert invoke(runner, searched, "stage2").exit_code == 0
        meta, arrays = load_container(searched / "stage1_v001.bin")
        arrays = {name: array.copy() for name, array in arrays.items()}
        damage(meta, arrays)
        path = searched / "stage1_v002.bin"
        save_container(path, meta, arrays)
        before = run_dir_state(searched)
        result = invoke(runner, searched, command)
        assert result.exit_code == 5, result.output
        assert f"error[data]: {path}: {named}" in result.output
        assert run_dir_state(searched) == before


def test_refine_moves_only_the_decoders(runner, tmp_path, searched):
    """A model of shared depth 1 refined for 3 epochs: each branch keeps
    the encoder slice and the other task's head bit for bit, and its
    decoder moves."""
    toy = json.loads(TOY.read_text())
    config = toy_copy(tmp_path, "refine3", refine=dict(toy["refine"], epochs=3))
    for args in (["stage2", "--c-star", "1"], ["assemble"], ["refine"]):
        result = invoke(runner, searched, *args, config=config)
        assert result.exit_code == 0, (args, result.output)
    (start, _), (out, meta) = (load_model(searched / f"model_v00{v}.bin") for v in (1, 2))
    assert meta["refined"] is True and out.c == start.c == 1
    d = start.spec.encoder_params(start.c)
    for got, was, other in ((out.branch_a, start.branch_a, "head_b"), (out.branch_b, start.branch_b, "head_a")):
        assert got.values[:d].tobytes() == was.values[:d].tobytes(), "the encoder moved"
        assert got.block(other).tobytes() == was.block(other).tobytes(), f"{other} moved"
        assert got.values.tobytes() != was.values.tobytes(), "the decoder did not move"


class TestRerunFromTheSnapshot:
    """An override flag writes through the config snapshot: the command
    run again from its snapshot, in a fresh run directory, writes the same
    bytes."""

    def test_search_with_grid_flags(self, runner, tmp_path):
        run_dir, fresh = tmp_path / "run", tmp_path / "fresh"
        for args in (["gen-data"], ["stage1"], ["search", "--grid-c", "1", "--grid-w", "0.3"]):
            assert invoke(runner, run_dir, *args).exit_code == 0, args
        snapshot = json.loads((run_dir / "config_v003.json").read_text())
        assert snapshot["select"] == {"c_values": [1], "w_values": [0.3]}
        fresh.mkdir()
        (fresh / "stage1_v001.bin").write_bytes((run_dir / "stage1_v001.bin").read_bytes())
        result = invoke(runner, fresh, "search", config=run_dir / "config_v003.json")
        assert result.exit_code == 0, result.output
        assert "C*=1 w_A*=0.3" in result.output
        for name in ("selection_v001.json", "proxy_grid_v001.csv"):
            assert (fresh / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_full_run_without_refinement(self, runner, tmp_path):
        toy = json.loads(TOY.read_text())
        config = toy_copy(tmp_path, "refining", refine=dict(toy["refine"], epochs=3))
        run_dir, fresh = tmp_path / "run", tmp_path / "fresh"
        result = invoke(runner, run_dir, "full-run", "--no-refine", config=config)
        assert result.exit_code == 0, result.output
        assert json.loads((run_dir / "config_v001.json").read_text())["refine"]["epochs"] == 0
        result = invoke(runner, fresh, "full-run", config=run_dir / "config_v001.json")
        assert result.exit_code == 0, result.output
        assert "refined=False" in result.output
        assert load_model(fresh / "model_v001.bin")[1]["refined"] is False
        first, again = run_dir_state(run_dir), run_dir_state(fresh)
        assert sorted(first) == sorted(again)
        for name in first:
            if name.startswith("config_"):  # the snapshots differ in `out` alone
                first[name], again[name] = (dict(json.loads(d[name]), out=None) for d in (first, again))
            assert first[name] == again[name], name


def test_every_config_key_has_a_field_and_a_default_of_its_type():
    from tailshare import cli

    def walk(defaults, fields, prefix=""):
        assert set(defaults) == set(fields), prefix
        for key, value in defaults.items():
            if isinstance(fields[key], dict):
                walk(value, fields[key], f"{prefix}{key}.")
            else:
                assert fields[key].test(value), f"{prefix}{key}"

    walk(cli._DEFAULTS, cli._FIELDS)


def test_toy_config_file_is_the_cli_defaults():
    """configs/toy.json, which the README and CI run, is the CLI's defaults."""
    assert json.loads(TOY.read_text()) == toy_config_dict()


def test_reference_config_file_is_the_reference_instance():
    """configs/reference.json, which the acceptance criteria describe, is
    the reference instance of `tailshare.presets` (the stage seeds aside)."""
    from dataclasses import asdict

    from tailshare import presets

    def unseeded(settings):
        return {key: value for key, value in asdict(settings).items() if key != "seed"}

    ref = json.loads((TOY.parent / "reference.json").read_text())
    gen, run = presets.reference_generator_config(), presets.reference_run_config()
    assert (ref["seed"], ref["generator"]) == (gen.seed, unseeded(gen))
    assert ref["generator"]["input_dim"] == run.spec.input_dim
    assert ref["model"] == {"trunk_widths": list(run.spec.trunk_widths), "activation": run.spec.activation}
    for section, opt in (("stage1", run.stage1_opt), ("stage2", run.stage2_opt), ("refine", run.refine_opt)):
        assert ref[section] == unseeded(opt), section
    assert ref["tau"] == run.tau
    assert ref["eval_per_class"] == presets.REFERENCE_EVAL_PER_CLASS
    assert ref["oracle"] == {"resamples": presets.REFERENCE_M_RESAMPLES,
                             "train_size": presets.REFERENCE_N_TRAIN,
                             "eval_points": presets.REFERENCE_EVAL_POINTS}


@pytest.mark.parametrize("name", ["toy.json", "reference.json"])
def test_both_stages_train_on_one_batch_order(tmp_path, name):
    """The reference preset, and the run the CLI resolves from each shipped
    config, give Stage 1 and Stage 2 one optimizer, seed included: an
    oracle resample then trains both stages in one stack."""
    from tailshare import presets

    run = presets.reference_run_config()
    assert run.stage1_opt == run.stage2_opt
    flags, reads = _RESOLVED["oracle"]
    inputs = cli._resolve(str(TOY.parent / name), {**flags, "--out": str(tmp_path / "run"), "--jobs": 1},
                          **reads)
    assert inputs.run.stage1_opt == inputs.run.stage2_opt


# Each command's options as its --help lists them: the name with the type,
# and the default it shows, if any.
COMMON_OPTIONS = [("--config PATH", None), ("--out TEXT", None), ("--seed INTEGER", None)]
STUDY_OPTIONS = [("--resamples INTEGER", None), ("--train-size INTEGER", None),
                 ("--jobs INTEGER", "1"), ("--tau FLOAT", None)]
OPTIONS = {
    "gen-data": COMMON_OPTIONS,
    "stage1": COMMON_OPTIONS + [("--data PATH", None), ("--tau FLOAT", None)],
    "search": COMMON_OPTIONS + [("--grid-c TEXT", None), ("--grid-w TEXT", None)],
    "stage2": COMMON_OPTIONS + [("--data PATH", None), ("--tau FLOAT", None), ("--c-star INTEGER", None),
                                ("--w-star FLOAT", None)],
    "assemble": COMMON_OPTIONS,
    "refine": COMMON_OPTIONS + [("--data PATH", None), ("--tau FLOAT", None)],
    "eval": COMMON_OPTIONS + [("--data PATH", None)],
    "full-run": COMMON_OPTIONS + [("--data PATH", None), ("--tau FLOAT", None), ("--no-refine", None)],
    "verify-lemma": [("--trials INTEGER", "1000"), ("--seed INTEGER", "1"), ("--max-y INTEGER", "4"),
                     ("--max-outcomes INTEGER", "4")],
    "oracle": COMMON_OPTIONS + [("--grid-c TEXT", None), ("--grid-w TEXT", None)] + STUDY_OPTIONS,
    "sweep": COMMON_OPTIONS + [("--c INTEGER", None), ("--grid-w TEXT", None)] + STUDY_OPTIONS,
}


class TestFlagTable:
    """Each flag is one `_FLAGS` row, which every command that takes it
    registers the same way."""

    def test_each_command_lists_its_options_names_types_and_defaults(self):
        assert sorted(main.commands) == sorted(OPTIONS)
        for name, command in main.commands.items():
            ctx = click.Context(command, info_name=name)
            listed = []
            for param in command.get_params(ctx):
                if param.name == "help":
                    continue
                column, text = param.get_help_record(ctx)
                default = re.search(r"\[default: ([^]]*)\]", text)
                listed.append((column, default and default.group(1)))
            assert listed == OPTIONS[name], name

    def test_every_command_renders_its_help(self, runner):
        """`<command> --help` exits 0 for each of the 11 commands and lists
        every option of the command."""
        assert len(OPTIONS) == 11
        for name, options in OPTIONS.items():
            result = runner.invoke(main, [name, "--help"])
            assert result.exit_code == 0, (name, result.output)
            for column, _ in options:
                assert column in result.output, (name, column)

    def test_every_keyed_flag_names_a_config_key(self):
        from tailshare import cli

        for flag, entry in cli._FLAGS.items():
            if entry.key is not None:
                fields = cli._FIELDS
                for part in entry.key.split("."):
                    fields = fields[part]
                assert isinstance(fields, cli._Field), flag

    # A value of each flag that sets no config key.
    KEYLESS = {"--data": "elsewhere.csv", "--c-star": 1, "--w-star": 0.5, "--c": 1, "--jobs": 3}

    def test_a_flag_without_a_key_leaves_the_config_unchanged(self):
        from tailshare import cli

        assert {flag for flag, entry in cli._FLAGS.items() if entry.key is None} == set(self.KEYLESS)
        for flag, value in self.KEYLESS.items():
            assert cli._merged(TOY, {flag: value}) == cli._merged(TOY, {}), flag

    def test_stage2_flags_leave_the_config_snapshot_unchanged(self, runner, searched):
        data = searched / "dataset_v001.csv"
        assert invoke(runner, searched, "stage2").exit_code == 0
        result = invoke(runner, searched, "stage2", "--data", str(data), "--c-star", "1", "--w-star", "0.5")
        assert result.exit_code == 0, result.output
        assert (searched / "config_v004.json").read_bytes() == (searched / "config_v005.json").read_bytes()


class TestNonFiniteParameters:
    """A container whose parameters are not all finite (the stage-1
    container, which search and assemble read; the stage-2 one, which
    assemble reads; the model, which eval and refine read) exits 5 naming
    the file and the array, with nothing written."""

    @pytest.mark.parametrize("stem, name, value, command", [
        ("stage1", "params_a", np.nan, "search"),
        ("stage1", "params_a", np.nan, "assemble"),
        ("stage1", "params_b", np.inf, "search"),
        ("stage2", "params", np.nan, "assemble"),
        ("model", "branch_a", np.nan, "eval"),
        ("model", "branch_b", -np.inf, "refine"),
    ])
    def test_writes_nothing(self, runner, searched, stem, name, value, command):
        assert invoke(runner, searched, "stage2", "--c-star", "1").exit_code == 0
        assert invoke(runner, searched, "assemble").exit_code == 0
        meta, arrays = load_container(searched / f"{stem}_v001.bin")
        arrays = {key: array.copy() for key, array in arrays.items()}
        arrays[name][0] = value
        path = searched / f"{stem}_v002.bin"
        save_container(path, meta, arrays)
        before = run_dir_state(searched)
        result = invoke(runner, searched, command)
        assert result.exit_code == 5, result.output
        assert f"error[data]: {path}: {name} has a non-finite entry" in result.output
        assert run_dir_state(searched) == before


def tree_state(root):
    """Every path under root, with the bytes of each file."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


class TestPathInputs:
    """A path that names nothing, or a file of the wrong kind, exits with
    its code and a message that names it, with nothing written."""

    @pytest.mark.parametrize("command", ["stage1", "full-run"])
    def test_missing_dataset_exits_3(self, runner, tmp_path, command):
        missing = tmp_path / "missing.csv"
        result = invoke(runner, tmp_path / "run", command, "--data", str(missing))
        assert result.exit_code == 3, result.output
        assert f"error[missing-artifact]: dataset not found: {missing}" in result.output
        assert tree_state(tmp_path) == {}

    @pytest.mark.parametrize("command", ["stage1", "full-run"])
    def test_empty_dataset_path_exits_2(self, runner, tmp_path, command):
        """An empty --data is refused, not read as the latest dataset."""
        assert invoke(runner, tmp_path / "run", "gen-data").exit_code == 0
        before = tree_state(tmp_path)
        result = invoke(runner, tmp_path / "run", command, "--data", "")
        assert result.exit_code == 2, result.output
        assert "error[config]: --data: the path is empty" in result.output
        assert tree_state(tmp_path) == before

    @pytest.mark.parametrize("text, code, named", [
        ("0.1,0.2,0\n0.3,0.4,1\n0.5,0.6,0.7,1\n", 5, "data.csv: line 3: expected 3 fields, found 4"),
        ("0.1,0.2,0\n0.3,0.4,0\n", 2, "error[config]: model: need at least 2 classes to split"),
    ], ids=["ragged-row", "one-class"])
    def test_dataset_it_cannot_train_on_writes_nothing(self, runner, tmp_path, text, code, named):
        data = tmp_path / "data.csv"
        data.write_text(text)
        result = invoke(runner, tmp_path / "run", "stage1", "--data", str(data))
        assert result.exit_code == code, result.output
        assert named in result.output
        assert tree_state(tmp_path) == {"data.csv": text.encode()}

    @pytest.mark.parametrize("command", ["stage1", "eval"])
    def test_dataset_that_is_a_directory_exits_5(self, runner, tmp_path, command):
        (tmp_path / "data.csv").mkdir()
        result = invoke(runner, tmp_path / "run", command, "--data", str(tmp_path / "data.csv"))
        assert result.exit_code == 5, result.output
        assert f"error[data]: {tmp_path / 'data.csv'}: unreadable dataset (IsADirectoryError" in result.output
        assert tree_state(tmp_path) == {"data.csv": None}

    def test_sidecar_that_is_a_directory_exits_5(self, runner, tmp_path):
        assert invoke(runner, tmp_path / "data", "gen-data").exit_code == 0
        sidecar = tmp_path / "data" / "dataset_v001.generator.json"
        sidecar.unlink()
        sidecar.mkdir()
        data = sidecar.parent / "dataset_v001.csv"
        before = tree_state(tmp_path)
        result = invoke(runner, tmp_path / "run", "stage1", "--data", str(data))
        assert result.exit_code == 5, result.output
        assert f"error[data]: {sidecar}: unreadable generator sidecar (IsADirectoryError" in result.output
        assert tree_state(tmp_path) == before

    def test_config_that_is_a_directory_exits_2(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.mkdir()
        result = invoke(runner, tmp_path / "run", "gen-data", config=config)
        assert result.exit_code == 2, result.output
        assert f"error[config]: {config}: unreadable config (IsADirectoryError" in result.output
        assert tree_state(tmp_path) == {"config.json": None}

    @pytest.mark.parametrize("command, stem", [("search", "stage1"), ("assemble", "stage1"),
                                               ("assemble", "stage2"), ("refine", "model"), ("eval", "model")])
    def test_container_that_is_a_directory_exits_5(self, runner, assembled, command, stem):
        path = assembled / f"{stem}_v009.bin"
        path.mkdir()
        before = tree_state(assembled)
        result = invoke(runner, assembled, command)
        assert result.exit_code == 5, result.output
        assert f"error[data]: {path}: unreadable container (IsADirectoryError" in result.output
        assert tree_state(assembled) == before

    def test_selection_that_is_a_directory_exits_5(self, runner, searched):
        (searched / "selection_v002.json").mkdir()
        before = tree_state(searched)
        result = invoke(runner, searched, "stage2")
        assert result.exit_code == 5, result.output
        assert f"error[data]: {searched / 'selection_v002.json'}: unreadable selection (IsADirectoryError" \
            in result.output
        assert tree_state(searched) == before

    @pytest.mark.parametrize("command", ["gen-data", "full-run", "oracle"])
    @pytest.mark.parametrize("by_flag", [True, False], ids=["flag", "key"])
    @pytest.mark.parametrize("below", ["", "run"], ids=["file", "below-file"])
    def test_out_that_is_not_a_directory_exits_2(self, runner, tmp_path, command, by_flag, below):
        held = tmp_path / "held"
        held.write_text("not a directory")
        out = held / below if below else held
        if by_flag:
            result = invoke(runner, out, command)
        else:
            config = toy_copy(tmp_path, "out", out=str(out))
            result = runner.invoke(main, [command, "--config", str(config)])
        assert result.exit_code == 2, result.output
        assert f"error[config]: {'--out' if by_flag else 'out'}: {held} is not a directory" in result.output
        assert held.read_text() == "not a directory"
        assert sorted(tree_state(tmp_path)) == (["held"] if by_flag else ["held", "out.json"])


@pytest.fixture(scope="module")
def searched_template(tmp_path_factory):
    """A toy run directory through gen-data, stage1 and search, for tests
    that copy it once per example."""
    run_dir = tmp_path_factory.mktemp("template") / "run"
    for command in ("gen-data", "stage1", "search"):
        assert invoke(CliRunner(), run_dir, command).exit_code == 0, command
    return run_dir


# Each outside JSON document a command reads: the command, the file (None:
# the --config file), its refusal's exit code, and a valid document (None:
# the toy run's own sidecar).
_DOCUMENTS = {
    "config": ("gen-data", None, 2, TOY.read_text()),
    "selection": ("stage2", "selection_v001.json", 5, '{"c_star": 1, "w_star": 0.5}'),
    "sidecar": ("stage1", "dataset_v001.generator.json", 5, None),
}
_NON_OBJECTS = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
                            lambda inner: st.lists(inner, max_size=3), max_leaves=6)


@settings(max_examples=45, derandomize=True, deadline=None)
@given(role=st.sampled_from(sorted(_DOCUMENTS)),
       text=st.text(max_size=40) | _NON_OBJECTS.map(json.dumps) | st.floats(0.0, 1.0))
@example(role="config", text=DEEP)
@example(role="selection", text=DEEP)
@example(role="sidecar", text=DEEP)
@example(role="config", text='{"a": ' * 50_000)
@example(role="selection", text='{"a": ' * 50_000)
@example(role="sidecar", text='{"a": ' * 50_000)
@example(role="config", text=1.0)
@example(role="selection", text=1.0)
@example(role="sidecar", text=1.0)
@example(role="sidecar", text=0.5)
def test_no_outside_json_document_ends_in_exit_1(searched_template, role, text):
    """Arbitrary text, non-objects, truncated valid documents and deep
    nesting, each as the config file, the latest selection file and a
    dataset's sidecar: a document a command can use exits 0, any other its
    refusal's code, naming the file, with the run directory unchanged. A
    drawn float f stands for the role's valid document cut to its first f
    share of characters."""
    command, name, refused, valid = _DOCUMENTS[role]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        run_dir = tmp / "run"
        if name is None:
            path = tmp / "config.json"
        else:
            shutil.copytree(searched_template, run_dir)
            path = run_dir / name
            valid = path.read_text() if valid is None else valid
        if isinstance(text, float):
            text = valid[:round(text * len(valid))]
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        before = tree_state(tmp)
        result = invoke(CliRunner(), run_dir, command, config=path if name is None else TOY)
        try:
            usable = json.loads(text) == json.loads(valid)
        except (ValueError, RecursionError):
            usable = False
        assert result.exit_code == (0 if usable else refused), (role, text[:80], result.output)
        if not usable:
            assert str(path) in result.output
            assert tree_state(tmp) == before


def _leaf_keys(fields, prefix=()):
    for key, field in fields.items():
        if isinstance(field, dict):
            yield from _leaf_keys(field, prefix + (key,))
        else:
            yield prefix + (key,)


# The flags each command passes `_resolve` when only --config and --out are
# given, and the command's own `_resolve` keywords.
_RESOLVED = {
    "oracle": (dict.fromkeys(("--seed", "--grid-c", "--grid-w", "--resamples", "--train-size", "--tau")),
               {"study": "oracle"}),
    "sweep": (dict.fromkeys(("--seed", "--c", "--grid-w", "--resamples", "--train-size", "--tau")),
              {"study": "sweep"}),
    "full-run": (dict.fromkeys(("--seed", "--data", "--tau", "--no-refine")), {}),
}
# Wrong JSON types, null, non-finite numbers, values below each key's
# minimum and huge sizes.
_MUTATIONS = (st.sampled_from([None, "x", True, [], {}, [1, "x"], [-1], [1.5], 0.5,
                               float("nan"), float("inf"), float("-inf"), 10**12, [10**12]])
              | st.integers(-3, 1) | st.floats(-2.0, 0.0))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(command=st.sampled_from(sorted(_RESOLVED)), key=st.sampled_from(sorted(_leaf_keys(cli._FIELDS))),
       value=_MUTATIONS)
@example(command="oracle", key=("oracle", "resamples"), value=0)
@example(command="sweep", key=("oracle", "train_size"), value=-1)
@example(command="oracle", key=("generator", "n_classes"), value=1)
@example(command="full-run", key=("generator", "n_classes"), value=10**12)
@example(command="sweep", key=("generator", "input_dim"), value=10**12)
@example(command="oracle", key=("model", "trunk_widths"), value=[10**12])
def test_one_mutated_config_key_is_resolved_or_refused_by_name(command, key, value):
    """The toy config with one leaf key set to a wrong type, null, a
    non-finite number, a value below its minimum or a huge size: resolving
    the inputs of oracle, sweep or full-run (no training) either succeeds
    or exits 2 naming the key (dotted, or its section and leaf), with
    nothing written; never exit 1."""
    flags, reads = _RESOLVED[command]
    config = json.loads(TOY.read_text())
    node = config
    for part in key[:-1]:
        node = node[part]
    node[key[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "config.json"
        path.write_text(json.dumps(config))
        before = tree_state(tmp)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                cli._guarded(cli._resolve)(str(path), {**flags, "--out": str(tmp / "run"), "--jobs": 1},
                                           **reads)
            code = 0
        except SystemExit as exc:
            code = exc.code
        message = err.getvalue()
        assert code in (0, 2), (command, key, value, message)
        if code == 2:
            assert ".".join(key) in message or all(part in message for part in key), (key, message)
            assert tree_state(tmp) == before
