import csv
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from tailshare.cli import main
from tailshare.presets import toy_config_dict
from tailshare.store import save_container


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(tmp_path, **overrides):
    cfg = toy_config_dict(out_dir=str(tmp_path / "run"))
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestVerifyLemma:
    def test_passes_on_random_instances(self, runner):
        result = runner.invoke(main, ["verify-lemma", "--trials", "300", "--seed", "1"])
        assert result.exit_code == 0
        assert "PASS" in result.output
        assert "max |residual|" in result.output


class TestGenData:
    def test_writes_dataset_sidecar_and_snapshot(self, runner, tmp_path):
        config, cfg = write_config(tmp_path)
        result = runner.invoke(main, ["gen-data", "--config", str(config)])
        assert result.exit_code == 0, result.output
        run_dir = tmp_path / "run"
        assert (run_dir / "dataset_v001.csv").exists()
        assert (run_dir / "dataset_v001.generator.json").exists()
        assert (run_dir / "config_v001.json").exists()


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


class TestErrorPaths:
    def test_missing_artifact_exit_code(self, runner, tmp_path):
        config, _ = write_config(tmp_path)
        result = runner.invoke(main, ["eval", "--config", str(config)])
        assert result.exit_code == 3

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
