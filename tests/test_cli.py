import json

import numpy as np
import pytest

from hdnav import experiments, persist
from hdnav.cli import main
from hdnav.config import ExperimentConfig

MODEL_LINE = f"{persist.MAGIC} {persist.FORMAT_VERSION}"


@pytest.fixture()
def models_dir(tmp_path, object_cml, grid_cml):
    """Persist the session models where the CLI expects them."""
    out = tmp_path / "out"
    (out / "models").mkdir(parents=True)
    persist.save_cml(object_cml, out / "models" / experiments.OBJECT_MODEL_FILE)
    persist.save_grid_cml(grid_cml, out / "models" / experiments.GRID_MODEL_FILE)
    return out


def test_hdc_stats_command(tmp_path, capsys):
    out = tmp_path / "stats"
    assert main(["hdc-stats", "--seed", "1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "hdc_stats" in printed
    report = json.loads((out / "hdc_stats_report.json").read_text())
    assert abs(report["aggregates"]["mean"]) < 0.01
    assert 0.025 < report["aggregates"]["std"] < 0.04


def test_hdc_stats_small_dimension_allowed(tmp_path):
    out = tmp_path / "stats4"
    assert main(["hdc-stats", "--seed", "1", "--d", "4", "--out", str(out)]) == 0
    report = json.loads((out / "hdc_stats_report.json").read_text())
    assert report["aggregates"]["max_abs"] == 1.0  # tiny dimension degeneracy


def test_hdc_stats_rejects_one_pair(tmp_path, capsys):
    out = tmp_path / "stats1"
    assert main(["hdc-stats", "--seed", "1", "--out", str(out), "--set", "hdc_pairs=1"]) == 1
    assert "error[config]" in capsys.readouterr().err
    assert not (out / "hdc_stats_report.json").exists()


def test_seed_is_mandatory(tmp_path, capsys):
    assert main(["hdc-stats", "--out", str(tmp_path)]) == 1
    assert "error[config]" in capsys.readouterr().err


def test_train_object_model(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--seed", "42", "--which", "object", "--out", str(out)]) == 0
    assert "verified" in capsys.readouterr().out
    assert (out / "models" / experiments.OBJECT_MODEL_FILE).exists()


def test_train_refuses_small_dimension(tmp_path, capsys):
    assert main(["train", "--seed", "1", "--d", "64", "--out", str(tmp_path)]) == 1
    assert "d >= 512" in capsys.readouterr().err


def test_run_requires_models(tmp_path, capsys):
    code = main(["run", "mission", "--seed", "42", "--out", str(tmp_path / "empty")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error[models]" in err
    assert "train" in err  # actionable: names the train command


def test_run_mission_small_batch(models_dir, capsys):
    code = main(
        ["run", "mission", "--seed", "42", "--out", str(models_dir),
         "--set", "mission_trials=3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "success_count: 3" in out
    trials = (models_dir / "mission_trials.jsonl").read_text().splitlines()
    assert len(trials) == 3
    assert all(json.loads(line)["success"] for line in trials)


def test_run_viability_batch(models_dir):
    code = main(
        ["run", "viability", "--seed", "42", "--out", str(models_dir),
         "--set", "viability_mazes=40"]
    )
    assert code == 0
    report = json.loads((models_dir / "viability_report.json").read_text())
    assert report["aggregates"]["trials"] == 40
    assert "ci95" in report["aggregates"]


def test_render_text_and_svg(models_dir, tmp_path, capsys):
    main(["run", "grid_only", "--seed", "42", "--out", str(models_dir),
          "--set", "grid_only_trials=8"])
    capsys.readouterr()
    trace = models_dir / "grid_only_trials.jsonl"
    assert main(["render", "--trace", str(trace), "--trial", "0"]) == 0
    art = capsys.readouterr().out
    assert art.splitlines()[0] == "20 10"
    svg_file = tmp_path / "trial.svg"
    assert main(
        ["render", "--trace", str(trace), "--style", "svg", "--output", str(svg_file)]
    ) == 0
    assert svg_file.read_text().startswith("<svg ")


def test_render_bad_trial_index(models_dir, capsys):
    main(["run", "grid_only", "--seed", "42", "--out", str(models_dir),
          "--set", "grid_only_trials=2"])
    capsys.readouterr()
    trace = models_dir / "grid_only_trials.jsonl"
    assert main(["render", "--trace", str(trace), "--trial", "99"]) == 1
    assert "error[trace]" in capsys.readouterr().err


def test_render_rejects_cell_off_the_maze(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"maze": "3 2\nr..\n...\n", "grid_path": [[99, 99]]}) + "\n")
    assert main(["render", "--trace", str(trace)]) == 1
    assert "error[trace]" in capsys.readouterr().err


def test_render_missing_trace(tmp_path, capsys):
    assert main(["render", "--trace", str(tmp_path / "nope.jsonl")]) == 1
    assert "error[trace]" in capsys.readouterr().err


def test_verify_model_files(models_dir, capsys):
    object_model = models_dir / "models" / experiments.OBJECT_MODEL_FILE
    grid_model = models_dir / "models" / experiments.GRID_MODEL_FILE
    assert main(["verify", str(object_model)]) == 0
    assert main(["verify", str(grid_model)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("verified") == 2


def test_verify_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.hdm"
    bad.write_bytes(b"garbage")
    assert main(["verify", str(bad)]) == 1
    assert "error[models]" in capsys.readouterr().err


def test_verify_rejects_old_format(tmp_path, capsys):
    old = tmp_path / "old.hdm"
    old.write_bytes(b"HDNAV-MODEL 1 grid\nd=1000\nwidth=20\nheight=10\n\n")
    assert main(["verify", str(old)]) == 1
    err = capsys.readouterr().err
    assert "error[models]" in err
    assert "hdnav train" in err


def test_verify_rejects_missing_header_field(tmp_path, capsys):
    headless = tmp_path / "no_d.hdm"
    headless.write_bytes(f"{MODEL_LINE} grid\nwidth=20\nheight=10\n\n".encode("ascii"))
    assert main(["verify", str(headless)]) == 1
    err = capsys.readouterr().err
    assert "error[models]" in err
    assert "'d'" in err


def test_verify_rejects_oversized_header(tmp_path, capsys):
    huge = tmp_path / "huge.hdm"
    header = f"{MODEL_LINE} grid\nd=1000000000000\nwidth=2\nheight=1\n\n".encode("ascii")
    huge.write_bytes(header + bytes(141 - len(header)))
    assert main(["verify", str(huge)]) == 1
    err = capsys.readouterr().err
    assert "error[models]" in err
    assert "truncated" in err


def test_verify_rejects_zero_width_grid(tmp_path, capsys):
    empty = tmp_path / "empty.hdm"
    header = f"{MODEL_LINE} grid\nd=4\nwidth=0\nheight=10\n\n".encode("ascii")
    empty.write_bytes(header + np.zeros(10).tobytes() + np.eye(4).tobytes())
    assert main(["verify", str(empty)]) == 1
    err = capsys.readouterr().err
    assert "error[models]" in err
    assert "two cells" in err


def test_run_mission_custom_goals(models_dir, capsys):
    code = main(
        ["run", "mission", "--seed", "42", "--out", str(models_dir),
         "--set", "mission_trials=2", "--set", "mission_goals=k,h"]
    )
    assert code == 0
    assert "success_count: 2" in capsys.readouterr().out


def test_run_mission_bad_goal_label(models_dir, capsys):
    code = main(
        ["run", "mission", "--seed", "42", "--out", str(models_dir),
         "--set", "mission_trials=1", "--set", "mission_goals=z"]
    )
    assert code == 1
    assert "error[config]" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_run_rejects_nonpositive_attempt_cap(models_dir, capsys, cap):
    code = main(
        ["run", "mission", "--seed", "42", "--out", str(models_dir),
         "--set", "mission_trials=1", "--set", f"viable_attempt_cap={cap}"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert "viable_attempt_cap" in err


@pytest.mark.parametrize("key", ["phi_o", "theta_o"])
def test_run_rejects_removed_thresholds(models_dir, capsys, key):
    # every decision is one recovery at the noise floor theta; the arrival and
    # policy thresholds are gone
    code = main(
        ["run", "mission", "--seed", "42", "--out", str(models_dir),
         "--set", "mission_trials=1", "--set", f"{key}=0.5"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert key in err


def test_config_file_drives_run(models_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mission_trials = 2\noutput_dir = {models_dir}\n")
    code = main(["run", "mission", "--seed", "42", "--config", str(cfg)])
    assert code == 0
    assert "success_count: 2" in capsys.readouterr().out


def test_full_train_and_save_round(tmp_path):
    cfg = ExperimentConfig(seed=42, output_dir=str(tmp_path / "full"))
    info = experiments.train_and_save(cfg, which="both")
    assert info["object"]["pairs_checked"] == 56
    assert info["grid"]["pairs_checked"] == 39800
    object_cml, grid_cml = experiments.load_models(cfg)
    assert object_cml.graph.n == 8
    assert grid_cml.P.shape == (1000, 200)
