import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import stream
from hdnav import cml, experiments, hdc, persist
from hdnav.cli import main
from hdnav.config import ExperimentConfig
from hdnav.grid import GridCml
from test_experiments import flip_state_bit, zero_grid_coordinate

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
    assert main(["hdc-stats", "--seed", "1", "--set", "d=4", "--out", str(out)]) == 0
    report = json.loads((out / "hdc_stats_report.json").read_text())
    assert report["aggregates"]["max_abs"] == 1.0  # tiny dimension degeneracy


def test_seed_is_mandatory(tmp_path, capsys):
    assert main(["hdc-stats", "--out", str(tmp_path)]) == 1
    assert "error[config]" in capsys.readouterr().err


def test_seed_is_typed_by_the_field_parser(tmp_path, capsys):
    assert main(["hdc-stats", "--seed", "abc", "--out", str(tmp_path / "out")]) == 1
    assert "error[config]: seed must be an integer, got 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_set_applies_after_seed(tmp_path):
    # --seed and --out are the first two settings, then each --set in order
    out = tmp_path / "out"
    code = main(["hdc-stats", "--seed", "1", "--out", str(out), "--set", "d=4",
                 "--set", "seed=2"])
    assert code == 0
    report = json.loads((out / "hdc_stats_report.json").read_text())
    assert report["config"]["seed"] == 2


def test_set_item_without_equals_sign_is_a_config_error(tmp_path, capsys):
    assert main(["hdc-stats", "--seed", "1", "--out", str(tmp_path), "--set", "d"]) == 1
    assert "error[config]: --set expects key=value, got 'd'" in capsys.readouterr().err


def test_train_object_model(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--seed", "42", "--out", str(out)]) == 0
    trained = capsys.readouterr().out.splitlines()
    # each model's line carries the proof facts verify prints, then its path and phase times
    assert main(["verify", "--out", str(out)]) == 0
    proved = capsys.readouterr().out.splitlines()[:2]
    paths = [out / "models" / name
             for name in (experiments.OBJECT_MODEL_FILE, experiments.GRID_MODEL_FILE)]
    phases = [f"{first} \\S+ ms, proof \\S+ ms, save \\S+ ms" for first in ("build", "training")]
    assert len(trained) == 2
    for line, proof, path, phase in zip(trained, proved, paths, phases):
        assert re.fullmatch(re.escape(f"{proof} -> {path} [") + phase + r"\]", line)
    # one seed writes both models, so a model directory never mixes seeds
    assert all(path.exists() for path in paths)


@pytest.mark.parametrize(
    "flags",
    [
        ["train", "--which", "grid"],
        ["train", "--d", "1000"],
        ["hdc-stats", "--d", "4"],
        ["run", "mission", "--config", "run.cfg"],
    ],
)
def test_removed_flags_are_rejected(tmp_path, capsys, flags):
    # one model set per seed; every field, the dimension too, is set with --set key=value
    with pytest.raises(SystemExit) as exit_info:
        main(flags + ["--seed", "42", "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_failed_grid_proof_keeps_the_previous_model_pair(tmp_path, monkeypatch, capsys):
    # both models are proved before either is written, so the pair never mixes seeds
    out = tmp_path / "out"
    assert main(["train", "--seed", "7", "--out", str(out)]) == 0
    paths = [out / "models" / name for name in (experiments.OBJECT_MODEL_FILE,
                                                 experiments.GRID_MODEL_FILE)]
    before = [path.read_bytes() for path in paths]

    def failing_proof(grid_cml):
        raise RuntimeError("grid model failed verification: injected")

    monkeypatch.setattr(experiments, "verify_grid_cml", failing_proof)
    capsys.readouterr()
    assert main(["train", "--seed", "42", "--out", str(out)]) == 1
    assert "error[verify]: grid model failed verification" in capsys.readouterr().err
    assert [path.read_bytes() for path in paths] == before


def test_train_without_seed_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--out", str(out)]) == 1
    assert "error[config]" in capsys.readouterr().err
    assert not (out / "models").exists()


def test_train_with_negative_seed_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--seed", "-1", "--out", str(out)]) == 1
    assert "error[config]: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_negative_seed_before_loading_models(models_dir, monkeypatch, capsys):
    def no_load(config):
        raise AssertionError("models loaded")

    monkeypatch.setattr(experiments, "load_models", no_load)
    assert main(["run", "mission", "--seed", "-1", "--out", str(models_dir)]) == 1
    assert "error[config]: seed must be >= 0, got -1" in capsys.readouterr().err


def test_train_refuses_small_dimension(tmp_path, capsys):
    assert main(["train", "--seed", "1", "--set", "d=64", "--out", str(tmp_path)]) == 1
    assert "d >= 1000" in capsys.readouterr().err


def test_run_requires_models(tmp_path, capsys):
    err = run_and_verify_refuse(tmp_path / "empty", capsys, "missing model file")
    assert "hdnav train" in err  # actionable: names the train command


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


def test_run_takes_several_batches_on_one_model_load(models_dir, monkeypatch, capsys):
    # each batch writes what it writes run alone; the summaries follow the order given
    sizes = ["--set", "grid_only_trials=4", "--set", "viability_mazes=6"]
    names = ["viability", "grid_only"]
    alone = {}
    for name in names:
        assert main(["run", name, "--seed", "42", "--out", str(models_dir), *sizes]) == 0
        alone[name] = capsys.readouterr().out
    files = {
        name: (
            (models_dir / f"{name}_trials.jsonl").read_bytes(),
            json.loads((models_dir / f"{name}_report.json").read_text()),
        )
        for name in names
    }
    for path in models_dir.glob("*_*.*"):
        path.unlink()
    loads = []

    def counted_load(config, load=experiments.load_models):
        loads.append(config)
        return load(config)

    monkeypatch.setattr(experiments, "load_models", counted_load)
    assert main(["run", *names, "--seed", "42", "--out", str(models_dir), *sizes]) == 0
    printed = capsys.readouterr().out
    assert len(loads) == 1
    wall = re.compile(r"wall_clock_s: \S+")
    assert wall.sub("", printed) == wall.sub("", alone["viability"] + alone["grid_only"])
    for name, (trials, report) in files.items():
        assert (models_dir / f"{name}_trials.jsonl").read_bytes() == trials
        again = json.loads((models_dir / f"{name}_report.json").read_text())
        del again["wall_clock_s"], report["wall_clock_s"]
        assert again == report


@pytest.mark.parametrize("names", [["bogus", "mission"], ["mission", "grid_only", "bogus"]])
def test_run_refuses_an_unknown_batch_before_loading_models(models_dir, monkeypatch, capsys, names):
    # argparse checks every name, wherever it stands, before anything loads or is written
    def no_load(config):
        raise AssertionError("models loaded")

    monkeypatch.setattr(experiments, "load_models", no_load)
    before = sorted(models_dir.rglob("*"))
    with pytest.raises(SystemExit) as exit_info:
        main(["run", *names, "--seed", "42", "--out", str(models_dir)])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert sorted(models_dir.rglob("*")) == before


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
    trace.write_text(json.dumps({"maze": "3 2\nH..\n...\n", "grid_path": [[99, 99]]}) + "\n")
    assert main(["render", "--trace", str(trace)]) == 1
    assert "error[trace]" in capsys.readouterr().err


def test_render_rejects_maze_shorter_than_its_header(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"maze": "3 2\nH..\n", "grid_path": [[0, 0]]}) + "\n")
    assert main(["render", "--trace", str(trace), "--style", "svg"]) == 1
    assert "error[trace]" in capsys.readouterr().err


def test_render_rejects_repeated_object(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"maze": "4 2\nHk..\n..k.\n", "grid_path": [[0, 0]]}) + "\n")
    assert main(["render", "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert "error[trace]" in err
    assert "'k' repeats" in err


SMALL_MAZE = "3 2\nH..\n...\n"
MALFORMED_RECORDS = {
    "dither_cell_not_a_pair": {"maze": SMALL_MAZE, "grid_path": [[0, 0]], "dither_cells": [5]},
    "goal_without_grid_path": {"maze": SMALL_MAZE, "goals": [{"goal": "k"}]},
    "maze_not_text": {"maze": 5, "grid_path": [[0, 0]]},
    "cell_a_string": {"maze": SMALL_MAZE, "grid_path": ["ab"]},
    "cell_a_float": {"maze": SMALL_MAZE, "grid_path": [[0.5, 1]]},
    "cell_a_bool": {"maze": SMALL_MAZE, "grid_path": [[True, 0]]},
    "cell_of_three_ints": {"maze": SMALL_MAZE, "grid_path": [[0, 1, 2]]},
    "path_not_a_list": {"maze": SMALL_MAZE, "grid_path": 7},
    "goals_not_a_list": {"maze": SMALL_MAZE, "goals": {"goal": "k"}},
    "goal_not_an_object": {"maze": SMALL_MAZE, "goals": [[[0, 0]]]},
    "no_maze": {"grid_path": [[0, 0]]},
    "record_not_an_object": [SMALL_MAZE, [[0, 0]]],
    "header_size_below_one": {"maze": "-1 2\nH..\n...\n", "grid_path": [[0, 0]]},
}


@pytest.mark.parametrize("record", MALFORMED_RECORDS.values(), ids=MALFORMED_RECORDS.keys())
def test_render_refuses_a_malformed_record_in_one_line(tmp_path, capsys, record):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps(record) + "\n")
    assert main(["render", "--trace", str(trace)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[trace]: ") and err.count("\n") == 1


def test_render_missing_trace(tmp_path, capsys):
    assert main(["render", "--trace", str(tmp_path / "nope.jsonl")]) == 1
    assert "error[trace]" in capsys.readouterr().err


def test_verify_model_files(models_dir, capsys):
    assert main(["verify", "--out", str(models_dir)]) == 0
    # both proofs run on the pair in one call; the lines are checked one by one below
    assert capsys.readouterr().out == (
        "object: verified (56 pairs, 14 tied, route margin 64/8448)\n"
        "grid: verified (39800 pairs)\n"
        "shape: 20x10 (width x height), d=1000\n"
        "action Gram: |a_s| 30.01, |a_e| 31.72, cos(a_s, a_e) -0.00549\n"
        "distance from the fixed point: x 1.13e-06, y 0.184\n"
        "sign patterns: 164 distinct of 200 cells\n"
        "sign margin: 1.53e-05 (no zero sign)\n"
    )


def test_verify_reports_tied_object_pairs(models_dir, capsys):
    assert main(["verify", "--out", str(models_dir)]) == 0
    # beside the ties, the exact lead of each pick over every open edge outside its tie
    # set: 64 units of the integer flow table's 8448, 1/132 of the unit flow
    assert capsys.readouterr().out.splitlines()[0] == (
        "object: verified (56 pairs, 14 tied, route margin 64/8448)"
    )


def test_verify_prints_the_grid_geometry(models_dir, grid_cml, capsys):
    assert main(["verify", "--out", str(models_dir)]) == 0
    _, verified, shape, gram, distance, patterns, margin = capsys.readouterr().out.splitlines()
    assert verified == "grid: verified (39800 pairs)"
    assert shape == "shape: 20x10 (width x height), d=1000"
    # the two action norms and their cosine: the Gram every move and plane score reads
    norms = re.fullmatch(r"action Gram: \|a_s\| (\S+), \|a_e\| (\S+), cos\(a_s, a_e\) (\S+)", gram)
    norm_s, norm_e, cos = map(float, norms.groups())
    assert norm_s == pytest.approx(np.linalg.norm(grid_cml.a_s), rel=1e-3)
    assert norm_e == pytest.approx(np.linalg.norm(grid_cml.a_e), rel=1e-3)
    assert cos == pytest.approx(hdc.cosine(grid_cml.a_s, grid_cml.a_e), rel=1e-2)
    gaps = re.fullmatch(r"distance from the fixed point: x (\S+), y (\S+)", distance)
    x_gap, y_gap = gaps.groups()
    # x stops within 1e-6 of r - 4.5; y up to 0.18 short of c - 9.5 (a mean-residual stop)
    assert float(x_gap) == pytest.approx(1.13e-6, rel=1e-2)
    assert float(y_gap) == pytest.approx(0.184, rel=1e-2)
    assert patterns == "sign patterns: 164 distinct of 200 cells"
    # how far the model is from load_models' refusal: its smallest |state coordinate|
    gap = re.fullmatch(r"sign margin: (\S+) \(no zero sign\)", margin).group(1)
    assert float(gap) == pytest.approx(np.abs(grid_cml.P).min(), rel=1e-2)
    assert float(gap) == pytest.approx(1.53e-5, rel=1e-2)


def test_verify_takes_no_model_path(models_dir, capsys):
    # verify reads the pair from --out, through the loader run uses
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", str(models_dir / "models" / experiments.OBJECT_MODEL_FILE)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_closed_stdout_exits_nonzero_without_traceback(tmp_path, monkeypatch):
    sink = open(tmp_path / "stdout", "w")

    class ClosedPipe(io.TextIOBase):
        """A stdout whose reader has gone: every write raises."""

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return sink.fileno()

    stderr = io.StringIO()
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(sys, "stderr", stderr)
    with sink:
        args = ["hdc-stats", "--seed", "1", "--set", "d=64", "--out", str(tmp_path / "stats")]
        assert main(args) == 1
        # stdout's descriptor now writes to the null device, so the flush at exit cannot raise
        assert os.path.samestat(os.fstat(sink.fileno()), os.stat(os.devnull))
    assert stderr.getvalue() == ""


@pytest.mark.parametrize(
    "argv",
    [
        lambda out, file: ["train", "--seed", "42", "--out", f"{file}/x"],
        lambda out, file: ["hdc-stats", "--seed", "1", "--set", "d=64", "--out", str(file)],
        lambda out, file: ["render", "--trace", str(file), "--output", f"{out}/missing/x.txt"],
        lambda out, file: ["run", "mission", "--seed", "42", "--out", str(out),
                           "--set", "mission_trials=1"],
    ],
    ids=["train", "hdc-stats", "render", "run"],
)
def test_failed_write_is_one_io_error_line(models_dir, capsys, argv):
    # train's models dir under a file, a file as hdc-stats' output dir, render into a
    # missing dir, run's records file taken by a dir
    trace = models_dir / "trace.jsonl"
    trace.write_text(json.dumps({"maze": "3 2\nH..\n...\n", "grid_path": [[0, 0]]}) + "\n")
    (models_dir / "mission_trials.jsonl").mkdir()
    assert main(argv(models_dir, trace)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[io]: ") and err.count("\n") == 1


def test_verify_rejects_garbage(models_dir, capsys):
    (models_dir / "models" / experiments.OBJECT_MODEL_FILE).write_bytes(b"garbage")
    run_and_verify_refuse(models_dir, capsys, "not a model file")


def test_verify_rejects_a_non_ascii_file_as_not_a_model_file(models_dir, capsys):
    (models_dir / "models" / experiments.OBJECT_MODEL_FILE).write_bytes(b"\xff\xfe\x00garbage")
    err = run_and_verify_refuse(models_dir, capsys, "not a model file")
    assert "codec" not in err


def test_verify_rejects_old_format(models_dir, capsys):
    old = models_dir / "models" / experiments.GRID_MODEL_FILE
    old.write_bytes(b"HDNAV-MODEL 1 grid\nd=1000\nwidth=20\nheight=10\n\n")
    err = run_and_verify_refuse(models_dir, capsys, "version 1")
    assert "hdnav train" in err


def test_run_refuses_format_3_grid_with_a_free_north_action(models_dir, grid_cml, capsys):
    # format 3 stored the (d, 4) action matrix, so its north column could be
    # anything; here it is +a_s, which such a file let a run load
    A4 = grid_cml.A4.copy()
    A4[:, 2] = grid_cml.a_s
    header = f"{persist.MAGIC} 3 grid\nd={grid_cml.d}\nwidth=20\nheight=10\n\n".encode("ascii")
    (models_dir / "models" / experiments.GRID_MODEL_FILE).write_bytes(
        header + grid_cml.x.tobytes() + grid_cml.y.tobytes() + A4.tobytes()
    )
    err = run_and_verify_refuse(models_dir, capsys, "version 3")
    assert "hdnav train" in err


def run_and_verify_refuse(out, capsys, mismatch: str, *flags: str) -> str:
    """``run`` and ``verify`` read the pair through one loader: each refuses it with the
    same ``error[models]`` line, prints nothing and writes nothing; returned: that line."""
    errors = []
    for verb in (["run", "mission", "--seed", "42"], ["verify"]):
        assert main([*verb, "--out", str(out), *flags]) == 1
        printed, err = capsys.readouterr()
        assert printed == ""
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error[models]: ") and errors[0].count("\n") == 1
    assert mismatch in errors[0]
    assert [path.name for path in out.glob("*")] in ([], ["models"])
    return errors[0]


def test_run_refuses_swapped_model_files(models_dir, capsys):
    models = models_dir / "models"
    object_path = models / experiments.OBJECT_MODEL_FILE
    grid_path = models / experiments.GRID_MODEL_FILE
    object_bytes = object_path.read_bytes()
    object_path.write_bytes(grid_path.read_bytes())
    grid_path.write_bytes(object_bytes)
    run_and_verify_refuse(models_dir, capsys, "model files have swapped kinds")


def test_verify_reports_a_failed_proof_of_a_pair_that_loads(models_dir, grid_cml, capsys):
    # east and west swapped: the pair passes every load check, and the grid proof fails
    mirrored = GridCml(x=grid_cml.x, y=-grid_cml.y, a_s=grid_cml.a_s, a_e=grid_cml.a_e)
    persist.save_grid_cml(mirrored, models_dir / "models" / experiments.GRID_MODEL_FILE)
    assert main(["verify", "--out", str(models_dir)]) == 1
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err.startswith("error[verify]: grid model failed verification: (0, 0)->")
    assert err.count("\n") == 1


def test_a_runtime_error_outside_a_proof_is_internal(models_dir, monkeypatch, capsys):
    def failing_batch(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(experiments, "run_experiment", failing_batch)
    assert main(["run", "viability", "--seed", "42", "--out", str(models_dir)]) == 1
    assert capsys.readouterr() == ("", "error[internal]: injected\n")


def test_python_m_hdnav_runs_the_cli_and_exits_with_its_code(tmp_path):
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

    def hdnav(*argv):
        return subprocess.run(
            [sys.executable, "-m", "hdnav", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    done = hdnav("--help")
    assert done.returncode == 0 and done.stdout.startswith("usage: hdnav")
    done = hdnav("run", "viability", "--out", str(tmp_path / "out"))
    assert done.returncode == 1 and done.stderr.startswith("error[config]: ")


def test_run_refuses_object_model_of_other_labels(models_dir, grid_cml, capsys):
    # a save refuses a model on another graph, so write such a file by hand: the signs
    # of a two-object graph are a quarter of the maze's eight columns
    graph = cml.CmlGraph.from_undirected(["h", "x"], [("h", "x")])
    other = cml.init_calculated(graph, grid_cml.d, stream(1))
    header = f"{MODEL_LINE} object\nd={grid_cml.d}\n\n".encode("ascii")
    (models_dir / "models" / experiments.OBJECT_MODEL_FILE).write_bytes(
        header + other.S.astype(np.int8).tobytes()
    )
    run_and_verify_refuse(models_dir, capsys, "model file truncated")


@pytest.mark.parametrize("bit", [0, 7], ids=["low_bit", "sign_bit"])
def test_run_refuses_an_object_model_with_a_flipped_bit(models_dir, capsys, bit):
    # entry 5 is +1 or -1 in int8; its low bit flipped makes it 0 or -2, and its sign
    # bit -127 or 127
    flip_state_bit(models_dir / "models" / experiments.OBJECT_MODEL_FILE, 5, bit)
    run_and_verify_refuse(models_dir, capsys, "object model states are not all +1 or -1")


def test_run_refuses_grid_model_of_other_size(models_dir, grid_cml, capsys):
    # a save refuses a grid of another shape, so write a 7x4 grid's blocks by hand
    header = f"{MODEL_LINE} grid\nd={grid_cml.d}\n\n".encode("ascii")
    blocks = (grid_cml.x[:4], grid_cml.y[:7], grid_cml.a_s, grid_cml.a_e)
    (models_dir / "models" / experiments.GRID_MODEL_FILE).write_bytes(
        header + b"".join(block.tobytes() for block in blocks)
    )
    run_and_verify_refuse(models_dir, capsys, "model file truncated")


def test_run_refuses_a_grid_model_with_a_zero_sign(models_dir, grid_cml, capsys):
    zeroed = zero_grid_coordinate(grid_cml, 7)
    persist.save_grid_cml(zeroed, models_dir / "models" / experiments.GRID_MODEL_FILE)
    run_and_verify_refuse(models_dir, capsys, "grid model sign patterns are not all +1 or -1")


def test_run_refuses_models_of_another_dimension_than_the_config(models_dir, capsys):
    # the trials run at the models' d, so a report echoing another d would misstate them
    run_and_verify_refuse(
        models_dir, capsys, "error[models]: models have d=1000, the config d=2000",
        "--set", "d=2000",
    )


@pytest.mark.parametrize(
    "setting,message",
    [
        ("d=0", "d must be >= 1, got 0"),
        ("d=500", "model building requires d >= 1000, got d=500"),
        ("mission_goals=z", "unknown goal object 'z'"),
    ],
    ids=["d_zero", "d_below_1000", "unknown_goal"],
)
def test_run_and_verify_refuse_a_bad_config_before_loading_models(
    models_dir, monkeypatch, capsys, setting, message
):
    # both verbs check the config in their one loader, before any model file is read
    def no_load(config):
        raise AssertionError("models loaded")

    monkeypatch.setattr(experiments, "load_models", no_load)
    for verb in (["run", "mission", "--seed", "42"], ["verify"]):
        assert main([*verb, "--out", str(models_dir), "--set", setting]) == 1
        printed, err = capsys.readouterr()
        assert printed == ""
        assert err.startswith("error[config]: ") and err.count("\n") == 1
        assert message in err


def test_run_refuses_models_of_different_dimensions(models_dir, grid_cml, capsys):
    d = grid_cml.d + 8
    wider = GridCml(
        x=grid_cml.x, y=grid_cml.y, a_s=np.resize(grid_cml.a_s, d), a_e=np.resize(grid_cml.a_e, d)
    )
    persist.save_grid_cml(wider, models_dir / "models" / experiments.GRID_MODEL_FILE)
    run_and_verify_refuse(models_dir, capsys, f"object model d=1000 differs from grid model d={d}")


def test_run_refuses_a_directory_in_place_of_a_model_file(models_dir, capsys):
    grid_model = models_dir / "models" / experiments.GRID_MODEL_FILE
    grid_model.unlink()
    grid_model.mkdir()
    run_and_verify_refuse(models_dir, capsys, "Is a directory")


def test_verify_rejects_missing_header_field(models_dir, capsys):
    headless = models_dir / "models" / experiments.GRID_MODEL_FILE
    headless.write_bytes(f"{MODEL_LINE} grid\n\n".encode("ascii"))
    run_and_verify_refuse(models_dir, capsys, "grid model header lacks the field 'd'")


def test_verify_names_the_header_field_of_a_number_that_is_not_an_integer(models_dir, capsys):
    grid_model = models_dir / "models" / experiments.GRID_MODEL_FILE
    grid_model.write_bytes(grid_model.read_bytes().replace(b"d=1000", b"d=1e3", 1))
    run_and_verify_refuse(models_dir, capsys, "model header field 'd' must be an integer, got '1e3'")


def test_verify_rejects_oversized_header(models_dir, capsys):
    huge = models_dir / "models" / experiments.GRID_MODEL_FILE
    header = f"{MODEL_LINE} grid\nd=1000000000000\n\n".encode("ascii")
    huge.write_bytes(header + bytes(141 - len(header)))
    run_and_verify_refuse(models_dir, capsys, "truncated")


def test_verify_rejects_zero_width_grid(models_dir, capsys):
    # the blocks of a 0x10 grid: the maze's 20 columns are missing from the file
    empty = models_dir / "models" / experiments.GRID_MODEL_FILE
    header = f"{MODEL_LINE} grid\nd=4\n\n".encode("ascii")
    empty.write_bytes(header + np.zeros(10).tobytes() + np.zeros(8).tobytes())
    run_and_verify_refuse(models_dir, capsys, "truncated")


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


def test_run_refuses_unknown_goal_label_before_loading_models(tmp_path, capsys):
    # a config error, not missing models: nothing is loaded, nothing written
    out = tmp_path / "empty"
    code = main(
        ["run", "mission", "--seed", "42", "--out", str(out), "--set", "mission_goals=k,z"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error[config]: unknown goal object 'z'" in err
    assert not out.exists()


def test_run_viability_refuses_unknown_goal_label(models_dir, capsys):
    # viability reads no goal, yet its report would echo the bad setting
    code = main(
        ["run", "viability", "--seed", "42", "--out", str(models_dir),
         "--set", "mission_goals=z", "--set", "viability_mazes=3"]
    )
    assert code == 1
    assert "error[config]: unknown goal object 'z'" in capsys.readouterr().err
    assert not (models_dir / "viability_report.json").exists()


@pytest.mark.parametrize(
    "key",
    [
        "bogus", "grid_step_cap", "object_hop_cap", "mission_cell_cap", "phi_g", "phi_o",
        "theta_o", "theta",
    ],
)
def test_run_rejects_removed_thresholds(models_dir, capsys, key):
    # every decision is one recovery at the constant noise floor hdc.THETA; the
    # arrival and policy thresholds and the step caps are gone, and no setting
    # moves the floor
    code = main(
        ["run", "mission", "--seed", "42", "--out", str(models_dir),
         "--set", "mission_trials=1", "--set", f"{key}=0.5"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"error[config]: unknown config key {key!r}" in err
    assert not (models_dir / "mission_trials.jsonl").exists()


@pytest.mark.parametrize(
    "setting,message",
    [("d=0", "d must be >= 1, got 0"), ("nope=1", "unknown config key 'nope'")],
    ids=["d_zero", "unknown_key"],
)
@pytest.mark.parametrize(
    "verb",
    [["hdc-stats", "--seed", "1"], ["train", "--seed", "42"], ["run", "mission", "--seed", "42"],
     ["verify"]],
    ids=["hdc-stats", "train", "run", "verify"],
)
def test_every_verb_maps_a_bad_setting_to_one_config_line(tmp_path, capsys, verb, setting,
                                                          message):
    # main classifies a ValueError once, whichever verb raised it
    assert main([*verb, "--out", str(tmp_path / "out"), "--set", setting]) == 1
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err.startswith("error[config]: ") and err.count("\n") == 1
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_full_train_and_save_round(tmp_path):
    cfg = ExperimentConfig(seed=42, output_dir=str(tmp_path / "full"))
    info = experiments.train_and_save(cfg)
    assert info["object"]["pairs_checked"] == 56
    assert info["grid"]["pairs_checked"] == 39800
    # every phase is timed, in print order, the object model's proof apart from its
    # build, and the times reach no model file
    assert list(info["object"]["phases"]) == ["build", "proof", "save"]
    assert list(info["grid"]["phases"]) == ["training", "proof", "save"]
    assert min(t for kind in ("object", "grid") for t in info[kind]["phases"].values()) > 0
    again = ExperimentConfig(seed=42, output_dir=str(tmp_path / "again"))
    experiments.train_and_save(again)
    for name in (experiments.OBJECT_MODEL_FILE, experiments.GRID_MODEL_FILE):
        assert (cfg.models_dir / name).read_bytes() == (again.models_dir / name).read_bytes()
    object_cml, grid_cml = experiments.load_models(cfg)
    assert object_cml.graph.n == 8
    assert grid_cml.P.shape == (1000, 200)
