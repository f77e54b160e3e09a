"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary
line per criterion.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import dataclasses
import hashlib
import re
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import stream
from hdnav import cml, experiments, hdc, persist
from hdnav.cli import main
from hdnav.reports import wilson_interval

SEED = 42
README = Path(__file__).resolve().parents[1] / "README.md"


def announce(number: int, passed: bool, description: str, started: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} [{time.perf_counter() - started:6.2f}s] {description}")


@pytest.fixture(scope="module")
def mission_report(config, object_cml, grid_cml):
    return experiments.run_experiment(config, "mission", object_cml, grid_cml)


@pytest.fixture(scope="module")
def door_report(config, object_cml, grid_cml):
    return experiments.run_experiment(config, "door_removal", object_cml, grid_cml)


@pytest.fixture(scope="module")
def grid_only_report(config, object_cml, grid_cml):
    return experiments.run_experiment(config, "grid_only", object_cml, grid_cml)


@pytest.fixture(scope="module")
def viability_report(config, object_cml, grid_cml):
    return experiments.run_experiment(config, "viability", object_cml, grid_cml)


def test_criterion_01_similarity_statistics(config):
    started = time.perf_counter()
    report = experiments.run_hdc_stats(config)
    agg = report.aggregates
    ok = agg["pairs"] >= 1000 and abs(agg["mean"]) < 0.005 and 0.025 <= agg["std"] <= 0.04
    announce(1, ok, f"random-pair similarity mean={agg['mean']:.4f} std={agg['std']:.4f}", started)
    assert ok


def test_criterion_02_algebra_laws():
    started = time.perf_counter()
    d = 1000
    rng = stream(SEED)
    # bind self-inverse, exact
    for _ in range(5):
        x, y = hdc.random_bipolar(d, rng), hdc.random_bipolar(d, rng)
        assert np.array_equal(hdc.bind(x, hdc.bind(x, y)), y)
    # permutation preserves cosine, exact on bipolar vectors
    for k in (1, 7, 500):
        x, y = hdc.random_bipolar(d, rng), hdc.random_bipolar(d, rng)
        assert hdc.cosine(hdc.permute(x, k), hdc.permute(y, k)) == hdc.cosine(x, y)
    # three-way bundles stay similar to every component
    for _ in range(5):
        vs = [hdc.random_bipolar(d, rng) for _ in range(3)]
        q = hdc.bundle(np.stack(vs), rng)
        assert all(hdc.cosine(q, v) > 0.3 for v in vs)
    # unbinding a bundled key-value pair recovers the value in 100/100 seeded cases
    recovered = 0
    for case in range(100):
        case_rng = stream([SEED, case])
        w, x, y, z = (hdc.random_bipolar(d, case_rng) for _ in range(4))
        dictionary = hdc.Dictionary(("w", "x", "y", "z"), np.stack([w, x, y, z]))
        q = hdc.bundle(np.stack([hdc.bind(w, x), hdc.bind(y, z)]), case_rng)
        recovered += hdc.recover(hdc.bind(w, q), dictionary) == "x"
    ok = recovered == 100
    announce(2, ok, f"algebra laws hold; unbind cleanup {recovered}/100", started)
    assert ok


def test_criterion_03_object_path_optimality(object_cml):
    started = time.perf_counter()
    graph = object_cml.graph
    optimal = 0
    pairs = 0
    for start in range(graph.n):
        for goal in range(graph.n):
            if start == goal:
                continue
            pairs += 1
            path = cml.plan_path(object_cml, object_cml.S[:, goal], object_cml.S[:, start])
            oracle = graph.hops[start, goal]
            optimal += path is not None and len(path) - 1 == oracle
    ok = optimal == pairs == 56
    announce(3, ok, f"object-graph plans match BFS oracle on {optimal}/{pairs} ordered pairs", started)
    assert ok


def test_criterion_04_open_grid_optimality(grid_cml, open_grid_steps):
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    checked = 0
    optimal = 0
    while checked < 200:
        start = (int(rng.integers(0, 10)), int(rng.integers(0, 20)))
        goal = (int(rng.integers(0, 10)), int(rng.integers(0, 20)))
        if start == goal:
            continue
        checked += 1
        steps = open_grid_steps(grid_cml, start, goal)
        optimal += steps == abs(start[0] - goal[0]) + abs(start[1] - goal[1])
    ok = optimal == 200
    announce(4, ok, f"open-grid navigation Manhattan-optimal on {optimal}/200 pairs", started)
    assert ok


def test_criterion_05_reported_path_sets(object_cml):
    started = time.perf_counter()
    plan = lambda a, b: cml.plan_path(object_cml, object_cml.state(b), object_cml.state(a))
    leg1 = plan("h", "k")
    leg2 = plan("k", "t")
    leg3 = plan("t", "h")
    ok = (
        leg1 == ["h", "k"]
        and leg2 in (["k", "a", "e", "t"], ["k", "b", "d", "t"])
        and leg3 in (["t", "e", "a", "h"], ["t", "d", "b", "h"])
    )
    announce(5, ok, f"policy legs {leg1} / {leg2} / {leg3} match the quoted sets", started)
    assert ok


def test_criterion_06_mission_success(mission_report):
    started = time.perf_counter()
    agg = mission_report.aggregates
    ok = agg["trials"] == 50 and agg["success_count"] == 50
    paths_ok = True
    for record in mission_report.records:
        legs = {g["goal"]: tuple(g["object_path"]) for g in record["goals"]}
        paths_ok &= legs.get("k") == ("h", "k")
        paths_ok &= legs.get("t") in (("k", "a", "e", "t"), ("k", "b", "d", "t"))
        paths_ok &= legs.get("h") in (("t", "e", "a", "h"), ("t", "d", "b", "h"))
    ok = ok and paths_ok
    announce(6, ok, f"sequential missions {agg['success_count']}/50 on viable mazes", started)
    assert ok


def test_criterion_07_door_removal(door_report):
    started = time.perf_counter()
    agg = door_report.aggregates
    never_visited = not any(r["visited_removed_cell"] for r in door_report.records)
    ok = agg["trials"] == 50 and agg["success_count"] == 50 and never_visited
    announce(
        7, ok,
        f"door-removal missions {agg['success_count']}/50, removed cell untouched={never_visited}",
        started,
    )
    assert ok


def test_criterion_08_grid_only_baseline(grid_only_report):
    started = time.perf_counter()
    agg = grid_only_report.aggregates
    fraction = agg["success_fraction"]
    failures = [r for r in grid_only_report.records if not r["success"]]
    dithers = sum(1 for r in failures if r["failure_reason"] == "dither_abort")
    dither_share = dithers / len(failures) if failures else 1.0
    ok = agg["trials"] == 100 and 0.25 <= fraction <= 0.65 and dither_share >= 0.8
    announce(
        8, ok,
        f"grid-only baseline {fraction:.2f} success, {dither_share:.0%} of failures dither",
        started,
    )
    assert ok


def test_criterion_09_map_viability(viability_report, mission_report, door_report):
    started = time.perf_counter()
    agg = viability_report.aggregates
    fraction = agg["viable_fraction"]
    lo, hi = wilson_interval(agg["viable_count"], agg["trials"])
    in_band = 0.10 <= fraction <= 0.35
    if in_band:
        ok = agg["trials"] >= 500
        note = f"viable fraction {fraction:.3f} (CI [{lo:.3f}, {hi:.3f}]) within band"
    else:
        # reconstruction caveat: out-of-band passes when the mission and
        # door-removal criteria hold on viable mazes
        missions_ok = mission_report.aggregates["success_count"] == 50
        doors_ok = door_report.aggregates["success_count"] == 50
        ok = agg["trials"] >= 500 and missions_ok and doors_ok
        note = (
            f"viable fraction {fraction:.3f} (CI [{lo:.3f}, {hi:.3f}]) OUTSIDE "
            f"[0.10, 0.35]; flagged (generator/map reconstruction caveat), "
            f"accepted because missions {mission_report.aggregates['success_count']}/50 "
            f"and door removal {door_report.aggregates['success_count']}/50 hold"
        )
    announce(9, ok, note, started)
    assert ok


def test_criterion_10_exact_construction_fixed_point(object_cml):
    started = time.perf_counter()
    trained, err = cml.train_epoch(object_cml, 0.05)
    delta = max(
        float(np.abs(trained.S - object_cml.S).max()),
        float(np.abs(trained.A - object_cml.A).max()),
    )
    ok = err == 0.0 and delta <= 1e-12
    announce(10, ok, f"calculated model is a training fixed point (delta {delta:.1e})", started)
    assert ok


def test_criterion_11_determinism(config, object_cml, grid_cml):
    started = time.perf_counter()
    small = dataclasses.replace(config, mission_trials=5, viability_mazes=50)
    pairs = []
    for name in ("mission", "viability"):
        r1 = experiments.run_experiment(small, name, object_cml, grid_cml)
        r2 = experiments.run_experiment(small, name, object_cml, grid_cml)
        pairs.append(r1.records_text() == r2.records_text())
    ok = all(pairs)
    announce(11, ok, "repeat runs produce byte-identical per-trial records", started)
    assert ok


def test_behaviour_gate_digests(
    checks, mission_report, door_report, grid_only_report, viability_report
):
    # not a release criterion: the behaviour gate, the sha256 prefixes of the
    # default seed-42 batches' records (pinned in perfbench/checks.py), which
    # a refactor must leave unchanged
    reports = {
        "mission": mission_report,
        "door_removal": door_report,
        "grid_only": grid_only_report,
        "viability": viability_report,
    }
    pins = checks.PINS
    assert set(pins) == set(reports)
    for name, report in reports.items():
        pin, trials = pins[name]
        assert len(report.records) == trials
        assert hashlib.sha256(report.records_text().encode()).hexdigest()[:16] == pin, name


def test_readme_seed_42_figures(
    tmp_path, capsys, object_cml, grid_cml,
    mission_report, door_report, grid_only_report, viability_report,
):
    # not a release criterion: the README's seed-42 figures are what the code gives.
    # Its fenced ``hdnav verify`` block, line for line, on the saved seed-42 models ...
    text = README.read_text()
    block = re.search(r"```\n(object: verified.*?)```", text, re.DOTALL).group(1)
    out = tmp_path / "out"
    (out / "models").mkdir(parents=True)
    object_file = out / "models" / experiments.OBJECT_MODEL_FILE
    grid_file = out / "models" / experiments.GRID_MODEL_FILE
    persist.save_cml(object_cml, object_file)
    persist.save_grid_cml(grid_cml, grid_file)
    assert main(["verify", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == block.splitlines()
    # ... the Results table's outcomes, wins over trials, from the default batches ...
    table = dict(
        (name, (int(wins), int(trials)))
        for name, wins, trials in re.findall(r"^\| (\w+) +\| (\d+)/(\d+) +\|", text, re.M)
    )
    reports = {
        "mission": mission_report,
        "door_removal": door_report,
        "grid_only": grid_only_report,
        "viability": viability_report,
    }
    outcomes = {}
    for name, report in reports.items():
        agg = report.aggregates
        outcomes[name] = (agg.get("success_count", agg.get("viable_count")), agg["trials"])
    assert table == outcomes
    # ... and the model file sizes at d = 1000, the grid's blocks among them
    flat = " ".join(text.split())
    object_bytes = re.search(r"`init_calculated` drew: ([\d,]+) bytes at d = 1000", flat)
    grid_bytes = re.search(r"`a_e`: ([\d,]+) bytes \(([\d,]+) of blocks\) at d = 1000", flat)
    quoted = [int(figure.replace(",", "")) for figure in object_bytes.groups() + grid_bytes.groups()]
    blocks = sum(block.nbytes for block in (grid_cml.x, grid_cml.y, grid_cml.a_s, grid_cml.a_e))
    assert grid_cml.d == 1000
    assert quoted == [object_file.stat().st_size, grid_file.stat().st_size, blocks]
