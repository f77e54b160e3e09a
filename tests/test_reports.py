import json
import math

import pytest

from hdnav.reports import (
    ExperimentReport,
    canonical_json,
    mean_std,
    recompute_aggregates,
    wilson_interval,
)


def test_wilson_interval_basic():
    lo, hi = wilson_interval(43, 100)
    assert lo < 0.43 < hi
    assert 0.3 < lo < 0.4
    assert 0.5 < hi < 0.55


def test_wilson_interval_extremes():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi < 0.15
    lo, hi = wilson_interval(50, 50)
    assert lo > 0.85 and hi == 1.0


def test_mean_std_matches_reference():
    values = [1.0, 2.0, 3.0, 4.0]
    mean, std = mean_std(values)
    assert mean == pytest.approx(2.5)
    assert std == pytest.approx(math.sqrt(5.0 / 3.0))
    assert mean_std([5.0]) == (5.0, 0.0)


def test_aggregates_from_success_records():
    records = [
        {"trial": 0, "success": True, "steps": 10, "failure_reason": "none"},
        {"trial": 1, "success": False, "steps": 20, "failure_reason": "dither_abort"},
        {"trial": 2, "success": True, "steps": 30, "failure_reason": "none"},
    ]
    agg = recompute_aggregates(records)
    assert agg["trials"] == 3
    assert agg["success_count"] == 2
    assert agg["success_fraction"] == pytest.approx(2 / 3)
    assert agg["steps_mean"] == pytest.approx(20.0)
    assert agg["failure_reasons"] == {"dither_abort": 1}


def test_aggregates_from_viability_records():
    records = [{"trial": i, "viable": i % 5 == 0} for i in range(100)]
    agg = recompute_aggregates(records)
    assert agg["viable_count"] == 20
    assert agg["viable_fraction"] == pytest.approx(0.2)


def test_report_aggregates_match_recomputation():
    records = [{"trial": i, "success": i % 3 != 0, "steps": i} for i in range(30)]
    report = ExperimentReport(
        experiment="demo", records=records, config={"seed": 1}, wall_clock_s=0.5
    )
    recomputed = recompute_aggregates(records)
    for key, value in report.aggregates.items():
        if isinstance(value, float):
            assert value == pytest.approx(recomputed[key], rel=1e-12)
        else:
            assert value == recomputed[key]


def test_canonical_json_is_stable():
    record = {"b": 2, "a": [1, 2], "c": {"y": 1, "x": 0}}
    assert canonical_json(record) == '{"a":[1,2],"b":2,"c":{"x":0,"y":1}}'


def test_canonical_json_writes_the_bytes_of_json_dumps(
    mission_report, door_report, viability_report
):
    # the module's one encoder is the one json.dumps builds per call for these arguments
    for report in (mission_report, door_report, viability_report):
        for record in report.records:
            expected = json.dumps(record, sort_keys=True, separators=(",", ":"))
            assert canonical_json(record) == expected


def test_report_files_written(tmp_path):
    records = [{"trial": 0, "success": True, "steps": 4, "failure_reason": "none"}]
    report = ExperimentReport(
        experiment="demo", records=records, config={"seed": 1}, wall_clock_s=0.1
    )
    trials_path, report_path = report.write(tmp_path)
    lines = trials_path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["trial"] == 0
    body = json.loads(report_path.read_text())
    assert body["format_version"] == 1
    assert body["experiment"] == "demo"
    assert body["config"] == {"seed": 1}
    assert body["aggregates"]["success_count"] == 1
    summary = (tmp_path / "demo_summary.txt").read_text()
    assert summary.startswith("experiment: demo")
    assert "success_count: 1" in summary
