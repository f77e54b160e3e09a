"""Experiment reports: line-delimited trial records plus aggregates.

Per-trial records are canonical JSON (sorted keys, compact separators),
one per line, so a repeated run with the same configuration and seed
produces byte-identical record files.  Aggregates are always
recomputable from the records; ``recompute_aggregates`` is the reference
implementation the tests check reports against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REPORT_FORMAT_VERSION = 1


def canonical_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for a binomial fraction of n >= 1 trials."""
    p = successes / n
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    rad = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, centre - rad), min(1.0, centre + rad))


def mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation of one or more values (ddof=1; 0 for one)."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return (mean, 0.0)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return (mean, math.sqrt(var))


def recompute_aggregates(records: list[dict]) -> dict:
    """Aggregate statistics implied by a record list.

    Records carrying ``success`` contribute to the success fraction and
    its confidence interval; ``steps`` and ``failure_reason`` fields are
    summarised when present; ``viable`` fields aggregate the same way as
    ``success``.
    """
    aggregates: dict = {"trials": len(records)}
    flag_key = None
    for key in ("success", "viable"):
        if records and key in records[0]:
            flag_key = key
            break
    if flag_key is not None:
        wins = sum(1 for r in records if r[flag_key])
        lo, hi = wilson_interval(wins, len(records))
        aggregates[f"{flag_key}_count"] = wins
        aggregates[f"{flag_key}_fraction"] = wins / len(records)
        aggregates["ci95"] = [lo, hi]
    if records and "steps" in records[0]:
        mean, std = mean_std([float(r["steps"]) for r in records])
        aggregates["steps_mean"] = mean
        aggregates["steps_std"] = std
    reasons: dict[str, int] = {}
    for r in records:
        reason = r.get("failure_reason")
        if reason and reason != "none":
            reasons[reason] = reasons.get(reason, 0) + 1
    if reasons:
        aggregates["failure_reasons"] = dict(sorted(reasons.items()))
    return aggregates


@dataclass
class ExperimentReport:
    experiment: str
    records: list[dict]
    config: dict
    wall_clock_s: float
    aggregates: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.aggregates:
            self.aggregates = recompute_aggregates(self.records)

    def records_text(self) -> str:
        return "".join(canonical_json(r) + "\n" for r in self.records)

    def summary_lines(self) -> list[str]:
        lines = [f"experiment: {self.experiment}"]
        for key, value in self.aggregates.items():
            if isinstance(value, float):
                lines.append(f"  {key}: {value:.4f}")
            else:
                lines.append(f"  {key}: {value}")
        lines.append(f"  wall_clock_s: {self.wall_clock_s:.2f}")
        return lines

    def write(self, output_dir: str | Path) -> tuple[Path, Path]:
        """Write the trial records, the report, and a plain-text summary.

        Produces <name>_trials.jsonl, <name>_report.json, and
        <name>_summary.txt; returns the first two paths.
        """
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        trials_path = out / f"{self.experiment}_trials.jsonl"
        trials_path.write_text(self.records_text())
        report_path = out / f"{self.experiment}_report.json"
        report_path.write_text(
            json.dumps(
                {
                    "format_version": REPORT_FORMAT_VERSION,
                    "experiment": self.experiment,
                    "aggregates": self.aggregates,
                    "config": self.config,
                    "wall_clock_s": self.wall_clock_s,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )
        summary_path = out / f"{self.experiment}_summary.txt"
        summary_path.write_text("\n".join(self.summary_lines()) + "\n")
        return trials_path, report_path
