"""Experiment configuration: a flat dataclass, set field by field from ``key=value`` text.

Every setting with a second value in use lives here, so a report can echo
the full configuration and a run can be reproduced from (config, seed)
alone; a value that never changes is a constant of the module that reads it,
as the noise floor of every recovery is ``hdc.THETA``.  ``parse_value`` types
a field's value from its text, the one parser behind every CLI setting; the
seed has no default on purpose (no silent entropy: experiment commands must
be given one explicitly).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from . import hdc
from .maze import OBJECT_LABELS


@dataclass
class ExperimentConfig:
    d: int = 1000
    mission_goals: str = "k,t,h"    # comma-separated object labels
    mission_trials: int = 50
    grid_only_trials: int = 100
    viability_mazes: int = 500
    door_removal_trials: int = 50
    workers: int = 1
    seed: int | None = None
    output_dir: str = "out"
    theta = hdc.THETA  # not a field: read by the benchmark's viability oracle

    def validate(self) -> None:
        for field in dataclasses.fields(self):  # d, the four trial counts and workers
            value = getattr(self, field.name)
            if field.type == "int" and value < 1:
                raise ValueError(f"{field.name} must be >= 1, got {value}")
        goals = self.goal_sequence()
        if not goals:
            raise ValueError("mission_goals must name at least one object")
        for goal in goals:
            if goal not in OBJECT_LABELS:
                raise ValueError(f"unknown goal object {goal!r}, not one of {OBJECT_LABELS}")

    def goal_sequence(self) -> list[str]:
        return [g.strip() for g in self.mission_goals.split(",") if g.strip()]

    def validate_for_models(self) -> None:
        """Stricter check for model training and experiments.

        Missions need mission-ready maps: about 1.2 % of candidates at d =
        1000 but 0.1 % at d = 512, where ``experiments.VIABLE_ATTEMPT_CAP``
        would fail about one trial in seven as ``no_ready_maze``.
        Similarity statistics run at any d.
        """
        self.validate()
        if self.d < 1000:
            raise ValueError(f"model building requires d >= 1000, got d={self.d}")

    def require_seed(self) -> int:
        if self.seed is None:
            raise ValueError("no seed configured: pass --seed (no silent entropy)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        return self.seed

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @property
    def models_dir(self) -> Path:
        return Path(self.output_dir) / "models"


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def parse_value(name: str, raw: str):
    """Field ``name``'s value typed from its text; ``ValueError`` for an unknown key."""
    if name not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {name!r}")
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    if kind == "str":
        return raw
    if kind == "int | None" and raw.lower() == "none":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
