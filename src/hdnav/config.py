"""Experiment configuration: a flat dataclass, a flat key=value file format.

Every setting with a second value in use lives here, so a report can echo
the full configuration and a run can be reproduced from (config, seed)
alone; a value that never changes is a constant of the module that reads it.
CLI flags override file values; the seed has no default on purpose (no
silent entropy: experiment commands must be given one explicitly).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .hdc import DEFAULT_THETA, check_theta


@dataclass
class ExperimentConfig:
    d: int = 1000
    theta: float = DEFAULT_THETA  # the noise floor of every recovery
    mission_goals: str = "k,t,h"    # comma-separated object labels
    mission_trials: int = 50
    grid_only_trials: int = 100
    viability_mazes: int = 500
    door_removal_trials: int = 50
    workers: int = 1
    seed: int | None = None
    output_dir: str = "out"

    def validate(self) -> None:
        check_theta(self.theta)
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        for name in (
            "mission_trials",
            "grid_only_trials",
            "viability_mazes",
            "door_removal_trials",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.goal_sequence():
            raise ValueError("mission_goals must name at least one object")

    def goal_sequence(self) -> list[str]:
        return [g.strip() for g in self.mission_goals.split(",") if g.strip()]

    def validate_for_models(self) -> None:
        """Stricter check for model training and experiments.

        Missions need mission-ready maps: about 1.2 % of candidates at d =
        1000 but 0.1 % at d = 512, where ``experiments.VIABLE_ATTEMPT_CAP``
        would abort about one trial in seven.  Similarity statistics run at
        any d.
        """
        self.validate()
        if self.d < 1000:
            raise ValueError(f"model building requires d >= 1000, got d={self.d}")

    def require_seed(self) -> int:
        if self.seed is None:
            raise ValueError("no seed configured: pass --seed (no silent entropy)")
        return self.seed

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @property
    def models_dir(self) -> Path:
        return Path(self.output_dir) / "models"


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(name: str, raw: str):
    if name not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {name!r}")
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "int | None":
        return None if raw.lower() == "none" else int(raw)
    return raw


def load_config(path: str | Path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Read ``key = value`` lines ('#' comments, blank lines ignored)."""
    config = base or ExperimentConfig()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        name, raw = (part.strip() for part in stripped.split("=", 1))
        setattr(config, name, _parse_value(name, raw))
    return config


def apply_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Set non-None override values (CLI flags beat file values)."""
    for name, value in overrides.items():
        if value is not None:
            setattr(config, name, _parse_value(name, str(value)))
    return config
