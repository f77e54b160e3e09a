"""Output checks that do not trust the program: digest pins and record geometry.

The pins are sha256 prefixes of ``records_text()`` of the first
default-count records of each batch at seed 42 with the default
configuration.  They hold only at that seed.  The other checks hold at
every seed: mission records are re-read with a maze parser of their own,
which confirms that every reported path is a legal walk that ends where
the record says, and viability verdicts are recomputed by a vectorised
oracle.
"""

from __future__ import annotations

import hashlib

import numpy as np

PINNED_SEED = 42

# batch name -> (digest prefix, default trial count)
PINS = {
    "mission": ("e1b4b9ba058479ee", 50),
    "door_removal": ("fcd747bc0271f996", 50),
    "grid_only": ("eff4c94190db32c2", 100),
    "viability": ("d7a8206f29404a38", 500),
}


def digest(records_text: str) -> str:
    return hashlib.sha256(records_text.encode()).hexdigest()[:16]


def parse_maze(text: str) -> tuple[set, dict]:
    """Blocked cells (the border included) and object label -> cell of a maze text."""
    lines = text.strip("\n").split("\n")
    width, height = (int(part) for part in lines[0].split())
    if len(lines) != height + 1 or any(len(line) != width for line in lines[1:]):
        raise ValueError("maze text does not match its header")
    blocked, objects = set(), {}
    for row, line in enumerate(lines[1:]):
        for col, char in enumerate(line):
            if char == "#":
                blocked.add((row, col))
            elif char not in ".r":  # an uppercase letter is the robot on that object
                objects[char.lower()] = (row, col)
    blocked |= {(r, c) for r in (-1, height) for c in range(width)}
    blocked |= {(r, c) for c in (-1, width) for r in range(height)}
    return blocked, objects


def _walk_errors(path: list, blocked: set) -> list[str]:
    errors = []
    for a, b in zip(path, path[1:]):
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            errors.append(f"jump {a}->{b}")
        if tuple(b) in blocked:
            errors.append(f"step into wall {b}")
    return errors


def mission_record_errors(record: dict, goals: list[str]) -> list[str]:
    """Legal legs, chained end to start, each reached goal ending on its object."""
    blocked, objects = parse_maze(record["maze"])
    errors = []
    here = objects["h"]
    for outcome in record["goals"]:
        path = [tuple(cell) for cell in outcome["grid_path"]]
        if path[0] != here:
            errors.append(f"leg to {outcome['goal']} starts at {path[0]}, robot at {here}")
        errors += _walk_errors(path, blocked)
        if outcome["steps"] != len(path) - 1:
            errors.append(f"leg to {outcome['goal']} miscounts its steps")
        if outcome["reached"] and path[-1] != objects[outcome["goal"]]:
            errors.append(f"goal {outcome['goal']} reached at {path[-1]}")
        here = path[-1]
    reached = [o["goal"] for o in record["goals"] if o["reached"]]
    if record["success"] != (reached == goals):
        errors.append(f"success={record['success']} but reached {reached}")
    if record["success"] != (record["failure_reason"] == "none"):
        errors.append(f"success={record['success']} with {record['failure_reason']}")
    if record["steps"] != sum(o["steps"] for o in record["goals"]):
        errors.append("trial steps differ from the sum over its legs")
    if "door_cell" in record and tuple(record["door_cell"]) not in blocked:
        errors.append(f"removed door {record['removed_door']} is still open")
    return [f"trial {record['trial']}: {e}" for e in errors]


def viability_record_errors(record: dict) -> list[str]:
    if record["mission_ready"] and not record["viable"]:
        return [f"trial {record['trial']}: mission-ready but not viable"]
    return []


def viable(map_hv, objects, positions, position_of, theta: float) -> bool:
    """Forward viability in one matrix product, as an oracle for ``check_viability``.

    Every object unbound from the map must be closest (by cosine) to its own
    position state, at a cosine of at least ``theta``.
    """
    queries = map_hv * objects.vectors
    sims = queries @ positions.vectors.T
    sims /= np.outer(np.linalg.norm(queries, axis=1), np.linalg.norm(positions.vectors, axis=1))
    best = sims.argmax(axis=1)
    return all(
        positions.labels[b] == position_of(label) and sims[i, b] >= theta
        for i, (label, b) in enumerate(zip(objects.labels, best))
    )
