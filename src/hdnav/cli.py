"""Command-line harness.

Verbs:

- ``hdc-stats``: random-pair similarity statistics at the configured d.
- ``train``: build and verify the object and grid models from one seed,
  then persist both; prints the wall time of each phase.
- ``run <experiment>``: mission, grid_only, viability, or door_removal
  trial batches against persisted models.
- ``render``: draw one trace record as text or SVG.
- ``verify <model>``: re-prove a persisted model: object plans
  BFS-shortest for every node pair (with the count of tied pairs and the
  tie rule's rounding headroom: the route margin and the tie spread),
  and open-grid optimality of the grid model for every ordered cell pair
  (then the grid's shape, its chains' distance from their fixed points
  and its number of distinct cell sign patterns).  It reads no config:
  its one argument is the model file.

Experiment commands require an explicit ``--seed``.  Errors print one
categorized line to stderr and exit nonzero.  When the reader of stdout
goes away (a closed pipe), the command exits nonzero without a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments, persist, render as render_mod
from .cml import Cml
from .config import ExperimentConfig, apply_overrides, load_config
from .grid import GridCml


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def _build_config(args) -> ExperimentConfig:
    try:
        config = ExperimentConfig()
        if getattr(args, "config", None):
            config = load_config(args.config, config)
        overrides = {
            "seed": getattr(args, "seed", None),
            "output_dir": getattr(args, "out", None),
        }
        config = apply_overrides(config, overrides)
        for item in getattr(args, "set", None) or []:
            if "=" not in item:
                raise ValueError(f"--set expects key=value, got {item!r}")
            key, value = item.split("=", 1)
            apply_overrides(config, {key.strip(): value.strip()})
        return config
    except (ValueError, OSError) as exc:
        raise CliError("config", str(exc)) from exc


def _cmd_hdc_stats(args) -> int:
    config = _build_config(args)
    try:
        report = experiments.run_hdc_stats(config)
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc
    report.write(config.output_dir)
    print("\n".join(report.summary_lines()))
    return 0


# the phase times train_and_save returns, by the label ``train`` prints them under
TRAIN_PHASES = {
    "build_s": "build",
    "train_s": "training",
    "verify_s": "proof",
    "save_s": "save",
}


def _cmd_train(args) -> int:
    config = _build_config(args)
    try:
        info = experiments.train_and_save(config)
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc
    except RuntimeError as exc:
        raise CliError("verify", str(exc)) from exc
    for kind, details in info.items():
        phases = ", ".join(
            f"{label} {details[key] * 1e3:.1f} ms"
            for key, label in TRAIN_PHASES.items()
            if key in details
        )
        print(
            f"{kind}: verified ({details['pairs_checked']} pairs) -> {details['path']} [{phases}]"
        )
    return 0


def _cmd_run(args) -> int:
    config = _build_config(args)
    try:  # before the models load, so a bad config is not reported as missing models
        config.validate_for_models()
        config.require_seed()
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc
    try:
        object_cml, grid_cml = experiments.load_models(config)
    except (FileNotFoundError, ValueError) as exc:
        raise CliError("models", str(exc)) from exc
    try:
        report = experiments.run_experiment(config, args.experiment, object_cml, grid_cml)
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc
    trials_path, report_path = report.write(config.output_dir)
    print("\n".join(report.summary_lines()))
    print(f"records: {trials_path}")
    print(f"report:  {report_path}")
    return 0


def _cmd_render(args) -> int:
    try:
        records = render_mod.load_trace(args.trace)
    except (OSError, ValueError) as exc:
        raise CliError("trace", str(exc)) from exc
    if not 0 <= args.trial < len(records):
        raise CliError("trace", f"trial {args.trial} out of range (0..{len(records) - 1})")
    try:
        drawing = render_mod.render(records[args.trial], args.style)
    except ValueError as exc:
        raise CliError("trace", str(exc)) from exc
    if args.output:
        Path(args.output).write_text(drawing)
        print(f"wrote {args.output}")
    else:
        print(drawing, end="")
    return 0


def _cmd_verify(args) -> int:
    try:
        model = persist.load_model(args.model)
    except (OSError, ValueError) as exc:
        raise CliError("models", str(exc)) from exc
    try:
        if isinstance(model, Cml):
            info = experiments.verify_object_cml(model)
        else:
            info = experiments.verify_grid_cml(model)
    except RuntimeError as exc:
        raise CliError("verify", str(exc)) from exc
    ties = (
        f", {info['tied_pairs']} tied, route margin {info['route_margin']:.3g},"
        f" tie spread {info['tie_spread']:.2g}"
        if "tied_pairs" in info
        else ""
    )
    print(f"verified: {info['pairs_checked']} pairs{ties}")
    if isinstance(model, GridCml):
        print("\n".join(_grid_geometry(model)))
    return 0


def _grid_geometry(grid_cml: GridCml) -> list[str]:
    """The grid's shape, each chain's largest distance from its fixed point, its sign patterns.

    Training keeps each chain's sum at 0 and drives its steps to 1, so the
    fixed points are ``r - (H-1)/2`` for x and ``c - (W-1)/2`` for y.
    """
    width, height = grid_cml.width, grid_cml.height
    x_gap = np.abs(grid_cml.x - (np.arange(height) - (height - 1) / 2)).max()
    y_gap = np.abs(grid_cml.y - (np.arange(width) - (width - 1) / 2)).max()
    patterns = len(np.unique(grid_cml.cells.signs, axis=0))
    return [
        f"shape: {width}x{height} (width x height), d={grid_cml.d}",
        f"distance from the fixed point: x {x_gap:.3g}, y {y_gap:.3g}",
        f"sign patterns: {patterns} distinct of {width * height} cells",
    ]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file of key = value lines")
    parser.add_argument("--seed", type=int, help="root seed (required for experiments)")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any config field (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdnav",
        description="Hyperdimensional map-learner maze navigation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("hdc-stats", help="random-pair similarity statistics")
    _add_config_flags(p_stats)
    p_stats.set_defaults(func=_cmd_hdc_stats)

    p_train = sub.add_parser("train", help="train, verify, and persist both models")
    _add_config_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_run = sub.add_parser("run", help="run a seeded experiment batch")
    p_run.add_argument("experiment", choices=tuple(experiments.EXPERIMENTS))
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_render = sub.add_parser("render", help="draw a trial trace")
    p_render.add_argument("--trace", required=True, help="trial JSONL file")
    p_render.add_argument("--style", choices=("text", "svg"), default="text")
    p_render.add_argument("--trial", type=int, default=0)
    p_render.add_argument("--output", help="output file (default: stdout)")
    p_render.set_defaults(func=_cmd_render)

    p_verify = sub.add_parser("verify", help="re-verify a persisted model")
    p_verify.add_argument("model", help="model file path")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone raises here, inside the handlers
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: point stdout at the null device, so the
        # flush at exit cannot raise again, and exit nonzero without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except CliError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
