"""Command-line harness.

Verbs:

- ``hdc-stats``: random-pair similarity statistics at the configured d.
- ``train``: build and verify the object and grid models from one seed,
  then save both; prints the wall time of each phase.
- ``run <experiment> [<experiment> ...]``: one or more of the mission,
  grid_only, viability and door_removal trial batches, in the order given,
  against the saved models loaded once.
- ``render``: draw one trace record as text or SVG (``render.STYLES``).
- ``verify``: load the saved pair as ``run`` does, with its checks, and
  re-prove it: object plans BFS-shortest for every node pair (with the
  count of tied pairs and the exact route margin, in units of the integer
  flow table over its scale), and
  open-grid optimality for every ordered cell pair (then the grid's
  shape, its chains' distance from their fixed points, its number of
  distinct cell sign patterns and its sign margin, the smallest
  |state coordinate|).  It reads ``output_dir`` and ``d``.

Every verb but ``render`` builds its config from the defaults,
then ``--seed`` (the ``seed`` field) and ``--out`` (``output_dir``), then
each ``--set key=value`` in order, every value typed by
``config.parse_value``.  Experiment commands require an explicit
``--seed``.  Errors print one categorized line to stderr and exit
nonzero.  ``main`` classifies them in one place: a ``ValueError`` is
``error[config]``; a ``CliError`` carries the category that differs
from that (``models``, ``trace`` or ``verify``); a failed write is
``error[io]``.  When the reader of stdout goes away (a closed pipe),
the command exits nonzero without a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments, render as render_mod
from .config import ExperimentConfig, parse_value
from .grid import GridCml, fixed_chains


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def _build_config(args) -> ExperimentConfig:
    """The defaults, then ``--seed`` and ``--out``, then each ``--set`` item in order."""
    flags = (("seed", args.seed), ("output_dir", args.out))
    items = [f"{key}={value}" for key, value in flags if value is not None] + (args.set or [])
    config = ExperimentConfig()
    for item in items:
        key, equals, value = item.partition("=")
        if not equals:
            raise ValueError(f"--set expects key=value, got {item!r}")
        setattr(config, key.strip(), parse_value(key.strip(), value))
    return config


def _cmd_hdc_stats(args) -> int:
    config = _build_config(args)
    report = experiments.run_hdc_stats(config)
    report.write(config.output_dir)
    print("\n".join(report.summary_lines()))
    return 0


def _proof_line(kind: str, info: dict) -> str:
    """One model's proof facts: its pairs, then the object model's ties and exact route
    margin over the flow table's scale, then (from ``train``) its path and phase times."""
    facts = f"{info['pairs_checked']} pairs"
    if "tied_pairs" in info:
        margin = f"{info['route_margin']:g}/{info['flow_scale']}"  # exact: integer table units
        facts += f", {info['tied_pairs']} tied, route margin {margin}"
    phases = ", ".join(f"{label} {t * 1e3:.1f} ms" for label, t in info.get("phases", {}).items())
    return f"{kind}: verified ({facts})" + (f" -> {info['path']} [{phases}]" if phases else "")


def _cmd_train(args) -> int:
    config = _build_config(args)
    try:
        info = experiments.train_and_save(config)
    except RuntimeError as exc:
        raise CliError("verify", str(exc)) from exc
    print("\n".join(_proof_line(kind, details) for kind, details in info.items()))
    return 0


def _load_models(config: ExperimentConfig):
    """The saved pair, through ``experiments.load_models`` and its checks, after the
    config's: a config that cannot run is an ``error[config]``, not a model fault."""
    config.validate_for_models()
    try:
        return experiments.load_models(config)
    except (OSError, ValueError) as exc:
        raise CliError("models", str(exc)) from exc


def _cmd_run(args) -> int:
    config = _build_config(args)
    # before the models load, so a missing seed is not reported as missing models
    config.require_seed()
    object_cml, grid_cml = _load_models(config)
    for name in args.experiments:
        report = experiments.run_experiment(config, name, object_cml, grid_cml)
        trials_path, report_path = report.write(config.output_dir)
        print("\n".join(report.summary_lines()))
        print(f"records: {trials_path}")
        print(f"report:  {report_path}")
    return 0


def _cmd_render(args) -> int:
    try:
        records = render_mod.load_trace(args.trace)
        if not 0 <= args.trial < len(records):
            raise ValueError(f"trial {args.trial} out of range (0..{len(records) - 1})")
        drawing = render_mod.STYLES[args.style](records[args.trial])
    except (OSError, ValueError) as exc:
        raise CliError("trace", str(exc)) from exc
    if args.output:
        Path(args.output).write_text(drawing)
        print(f"wrote {args.output}")
    else:
        print(drawing, end="")
    return 0


def _cmd_verify(args) -> int:
    object_cml, grid_cml = _load_models(_build_config(args))
    try:
        proofs = {
            "object": experiments.verify_object_cml(object_cml),
            "grid": experiments.verify_grid_cml(grid_cml),
        }
    except RuntimeError as exc:
        raise CliError("verify", str(exc)) from exc
    print("\n".join(_proof_line(kind, info) for kind, info in proofs.items()))
    print("\n".join(_grid_geometry(grid_cml)))
    return 0


def _grid_geometry(grid_cml: GridCml) -> list[str]:
    """The grid's shape, its actions' Gram (the two norms and their cosine, which fix
    the move table), each chain's largest distance from its fixed point, its sign
    patterns and their margin: the smallest |state coordinate|, which ``load_models``
    has found nonzero."""
    width, height = grid_cml.width, grid_cml.height
    gram = grid_cml.basis @ grid_cml.basis.T
    norm_s, norm_e = np.sqrt(np.diag(gram))
    x_star, y_star = fixed_chains(width, height)
    x_gap = np.abs(grid_cml.x - x_star).max()
    y_gap = np.abs(grid_cml.y - y_star).max()
    patterns = len(np.unique(grid_cml.signs, axis=0))
    return [
        f"shape: {width}x{height} (width x height), d={grid_cml.d}",
        f"action Gram: |a_s| {norm_s:.4g}, |a_e| {norm_e:.4g}, "
        f"cos(a_s, a_e) {gram[0, 1] / (norm_s * norm_e):.3g}",
        f"distance from the fixed point: x {x_gap:.3g}, y {y_gap:.3g}",
        f"sign patterns: {patterns} distinct of {width * height} cells",
        f"sign margin: {np.abs(grid_cml.P).min():.3g} (no zero sign)",
    ]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", help="root seed (required for experiments)")
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

    p_train = sub.add_parser("train", help="train, verify, and save both models")
    _add_config_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_run = sub.add_parser("run", help="run seeded experiment batches, in the order given")
    p_run.add_argument("experiments", nargs="+", choices=tuple(experiments.EXPERIMENTS))
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_render = sub.add_parser("render", help="draw a trial trace")
    p_render.add_argument("--trace", required=True, help="trial JSONL file")
    p_render.add_argument("--style", choices=tuple(render_mod.STYLES), default="text")
    p_render.add_argument("--trial", type=int, default=0)
    p_render.add_argument("--output", help="output file (default: stdout)")
    p_render.set_defaults(func=_cmd_render)

    p_verify = sub.add_parser("verify", help="load and re-prove the saved models")
    _add_config_flags(p_verify)
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
    except ValueError as exc:  # a setting no verb can run with
        print(f"error[config]: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # after BrokenPipeError, which is one
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1
