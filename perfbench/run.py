#!/usr/bin/env python3
"""hdnav benchmark: model set-up and seeded trial batches, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload missions --seed 42 --seconds 20 --trace 0

Workloads (one process, ``workers=1``, closed loop: one caller, each trial
starts when the previous one has ended).  Trial counts are those of
``--seconds 20`` and scale with it:

- ``missions``: 120 mission trials, then 120 door_removal trials.  The
  full hierarchy; the map rejection loop (maze sampling, map build,
  readiness check, hypervector recovery) is the bulk of the time.
- ``viability``: 12000 viability mazes, one map build and one forward
  check each.  Maze sampling, map build and recovery without the
  rejection loop, the object learner, grid stepping or the executor: a
  maze-generation change moves it about as much as ``missions``, a change
  to those others should leave it unchanged.

The greedy grid_only baseline is not timed: a third workload would not fit
beside the three model builds of every run in the time a full comparison
of two commits may take.  Its pin is still checked.

Both models are trained at seed 42 in every run, so set-up is the same
work everywhere; ``--seed`` picks the trial inputs.  The training seed
would otherwise change the grid geometry and with it the share of usable
maps (29 to 66 of 500 over training seeds 1-5), so the batch work would
vary by model instead of by input.

``--trace 0`` builds the models three times (``setup_s`` is the median)
and runs a third of the workload's trials after each build.  The process
stays on one CPU.  On a shared 2-core machine the same trials ran up to
2x slower, in CPU time as well as wall time, from one tenth of a second to
the next.  So the trials run in segments of at least SEGMENT_S seconds
with a fixed reference probe (``probe.py``) between segments, and each
segment's wall time and trial latencies are scaled by the probes around
it: ``batch_s`` and the latencies are in the seconds of a machine on which
the probe takes ``probe.REFERENCE_S``.  The wall time is printed too.  No
warm-up is discarded: every third of the trials follows a model build
that ran the same numpy kernels for several seconds.

``--trace 1`` builds the models once under tracing, runs the batches once
untraced and once traced, and reports the per-layer metrics: summed self
time (``_s``, except the inclusive ``experiments.viable_maze_s``) and exact
counts (``_calls`` and the record-derived counts).  It also runs the
``missions`` batches with ``workers=2`` as a correctness check, untimed.

Every run checks its records at any seed: mission paths are legal walks
that end where they say, viability verdicts match an oracle, the traced
and untraced records and repeated model builds are byte-identical, and
report files read back as written.  At seed 42 it also checks the digest pins of the first
default-count records; the viability workload checks the grid_only pin
there too, untimed.  A failed
check prints the result with ``"correct": false`` and exits 1.  The last
line of stdout is the JSON result; ``perfbench/out/`` keeps the reports,
the spans of a traced run, the probe segments of a timed run and a result
file with the run's environment.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools to one thread before numpy is first imported;
# the seed-42 digests are unchanged under this setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from probe import REFERENCE_S, probe  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODEL_SEED = checks.PINNED_SEED
ROUNDS = 3  # model builds per timed run, each followed by a third of the trials
SEGMENT_S = 0.03  # least wall time of trials between two reference probes
W2_WORKERS = 2

# workload -> batches in run order: (experiment, config field, trials per run
# at NOMINAL_SECONDS).  Trial counts scale with --seconds and never drop below
# the default counts the digest pins cover.
NOMINAL_SECONDS = 20
WORKLOADS = {
    "missions": (
        ("mission", "mission_trials", 120),
        ("door_removal", "door_removal_trials", 120),
    ),
    "viability": (("viability", "viability_mazes", 12000),),
}
# Pinned batches a workload checks at seed 42 without timing them.
PIN_ONLY = {"missions": (), "viability": ("grid_only",)}
ORACLE_TRIALS = 500  # viability verdicts recomputed per run

ALL = tuple(WORKLOADS)
# Per-layer metric -> (source span, end-to-end metrics it should move,
# workloads whose batches run the layer).  A span listed here must record
# calls on exactly those workloads.  Set-up spans run on every workload.
LAYERS = {
    "grid.train_s": ("grid.train", "setup_s", ALL),
    "cml.verify_s": ("cml.verify", "setup_s", ALL),
    "experiments.verify_grid_s": ("experiments.verify_grid", "setup_s", ALL),
    "persist.save_s": ("persist.save", "setup_s", ALL),
    "persist.load_s": ("persist.load", "setup_s", ALL),
    "persist.model_bytes": (None, "setup_s", ALL),
    "maze.generate_calls": ("maze.generate", "batch_s, trial_ms_p50", ALL),
    "maze.generate_s": ("maze.generate", "batch_s, trial_ms_p50", ALL),
    "maze.layouts_per_maze": ("maze.sample_layout", "batch_s, trial_ms_p50", ALL),
    "semantic_map.build_calls": ("semantic_map.build", "batch_s", ALL),
    "semantic_map.build_s": ("semantic_map.build", "batch_s", ALL),
    "semantic_map.ready_calls": ("semantic_map.ready", "batch_s, trial_ms_p90", ALL),
    "semantic_map.ready_s": ("semantic_map.ready", "batch_s, trial_ms_p90", ALL),
    "semantic_map.accept_ratio": (None, "batch_s, trial_ms_p90", ALL),
    "semantic_map.query_calls": ("semantic_map.query", "batch_s", ALL),
    "semantic_map.query_s": ("semantic_map.query", "batch_s", ALL),
    "hdc.recover_calls": ("hdc.recover", "batch_s", ALL),
    "hdc.recover_s": ("hdc.recover", "batch_s", ALL),
    "cml.step_calls": ("cml.step", "batch_s", ("missions",)),
    "cml.step_s": ("cml.step", "batch_s", ("missions",)),
    "grid.step_calls": ("grid.step", "batch_s, trials_per_s", ("missions",)),
    "grid.step_s": ("grid.step", "batch_s, trials_per_s", ("missions",)),
    "mission.run_s": ("mission.run", "batch_s, trials_per_s", ("missions",)),
    "mission.grid_steps": (None, "none (exact count)", ("missions",)),
    "mission.dither_aborts": (None, "none (exact count)", ("missions",)),
    "experiments.viable_maze_s": ("experiments.viable_maze", "trial_ms_p90", ("missions",)),
    "experiments.rejections_mean": (None, "trial_ms_p90", ("missions",)),
    "experiments.rejections_max": (None, "trial_ms_p90", ("missions",)),
    "reports.write_s": ("reports.write", "batch_s", ALL),
    "reports.bytes": (None, "batch_s", ALL),
    "trace.overhead_s": (None, "none (traced minus untraced batch_s)", ALL),
}


def pin_cpu() -> int:
    """Keep this process on one CPU, the highest-numbered it may use.

    A process that moves between CPUs runs on cold caches after each move,
    and on a shared host each CPU has other neighbours; one process on one
    CPU gave the same scaled times run after run, a free one did not.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_hdnav() -> SimpleNamespace:
    """Import hdnav from this checkout's sources, never from anywhere else."""
    if not (SRC / "hdnav" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hdnav sources at {SRC / 'hdnav'}")
    sys.path.insert(0, str(SRC))
    names = ("hdc", "cml", "grid", "maze", "semantic_map", "mission",
             "experiments", "persist", "reports", "config")
    hd = SimpleNamespace(**{n: importlib.import_module(f"hdnav.{n}") for n in names})
    if not Path(hd.experiments.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: hdnav imported from {hd.experiments.__file__}")
    return hd


def setup_targets(hd) -> list:
    """Coarse set-up spans: each one's self time is its whole cost."""
    ex, ps = hd.experiments, hd.persist
    return [
        (ex, "train_and_save", "experiments.train_and_save", "span"),
        (ex, "load_models", "experiments.load_models", "span"),
        (hd.grid, "train_grid", "grid.train", "span"),
        (ex, "verify_object_cml", "cml.verify", "span"),
        (ex, "verify_grid_cml", "experiments.verify_grid", "span"),
        (ps, "save_cml", "persist.save", "span"),
        (ps, "save_grid_cml", "persist.save", "span"),
        (ps, "load_model", "persist.load", "span"),
    ]


def batch_targets(hd) -> list:
    ex, sm = hd.experiments, hd.semantic_map
    return [
        (ex, "mission_trial", "experiments.mission_trial", "span"),
        (ex, "viability_trial", "experiments.viability_trial", "span"),
        (ex, "generate_viable_maze", "experiments.viable_maze", "span"),
        (hd.maze, "generate_maze", "maze.generate", "span"),
        (hd.maze, "_sample_layout", "maze.sample_layout", "count"),
        (sm, "build_map", "semantic_map.build", "span"),
        (sm, "mission_ready", "semantic_map.ready", "span"),
        (sm, "check_viability", "semantic_map.ready", "span"),
        (sm, "query_position", "semantic_map.query", "span"),
        (sm, "query_object", "semantic_map.query", "span"),
        (hd.hdc, "recover", "hdc.recover", "span"),
        (hd.cml, "step", "cml.step", "span"),
        (hd.grid, "grid_step", "grid.step", "span"),
        (hd.mission, "run_mission", "mission.run", "span"),
        (hd.reports.ExperimentReport, "write", "reports.write", "span"),
    ]


def traced(hd, tracer: Tracer, targets, fn, *args):
    hdnav_modules = [m for k, m in sys.modules.items() if k.startswith("hdnav.")]
    tracer.install(hdnav_modules + [hd.reports.ExperimentReport], targets)
    try:
        return fn(*args)
    finally:
        tracer.restore()


# --- the measured work --------------------------------------------------------


def setup(hd, out: Path) -> tuple[float, tuple]:
    """`hdnav train` plus the model load of `hdnav run`, from scratch."""
    shutil.rmtree(out, ignore_errors=True)
    config = hd.config.ExperimentConfig(seed=MODEL_SEED, output_dir=str(out))
    started = time.perf_counter()
    hd.experiments.train_and_save(config)
    models = hd.experiments.load_models(config)
    return time.perf_counter() - started, models


def same_models(a: tuple, b: tuple) -> bool:
    (object_a, grid_a), (object_b, grid_b) = a, b
    pairs = ((object_a.S, object_b.S), (object_a.A, object_b.A), (object_a.G, object_b.G),
             (grid_a.P, grid_b.P), (grid_a.A4, grid_b.A4))
    return all(np.array_equal(x, y) for x, y in pairs)


def succeeded(record: dict) -> bool:
    """A successful trial, or a viable maze."""
    return bool(record["success"] if "success" in record else record["viable"])


def run_trial(hd, name: str, config, models, trial: int) -> dict:
    object_cml, grid_cml = models
    ex = hd.experiments
    if name == "viability":
        return ex.viability_trial(config, object_cml, grid_cml, trial)
    return ex.mission_trial(
        config, object_cml, grid_cml, trial, remove_random_door=name == "door_removal"
    )


def sized_batches(workload: str, seconds: float) -> tuple:
    """The workload's batches with their trial counts for a run of ``seconds``."""
    return tuple(
        (name, field, max(checks.PINS[name][1], round(count * seconds / NOMINAL_SECONDS)))
        for name, field, count in WORKLOADS[workload]
    )


class Pass:
    """One pass over a workload's batches, run as ROUNDS chunks of trials.

    Mirrors `run_experiment` at ``workers=1``.  Each trial is timed.  The
    trials run in segments of at least SEGMENT_S seconds, with the reference
    probe before and after each segment, and each segment's wall time and
    trial latencies are scaled by its probes (see ``probe.py``).  ``busy``
    holds each batch's scaled time: its trials plus its report writing;
    ``busy_raw`` the same in wall seconds.
    """

    def __init__(self, batches: tuple, seed: int) -> None:
        self.batches = batches
        self.seed = seed
        self.records: dict[str, list] = {name: [] for name, _, _ in self.batches}
        self.busy = dict.fromkeys(self.records, 0.0)
        self.busy_raw = dict.fromkeys(self.records, 0.0)
        self.latencies: list[float] = []  # scaled, one per trial attempted, nan if it raised
        self.segments: list[tuple] = []  # (batch, trials, wall s, probe before, probe after)
        self.errors: list[str] = []
        self.reports: dict = {}

    @property
    def batch_s(self) -> float:
        return sum(self.busy.values())

    @property
    def batch_raw_s(self) -> float:
        return sum(self.busy_raw.values())

    def config(self, hd, field: str, count: int, out: Path):
        return hd.config.ExperimentConfig(seed=self.seed, output_dir=str(out), **{field: count})

    def account(self, name: str, elapsed: float, latencies: list, before: float,
                after: float) -> None:
        scale = REFERENCE_S / ((before + after) / 2)
        self.segments.append((name, len(latencies), elapsed, before, after))
        self.busy_raw[name] += elapsed
        self.busy[name] += elapsed * scale
        self.latencies += [t * scale for t in latencies]

    def run_chunk(self, hd, chunk: int, models, tracer=None) -> None:
        gc.collect()
        for name, field, count in self.batches:
            config = self.config(hd, field, count, OUT)
            trials = range(count * chunk // ROUNDS, count * (chunk + 1) // ROUNDS)
            before = probe()
            started, latencies = time.perf_counter(), []
            for trial in trials:
                if tracer is not None:
                    tracer.set_trial(f"{name}/{trial}")
                t0 = time.perf_counter()
                try:
                    self.records[name].append(run_trial(hd, name, config, models, trial))
                    latencies.append(time.perf_counter() - t0)
                except Exception:  # a raising trial is counted and reported, not fatal
                    self.errors.append(f"{name} trial {trial}: {traceback.format_exc(limit=2)}")
                    latencies.append(float("nan"))
                elapsed = time.perf_counter() - started
                if elapsed >= SEGMENT_S or trial == trials[-1]:
                    after = probe()
                    self.account(name, elapsed, latencies, before, after)
                    before, started, latencies = after, time.perf_counter(), []
            if tracer is not None:
                tracer.set_trial(None)

    def write_reports(self, hd, out: Path) -> None:
        for name, field, count in self.batches:
            before = probe()
            started = time.perf_counter()
            report = hd.reports.ExperimentReport(
                experiment=name,
                records=self.records[name],
                config=self.config(hd, field, count, out).as_dict(),
                wall_clock_s=self.busy_raw[name],
            )
            report.write(out)
            self.reports[name] = report
            elapsed = time.perf_counter() - started
            self.account(name, elapsed, [], before, probe())


def run_pass(hd, batches: tuple, seed: int, models, out: Path, tracer=None) -> Pass:
    one = Pass(batches, seed)
    for chunk in range(ROUNDS):
        one.run_chunk(hd, chunk, models, tracer)
    one.write_reports(hd, out)
    return one


# --- checks ---------------------------------------------------------------------


def check_records(hd, workload: str, seed: int, reports: dict, models, out: Path) -> list[str]:
    """Every check on one pass's records."""
    failures = []
    goals = hd.config.ExperimentConfig().goal_sequence()
    for name, report in reports.items():
        for record in report.records:
            if name == "viability":
                failures += checks.viability_record_errors(record)
            else:
                failures += checks.mission_record_errors(record, goals)
        if (out / f"{name}_trials.jsonl").read_text() != report.records_text():
            failures.append(f"{name}: trials file differs from the records")
        written = json.loads((out / f"{name}_report.json").read_text())["aggregates"]
        expected = json.loads(json.dumps(hd.reports.recompute_aggregates(report.records)))
        if written != expected:
            failures.append(f"{name}: report aggregates differ from the records")
    if "viability" in reports:
        failures += oracle_failures(hd, seed, reports["viability"].records, models)
    if seed == checks.PINNED_SEED:
        for name, report in reports.items():
            failures += pin_failures(hd, name, report.records)
        for name in PIN_ONLY[workload]:
            config = hd.config.ExperimentConfig(seed=seed, output_dir=str(out / "pin"))
            report = hd.experiments.run_experiment(config, name, *models)
            failures += pin_failures(hd, name, report.records)
    return failures


def oracle_failures(hd, seed: int, records: list, models) -> list[str]:
    """Rebuild the batch's first maps and recompute each viability verdict."""
    object_cml, grid_cml = models
    objects = object_cml.state_dictionary()
    theta = hd.config.ExperimentConfig().theta
    failures = []
    for record in records[:ORACLE_TRIALS]:
        rng = hd.experiments.trial_rng(seed, hd.experiments.TAG_VIABILITY, record["trial"])
        memory = hd.semantic_map.build_map(objects, hd.maze.generate_maze(rng), grid_cml, rng)
        verdict = checks.viable(
            memory.map_hv, memory.objects, memory.positions, memory.position_of, theta
        )
        if verdict != record["viable"]:
            failures.append(f"viability trial {record['trial']}: oracle says {verdict}")
    return failures


def pin_failures(hd, name: str, records: list) -> list[str]:
    pin, count = checks.PINS[name]
    text = hd.reports.ExperimentReport(name, records[:count], {}, 0.0).records_text()
    got = checks.digest(text)
    print(f"digest {name:<12} {got}  pin {pin}  {'ok' if got == pin else 'MISMATCH'}")
    return [] if got == pin else [f"{name}: digest {got} != pin {pin}"]


def same_records(a: dict, b: dict, what: str) -> list[str]:
    return [
        f"{name}: {what}"
        for name in a
        if a[name].records_text() != b[name].records_text()
    ]


def workers_failures(hd, seed: int, reports: dict, models, out: Path) -> list[str]:
    """Records must not depend on the worker count (default-count batches)."""
    failures = []
    for name in reports:
        config = hd.config.ExperimentConfig(
            seed=seed, output_dir=str(out / "w2"), workers=W2_WORKERS
        )
        parallel = hd.experiments.run_experiment(config, name, *models)
        serial = reports[name].records[: len(parallel.records)]
        if parallel.records != serial:
            failures.append(f"{name}: workers={W2_WORKERS} records differ from workers=1")
    print(f"workers={W2_WORKERS} pass over {', '.join(reports)}: "
          f"{'ok' if not failures else 'MISMATCH'}")
    return failures


# --- modes ----------------------------------------------------------------------


def timed_run(hd, workload: str, seed: int, seconds: float):
    """Returns (metrics, trials attempted, trials raised, check failures, errors).

    One pass over the workload's batches, cut into ROUNDS chunks, each
    after one of the ROUNDS model builds.  Times are scaled by the
    reference probe, segment by segment.
    """
    batches = sized_batches(workload, seconds)
    one = Pass(batches, seed)
    setup_times, failures = [], []
    for build in range(ROUNDS):
        dt, built = setup(hd, OUT / f"setup{build}")
        setup_times.append(dt)
        if build == 0:
            models = built
        elif not same_models(models, built):
            failures.append(f"model build {build} differs from the first")
        one.run_chunk(hd, build, models)
    one.write_reports(hd, OUT / "batch")
    failures += check_records(hd, workload, seed, one.reports, models, OUT / "batch")

    latencies = [t for t in one.latencies if not math.isnan(t)]
    completed = sum(len(r) for r in one.records.values())
    wins = sum(succeeded(rec) for r in one.records.values() for rec in r)
    attempted = sum(count for _, _, count in batches)
    write_segments(one.segments, OUT / f"{workload}_segments.tsv")
    probes_ms = np.array([seg[3:] for seg in one.segments]).ravel() * 1e3
    print("setup_s runs: " + ", ".join(f"{t:.3f}" for t in setup_times))
    print(f"batch wall time {one.batch_raw_s:.3f} s, scaled {one.batch_s:.3f} s")
    print(f"reference probe: {len(one.segments)} segments, ms quartiles "
          + ", ".join(f"{q:.3f}" for q in np.percentile(probes_ms, [25, 50, 75]))
          + f"; scaled to {REFERENCE_S * 1e3:g} ms")
    print(f"trial latency samples: {len(latencies)}")
    print(f"error_frac: {len(one.errors) / attempted} ({len(one.errors)} of {attempted} raised)")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "batch_s": one.batch_s,
        "trials_per_s": completed / one.batch_s,
        "trial_ms_p50": statistics.median(latencies) * 1e3,
        "trial_ms_p90": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "success_frac": wins / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, attempted, len(one.errors), failures, one.errors


def write_segments(segments: list, path: Path) -> None:
    lines = ["batch\ttrials\twall_s\tprobe_before_s\tprobe_after_s"]
    lines += ["\t".join(map(str, seg)) for seg in segments]
    path.write_text("\n".join(lines) + "\n")


def traced_run(hd, workload: str, seed: int, seconds: float):
    """Returns (metrics, trials attempted, trials raised, check failures, errors)."""
    setup_tracer = Tracer()
    _, models = traced(hd, setup_tracer, setup_targets(hd), setup, hd, OUT / "setup0")
    model_bytes = sum(f.stat().st_size for f in (OUT / "setup0" / "models").iterdir())

    batches = sized_batches(workload, seconds)
    plain = run_pass(hd, batches, seed, models, OUT / "batch")
    tracer = Tracer()
    spanned = traced(hd, tracer, batch_targets(hd), run_pass,
                     hd, batches, seed, models, OUT / "traced", tracer)
    tracer.write_spans(OUT / f"{workload}_spans.tsv")

    failures = check_records(hd, workload, seed, spanned.reports, models, OUT / "traced")
    failures += same_records(plain.reports, spanned.reports, "traced records differ from untraced")
    if workload == "missions":
        failures += workers_failures(hd, seed, plain.reports, models, OUT)

    setup_spans, spans = setup_tracer.summary(), tracer.summary()
    records = [rec for r in spanned.records.values() for rec in r]
    report_bytes = sum(
        (OUT / "traced" / f"{name}_{kind}").stat().st_size
        for name in spanned.reports
        for kind in ("trials.jsonl", "report.json", "summary.txt")
    )
    metrics = layer_metrics(setup_spans, spans, records, model_bytes, report_bytes,
                            spanned.batch_s - plain.batch_s)
    failures += count_failures(workload, setup_spans, spans, records, metrics)
    print_spans(setup_spans, "set-up spans")
    print_spans(spans, "batch spans")
    print(f"tracing overhead: traced batch_s {spanned.batch_s:.3f} - untraced "
          f"{plain.batch_s:.3f} (wall time {spanned.batch_raw_s:.3f} - {plain.batch_raw_s:.3f})")
    attempted = sum(count for _, _, count in batches)
    return metrics, attempted, len(spanned.errors), failures, plain.errors + spanned.errors


def layer_metrics(setup_spans, spans, records, model_bytes, report_bytes, overhead) -> dict:
    def calls(summary, name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(summary, name):
        return summary.get(name, {}).get("self_s", 0.0)

    rejections = [r["rejections"] for r in records if "rejections" in r]
    builds = calls(spans, "semantic_map.build")
    return {
        "grid.train_s": self_s(setup_spans, "grid.train"),
        "cml.verify_s": self_s(setup_spans, "cml.verify"),
        "experiments.verify_grid_s": self_s(setup_spans, "experiments.verify_grid"),
        "persist.save_s": self_s(setup_spans, "persist.save"),
        "persist.load_s": self_s(setup_spans, "persist.load"),
        "persist.model_bytes": model_bytes,
        "maze.generate_calls": calls(spans, "maze.generate"),
        "maze.generate_s": self_s(spans, "maze.generate"),
        "maze.layouts_per_maze": calls(spans, "maze.sample_layout")
        / max(calls(spans, "maze.generate"), 1),
        "semantic_map.build_calls": builds,
        "semantic_map.build_s": self_s(spans, "semantic_map.build"),
        "semantic_map.ready_calls": calls(spans, "semantic_map.ready"),
        "semantic_map.ready_s": self_s(spans, "semantic_map.ready"),
        # usable maps: the one each mission trial keeps, or a viable maze
        "semantic_map.accept_ratio": sum(r.get("viable", 1) for r in records) / builds,
        "semantic_map.query_calls": calls(spans, "semantic_map.query"),
        "semantic_map.query_s": self_s(spans, "semantic_map.query"),
        "hdc.recover_calls": calls(spans, "hdc.recover"),
        "hdc.recover_s": self_s(spans, "hdc.recover"),
        "cml.step_calls": calls(spans, "cml.step"),
        "cml.step_s": self_s(spans, "cml.step"),
        "grid.step_calls": calls(spans, "grid.step"),
        "grid.step_s": self_s(spans, "grid.step"),
        "mission.run_s": self_s(spans, "mission.run"),
        "mission.grid_steps": sum(r.get("steps", 0) for r in records),
        "mission.dither_aborts": sum(r.get("failure_reason") == "dither_abort" for r in records),
        "experiments.viable_maze_s": spans.get("experiments.viable_maze", {}).get("total_s", 0.0),
        "experiments.rejections_mean": statistics.fmean(rejections) if rejections else 0.0,
        "experiments.rejections_max": max(rejections, default=0),
        "reports.write_s": self_s(spans, "reports.write"),
        "reports.bytes": report_bytes,
        "trace.overhead_s": overhead,
    }


def count_failures(workload, setup_spans, spans, records, metrics) -> list[str]:
    """Coverage of every wrapper, and span counts that must equal record counts."""
    failures = []
    for span, moves, on in LAYERS.values():
        if span is None:
            continue
        made = (setup_spans if moves == "setup_s" else spans).get(span, {}).get("calls", 0)
        if (made > 0) != (workload in on):
            want = "calls" if workload in on else "no calls"
            failures.append(f"span {span} recorded {made} calls on {workload}, want {want}")
    # one maze and one map per rejection, plus the one each trial keeps
    maps = sum(r.get("rejections", 0) + 1 for r in records)
    for metric in ("semantic_map.build_calls", "maze.generate_calls"):
        if metrics[metric] != maps:
            failures.append(f"{metric} is {metrics[metric]}, records say {maps}")
    if metrics["grid.step_calls"] != metrics["mission.grid_steps"]:
        failures.append(
            f"{metrics['grid.step_calls']} grid steps traced, "
            f"records say {metrics['mission.grid_steps']}"
        )
    return failures


def print_spans(summary: dict, title: str) -> None:
    print(f"{title}: name, calls, self s, total s")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<30} {row['calls']:>8} {row['self_s']:10.4f} {row['total_s']:10.4f}")


# --- output ---------------------------------------------------------------------


def declared_metrics(mode: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def environment(cpus_usable: int, cpu: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "warmup_batch_discarded": False,
        "warmup_why": "every chunk of trials follows a model build that warms numpy",
        "timing": f"wall times scaled by a reference probe to {REFERENCE_S * 1e3:g} ms, "
                  f"in segments of at least {SEGMENT_S * 1e3:g} ms",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hdnav benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=checks.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mode = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics(mode)
    cpus_usable = len(os.sched_getaffinity(0))
    cpu = pin_cpu()
    hd = load_hdnav()
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics, attempted, failed, failures, errors = traced_run(
            hd, args.workload, args.seed, args.seconds
        )
    else:
        metrics, attempted, failed, failures, errors = timed_run(
            hd, args.workload, args.seed, args.seconds
        )
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                         f"do not match BENCHMARK.json {mode}")

    for name, value in metrics.items():
        line = f"{name:<28} {value!r:>24} {units[name]}"
        if args.trace:
            _, moves, on = LAYERS[name]
            line += f"  moves {moves} on {', '.join(on)}"
        print(line)
    for error in errors:
        print(f"TRIAL RAISED: {error}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    env = environment(cpus_usable, cpu)
    print("environment: " + json.dumps(env, sort_keys=True))
    (OUT / f"{args.workload}_{mode}_result.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "environment": env,
                    "failures": failures, "errors": errors, **result}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
