#!/usr/bin/env python3
"""Run the full benchmark suite and print a results table.

Trains both models (well under a second), runs the four
experiments at their default trial counts, writes reports under the
output directory, and summarises the headline statistics.

Usage:
    python scripts/reproduce_results.py --seed 42 [--out results]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hdnav import experiments  # noqa: E402
from hdnav.config import ExperimentConfig  # noqa: E402
from hdnav.reports import wilson_interval  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default="results")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    config = ExperimentConfig(seed=args.seed, output_dir=args.out, workers=args.workers)

    print(f"# hdnav benchmark suite (seed {args.seed})")
    started = time.perf_counter()
    print("training models ...", flush=True)
    info = experiments.train_and_save(config)
    print(
        f"  object model verified on {info['object']['pairs_checked']} node pairs; "
        f"grid model verified on {info['grid']['pairs_checked']} cell pairs "
        f"({time.perf_counter() - started:.1f}s)"
    )
    object_cml, grid_cml = experiments.load_models(config)

    stats = experiments.run_hdc_stats(config)
    stats.write(config.output_dir)
    agg = stats.aggregates
    print(
        f"similarity of {agg['pairs']} random pairs at d={agg['d']}: "
        f"{agg['mean']:.4f} +/- {agg['std']:.4f} (max |s| {agg['max_abs']:.3f})"
    )

    rows = []
    for name in experiments.EXPERIMENTS:
        t0 = time.perf_counter()
        report = experiments.run_experiment(config, name, object_cml, grid_cml)
        report.write(config.output_dir)
        agg = report.aggregates
        flag = "viable" if name == "viability" else "success"
        count = agg[f"{flag}_count"]
        trials = agg["trials"]
        lo, hi = wilson_interval(count, trials)
        rows.append(
            (name, f"{count}/{trials}", f"{count / trials:.3f}",
             f"[{lo:.3f}, {hi:.3f}]", f"{time.perf_counter() - t0:.1f}s")
        )

    print()
    header = ("experiment", "outcome", "fraction", "wilson 95% CI", "time")
    widths = [max(len(str(row[i])) for row in rows + [header]) for i in range(5)]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    print(f"\nreports and per-trial traces in {config.output_dir}/")
    print(f"total wall clock {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
