"""The benchmark traces hdnav by name and checks its records with an oracle of its
own: every target it wraps must exist, and the oracle must read ``MapMemory`` as
the program does, so that a change which would break ``perfbench/`` fails this
suite instead."""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_targets_exist():
    environ, path, modules = dict(os.environ), list(sys.path), set(sys.modules)
    try:
        # run.py imports its sibling modules by bare name and pins thread variables
        sys.path.insert(0, str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        hd = run.load_hdnav()
        targets = run.setup_targets(hd) + run.batch_targets(hd)
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
        for name in set(sys.modules) - modules:  # the benchmark's own modules
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(PERFBENCH)):
                del sys.modules[name]
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _, _ in targets
        if not callable(getattr(owner, attribute, None))
    ]
    assert targets and not missing


def test_viability_oracle_reads_the_map_memory(checks, object_cml, grid_cml, config):
    # the benchmark's oracle takes a map's positions and position_of from
    # MapMemory; it must agree with the plane-scored check on built maps
    from hdnav import maze, semantic_map

    objects = object_cml.state_dictionary()
    verdicts = []
    for i in range(200):
        rng = np.random.default_rng([84, i])
        memory = semantic_map.build_map(objects, maze.generate_maze(rng), grid_cml, rng)
        verdict = semantic_map.check_viability(memory)
        assert verdict == checks.viable(
            memory.map_hv, memory.objects, memory.positions, memory.position_of, config.theta
        )
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)
