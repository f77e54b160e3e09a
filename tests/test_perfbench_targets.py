"""The benchmark traces hdnav by name: every target it wraps must exist, so that a
rename which would break ``perfbench/run.py`` fails this suite instead."""

import importlib.util
import os
import sys
from pathlib import Path

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
