"""Span recording around hdnav's public functions, from outside the package.

hdnav binds many names at import time (``from .grid import grid_step`` in
``mission``, ``from .grid import train_grid`` in ``experiments``), so patching
only the defining module would miss those callers.  ``Tracer.install`` swaps
the wrapper in under every name, in every hdnav module, that refers to the
original function, and ``Tracer.restore`` puts the originals back.

A span is (name, start, end, parent, trial).  ``trial`` is the key of the
trial the span ran in, so all spans of one trial share an identifier.  A
span's self time is its duration minus the durations of its direct
children; the calls are single-threaded and strictly nested, so children
never overlap.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.trial_keys: list[str] = [""]
        self.trial = 0  # index into trial_keys; 0 = outside any trial
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.trial_id = array("l")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial_id.append(self.trial)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def set_trial(self, key: str | None) -> None:
        if key is None:
            self.trial = 0
        else:
            self.trial = len(self.trial_keys)
            self.trial_keys.append(key)

    def wrap_span(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_count(self, name: str, func):
        """Count calls without a span: for work too fine-grained to time."""

        @functools.wraps(func)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return func(*args, **kwargs)

        return counted

    # --- installing wrappers ---------------------------------------------

    def install(self, modules, targets) -> None:
        """Wrap each (module, attribute, name, kind) target everywhere it is bound.

        ``kind`` is "span" or "count".  Raises when a target is bound
        nowhere, which means the package layout changed under the benchmark.
        """
        for module, attr, name, kind in targets:
            original = getattr(module, attr)
            wrapper = (self.wrap_span if kind == "span" else self.wrap_count)(name, original)
            bound = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{module.__name__}.{attr} is bound nowhere")

    def restore(self) -> None:
        for mod, key, value in reversed(self._patches):
            setattr(mod, key, value)
        self._patches.clear()

    # --- summaries -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time and total (inclusive) time."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
        for name, count in self.counts.items():
            out[name] = {"calls": count, "self_s": 0.0, "total_s": 0.0}
        return out

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line, times relative to the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\ttrial\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t"
                    f"{self.trial_keys[self.trial_id[i]]}\n"
                )
