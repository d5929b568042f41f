"""Timing shims and an in-memory span store for the traced benchmark run.

A shim wraps one public depgrid function. It is installed under every name a
depgrid module binds that function to (``depgrid.policies.run_episode``,
``depgrid.cli.evaluate_policy``, ...), so a call is caught wherever its caller
looks the function up, and no file under ``src/`` is edited. While the tracer
is off a shim only forwards the call.

Each span has a name, a start, an end and the index of its parent span (-1
for a root). A span's self time is its duration minus the durations of its
children; calls run one at a time, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np


class Tracer:
    """Spans and counters of one benchmark process, kept in memory."""

    def __init__(self) -> None:
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, float] = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def active(self):
        """Trace the calls made inside the block."""
        self.on = True
        try:
            yield
        finally:
            self.on = False

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def __len__(self) -> int:
        return len(self._start)

    def self_times(self, starts=(0.0,), scales=(1.0,)) -> dict[str, float]:
        """Summed self time per span name, in seconds.

        A span that starts at or after ``starts[i]`` (and before
        ``starts[i + 1]``) has its self time multiplied by ``scales[i]``.
        """
        n = len(self._start)
        if n == 0:
            return {}
        start = np.frombuffer(self._start)
        dur = np.frombuffer(self._end) - start
        parent = np.frombuffer(self._parent, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        at = np.maximum(np.searchsorted(np.asarray(starts), start, side="right") - 1, 0)
        own = np.bincount(np.frombuffer(self._name, dtype=np.int32),
                          weights=(dur - child) * np.asarray(scales)[at],
                          minlength=len(self.names))
        return dict(zip(self.names, own.tolist()))

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span as JSON columns: name, start, end, parent.

        Times are seconds since the first span started.
        """
        t0 = self._start[0] if len(self._start) else 0.0
        doc = {
            "meta": meta,
            "names": self.names,
            "counts": self.counts,
            "spans": {
                "name": self._name.tolist(),
                "start": [round(t - t0, 7) for t in self._start],
                "end": [round(t - t0, 7) for t in self._end],
                "parent": self._parent.tolist(),
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


SpanName = str | Callable[[tuple, dict], str]
After = Callable[[Tracer, object, tuple, dict], None] | None


def _shim(tracer: Tracer, fn, name: SpanName, after: After):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        i = tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(tracer, out, args, kwargs)
        return out
    return shim


def _resolve(dotted: str):
    """The module or class named by a dotted path, or None if it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is not None:
            obj = mod
            for attr in parts[cut:]:
                obj = getattr(obj, attr, None)
            return obj
    return None


def install(tracer: Tracer, targets, package: str = "depgrid") -> list:
    """Shim each ``(owner, attr, span_name, after)`` target.

    A module-level function is replaced in every loaded module of
    ``package`` that binds it; a method is replaced on its class. A target
    that no longer exists is skipped, so its metrics read zero. Returns the
    bindings to hand to ``uninstall``.
    """
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == package or k.startswith(package + "."))]
    restore = []
    for owner_path, attr, name, after in targets:
        owner = _resolve(owner_path)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            continue
        wrapped = _shim(tracer, fn, name, after)
        if isinstance(owner, type):
            restore.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    restore.append((mod, key, fn))
                    setattr(mod, key, wrapped)
    return restore


def uninstall(restore: list) -> None:
    for owner, key, fn in reversed(restore):
        setattr(owner, key, fn)


# ---------------------------------------------------------------------------
# The depgrid layer boundaries
# ---------------------------------------------------------------------------

def _counter(key: str, size: Callable | None = None) -> After:
    def after(tracer, out, args, kwargs):
        tracer.count(key, 1 if size is None else size(out, args, kwargs))
    return after


def _file_size(out, args, kwargs) -> int:
    path = args[0] if args else kwargs.get("path")
    return os.path.getsize(path)


def _episode_name(args, kwargs) -> str:
    from depgrid.safety import GoalClippedPolicy

    policy = args[1] if len(args) > 1 else kwargs.get("policy")
    if isinstance(policy, GoalClippedPolicy):
        return "safety.governed_episode"
    return "simulator.episode"


def _after_episode(tracer, out, args, kwargs):
    governed = _episode_name(args, kwargs) == "safety.governed_episode"
    tracer.count("simulator.episodes")
    tracer.count("simulator.steps", out.steps)
    if governed:
        tracer.count("safety.governed_episodes")
        tracer.count("safety.governed_steps", out.steps)


def _after_write(tracer, out, args, kwargs):
    tracer.count("records.files_written")
    tracer.count("records.write_bytes", _file_size(out, args, kwargs))


def _after_predict(tracer, out, args, kwargs):
    tracer.count("estimator.predictions")
    tracer.count("estimator.dropped_regions",
                 len(getattr(out, "dropped_regions", ())))


TARGETS = [
    ("depgrid.domain", "sample", "domain.sample",
     _counter("domain.scenarios", lambda out, a, k: len(out))),
    ("depgrid.domain", "substream_seed", "domain.seed",
     _counter("domain.seeds")),
    ("depgrid.domain", "partition_indices", "domain.partition",
     _counter("domain.points_binned", lambda out, a, k: len(out))),
    ("depgrid.domain", "region_mass", "domain.region_mass",
     _counter("domain.region_mass_calls")),
    ("depgrid.domain.ConditionSet", "region_mass_vector", "domain.mass_vector",
     _counter("domain.mass_vector_calls")),
    ("depgrid.domain.PartitionGrid", "region", "domain.region",
     _counter("domain.regions_built")),
    ("depgrid.simulator", "run_episode", _episode_name, _after_episode),
    ("depgrid.policies", "evaluate_policy", "policies.evaluate",
     _counter("policies.campaigns")),
    ("depgrid.estimator", "tally", "estimator.tally", None),
    ("depgrid.estimator", "predict", "estimator.predict", _after_predict),
    ("depgrid.estimator", "observed_rates", "estimator.observed", None),
    ("depgrid.records", "read_records", "records.read",
     _counter("records.read_bytes", _file_size)),
    ("depgrid.records", "read_scenarios", "records.read",
     _counter("records.read_bytes", _file_size)),
    ("depgrid.records", "write_records", "records.write", None),
    ("depgrid.records", "write_scenarios", "records.write", None),
    ("depgrid.records", "write_report", "records.write", None),
    ("depgrid.records", "write_manifest", "records.write", None),
    ("depgrid.records", "atomic_write_text", "records.write", _after_write),
    ("depgrid.svgplots", "comparison_bar_svg", "svgplots.render",
     _counter("svgplots.bytes", lambda out, a, k: len(out))),
    ("depgrid.svgplots", "failure_scatter_svg", "svgplots.render",
     _counter("svgplots.bytes", lambda out, a, k: len(out))),
    ("depgrid.cli", "reproduce", "cli.reproduce", None),
]

# Per-layer metric -> the span names whose self times it sums.
SELF_TIME_METRICS = {
    "domain.sample_s": ("domain.sample",),
    "domain.seed_s": ("domain.seed",),
    "domain.partition_s": ("domain.partition",),
    "domain.region_mass_s": ("domain.region_mass",),
    "domain.mass_vector_s": ("domain.mass_vector",),
    "domain.region_s": ("domain.region",),
    "simulator.episode_s": ("simulator.episode", "safety.governed_episode"),
    "policies.evaluate_self_s": ("policies.evaluate",),
    "safety.governed_episode_s": ("safety.governed_episode",),
    "estimator.tally_s": ("estimator.tally",),
    "estimator.predict_s": ("estimator.predict",),
    "estimator.observed_s": ("estimator.observed",),
    "records.read_s": ("records.read",),
    "records.write_s": ("records.write",),
    "svgplots.render_s": ("svgplots.render",),
    "cli.reproduce_self_s": ("cli.reproduce",),
}

COUNT_METRICS = (
    "domain.scenarios", "domain.seeds", "domain.points_binned",
    "domain.region_mass_calls", "domain.mass_vector_calls",
    "domain.regions_built", "simulator.episodes", "simulator.steps",
    "policies.campaigns", "safety.governed_episodes", "safety.governed_steps",
    "estimator.predictions", "estimator.dropped_regions", "records.read_bytes",
    "records.write_bytes", "records.files_written", "svgplots.bytes",
)


def layer_metrics(tracer: Tracer, iterations: int, starts=(0.0,),
                  scales=(1.0,)) -> dict[str, dict]:
    """Per-layer self times and counts, each divided by ``iterations``.

    Self times are scaled as in ``Tracer.self_times``.
    """
    own = tracer.self_times(starts, scales)
    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        total = sum(own.get(n, 0.0) for n in names)
        out[metric] = {"value": total / iterations, "unit": "s/iter"}
    for metric in COUNT_METRICS:
        out[metric] = {"value": tracer.counts.get(metric, 0) / iterations,
                       "unit": "count/iter"}
    steps = tracer.counts.get("simulator.steps", 0)
    out["simulator.us_per_step"] = {
        "value": 1e6 * out["simulator.episode_s"]["value"] * iterations / steps
        if steps else 0.0,
        "unit": "us",
    }
    return out
