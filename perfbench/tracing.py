"""Span tracing installed from outside the program.

The library under test carries no instrumentation, so the traced run
wraps public entry points of each layer (class attributes and the
module-level references callers resolve at call time) and restores the
originals on exit.  The wrapped kernels are untouched: a wrapper times
the call and records one span.

A span is ``(id, name, start_ns, end_ns, parent_id, request, info)``.
``parent_id`` is the innermost open span on the calling thread; a span
opened on a worker thread (the sharded repairers fan out over a thread
pool) takes the main thread's innermost open span as its parent.
``request`` is the client operation being served: the session sets it
around its own calls, and a ``dynamics.feed`` span sets it to the
chunk it applies (``batch:<first arrival id>``) so the repair spans
that follow inherit it.  Spans stay in memory and are written out once,
at the end of the run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager

import numpy as np

#: (span name, layer) for every wrapped entry point.
LAYER_OF = {
    "cells.far_field": "cells",
    "cells.query": "cells",
    "affectance_sparse.build": "affectance_sparse",
    "context.first_fit": "context",
    "context.add_links": "context",
    "context.remove_links": "context",
    "dynamics.feed": "dynamics",
    "repair.anchor": "repair",
    "repair.apply": "repair",
    "sharding.layout": "sharding",
    "sharding.apply": "sharding",
    "sharding.materialize": "sharding",
    "daemon.checkpoint": "daemon",
    "daemon.restore": "daemon",
    "io.save_state": "io",
    "io.load_state": "io",
    "io.save_layout": "io",
    "io.load_layout": "io",
}
LAYERS = (
    "cells", "affectance_sparse", "context", "dynamics", "repair",
    "sharding", "daemon", "io",
)


class Tracer:
    """In-memory span recorder; a no-op while ``enabled`` is false."""

    def __init__(self) -> None:
        self.enabled = False
        self.request = ""
        self.spans: list[tuple] = []
        self._next = 1
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, info=None):
        """Run ``fn`` inside a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = 0
        with self._lock:
            sid = self._next
            self._next += 1
        pre = info(args, None) if info is not None else None
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
        extra = info(args, result) if info is not None else None
        if pre is not None and extra is not None:
            extra = {**pre, **extra}
        elif extra is None:
            extra = pre
        with self._lock:
            self.spans.append(
                (sid, name, start, end, parent, self.request, extra)
            )
        return result

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "name", "start_ns", "end_ns", "parent", "request", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _wrap(tracer: Tracer, name: str, fn, info=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, info)

    return wrapper


def _feed_info(tracer: Tracer):
    def info(args, result):
        if result is None:
            driver, event = args[0], args[1]
            tracer.request = f"batch:{driver.next_id}"
            return {"first_id": driver.next_id, "arrivals": len(event.arrivals)}
        return None

    return info


def _build_info(args, result):
    if result is None:
        return None
    return {
        "nnz": int(result.nnz),
        "radius": float(result.radius),
        "max_tail": float(np.max(result.tail_in + result.tail_out)),
    }


def _query_info(args, result):
    return None if result is None else {"pairs": int(len(result[0]))}


def _count_info(args, result):
    # ``add_links`` takes a sequence of pairs, ``remove_links`` a slot list
    # or a single slot.
    if result is not None:
        return None
    items = args[1]
    return {"n": len(items) if hasattr(items, "__len__") else 1}


def _materialize_info(args, result):
    # The property body recomputes only when its cache is empty; a cached
    # read is recorded as a zero-work access, not a materialization.
    return {"computed": args[0]._compiled is None} if result is None else None


@contextmanager
def installed(tracer: Tracer):
    """Wrap the layer entry points for the duration of the block."""
    import repro.algorithms.context as context_mod
    import repro.algorithms.sharding as sharding_mod
    import repro.service.daemon as daemon_mod
    from repro.algorithms.context import DynamicContext, SchedulingContext
    from repro.algorithms.repair import OnlineRepairScheduler
    from repro.algorithms.sharding import ShardedRepairScheduler
    from repro.dynamics import ChurnDriver
    from repro.geometry.cells import CellIndex
    from repro.service.daemon import SchedulerDaemon

    patches = [
        (CellIndex, "far_field_sums", "cells.far_field", None),
        (CellIndex, "query", "cells.query", _query_info),
        (context_mod, "build_sparse_affectance", "affectance_sparse.build",
         _build_info),
        (SchedulingContext, "first_fit", "context.first_fit", None),
        (DynamicContext, "add_links", "context.add_links", _count_info),
        (DynamicContext, "remove_links", "context.remove_links",
         _count_info),
        (ChurnDriver, "feed", "dynamics.feed", _feed_info(tracer)),
        (OnlineRepairScheduler, "__init__", "repair.anchor", None),
        (OnlineRepairScheduler, "apply", "repair.apply", None),
        (sharding_mod, "build_shard_layout", "sharding.layout", None),
        (ShardedRepairScheduler, "apply", "sharding.apply", None),
        (SchedulerDaemon, "checkpoint", "daemon.checkpoint", None),
        (daemon_mod, "save_scheduler_state", "io.save_state", None),
        (daemon_mod, "load_scheduler_state", "io.load_state", None),
        (daemon_mod, "save_shard_layout", "io.save_layout", None),
        (daemon_mod, "load_shard_layout", "io.load_layout", None),
    ]
    saved = []
    try:
        for owner, attr, name, info in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, info))
        original = ShardedRepairScheduler.__dict__["active_schedule"]
        saved.append((ShardedRepairScheduler, "active_schedule", original))
        ShardedRepairScheduler.active_schedule = property(
            _wrap(tracer, "sharding.materialize", original.fget,
                  _materialize_info)
        )
        original = SchedulerDaemon.__dict__["restore"]
        saved.append((SchedulerDaemon, "restore", original))
        SchedulerDaemon.restore = classmethod(
            _wrap(tracer, "daemon.restore", original.__func__)
        )
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _ms_quantiles(durations_ns: list[int]) -> tuple[float, float]:
    if not durations_ns:
        return 0.0, 0.0
    arr = np.asarray(durations_ns, dtype=float) / 1e6
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 99))


def self_times(spans) -> dict[str, float]:
    """Seconds of each layer's span time not covered by a child span."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out = {layer: 0.0 for layer in LAYERS}
    for sid, name, start, end, _, _, _ in spans:
        covered = 0
        cursor = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[LAYER_OF[name]] += (end - start - covered) / 1e9
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer times, counts and latency quantiles from the spans.

    Cold-path layers are read from the traced build (request ``setup``),
    so they compare directly with ``setup_s``; the static first-fit from
    the ``schedule`` phase, like ``schedule_s``; ``io.load_s`` from the
    restore.  Everything else covers the whole traced run.
    """
    by_name: dict[str, list[tuple]] = {name: [] for name in LAYER_OF}
    for span in spans:
        by_name[span[1]].append(span)

    def pick(name, request=None):
        return [s for s in by_name[name] if request is None or s[5] == request]

    def total_s(name, request=None):
        return sum(s[3] - s[2] for s in pick(name, request)) / 1e9

    def durs(name):
        return [s[3] - s[2] for s in by_name[name]]

    builds = pick("affectance_sparse.build", "setup")
    build = builds[0] if builds else None
    doublings = 0
    if build is not None:
        inside = [
            s for s in by_name["cells.far_field"]
            if build[2] <= s[2] and s[3] <= build[3]
        ]
        doublings = max(0, len(inside) // 2 - 1)
    info = build[6] if build is not None else {}
    first_fits = [s[3] - s[2] for s in pick("context.first_fit", "schedule")]
    materialized = [
        s[3] - s[2] for s in by_name["sharding.materialize"] if s[6]["computed"]
    ]
    m = {
        "cells.far_field_s": total_s("cells.far_field", "setup"),
        "cells.far_field_calls": len(pick("cells.far_field", "setup")),
        "cells.query_s": total_s("cells.query", "setup"),
        "cells.query_pairs": sum(
            s[6]["pairs"] for s in pick("cells.query", "setup")
        ),
        "affectance_sparse.build_s": total_s("affectance_sparse.build", "setup"),
        "affectance_sparse.nnz": info.get("nnz", 0),
        "affectance_sparse.radius": info.get("radius", 0.0),
        "affectance_sparse.max_tail": info.get("max_tail", 0.0),
        "affectance_sparse.doublings": doublings,
        "context.first_fit_s": (
            float(np.median(first_fits)) / 1e9 if first_fits else 0.0
        ),
        "context.links_added": sum(
            s[6]["n"] for s in by_name["context.add_links"]
        ),
        "context.links_removed": sum(
            s[6]["n"] for s in by_name["context.remove_links"]
        ),
        "dynamics.feed_calls": len(by_name["dynamics.feed"]),
        "repair.anchor_s": total_s("repair.anchor", "setup"),
        "repair.apply_calls": len(by_name["repair.apply"]),
        "sharding.layout_s": total_s("sharding.layout", "setup"),
        "sharding.materialize_calls": len(materialized),
        "io.load_s": (
            total_s("io.load_state", "restore")
            + total_s("io.load_layout", "restore")
        ),
    }
    for key, name in (
        ("context.add_links_ms", "context.add_links"),
        ("context.remove_links_ms", "context.remove_links"),
        ("dynamics.feed_ms", "dynamics.feed"),
        ("repair.apply_ms", "repair.apply"),
        ("sharding.apply_ms", "sharding.apply"),
    ):
        m[key + ".p50"], m[key + ".p99"] = _ms_quantiles(durs(name))
    m["sharding.materialize_ms.p50"], m["sharding.materialize_ms.p99"] = (
        _ms_quantiles(materialized)
    )
    m["io.checkpoint_ms.p50"] = _ms_quantiles(durs("daemon.checkpoint"))[0]
    for layer, seconds in self_times(spans).items():
        m[f"{layer}.self_s"] = seconds
    return m


def chunk_table(spans, t0_ns: int, t1_ns: int):
    """Chunks applied in ``[t0, t1)``: sorted first ids, starts, ends (s).

    A chunk starts with its ``dynamics.feed`` span; it ends with the last
    span serving the same request (the repair that follows the feed).
    """
    feeds = [
        s for s in spans
        if s[1] == "dynamics.feed" and t0_ns <= s[2] < t1_ns
    ]
    last_end: dict[str, int] = {}
    for s in spans:
        if t0_ns <= s[2] < t1_ns and s[5].startswith("batch:"):
            last_end[s[5]] = max(last_end.get(s[5], 0), s[3])
    feeds.sort(key=lambda s: s[6]["first_id"])
    first = np.array([s[6]["first_id"] for s in feeds], dtype=np.int64)
    start = np.array([s[2] for s in feeds], dtype=float) / 1e9
    end = np.array([last_end[s[5]] for s in feeds], dtype=float) / 1e9
    return first, start, end
