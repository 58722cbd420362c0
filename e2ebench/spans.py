"""Benchmark-side tracing: spans around the calls into each layer.

Nothing here edits :mod:`repro`.  A traced run installs :class:`LayerProbes`,
which rebinds the names a layer is reached through (a module global the
caller looks up, or a method on the class) to a wrapper that records one
span per call and then calls the original.  Uninstalling restores every
original binding.  The probes sit at enumeration, root-task, task and
batch granularity; none wraps a per-biclique or per-set-op call.

Each span has a name (``<layer>.<what>``), a start and end on the
``perf_counter`` clock, its parent span, and the run id.  The current span
lives in a :class:`~contextvars.ContextVar`, so parents follow the caller
across the service's thread hop: a coroutine submitted from a client
thread runs in a copy of that thread's context.  Work the broker
dispatches from its own queue is linked back to the submitting client's
operation afterwards, by job id (see :func:`attach_orphans`).

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "e2ebench_span", default=None
)

#: ``(module, attribute, span name)`` — module globals a caller looks up.
FUNCTION_PROBES = [
    ("repro.api", "as_bipartite_graph", "graph.as_bipartite_graph"),
    ("repro.api", "gmbe_gpu", "gmbe.gmbe_gpu"),
    ("repro.gmbe.kernel", "prepare", "graph.prepare"),
    ("repro.gmbe.kernel", "build_root_task", "core.build_root_task"),
    ("repro.gmbe.kernel", "expand_node", "core.expand_node"),
    ("repro.gmbe.kernel", "gamma_matches", "core.gamma_matches"),
    ("repro.gmbe.kernel", "run_batch", "core.run_batch"),
    ("repro.gmbe.kernel", "run_task_with_node_buffer",
     "gmbe.node_buffer_dfs"),
    ("repro.gmbe.kernel", "register_sim_report", "telemetry.register"),
    ("repro.gmbe.kernel", "register_counters", "telemetry.register"),
    ("repro.service.broker", "as_bipartite_graph", "graph.ingest"),
    ("repro.service.broker", "enumerate_maximal_bicliques", "api.enumerate"),
    ("repro.sharding.coordinator", "merge_shard_results", "sharding.merge"),
]

#: ``(module, class, method, span name)`` — methods rebound on the class.
#: ``_run_entry`` (broker dispatch of one queued job), and the supervised
#: process fan-out and worker-telemetry fold of the shard coordinator have
#: no public entry point of their own; they are wrapped where they are.
METHOD_PROBES = [
    ("repro.service.cache", "ResultCache", "make_key", "graph.fingerprint"),
    ("repro.service.cache", "ResultCache", "get", "service.cache_get"),
    ("repro.service.cache", "ResultCache", "put", "service.cache_put"),
    ("repro.service.broker", "EnumerationBroker", "_run_entry",
     "service.dispatch"),
    ("repro.store.resultset", "StoredResultSet", "from_bicliques",
     "store.encode"),
    ("repro.store.resultset", "StoredResultSet", "as_tuple",
     "store.full_decode"),
    ("repro.store.resultset", "StoredResultSet", "page", "store.page"),
    ("repro.sharding.coordinator", "ShardCoordinator", "run", "sharding.run"),
    ("repro.sharding.coordinator", "ShardCoordinator", "plan_shards",
     "sharding.plan"),
    ("repro.sharding.coordinator", "ShardCoordinator", "_dispatch_supervised",
     "parallel.dispatch"),
    ("repro.sharding.coordinator", "ShardCoordinator",
     "_fold_worker_telemetry", "telemetry.fold"),
    ("repro.parallel.procpool", "ProcessWorkerPool", "__init__",
     "parallel.spawn"),
    ("repro.parallel.procpool", "ProcessWorkerPool", "shutdown",
     "parallel.shutdown"),
]

#: Every layer the probes (or the workloads themselves) record a span for.
LAYERS = (
    "api", "graph", "gmbe", "core", "gpusim", "store", "service",
    "sharding", "parallel", "telemetry",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanRecorder:
    """In-memory span list for one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    def _open(self, name: str, attrs: dict) -> tuple[dict, object]:
        rec = {
            "id": next(self._ids),
            "parent": _CURRENT.get(),
            "name": name,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        return rec, _CURRENT.set(rec["id"])

    def _close(self, rec: dict, token) -> None:
        rec["end"] = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append(rec)

    @contextmanager
    def span(self, name: str, **attrs):
        rec, token = self._open(name, attrs)
        try:
            yield rec
        finally:
            self._close(rec, token)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result(value)`` may
        add attributes read off the return value."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                with self.span(name, **_job_attr(args)):
                    return await fn(*args, **kwargs)

            return traced_async

        # plain try/finally: this runs once per task on the hot path
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec, token = self._open(name, {})
            try:
                value = fn(*args, **kwargs)
                if on_result is not None:
                    rec["attrs"].update(on_result(value))
                return value
            finally:
                self._close(rec, token)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


def _job_attr(args) -> dict:
    """``job`` id of a broker ``_run_entry(self, entry)`` call."""
    if len(args) >= 2 and hasattr(args[1], "job"):
        return {"job": args[1].job.id}
    return {}


class LayerProbes:
    """Install/uninstall the span wrappers of one :class:`SpanRecorder`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        rec = self.recorder
        for mod_name, attr, span_name in FUNCTION_PROBES:
            mod = importlib.import_module(mod_name)
            on_result = (
                _kernel_attrs if span_name == "gmbe.gmbe_gpu" else None
            )
            self._rebind(
                mod, attr, rec.wrap(span_name, getattr(mod, attr), on_result)
            )
        for mod_name, cls_name, attr, span_name in METHOD_PROBES:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            raw = inspect.getattr_static(cls, attr)
            if isinstance(raw, staticmethod):
                new = staticmethod(rec.wrap(span_name, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(rec.wrap(span_name, raw.__func__))
            else:
                new = rec.wrap(span_name, raw)
            self._rebind(cls, attr, new, raw)
        kernel = importlib.import_module("repro.gmbe.kernel")
        self._rebind(
            kernel,
            "PersistentThreadScheduler",
            _traced_scheduler(rec, kernel.PersistentThreadScheduler),
        )

    def _rebind(self, owner, attr, new, old=None) -> None:
        if old is None:
            old = getattr(owner, attr)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "LayerProbes":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _kernel_attrs(result) -> dict:
    """Exact simulator counts off one ``gmbe_gpu`` EnumerationResult."""
    backends = result.extras.get("set_backend_tasks", {})
    return {
        "makespan_cycles": result.extras["report"].makespan_cycles,
        "bitset_tasks": backends.get("bitset", 0),
        "root_tasks": sum(backends.values()),
    }


def _traced_scheduler(rec: SpanRecorder, base):
    """A scheduler subclass: ``run`` is the gpusim span, every task
    ``execute`` callback a gmbe span under it."""

    class TracedScheduler(base):
        def __init__(self, *args, execute, **kwargs):
            super().__init__(
                *args, execute=rec.wrap("gmbe.execute", execute), **kwargs
            )

        def run(self, *args, **kwargs):
            with rec.span("gpusim.run"):
                return super().run(*args, **kwargs)

    TracedScheduler.__name__ = base.__name__
    return TracedScheduler


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def attach_orphans(spans: list[dict]) -> None:
    """Parent each root ``service.dispatch`` span to the client's
    ``service.submit`` span of the same job (the broker dequeues it on its
    own task, outside the submitting client's context).

    Job ids restart with every broker, so the match also requires the
    submit span to be open when the dispatch starts.
    """
    submits: dict[object, list[dict]] = defaultdict(list)
    for s in spans:
        if s["name"] == "service.submit" and "job" in s["attrs"]:
            submits[s["attrs"]["job"]].append(s)
    for s in spans:
        if s["parent"] is None and s["name"] == "service.dispatch":
            for sub in submits.get(s["attrs"].get("job"), ()):
                if sub["start"] <= s["start"] <= sub["end"]:
                    s["parent"] = sub["id"]
                    break


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = _union_length([
            (max(c["start"], lo), min(c["end"], hi))
            for c in children.get(s["id"], ())
            if c["end"] > lo and c["start"] < hi
        ])
        out[s["id"]] = (hi - lo) - covered
    return out


def layer_breakdown(spans: list[dict]) -> dict:
    """Self time per layer inside operation trees, plus the rest.

    An operation span (``attrs["op"]``) is one client-observed call; the
    self times of every span below it add up to its duration.
    """
    attach_orphans(spans)
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)

    def op_root(s):
        # a parent always opened before its child, so this terminates
        while s is not None and not s["attrs"].get("op"):
            s = by_id.get(s["parent"])
        return s

    per_layer: dict[str, float] = defaultdict(float)
    per_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    op_total = 0.0
    outside = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        stat = per_name[s["name"]]
        stat[0] += 1
        stat[1] += dur
        stat[2] += own[s["id"]]
        if op_root(s) is None:
            outside += own[s["id"]]
            continue
        per_layer[layer_of(s["name"])] += own[s["id"]]
        if s["attrs"].get("op"):
            op_total += dur
    return {
        "self_s": dict(per_layer),
        "op_total_s": op_total,
        "outside_ops_s": outside,
        "by_name": {
            k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
            for k, v in sorted(per_name.items())
        },
    }
