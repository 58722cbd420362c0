"""The workloads.

Each workload owns its inputs, a warm-up call, an oracle and one *pass*:
every input of the workload run once, each operation timed from the
caller's side and its result checked against the oracle.  Workloads
call :mod:`repro` only through its public entry points:
``enumerate_maximal_bicliques`` and ``ServiceClient``.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from inputs import warmup_graph, workload_graphs
from repro.api import enumerate_maximal_bicliques
from repro.graph.interop import to_scipy_sparse
from repro.service import ServiceClient
from repro.sharding import ShardCoordinator

#: Independent enumerator the oracle digests come from.
ORACLE_ALGORITHM = "oombea"
#: Service results are paged at this limit, like a remote client would.
PAGE_LIMIT = 500
#: Service-mix: every catalog graph is repeated this often per pass after
#: its cold submission, in a seeded order split between the clients.  An
#: even mix keeps the pass's work from hinging on which graphs the seed
#: happens to repeat.
REPEATS_PER_GRAPH = 8
SERVICE_WORKERS = 2
SERVICE_CLIENTS = 2
#: Service-mix: calibration loops timed before and again after a pass.
#: Its jobs overlap, so the loops cannot sit between them.
SERVICE_CALIBRATIONS = 4

_MASK = (1 << 64) - 1


def digest(bicliques) -> tuple[int, int]:
    """Order-independent digest: (count, sum of biclique hashes mod 2^64).

    A sum rather than an XOR, so a duplicated biclique changes it.
    Tuples of ints hash the same in every process.
    """
    n = 0
    h = 0
    for b in bicliques:
        h = (h + hash((b.left, b.right))) & _MASK
        n += 1
    return n, h


@dataclass
class Op:
    """One client-observed operation."""

    kind: str  # "call" | "cold" | "hit" | "coalesced" | "failed"
    ms: float
    ok: bool
    first_page_ms: float = 0.0
    reported_ms: float = 0.0
    error: str = ""
    #: bicliques delivered (0 unless ``ok``)
    bicliques: int = 0


@dataclass
class Pass:
    wall_s: float
    ops: list[Op] = field(default_factory=list)
    #: the calibration loops timed within the pass, outside every op
    calib_s: list[float] = field(default_factory=list)
    #: per-pass extras (service result stores, shard reports)
    store_bytes: int = 0
    store_records: int = 0
    restarts: int = 0


class ApiWorkload:
    """A closed loop of one caller running the API over every input."""

    def __init__(self, name: str, seed: int, **call_kwargs) -> None:
        self.name = name
        self.seed = seed
        self.call_kwargs = call_kwargs
        self.graphs: list = []
        self.oracle: list[tuple[int, int]] = []
        self._reports: list = []
        self._saved_run = None
        if call_kwargs.get("shards", 1) > 1:
            self._observe_shard_reports()

    def _observe_shard_reports(self) -> None:
        """Keep each sharded call's report, for its worker restarts."""
        original = ShardCoordinator.run
        reports = self._reports

        @functools.wraps(original)
        def run(coordinator):
            report = original(coordinator)
            reports.append(report)
            return report

        self._saved_run = original
        ShardCoordinator.run = run

    def close(self) -> None:
        if self._saved_run is not None:
            ShardCoordinator.run = self._saved_run
            self._saved_run = None

    def build_inputs(self) -> None:
        self.graphs = workload_graphs(self.name, self.seed)
        self.warm = warmup_graph(self.name, self.seed)

    def warm_up(self) -> None:
        enumerate_maximal_bicliques(self.warm, **self.call_kwargs)

    def compute_oracle(self) -> None:
        self.oracle = [
            digest(enumerate_maximal_bicliques(g, algorithm=ORACLE_ALGORITHM))
            for g in self.graphs
        ]

    def run_pass(self, recorder=None, telemetry=None,
                 calibrate=None) -> Pass:
        """Every input once; ``calibrate`` (if given) runs before each
        call and after the last, outside the timed calls."""
        kwargs = dict(self.call_kwargs)
        if telemetry is not None:
            kwargs["telemetry"] = telemetry
        result = Pass(wall_s=0.0)
        for graph, expected in zip(self.graphs, self.oracle):
            if calibrate is not None:
                result.calib_s.append(calibrate())
            del self._reports[:]
            error = ""
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    out = enumerate_maximal_bicliques(graph, **kwargs)
                else:
                    with recorder.span("api.enumerate", op=True):
                        out = enumerate_maximal_bicliques(graph, **kwargs)
            except Exception as exc:  # counted as a failed operation
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            result.wall_s += dt
            ok = out is not None and digest(out) == expected
            for report in self._reports:
                stats = report.extras.get("pool_stats") or {}
                restarts = int(stats.get("restarts", 0))
                result.restarts += restarts
                if restarts:
                    ok = False
                    error = error or f"{restarts} worker restart(s)"
            if out is not None and not ok and not error:
                error = "result differs from the oracle"
            result.ops.append(Op("call" if ok else "failed", dt * 1e3, ok,
                                 error=error,
                                 bicliques=expected[0] if ok else 0))
        if calibrate is not None:
            result.calib_s.append(calibrate())
        return result


class ServiceWorkload:
    """Two closed-loop clients sharing one ``ServiceClient``.

    Per pass a fresh client (empty cache) takes every catalog graph cold
    once, split between the clients, then a seeded sequence of repeats.
    Every submission sends a fresh CSR copy; every job is followed by
    paging all its results at :data:`PAGE_LIMIT`.
    """

    name = "service-mix"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.graphs: list = []
        self.oracle: list[tuple[int, int]] = []

    def close(self) -> None:
        pass

    def build_inputs(self) -> None:
        self.graphs = workload_graphs(self.name, self.seed)
        self.csr = [to_scipy_sparse(g) for g in self.graphs]
        self.warm_csr = to_scipy_sparse(warmup_graph(self.name, self.seed))
        rng = np.random.default_rng([self.seed, 0x5E])
        n = len(self.graphs)
        repeats = rng.permutation(np.repeat(np.arange(n), REPEATS_PER_GRAPH))
        repeats = [int(i) for i in repeats]
        self.sequences = [
            list(range(c, n, SERVICE_CLIENTS)) + repeats[c::SERVICE_CLIENTS]
            for c in range(SERVICE_CLIENTS)
        ]

    def warm_up(self) -> None:
        with ServiceClient(n_workers=SERVICE_WORKERS) as client:
            res = client.submit(graph=self.warm_csr.copy())
            cursor = None
            while True:
                _, cursor = client.fetch_page(res, cursor, PAGE_LIMIT)
                if cursor is None:
                    break

    def compute_oracle(self) -> None:
        self.oracle = [
            digest(enumerate_maximal_bicliques(g, algorithm=ORACLE_ALGORITHM))
            for g in self.graphs
        ]

    def _job(self, client, i: int, recorder) -> tuple[Op, object]:
        csr = self.csr[i].copy()
        traced = recorder is not None
        t0 = time.perf_counter()
        res = None
        try:
            with (recorder.span("bench.job", op=True) if traced
                  else nullcontext()):
                with (recorder.span("service.submit") if traced
                      else nullcontext()) as submit_span:
                    res = client.submit(graph=csr)
                    if traced:
                        submit_span["attrs"]["job"] = res.job_id
                items, first_ms = self._pages(client, res, t0)
        except Exception as exc:  # rejection or a broken service
            dt = (time.perf_counter() - t0) * 1e3
            return Op("failed", dt, False,
                      error=f"{type(exc).__name__}: {exc}"), res
        dt = (time.perf_counter() - t0) * 1e3
        if res.status != "completed":
            ok, error = False, res.error or f"status {res.status}"
        elif digest(items) != self.oracle[i]:
            ok, error = False, "result differs from the oracle"
        else:
            ok, error = True, ""
        kind = "hit" if res.cache_hit else (
            "coalesced" if res.coalesced else "cold"
        )
        return Op(kind if ok else "failed", dt, ok, first_page_ms=first_ms,
                  reported_ms=res.latency_ms, error=error,
                  bicliques=self.oracle[i][0] if ok else 0), res

    @staticmethod
    def _pages(client, res, t0) -> tuple[list, float]:
        items: list = []
        first_ms = 0.0
        cursor = None
        while True:
            page, cursor = client.fetch_page(res, cursor, PAGE_LIMIT)
            if not items:
                first_ms = (time.perf_counter() - t0) * 1e3
            items.extend(page)
            if cursor is None:
                return items, first_ms

    def run_pass(self, recorder=None, telemetry=None,
                 calibrate=None) -> Pass:
        """One pass; ``calibrate`` (if given) runs
        :data:`SERVICE_CALIBRATIONS` times before it and after it."""
        calib = [calibrate() for _ in range(SERVICE_CALIBRATIONS)
                 ] if calibrate is not None else []
        client = ServiceClient(n_workers=SERVICE_WORKERS, telemetry=telemetry)
        ops: list[list[Op]] = [[] for _ in range(SERVICE_CLIENTS)]
        stores: dict[int, object] = {}
        bounds: list[tuple[float, float]] = [(0.0, 0.0)] * SERVICE_CLIENTS
        barrier = threading.Barrier(SERVICE_CLIENTS)

        def loop(c: int) -> None:
            barrier.wait()
            start = time.perf_counter()
            for i in self.sequences[c]:
                op, res = self._job(client, i, recorder)
                ops[c].append(op)
                if op.kind == "cold" and res.store is not None:
                    stores[i] = res.store
            bounds[c] = (start, time.perf_counter())

        try:
            threads = [
                threading.Thread(target=loop, args=(c,), name=f"client-{c}")
                for c in range(SERVICE_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            client.close()
        wall = max(e for _, e in bounds) - min(s for s, _ in bounds)
        if calibrate is not None:
            calib += [calibrate() for _ in range(SERVICE_CALIBRATIONS)]
        result = Pass(wall_s=wall, ops=[op for per in ops for op in per],
                      calib_s=calib)
        result.store_bytes = sum(s.nbytes for s in stores.values())
        result.store_records = sum(len(s) for s in stores.values())
        return result


def make_workload(name: str, seed: int):
    if name == "service-mix":
        return ServiceWorkload(seed)
    if name == "sharded-proc":
        return ApiWorkload(name, seed, shards=2, shard_pool="process")
    return ApiWorkload(name, seed)

