"""One shard = one ordinary kernel run restricted to its owned roots.

:class:`ShardRunner` is deliberately thin: it derives the shard's
``root_mask`` from the plan, pins the config's ``order`` to the plan's
(the ownership rule lives in prepared vertex space — a shard enumerating
under a different order would own different bicliques), and hands
everything else to :func:`~repro.gmbe.kernel.gmbe_gpu` — so faults,
checkpoint/resume, telemetry, batching, and tuning all work inside a
shard exactly as they do in a single-node run.

Checkpoint isolation: each shard snapshots to its own file, named by the
plan *signature* × shard id, under the coordinator's checkpoint
directory.  The kernel's existing identity guards (graph fingerprint ×
config signature × device topology) validate the snapshot on resume;
the signature-scoped filename guarantees a snapshot written under one
partition can never be picked up by a different plan or shard.
"""

from __future__ import annotations

import os
import signal
import threading
from operator import attrgetter
from dataclasses import dataclass, field

from ..core.bicliques import Biclique, BicliqueCollector, Counters
from ..gmbe.config import GMBEConfig
from ..gmbe.kernel import gmbe_gpu
from ..gpusim.device import A100, DeviceSpec
from ..graph.bipartite import BipartiteGraph
from ..telemetry import NULL_TRACER, current_telemetry
from .plan import ShardPlan

__all__ = [
    "ShardResult",
    "ShardRunner",
    "run_shard_task",
    "shard_checkpoint_path",
]


def shard_checkpoint_path(
    checkpoint_dir: str | None, plan: ShardPlan, shard_id: int
) -> str | None:
    """The snapshot file for one shard (plan signature × shard id)."""
    if checkpoint_dir is None:
        return None
    return os.path.join(
        checkpoint_dir,
        f"shard-{plan.signature()[:16]}-"
        f"{shard_id:04d}of{plan.n_shards}.ckpt",
    )


@dataclass
class ShardResult:
    """Everything one shard produced.

    ``bicliques`` is sorted (input labels), ready for the coordinator's
    k-way stream merge.  ``sim_time`` is this shard's modeled seconds on
    its own device — the coordinator folds per-device placement into a
    fleet makespan.
    """

    shard_id: int
    n_shards: int
    bicliques: list[Biclique]
    counters: Counters
    sim_time: float
    owned_roots: int
    resumed: bool = False
    halted: bool = False
    extras: dict = field(default_factory=dict)

    @property
    def n_maximal(self) -> int:
        return len(self.bicliques)


class ShardRunner:
    """Execute one shard of a :class:`~repro.sharding.ShardPlan`.

    Parameters
    ----------
    graph:
        The *full* input graph (every shard sees the whole graph; only
        root-task ownership is restricted).
    plan, shard_id:
        The partition and this runner's slot in it.
    config:
        Kernel knobs for this shard.  ``order`` is pinned to the plan's
        order — per-shard tuned configs may vary every other knob (none
        of which change the enumerated set), but the ownership rule is a
        function of the prepared space.
    device, n_gpus, root_pull_surcharge:
        The simulated device this shard runs on; the optional surcharge
        models a cluster-placed shard paying PCIe/network cost per root
        claim (see :class:`~repro.gmbe.ClusterSpec`).
    checkpoint_dir, checkpoint_every:
        When set, the shard snapshots its frontier to its own
        plan-signature × shard-id file and auto-resumes from it if one
        is left over from a crashed attempt.
    fault_plan, halt_after_tasks:
        Robustness passthrough to the kernel (per-shard fault injection
        and the kill switch the crash tests use).
    telemetry:
        Explicit telemetry; defaults to ambient discovery, so shards
        dispatched by the coordinator inherit the job's correlation ids.
    emit_span:
        When False, the runner records its ``shard.*`` metrics but opens
        no ``shard.run`` span of its own.  The process-pool path uses
        this: the *coordinator* owns one span per dispatched attempt
        (it outlives a SIGKILLed worker), and the worker's records are
        re-parented under it on merge — a worker-side ``shard.run``
        would duplicate it.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        plan: ShardPlan,
        shard_id: int,
        *,
        config: GMBEConfig | None = None,
        device: DeviceSpec = A100,
        n_gpus: int = 1,
        root_pull_surcharge: float | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 256,
        fault_plan=None,
        halt_after_tasks: int | None = None,
        telemetry=None,
        emit_span: bool = True,
    ) -> None:
        plan.validate_against(graph)
        plan._check_shard(shard_id)
        self.graph = graph
        self.plan = plan
        self.shard_id = shard_id
        base = config if config is not None else GMBEConfig()
        self.config = (
            base if base.order == plan.order
            else base.with_(order=plan.order)
        )
        self.device = device
        self.n_gpus = n_gpus
        self.root_pull_surcharge = root_pull_surcharge
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.fault_plan = fault_plan
        self.halt_after_tasks = halt_after_tasks
        self.telemetry = telemetry
        self.emit_span = emit_span

    # ------------------------------------------------------------------
    @property
    def checkpoint_path(self) -> str | None:
        """This shard's snapshot file (plan signature × shard id)."""
        return shard_checkpoint_path(
            self.checkpoint_dir, self.plan, self.shard_id
        )

    def run(self) -> ShardResult:
        """Enumerate this shard's owned subtrees; see :class:`ShardResult`."""
        telemetry = (
            self.telemetry if self.telemetry is not None
            else current_telemetry()
        )
        if telemetry is not None and not telemetry.enabled:
            telemetry = None
        tracer = telemetry.tracer if telemetry is not None else NULL_TRACER

        mask = self.plan.mask(self.shard_id)
        owned = int(mask.sum())
        ckpt_path = self.checkpoint_path
        resume = ckpt_path is not None and os.path.exists(ckpt_path)
        if ckpt_path is not None:
            os.makedirs(self.checkpoint_dir, exist_ok=True)
        collector = BicliqueCollector()
        surcharges = (
            None
            if self.root_pull_surcharge is None
            else [float(self.root_pull_surcharge)] * self.n_gpus
        )
        span_tracer = tracer if self.emit_span else NULL_TRACER
        with span_tracer.span(
            "shard.run",
            shard=self.shard_id,
            n_shards=self.plan.n_shards,
            owned_roots=owned,
            device=self.device.name,
            resumed=resume,
        ) as span:
            result = gmbe_gpu(
                self.graph,
                collector,
                config=self.config,
                device=self.device,
                n_gpus=self.n_gpus,
                root_mask=mask,
                root_pull_surcharges=surcharges,
                fault_plan=self.fault_plan,
                checkpoint_path=ckpt_path,
                checkpoint_every=self.checkpoint_every,
                resume=resume,
                halt_after_tasks=self.halt_after_tasks,
                telemetry=telemetry,
            )
            halted = bool(result.extras.get("halted", False))
            if telemetry is not None:
                span.set_attr("n_maximal", result.n_maximal)
                span.set_attr("halted", halted)
                registry = telemetry.registry
                registry.counter("shard.runs").add(1)
                if resume:
                    registry.counter("shard.resumed").add(1)
                registry.histogram("shard.owned_roots").record(owned)
                registry.histogram("shard.sim_seconds").record(
                    result.sim_time
                )
        bicliques = sorted(
            collector.bicliques, key=attrgetter("left", "right")
        )
        return ShardResult(
            shard_id=self.shard_id,
            n_shards=self.plan.n_shards,
            bicliques=bicliques,
            counters=result.counters,
            sim_time=result.sim_time,
            owned_roots=owned,
            resumed=resume,
            halted=halted,
            extras=result.extras,
        )


# ----------------------------------------------------------------------
# Spawn-safe entry point for process-pool dispatch
# ----------------------------------------------------------------------
def _arm_chaos_kill(delay_s: float) -> None:
    """SIGKILL *this* process after ``delay_s`` seconds (chaos tests).

    A non-positive delay kills immediately — before the shard does any
    work — which is the deterministic building block of the quarantine
    tests.  The timer thread is a daemon: if the shard finishes first,
    the process exits normally and the pending kill dies with it.
    """
    if delay_s <= 0:
        os.kill(os.getpid(), signal.SIGKILL)
        return  # pragma: no cover — SIGKILL never returns
    timer = threading.Timer(
        delay_s, os.kill, args=(os.getpid(), signal.SIGKILL)
    )
    timer.daemon = True
    timer.start()


def run_shard_task(
    graph: BipartiteGraph,
    plan: ShardPlan,
    shard_id: int,
    *,
    config: GMBEConfig | None = None,
    device: DeviceSpec = A100,
    n_gpus: int = 1,
    root_pull_surcharge: float | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 256,
    fault_plan=None,
    halt_after_tasks: int | None = None,
    chaos_kill_after: float | None = None,
    trace: "TraceContext | None" = None,
    attempt: int = 1,
    telemetry_capacity: int = 2048,
) -> ShardResult:
    """Run one shard in the calling process — the process-pool entry.

    Module-level and fully picklable-in/picklable-out, so a
    :class:`~repro.parallel.ProcessWorkerPool` can ship it to a spawned
    worker: the graph, plan, and config cross the pipe; the sorted
    :class:`ShardResult` comes back.

    A live :class:`~repro.telemetry.Telemetry` still cannot cross the
    pipe (locks, sinks, contextvars) — but its *data* can.  When the
    coordinator passes a picklable
    :class:`~repro.telemetry.TraceContext` (``trace=``), the worker
    builds a local buffering :class:`~repro.telemetry.WorkerTelemetry`:
    the kernel records ``sim.kernel`` spans, ``sim.phase.*`` counters,
    and fault events exactly as an in-process run would, and the records
    travel back as picklable
    :class:`~repro.telemetry.TelemetrySnapshot`\\ s over two channels —
    incrementally piggybacked on every heartbeat (so a SIGKILLed worker
    still leaves its last buffered records with the parent) and as a
    final flush in ``ShardResult.extras["telemetry"]``.  The coordinator
    re-parents them under its per-attempt ``shard.run``/``shard.retry``
    span, giving process-pool shards the *same* correlation contract as
    thread-pool ones: one ``trace_id``, one ``job_id``, one grep.

    ``chaos_kill_after`` arms a SIGKILL against the worker's own pid
    after that many seconds — the chaos harness for the supervision
    tests; never set it outside one.
    """
    if chaos_kill_after is not None:
        _arm_chaos_kill(float(chaos_kill_after))
    worker = None
    if trace is not None:
        # Imported here, not at module top: the worker entry must stay
        # import-light for the spawn path when telemetry is off.
        from ..parallel.procpool import set_heartbeat_aux_provider
        from ..telemetry.remote import WorkerTelemetry

        worker = WorkerTelemetry(
            trace,
            shard_id=shard_id,
            attempt=attempt,
            capacity=telemetry_capacity,
        )
        # Mark the attempt immediately: the first heartbeat flush (one
        # interval away) then carries proof this worker started, even if
        # it is killed before the kernel emits anything.
        worker.telemetry.tracer.event(
            "shard.worker_start",
            shard=shard_id,
            attempt=attempt,
            pid=os.getpid(),
        )
        set_heartbeat_aux_provider(worker.flush)
    try:
        runner = ShardRunner(
            graph,
            plan,
            shard_id,
            config=config,
            device=device,
            n_gpus=n_gpus,
            root_pull_surcharge=root_pull_surcharge,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            fault_plan=fault_plan,
            halt_after_tasks=halt_after_tasks,
            telemetry=worker.telemetry if worker is not None else None,
            emit_span=worker is None,
        )
        result = runner.run()
    finally:
        if worker is not None:
            set_heartbeat_aux_provider(None)
    if worker is not None:
        result.extras["telemetry"] = worker.flush(final=True)
    return result
