"""End-to-end benchmark of the GMBE reproduction, with a per-layer trace.

Run from the repository root::

    python3 e2ebench/run.py --workload skewed-hub --seed 1 --trace 0
    python3 e2ebench/run.py --workload all --seed 1      # every workload

One run = one workload in one process: set-up (timed several times), an
oracle for every input (untimed), then passes over the inputs for
``--seconds``.  ``--trace 0`` prints the end-to-end metrics, measured with
tracing off.  ``--trace 1`` alternates untraced passes with passes traced
by layer spans plus an attached ``repro.telemetry.Telemetry``, and prints
the per-layer metrics.  The last stdout line is one JSON object; a human
table with sample counts comes before it, and the full record (plus the
spans of a traced run) is written under ``.bench_out/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("skewed-hub", "service-mix", "sharded-proc")
SETUP_REPEATS = 3
#: Largest |traced layer self-time sum − untraced op time| / untraced.
#: It has to hold the tracing overhead (traced/untraced pass wall
#: measured 0.92–1.22) plus the drift between neighbouring passes.
RECONCILE_TOLERANCE = 0.25

#: (name, unit) — measured with tracing off, printed with ``--trace 0``.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_per_kbiclique", "calib/kbic"),
    ("peak_rss_mb", "MB"),
]

#: (name, unit, better) — printed with ``--trace 1``.
PER_LAYER = [
    ("api.self_ms", "ms", "lower"),
    ("graph.self_ms", "ms", "lower"),
    ("gmbe.self_ms", "ms", "lower"),
    ("core.self_ms", "ms", "lower"),
    ("gpusim.self_ms", "ms", "lower"),
    ("store.self_ms", "ms", "lower"),
    ("service.self_ms", "ms", "lower"),
    ("sharding.self_ms", "ms", "lower"),
    ("parallel.self_ms", "ms", "lower"),
    ("telemetry.self_ms", "ms", "lower"),
    ("bench.self_ms", "ms", "lower"),
    ("graph.ingest_ms", "ms", "lower"),
    ("graph.fingerprint_ms", "ms", "lower"),
    ("graph.prepare_ms", "ms", "lower"),
    ("gmbe.kernel_s", "s", "lower"),
    ("gmbe.us_per_task", "us", "lower"),
    ("gmbe.tasks_executed", "count", "lower"),
    ("gmbe.tasks_split", "count", "lower"),
    ("gmbe.batch_rounds", "count", "lower"),
    ("gmbe.tasks_per_round", "count", "higher"),
    ("gpusim.makespan_cycles", "cycles", "lower"),
    ("gpusim.warp_efficiency", "ratio", "higher"),
    ("core.set_op_work", "count", "lower"),
    ("core.nodes_generated", "count", "lower"),
    ("core.maximal_per_node", "ratio", "higher"),
    ("core.bitset_task_share", "ratio", "higher"),
    ("store.encode_ms", "ms", "lower"),
    ("store.full_decode_ms", "ms", "lower"),
    ("store.page_ms", "ms", "lower"),
    ("store.bytes_per_biclique", "B", "lower"),
    ("service.cold_p50_ms", "ms", "lower"),
    ("service.hit_p50_ms", "ms", "lower"),
    ("service.hit_tail_ms", "ms", "lower"),
    ("service.hit_first_page_p50_ms", "ms", "lower"),
    ("service.hit_reported_ms", "ms", "lower"),
    ("service.jobs_per_s", "1/s", "higher"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.hit_ratio", "ratio", "higher"),
    ("service.coalesced", "count", "lower"),
    ("sharding.plan_ms", "ms", "lower"),
    ("sharding.merge_ms", "ms", "lower"),
    ("sharding.imbalance", "ratio", "lower"),
    ("parallel.spawn_s", "s", "lower"),
    ("parallel.worker_restarts", "count", "lower"),
    ("telemetry.overhead_ratio", "ratio", "lower"),
    ("telemetry.reconcile_error", "ratio", "lower"),
    ("host.calib_ms", "ms", "lower"),
    ("host.pass_wall_s", "s", "lower"),
]


def _import_program():
    """Put ``src`` on the path and import the workloads module."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(
            f"error: the program's source is missing ({SRC / 'repro'}); "
            "run from a full checkout of the repository"
        )
    sys.path.insert(0, str(SRC))
    # spawned shard workers start from a fresh interpreter
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import workloads

    return workloads


def calibrate() -> float:
    """Seconds of a fixed loop of Python arithmetic, set and small NumPy
    operations, the mix the kernel spends its time in.  It shares no
    code with the program, so a faster program leaves it unchanged.
    Short (about 20 ms), because the workloads run it between
    operations, to sample the same stretch of host speed they do."""
    import numpy as np

    a = np.arange(4096, dtype=np.uint64)
    t = time.perf_counter()
    acc = 0
    for _ in range(12):
        for i in range(20_000):
            acc += i * i
        acc += len(set(range(2000)) & set(range(1000, 3000)))
        acc += int(np.bitwise_and(a, a[::-1]).sum() & 1)
    return time.perf_counter() - t


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; (0, 0) with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return 0.0, 0.0
    k = n - 10  # 1-based rank; ten samples rank above it
    return sorted(values)[k - 1], 100.0 * k / n


class Passes:
    """Untraced passes and, in a traced run, traced ones with their
    telemetry (one ``Telemetry`` per traced pass)."""

    def __init__(self) -> None:
        self.untraced: list = []
        self.traced: list = []
        self.registries: list[dict] = []
        self.records: list[list[dict]] = []


def run_passes(workload, seconds: float, recorder=None, probes=None) -> Passes:
    """Passes until ``seconds`` have gone by (at least one).

    With ``probes``, untraced and traced passes alternate, so both sample
    the same stretch of host noise.
    """
    from repro.telemetry import RingSink, Telemetry

    out = Passes()
    start = time.perf_counter()
    while True:
        out.untraced.append(workload.run_pass(calibrate=calibrate))
        if probes is not None:
            tel = Telemetry(sinks=[RingSink(capacity=100_000)])
            with probes:
                out.traced.append(workload.run_pass(recorder, tel))
            snap = tel.snapshot()
            out.registries.append(snap["metrics"])
            out.records.append(snap["records"])
        if time.perf_counter() - start >= seconds:
            return out


def _ops(passes, kind=None):
    return [
        op for p in passes for op in p.ops if kind is None or op.kind == kind
    ]


def service_metrics(passes) -> dict:
    """Client-observed service numbers (0 where the workload has none)."""
    median = statistics.median
    hits, colds = _ops(passes, "hit"), _ops(passes, "cold")
    jobs = _ops(passes)
    if not jobs or not (hits or colds):
        return {}
    hit_tail, hit_pct = tail([o.ms for o in hits])
    return {
        "service.cold_p50_ms": median([o.ms for o in colds]) if colds else 0.0,
        "service.hit_p50_ms": median([o.ms for o in hits]) if hits else 0.0,
        "service.hit_tail_ms": hit_tail,
        "service.hit_tail_pct": hit_pct,
        "service.hit_first_page_p50_ms": (
            median([o.first_page_ms for o in hits]) if hits else 0.0
        ),
        "service.hit_reported_ms": (
            median([o.reported_ms for o in hits]) if hits else 0.0
        ),
        "service.jobs_per_s": len(jobs) / sum(p.wall_s for p in passes),
        "service.hit_ratio": len(hits) / len(jobs),
        "service.coalesced": len(_ops(passes, "coalesced")) / len(passes),
    }


def _registry_sum(registries, name) -> float:
    total = 0.0
    for reg in registries:
        value = reg.get(name, 0)
        if isinstance(value, dict):  # a histogram
            value = value["count"] * value["mean"]
        total += value
    return total


def layer_metrics(spans_mod, recorder, passes: Passes):
    """Per-layer numbers from the traced passes (per pass unless noted)."""
    traced, untraced = passes.traced, passes.untraced
    registries, records = passes.registries, passes.records
    n = len(traced)
    bd = spans_mod.layer_breakdown(recorder.spans)
    by_name = bd["by_name"]
    m: dict[str, float] = {}
    for layer in spans_mod.LAYERS + ("bench",):
        m[f"{layer}.self_ms"] = bd["self_s"].get(layer, 0.0) * 1e3 / n

    def per_call_ms(name):
        s = by_name.get(name)
        return s["total_s"] * 1e3 / s["calls"] if s else 0.0

    m["graph.ingest_ms"] = per_call_ms("graph.ingest")
    m["graph.fingerprint_ms"] = per_call_ms("graph.fingerprint")
    m["graph.prepare_ms"] = per_call_ms("graph.prepare")
    m["store.encode_ms"] = per_call_ms("store.encode")
    m["store.full_decode_ms"] = per_call_ms("store.full_decode")
    m["store.page_ms"] = per_call_ms("store.page")
    m["sharding.plan_ms"] = per_call_ms("sharding.plan")
    m["sharding.merge_ms"] = per_call_ms("sharding.merge")

    kernels = [s for s in recorder.spans if s["name"] == "gmbe.gmbe_gpu"]
    # telemetry record ids are unique within one pass's Telemetry only
    sim_kernels = [
        r for recs in records for r in recs
        if r.get("type") == "span" and r["name"] == "sim.kernel"
    ]
    if kernels:
        kernel_s = sum(s["end"] - s["start"] for s in kernels)
        makespan = sum(s["attrs"].get("makespan_cycles", 0) for s in kernels)
    else:  # process shards: the kernels ran in workers
        kernel_s = sum(r["duration_s"] for r in sim_kernels)
        makespan = sum(
            r["attrs"].get("makespan_cycles", 0) for r in sim_kernels
        )
    bitset = sum(s["attrs"].get("bitset_tasks", 0) for s in kernels)
    roots = sum(s["attrs"].get("root_tasks", 0) for s in kernels)
    tasks = _registry_sum(registries, "sim.tasks.executed")
    rounds = _registry_sum(registries, "sim.batch.rounds")
    batched = _registry_sum(registries, "sim.batch.tasks_per_round")
    set_op = _registry_sum(registries, "sim.work.set_op_work")
    simt = _registry_sum(registries, "sim.work.simt_cycles")
    nodes = _registry_sum(registries, "sim.work.nodes_generated")
    maximal = _registry_sum(registries, "sim.work.maximal")
    m["gmbe.kernel_s"] = kernel_s / n
    m["gmbe.us_per_task"] = kernel_s * 1e6 / tasks if tasks else 0.0
    m["gmbe.tasks_executed"] = tasks / n
    m["gmbe.tasks_split"] = _registry_sum(registries, "sim.tasks.split") / n
    m["gmbe.batch_rounds"] = rounds / n
    m["gmbe.tasks_per_round"] = batched / rounds if rounds else 0.0
    m["gpusim.makespan_cycles"] = makespan / n
    m["gpusim.warp_efficiency"] = set_op / (32.0 * simt) if simt else 0.0
    m["core.set_op_work"] = set_op / n
    m["core.nodes_generated"] = nodes / n
    m["core.maximal_per_node"] = maximal / nodes if nodes else 0.0
    m["core.bitset_task_share"] = bitset / roots if roots else 0.0

    records_total = sum(p.store_records for p in traced)
    m["store.bytes_per_biclique"] = (
        sum(p.store_bytes for p in traced) / records_total
        if records_total else 0.0
    )

    by_id = {s["id"]: s for s in recorder.spans}
    waits = [
        s["start"] - by_id[s["parent"]]["start"]
        for s in recorder.spans
        if s["name"] == "service.dispatch" and s["parent"] in by_id
    ]
    m["service.queue_wait_ms"] = statistics.mean(waits) * 1e3 if waits else 0.0

    # shard run spans and worker starts come from the attached Telemetry
    per_job: dict[tuple, list[float]] = {}
    run_start: dict[tuple, float] = {}
    for i, recs in enumerate(records):
        for r in recs:
            if r.get("type") == "span" and r["name"] == "shard.run":
                key = (i, r["parent_id"])
                per_job.setdefault(key, []).append(r["duration_s"])
                run_start[i, r["span_id"]] = r["start_s"]
    ratios = [
        max(d) / statistics.mean(d) for d in per_job.values() if min(d) > 0
    ]
    m["sharding.imbalance"] = statistics.mean(ratios) if ratios else 0.0
    spawns = [
        r["time_s"] - run_start[i, r["span_id"]]
        for i, recs in enumerate(records)
        for r in recs
        if r.get("type") == "event" and r["name"] == "shard.worker_start"
        and (i, r["span_id"]) in run_start
    ]
    m["parallel.spawn_s"] = statistics.mean(spawns) if spawns else 0.0
    m["parallel.worker_restarts"] = float(
        sum(p.restarts for p in traced + untraced)
    )

    traced_wall = statistics.median(p.wall_s for p in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    m["telemetry.overhead_ratio"] = traced_wall / untraced_wall
    layer_sum = sum(bd["self_s"].values()) / n
    untraced_ops = statistics.mean(
        sum(op.ms for op in p.ops) / 1e3 for p in untraced
    )
    m["telemetry.reconcile_error"] = (
        abs(layer_sum - untraced_ops) / untraced_ops
    )
    extra = {
        "breakdown": bd,
        "layer_self_sum_s_per_pass": layer_sum,
        "untraced_op_time_s_per_pass": untraced_ops,
        "reconcile_tolerance": RECONCILE_TOLERANCE,
        "reconciled": m["telemetry.reconcile_error"] <= RECONCILE_TOLERANCE,
        "n_spans": len(recorder.spans),
        "layers_with_spans": sorted(
            {spans_mod.layer_of(s["name"]) for s in recorder.spans}
        ),
    }
    return m, extra


def run_one(args) -> int:
    workloads = _import_program()
    import spans as spans_mod

    import_s = time.perf_counter() - _T0
    w = workloads.make_workload(args.workload, args.seed)
    try:
        reps = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            w.build_inputs()
            w.warm_up()
            reps.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(reps)
        t = time.perf_counter()
        w.compute_oracle()
        oracle_s = time.perf_counter() - t

        run_id = (
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        )
        recorder = spans_mod.SpanRecorder(run_id)
        probes = spans_mod.LayerProbes(recorder) if args.trace else None
        passes = run_passes(w, args.seconds, recorder, probes)
    finally:
        w.close()

    untraced, traced = passes.untraced, passes.traced
    every = untraced + traced
    ops = _ops(every)
    failed = [op for op in ops if not op.ok]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Each pass against the mean of the calibration loops timed within
    # it: the machine's slow and fast stretches move both alike, so the
    # ratio tracks the program, not the machine.  Per thousand delivered
    # bicliques, so that a seed whose graphs hold more bicliques does
    # not read as a slower program.
    calib = [c for p in untraced for c in p.calib_s]
    reference = [statistics.mean(p.calib_s) for p in untraced]
    kbic_per_pass = sum(op.bicliques for op in _ops(untraced)) / (
        1e3 * len(untraced)
    )
    e2e = {
        "setup_s": setup_s,
        "wall_per_kbiclique": (
            sum(p.wall_s for p in untraced) / sum(reference) / kbic_per_pass
            if kbic_per_pass else 0.0  # nothing delivered: all failed
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    # the timed phase's wall per pass: steadier than the median pass
    pass_wall_s = statistics.mean(p.wall_s for p in untraced)
    calib_ms = statistics.median(calib) * 1e3
    svc = service_metrics(untraced)
    op_tail, op_pct = tail([op.ms for op in _ops(untraced)])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calib_ms": calib_ms,
        "import_s": import_s,
        "setup_repeats_s": reps,
        "oracle_s": oracle_s,
        "oracle": workloads.ORACLE_ALGORITHM,
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "pass_walls_s": [p.wall_s for p in untraced],
        "pass_wall_s": pass_wall_s,
        "kbic_per_pass": kbic_per_pass,
        "calib_s": calib,
        "op_p50_ms": statistics.median(op.ms for op in _ops(untraced)),
        "ops_untraced": len(_ops(untraced)),
        "op_tail_ms": op_tail,
        "op_tail_pct": op_pct,
        "error_rate": len(failed) / len(ops),
        "errors": sorted({op.error for op in failed})[:10],
        "inputs": [
            {"name": g.name, "n_u": g.n_u, "n_v": g.n_v, "edges": g.n_edges,
             "bicliques": n_b}
            for g, (n_b, _) in zip(w.graphs, w.oracle)
        ],
        "end_to_end": e2e,
        "service": svc,
    }
    layer = {}
    if args.trace:
        layer, extra = layer_metrics(spans_mod, recorder, passes)
        layer.update(
            {k: v for k, v in svc.items() if k != "service.hit_tail_pct"}
        )
        layer["host.calib_ms"] = calib_ms
        layer["host.pass_wall_s"] = pass_wall_s
        for name, _, _ in PER_LAYER:
            layer.setdefault(name, 0.0)
        info["per_layer"] = layer
        info["trace_detail"] = extra

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{run_id}.json", "w") as fh:
        json.dump(info, fh, indent=1, default=str)
    if args.trace:
        recorder.write(out_dir / f"{run_id}-spans.json")

    _print_table(info, e2e, svc, layer)
    if args.trace:
        metrics = {n: {"value": layer[n], "unit": u} for n, u, _ in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def _print_table(info, e2e, svc, layer) -> None:
    n_ops = info["ops_untraced"]
    n_pass = info["passes_untraced"]
    print(f"# {info['workload']}  seed={info['seed']}  trace={info['trace']}  "
          f"calib_ms={info['calib_ms']:.3f}  oracle={info['oracle']} "
          f"({info['oracle_s']:.2f}s, untimed)")
    for g in info["inputs"]:
        print(f"#   input {g['name']:<4} {g['edges']:>6} edges "
              f"{g['bicliques']:>6} bicliques")
    rows = [
        ("setup_s", e2e["setup_s"], "s", f"median of {SETUP_REPEATS}"),
        ("wall_per_kbiclique", e2e["wall_per_kbiclique"], "calib/kbic",
         f"{n_pass} passes / the {len(info['calib_s'])} calibration "
         f"loops within / {info['kbic_per_pass']:.3f} kbicliques per pass"),
        ("pass_wall_s", info["pass_wall_s"], "s", f"mean of {n_pass} passes"),
        ("op_p50_ms", info["op_p50_ms"], "ms", f"median of {n_ops} ops"),
        ("op_tail_ms", info["op_tail_ms"], "ms",
         f"p{info['op_tail_pct']:.1f} of {n_ops} ops"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "this workload's process"),
        ("error_rate", info["error_rate"], "ratio", "failed / attempted"),
    ]
    if svc:
        rows += [
            ("cold_p50_ms", svc["service.cold_p50_ms"], "ms",
             "client-observed"),
            ("hit_p50_ms", svc["service.hit_p50_ms"], "ms", "client-observed"),
            ("hit_tail_ms", svc["service.hit_tail_ms"], "ms",
             f"p{svc['service.hit_tail_pct']:.1f}"),
            ("hit_first_page_p50_ms", svc["service.hit_first_page_p50_ms"],
             "ms", "submit to first page"),
            ("hit_reported_ms", svc["service.hit_reported_ms"], "ms",
             "broker's JobResult.latency_ms"),
            ("jobs_per_s", svc["service.jobs_per_s"], "1/s", ""),
            ("hit_ratio", svc["service.hit_ratio"], "ratio", ""),
        ]
    for name, value, unit, note in rows:
        print(f"{name:<30} {value:>14.4f} {unit:<6} {note}")
    if layer:
        tr = info["trace_detail"]
        print(f"# per layer (traced: {info['passes_traced']} passes, "
              f"{tr['n_spans']} spans, "
              f"layers {','.join(tr['layers_with_spans'])})")
        for name, unit, _ in PER_LAYER:
            print(f"{name:<30} {layer[name]:>14.4f} {unit}")
        verdict = "ok" if tr["reconciled"] else "NOT reconciled"
        print(f"# reconcile: layer self sum "
              f"{tr['layer_self_sum_s_per_pass']:.4f}s"
              f" vs untraced op time {tr['untraced_op_time_s_per_pass']:.4f}s"
              f" per pass (tolerance {RECONCILE_TOLERANCE:.0%}): {verdict}")


def run_all(args) -> int:
    """Every workload, each in a fresh process (so RSS is its own)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return 0


def stop_children() -> None:
    """Stop and reap every helper process this run started.

    Sharded calls spawn their workers through ``multiprocessing``, which
    also starts a resource-tracker process that would otherwise outlive
    this one (and, orphaned, linger as a zombie).  The shard pool joins
    its workers; this joins anything left and stops the tracker.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is None:
        return
    for child in mp.active_children():
        child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
