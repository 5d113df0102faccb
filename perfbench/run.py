#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

Run one workload for a fixed time and print its metrics::

    python3 perfbench/run.py --workload paper_apps --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` wraps the program's entry points (``tracer.py``), traces
every other operation and prints the per-layer metrics; it also writes
the kept spans to ``perfbench/out/`` as JSONL and as Chrome trace-event
JSON (open it in Perfetto).  The last line of standard output is always
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Any output that disagrees with its independently computed
value makes the run exit with status 1.

Steadiness mode runs a workload in K fresh processes, one seed each, and
prints every metric's median, quartiles and spread next to its bound::

    python3 perfbench/run.py --workload paper_apps --steadiness 5
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Set-ups per run; ``setup_s`` is their median.  Each starts with the
#: program's memo caches cleared, so each pays the first-use work a fresh
#: process pays.
SETUP_REPEATS = 7
#: A run stops early (with fewer operations than its tail needs) only
#: past this many seconds, to stay inside the 180 s run limit.
HARD_STOP_S = 120.0

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "modelled_s": "s-modelled",
}

#: Per-layer metrics: name -> unit.  Names ending in ``_ms``/``_us`` are
#: per operation; ``count`` is per run set-up, ``count/op`` per operation.
PER_LAYER = {
    "apps.dlrm_ms": "ms", "apps.gnn_rs_ar_ms": "ms",
    "apps.gnn_ar_ag_ms": "ms", "apps.bfs_ms": "ms", "apps.cc_ms": "ms",
    "apps.mlp_ms": "ms",
    "apps.self_ms": "ms", "apps.golden_ms": "ms",
    "apps.harness_comm_ms": "ms", "apps.harness_self_ms": "ms",
    "engine.self_ms": "ms", "engine.cache_fetch_us": "us",
    "engine.cache_hit_ratio": "ratio",
    "engine.plans_compiled": "count/op",
    "engine.programs_compiled": "count/op",
    "engine.plans_compiled_setup": "count",
    "collectives.plan_ms": "ms", "collectives.compile_ms": "ms",
    "collectives.replay_self_ms": "ms", "collectives.pricing_ms": "ms",
    "collectives.interpret_ms": "ms", "collectives.scan_ms": "ms",
    "collectives.elided_ratio": "ratio",
    "hw.gather_ms": "ms", "hw.writeback_ms": "ms", "hw.fill_ms": "ms",
    "hw.pe_kernel_ms": "ms", "hw.host_io_ms": "ms",
    "hw.arena_grow_ms": "ms",
    "hw.bytes_moved": "B/op", "hw.replay_gbps": "GB/s",
    "hw.memcpy_gbps": "GB/s", "hw.roofline_ratio": "ratio",
    "serving.admit_us": "us", "serving.dispatch_ms": "ms",
    "serving.batch_width": "requests", "serving.queue_wait_ms": "ms",
    "reliability.attempts_per_op": "attempts/call",
    "reliability.interpreted_calls": "count/op",
    "reliability.faults_per_op": "count/op",
    "reliability.crc_ms": "ms", "reliability.snapshot_ms": "ms",
    **{f"modelled.{cat}_s": "s-modelled"
       for cat in ("bus", "dt", "host_mem", "host_mod", "host_reduce", "pe",
                   "launch", "kernel", "retry", "elide")},
    "trace.overhead_pct": "%", "trace.unattributed_ms": "ms",
    "trace.tax_ms": "ms", "trace.op_wall_ms": "ms",
}

#: Self-time buckets that partition a traced operation's wall time.
PARTITION = {
    "apps.self": "apps.self_ms", "apps.golden": "apps.golden_ms",
    "apps.harness": "apps.harness_self_ms", "engine.self": "engine.self_ms",
    "engine.cache_fetch": "engine.cache_fetch_us",
    "collectives.plan": "collectives.plan_ms",
    "collectives.compile": "collectives.compile_ms",
    "collectives.replay": "collectives.replay_self_ms",
    "collectives.pricing": "collectives.pricing_ms",
    "collectives.interpret": "collectives.interpret_ms",
    "collectives.scan": "collectives.scan_ms",
    "hw.gather": "hw.gather_ms", "hw.writeback": "hw.writeback_ms",
    "hw.fill": "hw.fill_ms", "hw.pe_kernel": "hw.pe_kernel_ms",
    "hw.host_io": "hw.host_io_ms", "hw.arena_grow": "hw.arena_grow_ms",
    "serving.admit": "serving.admit_us",
    "serving.dispatch": "serving.dispatch_ms",
    "reliability.crc": "reliability.crc_ms",
    "reliability.snapshot": "reliability.snapshot_ms",
    "trace.unattributed": "trace.unattributed_ms",
    "trace.tax": "trace.tax_ms",
}

KERNEL_BUCKETS = ("hw.gather", "hw.writeback", "hw.fill")


def min_ops(tail_pct: float) -> int:
    """Operations a run needs for ten samples beyond its tail percentile."""
    return int(round(10 / (1 - tail_pct / 100)))


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def clear_program_caches() -> None:
    """Empty every ``functools`` memo cache of the loaded program modules."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def memcpy_seconds(sizes, buffers: dict) -> float:
    """Time plain copies of the same byte counts a traced op moved."""
    import numpy as np
    largest = max(sizes, default=0)
    if buffers.get("size", 0) < largest:
        buffers["src"] = np.ones(largest, dtype=np.uint8)
        buffers["dst"] = np.ones(largest, dtype=np.uint8)
        buffers["size"] = largest
    src, dst = buffers.get("src"), buffers.get("dst")
    start = perf_counter()
    for size in sizes:
        np.copyto(dst[:size], src[:size])
    return perf_counter() - start


def run_workload(args) -> int:
    # Benchmark the checkout's own program, never an installed copy.
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    # One thread: numpy's BLAS pool must not add workers.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import checks
        import tracer as tracing
        import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}",
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None

    setup_times = []
    workload = None
    setup_plans = 0
    for repeat in range(SETUP_REPEATS):
        workload = None
        clear_program_caches()
        gc.collect()
        last = repeat == SETUP_REPEATS - 1
        if tracer is not None and last:
            tracer.counts.clear()
            tracer.install()
        start = perf_counter()
        workload = cls()
        workload.setup(args.seed)
        setup_times.append(perf_counter() - start)
        if tracer is not None and last:
            tracer.uninstall()
            setup_plans = tracer.counts.get("collectives.plan", 0)

    correct = True
    steps, traced_steps, records = [], [], []
    try:
        workload.prepare_checks()
        gc.collect()
        memcpy_s, buffers = 0.0, {}
        needed = min_ops(workload.tail_pct)
        ops = 0
        started = perf_counter()
        index = 0
        while True:
            traced = tracer is not None and index % 2 == 0
            if traced:
                tracer.begin_op(index)
            try:
                step = workload.step(index, tracer if traced else None)
            finally:
                if traced:
                    record = tracer.end_op()
            if traced:
                records.append(record)
                traced_steps.append(step)
                memcpy_s += memcpy_seconds(record.kernel_bytes, buffers)
            else:
                steps.append(step)
                ops += len(step.latencies)
            index += 1
            elapsed = perf_counter() - started
            enough = (ops >= needed or tracer is not None
                      or elapsed >= HARD_STOP_S)
            if elapsed >= args.seconds and enough and index >= 2:
                break
    except checks.CheckFailed as error:
        print(f"perfbench: output check failed: {error}", file=sys.stderr)
        correct = False

    every = steps + traced_steps
    attempted = sum(len(s.latencies) for s in every)
    failed = sum(s.failed for s in every)
    if not correct:
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": failed, "metrics": {}}))
        return 1

    if tracer is None:
        latencies = [x for s in steps for x in s.latencies]
        wall = sum(s.wall_s for s in steps)
        values = {
            "throughput_ops_s": len(latencies) / wall,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": percentile(latencies,
                                          workload.tail_pct) * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "modelled_s": workload.modelled_pass(),
        }
        units = END_TO_END
        print(f"{workload.name}: {len(latencies)} operations, tail is "
              f"p{workload.tail_pct:g}, setups {setup_times}")
    else:
        values, absent = per_layer(tracer, records, traced_steps, steps,
                                   setup_plans, memcpy_s)
        units = PER_LAYER
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}")
        for path in tracer.write(stem):
            print(f"wrote {os.path.relpath(path, ROOT)}")
        for target, reason in tracer.absent:
            print(f"absent entry point: {target} ({reason})")
        for name, reason in absent.items():
            print(f"absent metric: {name} ({reason})")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer(tracer, records, traced_steps, untraced_steps, setup_plans,
              memcpy_s):
    """Fold the traced ops into the per-layer metrics (per operation)."""
    n = sum(len(s.latencies) for s in traced_steps)
    wall = sum(r.wall_s for r in records)
    self_s, incl_s, calls = defaultdict(float), defaultdict(float), \
        defaultdict(int)
    kernel_bytes = 0
    hits = lookups = 0
    widths, waits = [], []
    for record, step in zip(records, traced_steps):
        for key, value in record.self_s.items():
            self_s[key] += value
        for key, value in record.inclusive_s.items():
            incl_s[key] += value
        for key, value in record.calls.items():
            calls[key] += value
        kernel_bytes += sum(record.kernel_bytes)
        hits += record.cache_hits
        lookups += record.cache_lookups
        widths.extend(record.batch_widths)
        waits.extend(record.batch_starts[tag] - start
                     for tag, start in step.submitted_at.items()
                     if tag in record.batch_starts)
    values = {}
    absent = {}
    for bucket, name in PARTITION.items():
        scale = 1e6 if name.endswith("_us") else 1e3
        values[name] = self_s[bucket] / n * scale
    for name in PER_LAYER:
        if name.startswith("apps.") and name not in values:
            values[name] = incl_s[name] / n * 1e3
    values["engine.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    values["engine.plans_compiled"] = calls["collectives.plan"] / n
    values["engine.programs_compiled"] = calls["collectives.compile"] / n
    values["engine.plans_compiled_setup"] = setup_plans
    scanned = sum(s.chunks_scanned for s in traced_steps)
    elided = sum(s.chunks_elided for s in traced_steps)
    values["collectives.elided_ratio"] = elided / scanned if scanned else 0.0
    kernel_s = sum(self_s[b] for b in KERNEL_BUCKETS)
    values["hw.bytes_moved"] = kernel_bytes / n
    values["hw.replay_gbps"] = kernel_bytes / kernel_s / 1e9 \
        if kernel_s else 0.0
    values["hw.memcpy_gbps"] = kernel_bytes / memcpy_s / 1e9 \
        if memcpy_s else 0.0
    values["hw.roofline_ratio"] = kernel_s / memcpy_s if memcpy_s else 0.0
    if not kernel_bytes:
        for name in ("hw.replay_gbps", "hw.memcpy_gbps", "hw.roofline_ratio"):
            absent[name] = "no replay kernel moved bytes on this workload"
    values["serving.batch_width"] = statistics.fmean(widths) if widths \
        else 0.0
    values["serving.queue_wait_ms"] = statistics.fmean(waits) * 1e3 \
        if waits else 0.0
    if not widths:
        for name in ("serving.batch_width", "serving.queue_wait_ms"):
            absent[name] = "no serving batches on this workload"
    total_calls = sum(s.calls for s in traced_steps)
    values["reliability.attempts_per_op"] = (
        sum(s.attempts for s in traced_steps) / total_calls
        if total_calls else 0.0)
    values["reliability.interpreted_calls"] = \
        calls["collectives.interpret"] / n
    values["reliability.faults_per_op"] = \
        sum(s.faults for s in traced_steps) / n
    every = traced_steps + untraced_steps
    ops_all = sum(len(s.latencies) for s in every)
    for name in PER_LAYER:
        if name.startswith("modelled."):
            category = name[len("modelled."):-len("_s")]
            values[name] = sum(s.modelled.get(category, 0.0)
                               for s in every) / ops_all
    untraced_ops = sum(len(s.latencies) for s in untraced_steps)
    untraced_wall = sum(s.wall_s for s in untraced_steps)
    traced_wall = sum(s.wall_s for s in traced_steps)
    if untraced_ops and traced_wall:
        values["trace.overhead_pct"] = 100 * (
            (untraced_ops / untraced_wall) / (n / traced_wall) - 1)
    else:
        values["trace.overhead_pct"] = 0.0
        absent["trace.overhead_pct"] = "no untraced operation to compare"
    values["trace.op_wall_ms"] = wall / n * 1e3
    return values, absent


# ----------------------------------------------------------------------
# Steadiness mode
# ----------------------------------------------------------------------
def steadiness(args) -> int:
    """Run ``args.steadiness`` fresh processes and report the spreads."""
    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as handle:
            spec = json.load(handle)
        bounds = {m["name"]: m.get("bound") for m in
                  spec.get("end_to_end", []) + spec.get("per_layer", [])}
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = []
    for i in range(args.steadiness):
        seed = args.seed + i
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: attempted {result['attempted']}, failed "
              f"{result['failed']}", flush=True)
    print(f"{'metric':32} {'unit':>13} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    report = {}
    for name, values in samples.items():
        if len(values) >= 2:
            q1, med, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = med = q3 = values[0]
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread <= bound / 3 else (
                "wide" if spread <= bound else "UNSTEADY")
        print(f"{name:32} {units[name]:>13} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6} {flag}")
        report[name] = {"unit": units[name], "values": values,
                        "median": med, "q1": q1, "q3": q3,
                        "spread": spread, "bound": bound}
    print(f"failed share per run: {sorted(set(shares))}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"steadiness-{args.workload}-trace"
                                 f"{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="K",
                        help="run K fresh processes (seeds seed..seed+K-1) "
                             "and report each metric's spread")
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
