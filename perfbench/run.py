#!/usr/bin/env python3
"""Repository benchmark: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ftbench from the sources
under src/ (into .bench_build/), runs the workload in one process and
prints a human-readable summary followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A traced tuning workload also runs one pass of its cells, one after
another, at 1 thread (FT_THREADS=1) and one on a pool of nproc threads,
for the thread-count comparisons. Spans of the traced phase are written to
.bench_build/traces/WORKLOAD-seedN.jsonl.

Workloads (the host they were sized on has nproc = 4; all load is
generated in-process):
  tune_cold    42 cells (7 programs x 3 archs x cfr/random), every cache
               off. Caliper runs, compiles and engine runs do the work;
               the stores and the service are bypassed.
  tune_resume  one cell, CFR for CL on Broadwell (set-up writes every
               evaluation with fsync, so more cells made runs too long).
               Set-up writes the cell's disk tier and checkpoint journal
               (the store write path, in setup_s); the timed phase
               resumes from them with a fresh memory tier, so store reads
               and core do the work and compiler, Caliper, engine and
               service are bypassed.
  Both run their cells on one lane per CPU (up to 4): a thread pinned
  to the CPU running passes over the cells, each cell at 1 thread. A
  pool of nproc threads runs each evaluation batch at the pace of its
  slowest vCPU, which on a shared host made runs swing by 30%.
  serve_hot    one lane per CPU (up to 4): an ftuned daemon (1 worker)
               on a unix socket and a closed loop of 1 client thread
               sending 128-request eval_batch frames in binary-crc32
               framing, after a warm-up filled the daemon's result cache.
               Every thread of a lane is pinned to the lane's CPU, so
               hand-offs are context switches there rather than wake-ups
               of other vCPUs. Only the service layer works.
An op is one tuning cell (cells_per_s, cell_p50_ms, cell_tail_ms) or one
eval_batch round trip (batches_per_s, batch_p50_ms, batch_p99_ms).

Exits non-zero, without a result line, when the build or the run fails,
and non-zero after the result line when any result differs from its
reference.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build")
BINARY = BUILD / "perfbench" / "ftbench"
TMP = BUILD / "tmp"
DEFAULT_SEED = 42
RUN_TIMEOUT_S = 170
WORKLOADS = ("tune_cold", "tune_resume", "serve_hot")

END_TO_END = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "speedup_gm": "x",
}

PER_LAYER = {
    "caliper.runs": "count/op",
    "caliper.busy_ms": "ms/op",
    "caliper.run_us_p50": "us",
    "caliper.overhead_ratio": "x",
    "compiler.builds": "count/op",
    "compiler.busy_ms": "ms/op",
    "compiler.build_us_p50": "us",
    "compiler.modules_compiled": "count/op",
    "compiler.modules_compiled_1t": "count/op",
    "compiler.module_hit_ratio": "ratio",
    "compiler.contention_ratio": "x",
    "machine.runs": "count/op",
    "machine.busy_ms": "ms/op",
    "machine.run_us_p50": "us",
    "flags.sample_ns": "ns",
    "flags.decode_ns": "ns",
    "core.evaluations": "count/op",
    "core.self_ms": "ms/op",
    "core.cell_tail_ms": "ms",
    "core.modeled_overhead_s": "s/op",
    "core.modeled_overhead_1t_s": "s/op",
    "core.overhead_thread_gap_s": "s/op",
    "core.cells_below_o3": "count",
    "core.eval_cache.hit_ratio": "ratio",
    "core.persistent_cache.writes": "count/op",
    "core.persistent_cache.hits": "count/op",
    "core.persistent_cache.misses": "count/op",
    "core.persistent_cache.rejected": "count/op",
    "core.persistent_cache.bytes": "B/op",
    "core.checkpoint.records": "count/op",
    "core.checkpoint.bytes": "B/op",
    "core.store.write_us_per_eval": "us",
    "core.store.read_us_per_eval": "us",
    "service.rtt_us_p50": "us",
    "service.rtt_us_p99": "us",
    "service.encode_us": "us",
    "service.decode_us": "us",
    "service.frame_bytes": "B",
    "service.server_hit_ratio": "ratio",
    "service.overloads": "count",
    "service.errors": "count",
    "support.pool.utilization": "ratio",
    "support.pool.stolen": "count/op",
    "support.pool.queue_high_water": "count",
    "trace_overhead_ratio": "x",
    "result_mismatches": "count",
    "failed_share": "ratio",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures once, then builds ftbench incrementally."""
    TMP.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "perfbench-build.log"
    build_dir = BINARY.parent
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "ftbench",
                  "-j", str(nproc())])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=environment(1),
                              timeout=850).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-3000:]
                fail(f"build failed ({' '.join(step[:2])}):\n{tail}")


def environment(threads):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FT_")}  # no chaos/thread overrides leak in
    env["FT_THREADS"] = str(threads)
    env["TMPDIR"] = str(TMP.resolve())  # compiler temporaries stay inside
    return env


def run_ftbench(args, threads, work, extra=()):
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work),
               *extra]
    proc = subprocess.run(command, env=environment(threads),
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"ftbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def reference_mismatches(args, digests):
    """Digests at the default seed must equal the committed ones."""
    if args.seed != DEFAULT_SEED or not digests:
        return 0
    committed = json.loads((HERE / "reference_digests.json").read_text())
    bad = [cell for cell, digest in digests.items()
           if committed["cells"].get(cell) != digest]
    for cell in bad:
        print(f"perfbench: {cell} differs from the committed digest",
              file=sys.stderr)
    return len(bad)


def merge_thread_passes(pool, single, metrics):
    """Thread-count comparisons: one pass of the same cells on a pool of
    nproc threads and one at 1 thread (the lanes run cells at 1 thread,
    so the nproc-thread figures come from the pool pass)."""
    at_n, one = pool["info"], single["info"]
    metrics["compiler.modules_compiled"] = at_n["modules_per_op"]
    metrics["core.modeled_overhead_s"] = at_n["overhead_per_op_s"]
    for name in ("support.pool.utilization", "support.pool.stolen",
                 "support.pool.queue_high_water"):
        metrics[name] = at_n[name]
    metrics["compiler.contention_ratio"] = (
        at_n["build_busy_ms"] / one["build_busy_ms"]
        if one["build_busy_ms"] > 0 else 0.0)
    metrics["compiler.modules_compiled_1t"] = one["modules_per_op"]
    metrics["core.self_ms"] = one["self_ms_per_op"]
    metrics["core.modeled_overhead_1t_s"] = one["overhead_per_op_s"]
    metrics["core.overhead_thread_gap_s"] = (
        at_n["overhead_per_op_s"] - one["overhead_per_op_s"])


def digest_mismatches(main, other, label):
    """Cells whose result digest in `other` differs from `main`'s."""
    bad = [cell for cell, digest in other["digests"].items()
           if main["digests"].get(cell) != digest]
    for cell in bad:
        print(f"perfbench: {cell} differs {label}", file=sys.stderr)
    return len(bad) + other["mismatches"]


def summary(args, result, metrics, units):
    """Human-readable table; end-to-end ops are named as cells or batches.

    The untraced table also shows the op tail latency. It is not a
    result-line metric: on a shared 4-vCPU VM, CPU steal by other tenants
    pushed its run-to-run spread past any usable bound (0.28 on
    tune_resume, 0.47 on serve_hot), so it is tracked per layer instead
    (core.cell_tail_ms, service.rtt_us_p99)."""
    info = result["info"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"threads {int(info['threads'])}  lanes {int(info['lanes'])}  "
          f"timed {info['timed_s']:.2f} s")
    names = {}
    if args.trace == 0:
        if args.workload == "serve_hot":
            names = {"ops_per_s": "batches_per_s",
                     "op_p50_ms": "batch_p50_ms"}
            tail = ("batch_p99_ms", "p99")
            print(f"  rates and percentiles are medians over 250-ms windows"
                  f" ({int(info['samples'])} frames)")
        else:
            names = {"ops_per_s": "cells_per_s", "op_p50_ms": "cell_p50_ms"}
            tail = ("cell_tail_ms", f"p{info['tail_percentile']:.1f} of "
                                    f"{int(info['samples'])} cells")
    for name, value in metrics.items():
        label = names.get(name, name)
        print(f"  {label:34s} {value:>18.6g} {units[name]}")
    if args.trace == 0:
        value = result["metrics"]["op_tail_ms"]
        print(f"  {tail[0]:34s} {value:>18.6g} ms  ({tail[1]})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    build()
    work = BUILD / f"work-{os.getpid()}"
    extra = ()
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        extra = ("--span-file",
                 str(traces / f"{args.workload}-seed{args.seed}.jsonl"))
    try:
        # Every workload runs one lane per CPU (a thread running cells,
        # or a daemon and its client), so evaluation batches run inline
        # (a 1-thread pool) instead of adding threads that compete with
        # the lanes.
        result = run_ftbench(args, 1, work, extra)
        mismatches = result["mismatches"]
        mismatches += reference_mismatches(args, result["digests"])
        raw = result["metrics"]
        if args.trace and args.workload != "serve_hot":
            pool = run_ftbench(args, nproc(), work / "pool", ("--one-pass",))
            single = run_ftbench(args, 1, work / "single", ("--one-pass",))
            merge_thread_passes(pool, single, raw)
            mismatches += digest_mismatches(
                result, pool, f"on a pool of {nproc()} threads")
            mismatches += reference_mismatches(args, pool["digests"])
            mismatches += digest_mismatches(
                result, single, "in the 1-thread pass")
            mismatches += reference_mismatches(args, single["digests"])
        elif args.trace:
            for name in ("compiler.contention_ratio",
                         "compiler.modules_compiled_1t", "core.self_ms",
                         "core.modeled_overhead_1t_s",
                         "core.overhead_thread_gap_s"):
                raw[name] = 0.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = max(int(result["attempted"]), 1)
    failed = int(result["failed"])
    raw["result_mismatches"] = float(mismatches)
    raw["failed_share"] = failed / attempted
    units = END_TO_END if args.trace == 0 else PER_LAYER
    missing = [name for name in units if name not in raw]
    if missing:
        fail(f"ftbench did not report {', '.join(missing)}")
    metrics = {name: raw[name] for name in units}
    summary(args, result, metrics, units)
    if args.trace == 0:
        print(f"  {'result_mismatches':34s} {mismatches:>18d} count")
        print(f"  {'failed_share':34s} {failed / attempted:>18.6g} ratio")
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
