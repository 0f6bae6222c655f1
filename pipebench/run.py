#!/usr/bin/env python3
"""End-to-end pipeline benchmark of the SMiTe reproduction.

Builds the `pipebench` harness from the checkout's sources (CMake, into
`.bench_build/`), runs one workload in fresh processes, checks the
outputs and prints every metric that BENCHMARK.json names, with its
unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` it holds the end-to-end metrics, with `--trace 1` the
per-layer ones (self-times from the harness's spans, counts, tracing
overhead). Exit code 0 means every output check passed, 1 means some
operation failed a check (the result is still printed), 2 means the
benchmark could not be built or run (no result is printed).

    python3 pipebench/run.py --workload campaign_cold --seed 1 \\
        --seconds 10 --trace 0

`--workload all` runs every workload in turn; its last line then
prefixes each metric with the workload's name.

Workloads, metrics and the baseline are described in pipebench/README.md.
"""

import argparse
import collections
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "pipebench")
WORKDIR = os.path.join(BUILD, "run")
WORKLOADS = ("campaign_cold", "campaign_warm", "fleet_paper",
             "fleet_warehouse")
CHILD_TIMEOUT_S = 170
# Warm set-up (one cold campaign) repeats in this many fresh processes.
WARM_PROCESSES = 3
# Fewest cold campaigns per run, each in its own process.
MIN_COLD_CAMPAIGNS = 3
# Per-layer metrics of layers only one family of workloads drives; on
# the other family they read 0 (the layer does no work there).
CAMPAIGN_LAYERS = ("sim.", "lab.", "predictor.", "smite_mae", "pmu_mae",
                   "mise_mae", "alves-drummond_mae", "bench.")
FLEET_LAYERS = ("scheduler.", "goodput_utilization", "violation_rate")
# End-to-end metrics printed on every run but not gated: wall-clock
# time on a shared host is too unsteady for a bound (see README.md).
PRINTED_UNITS = {"setup_wall_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                 "op_tail_ms": "ms"}


def die(message):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(2)


def log(message):
    print("pipebench: " + message, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the harness up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no repository sources next to " + HERE)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "pipebench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=880)
        except (OSError, subprocess.TimeoutExpired) as err:
            die("build step %s failed: %s" % (cmd[:2], err))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            die("build step %s failed" % " ".join(cmd[:2]))


def source_id():
    """The commit when the checkout is a git work tree, else a digest
    of the sources the harness is built from."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "pipebench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def spawn(args, seconds, width=0, trace_file=None):
    """Run one harness process; returns its record (None on a crash)
    with `spawn_s`, the time from launch to the process's ready mark."""
    cmd = [BINARY, args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--size", args.size]
    if width:
        cmd += ["--width", str(width)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    launched = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=WORKDIR, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness process timed out: " + " ".join(cmd[1:]))
        return None
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("harness process exited %d without a result" %
            done.returncode)
        return None
    if done.returncode not in (0, 1):
        log("harness process exited %d" % done.returncode)
        return None
    # Both clocks are CLOCK_MONOTONIC, so the difference is the
    # process's start-up plus its set-up work.
    record["spawn_s"] = record["ready_s"] - launched
    return record


def tail(values):
    """(value, label): the highest percentile with at least ten samples
    beyond it, or the maximum when there are fewer than 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], "max of n=%d (fewer than 11 samples)" % n
    return ordered[n - 11], "p%.2f of n=%d (10 samples beyond)" % (
        100.0 * (n - 10) / n, n)


def run_workload(args):
    """Launch the workload's processes; returns (records, serial) where
    serial is the width-1 cold campaign of the traced run, if any."""
    trace_dir = os.path.join(BUILD, "traces")
    trace_file = None
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(
            trace_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))
    records, serial = [], None
    if args.workload == "campaign_cold":
        # One campaign per process: no API empties the replay store.
        start = time.monotonic()
        while (len(records) < MIN_COLD_CAMPAIGNS or
               time.monotonic() - start < args.seconds):
            record = spawn(args, args.seconds,
                           trace_file=trace_file if not records else None)
            records.append(record)
            if record is None:
                break
        if args.trace and records[-1] is not None:
            serial = spawn(args, args.seconds, width=1)
            records.append(serial)
    elif args.workload == "campaign_warm":
        for i in range(WARM_PROCESSES):
            records.append(spawn(args, args.seconds / WARM_PROCESSES,
                                 trace_file=trace_file if i == 0 else None))
    else:
        records.append(spawn(args, args.seconds, trace_file=trace_file))
    return records, serial


def aggregate(args, records, serial):
    """Fold the processes' samples into (correct, attempted, failed,
    end_to_end, layers, notes)."""
    crashed = sum(1 for r in records if r is None)
    good = [r for r in records if r is not None]
    timed = [r for r in good if r is not serial]
    attempted = crashed + sum(r["attempted"] for r in good)
    failed = crashed + sum(r["failed"] for r in good)
    notes = [f for r in good for f in r["failures"]]
    if len({r["digest"] for r in good}) > 1:
        failed += 1
        notes.append("digests differ across processes: %s" %
                     sorted({r["digest"] for r in good}))
    qualities = [json.dumps(r["quality"], sort_keys=True) for r in good]
    if len(set(qualities)) > 1:
        failed += 1
        notes.append("accuracy results differ across processes")
    attempted = max(attempted, 1)
    if not timed:
        return False, attempted, failed, {}, {}, notes

    # A campaign process's set-up wall time runs from its launch, which
    # only this side sees.
    if args.workload.startswith("campaign"):
        setup_wall = [r["spawn_s"] for r in timed]
    else:
        setup_wall = [s for r in timed for s in r["setup_wall_s"]]
    rounds = [x for r in timed for x in r["rounds"]]
    ops = [x for r in timed for x in r["ops_ms"]]
    e2e = {
        "setup_s": statistics.median(
            s for r in timed for s in r["setup_cpu_s"]),
        "setup_wall_s": statistics.median(setup_wall),
    }
    if rounds and ops:
        tail_ms, tail_label = tail(ops)
        e2e.update({
            "wall_s": statistics.median(x["wall_s"] for x in rounds),
            "cpu_s": statistics.median(x["cpu_s"] for x in rounds),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in good),
            "op_p50_ms": statistics.median(ops),
            "op_tail_ms": tail_ms,
        })
        notes.append("op_tail_ms is the " + tail_label)
    e2e["failed_ratio"] = failed / attempted
    e2e.update(good[0]["quality"])

    layers = {}
    keys = sorted({k for r in timed for k in r["layers"]})
    for key in keys:
        values = [r["layers"][key] for r in timed if key in r["layers"]]
        layers[key] = statistics.median(values)
    if serial is not None and serial.get("ops_ms") and e2e.get("op_p50_ms"):
        layers["pool.parallel_speedup"] = (serial["ops_ms"][0] /
                                           e2e["op_p50_ms"])
    for key in ("failed_ratio", "smite_mae", "pmu_mae", "mise_mae",
                "alves-drummond_mae", "goodput_utilization",
                "violation_rate"):
        if key in e2e:
            layers[key] = e2e[key]
    correct = failed == 0 and crashed == 0
    return correct, attempted, failed, e2e, layers, notes


def run_one(args, spec):
    """Run, check and print one workload; returns (correct, attempted,
    failed, metrics) with the metrics BENCHMARK.json names."""
    records, serial = run_workload(args)
    correct, attempted, failed, e2e, layers, notes = aggregate(
        args, records, serial)

    meta = dict(records[0]["meta"]) if records and records[0] else {}
    meta.update({"source": source_id(), "trace": args.trace,
                 "processes": len(records), "seconds": args.seconds})
    print("pipebench: meta " + json.dumps(meta, sort_keys=True))
    for note, count in collections.Counter(notes).items():
        print("pipebench: " + note + (" (x%d)" % count if count > 1 else ""))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(PRINTED_UNITS)
    print("pipebench: %s seed=%d end-to-end" % (args.workload, args.seed))
    for name, value in e2e.items():
        print("  %-24s %.6g %s" % (name, value, units.get(name, "")))
    if args.trace:
        print("pipebench: per-layer (median over operations)")
        for name in sorted(layers):
            print("  %-40s %.6g %s" % (name, layers[name],
                                       units.get(name, "")))

    source = layers if args.trace else e2e
    idle = FLEET_LAYERS if args.workload.startswith("campaign") \
        else CAMPAIGN_LAYERS
    metrics = {}
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        value = source.get(m["name"])
        if value is None and args.trace and m["name"].startswith(idle):
            value = 0.0
        if value is None:
            if correct:
                die("metric %s was not measured" % m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"),
                        default="full",
                        help="smoke: smallest inputs, for the tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        die("cannot read BENCHMARK.json: %s" % err)

    build()
    os.makedirs(WORKDIR, exist_ok=True)
    if glob.glob(os.path.join(WORKDIR, "smite_lab_cache_*")):
        die("stray smite_lab_cache_* files in " + WORKDIR)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        one = argparse.Namespace(**dict(vars(args), workload=name))
        ok, tried, bad, values = run_one(one, spec)
        correct, attempted, failed = correct and ok, attempted + tried, \
            failed + bad
        for key, value in values.items():
            metrics[key if len(names) == 1 else name + "." + key] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
