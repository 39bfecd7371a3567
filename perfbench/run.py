#!/usr/bin/env python3
"""End-to-end tick benchmark of the SGL engine.

Builds perfbench/tick_bench (with the engine, from source, into
.bench_build/perfbench), runs one workload and prints a readable report
followed, on the last line of stdout, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload rts_battle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --smoke

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(including the traced-run split). --workload all runs every workload in both
modes and prints all of it. --smoke runs a few ticks of every workload and
checks that every metric is printed with its unit and that the correctness
gate ran (and refuses a corrupted world). See perfbench/README.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "tick_bench")

WORKLOADS = ["rts_battle", "traffic_sharded", "market_txn", "armies_async"]

# (name, unit); the same lists, with bounds and directions, are in
# BENCHMARK.json, which --smoke cross-checks.
END_TO_END = [
    ("tick_ms_p50", "ms"),
    ("tick_ms_p95", "ms"),
    ("entity_ticks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
TRACE_SITES = [
    "tick.select", "tick.siteprep", "tick.query", "tick.merge",
    "tick.finalize_sets", "tick.install", "tick.update", "tick.migrate",
    "tick.barrier", "shard.run", "shard.mailbox.flip", "shard.mailbox.replay",
    "exec.site.query", "exec.site.probe", "async.worker.run",
]
PER_LAYER = [
    ("exec.query_ms", "ms"),
    ("exec.merge_ms", "ms"),
    ("exec.unattributed_ms", "ms"),
    ("exec.stats_gap_ms", "ms"),
    ("exec.allocs_per_tick", "count"),
    ("exec.bytes_per_tick", "B"),
    ("index.build_ms", "ms"),
    ("index.probe_busy_ms", "ms"),
    ("index.memory_mb", "MB"),
    ("vm.sites_bytecode_ratio", "ratio"),
    ("vm.fallbacks_per_tick", "count"),
    ("vm.simd_lanes_per_tick", "count"),
    ("vm.compile_ms", "ms"),
    ("opt.plan_switches", "count"),
    ("opt.drift_resets", "count"),
    ("opt.sites_probe_batched_ratio", "ratio"),
    ("txn.issued_per_tick", "count"),
    ("txn.aborted_per_tick", "count"),
    ("txn.commit_ratio", "ratio"),
    ("update.update_ms", "ms"),
    ("async.job_wait_ms", "ms"),
    ("async.jobs_installed_per_tick", "count"),
    ("async.jobs_in_flight", "count"),
    ("shard.cross_records_per_tick", "count"),
    ("recorder.records_per_frame", "count"),
    ("recorder.dropped_records", "count"),
    ("lang.compile_ms", "ms"),
    ("driver.input_ms", "ms"),
] + [("trace.%s_ms" % site, "ms") for site in TRACE_SITES] + [
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
]

# One run must end within 180 s; leave room for the build check and report.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        fail("engine sources not found next to perfbench/; run from a "
             "checkout of the repository", code=2)
    if shutil.which("cmake") is None:
        fail("cmake not found", code=2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", BUILD_DIR, "-j", jobs])


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace, smoke=False, artifacts=True):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if artifacts and trace:
        art = os.path.join(OUT_DIR, workload)
        os.makedirs(art, exist_ok=True)
        cmd += ["--artifacts", art]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("tick_bench exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def source_digest():
    """Digest of the engine and benchmark sources: runs of the same code."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def check_cross_run(report, seed):
    """Runs of the same code, seed and schedule must end in the same worlds.

    Final checksums are remembered in .bench_out/checksums.json per
    (sources, workload, seed, warm-up ticks, timed ticks); a later run that
    disagrees fails. Returns an error string or None.
    """
    info = report["info"]
    sums = set(report["checksums"].values())
    if len(sums) != 1:
        return "episodes of one run disagree: %s" % sorted(sums)
    key = "%s/%s/seed=%d/warmup=%d/timed=%d" % (
        source_digest(), report["workload"], seed, info["warmup_ticks"],
        info["timed_ticks_per_episode"])
    path = os.path.join(OUT_DIR, "checksums.json")
    known = {}
    if os.path.isfile(path):
        with open(path) as f:
            known = json.load(f)
    checksum = sums.pop()
    if key in known and known[key] != checksum:
        return "checksum %s differs from an earlier run's %s (%s)" % (
            checksum, known[key], key)
    known[key] = checksum
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return None


def fmt(value):
    if value == 0:
        return "0"
    if abs(value) >= 1e5:
        return "%.4g" % value
    return "%.4f" % value if abs(value) < 10 else "%.2f" % value


def print_report(report, seed, trace, error):
    info = report["info"]
    m = report["metrics"]
    print("== %s  seed=%d  trace=%d" % (report["workload"], seed, trace))
    print("machine: nproc=%d cpu=%r build=%s count_allocs=%s dispatch=%s "
          "SGL_FORCE_SCALAR=%r" % (
              info["nproc"], info["cpu_model"], info["build_type"],
              info["count_allocs"], info["kernel_dispatch"],
              info["force_scalar"]))
    print("config: plan=%s eval=%s probe=%s threads=%d shards=%d "
          "job_workers=%d entities=%d" % (
              info["plan_mode"], info["eval_mode"], info["probe_mode"],
              info["threads"], info["shards"], info["job_workers"],
              info["entities"]))
    print("run: warmup=%d timed/episode=%d episodes=%d traced_episodes=%d "
          "tick_samples=%d traced_tick_samples=%d setup_samples=%d" % (
              info["warmup_ticks"], info["timed_ticks_per_episode"],
              info["episodes"], info["traced_episodes"], info["tick_samples"],
              info["traced_tick_samples"], info["setup_samples"]))
    if info["dropped_spans"]:
        print("WARNING: %d spans lost to ring wrap; trace.* metrics are "
              "incomplete" % info["dropped_spans"])
    print("checksums: %s" % " ".join(sorted(set(
        report["checksums"].values()))))
    print("correctness: gate ran %d times; %s" % (
        report["gate_checks"],
        "ok" if not error else "FAILED: " + error))
    attempted, failed = report["attempted"], report["failed"]
    print("  %-34s %s (%d/%d ticks)" % (
        "failed_tick_ratio", fmt(failed / attempted if attempted else 1.0),
        failed, attempted))
    metrics = END_TO_END if not trace else PER_LAYER
    for name, unit in metrics:
        note = ""
        if name.startswith("tick_ms"):
            note = "  (n=%d ticks)" % info["tick_samples"]
        elif name == "setup_s":
            note = "  (median of %d builds)" % info["setup_samples"]
        elif name in report["bases"]:
            note = "  (base %s)" % fmt(report["bases"][name])
        elif name == "exec.stats_gap_ms":
            note = "  (tick wall - TickStats.total_micros)"
        print("  %-34s %s %s%s" % (name, fmt(m[name]), unit, note))


def result_of(report, trace, error):
    """The result object the last stdout line carries."""
    correct = bool(report["correct"]) and error is None
    attempted = max(1, int(report["attempted"]))
    failed = int(report["failed"]) if correct else attempted
    metrics = {name: {"value": report["metrics"][name], "unit": unit}
               for name, unit in (PER_LAYER if trace else END_TO_END)}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def verify(report, seed):
    """Correctness of one run beyond its own gate; an error string or None."""
    if report["failure"]:
        return report["failure"]
    if report["gate_checks"] <= 0:
        return "the correctness gate did not run"
    return check_cross_run(report, seed)


def measure(workload, seed, seconds, trace):
    report = run_binary(workload, seed, seconds, trace)
    error = verify(report, seed)
    print_report(report, seed, trace, error)
    return result_of(report, trace, error)


def smoke(seed):
    """Self-check: every metric printed with its unit, the gate runs."""
    problems = []
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_json):
        with open(bench_json) as f:
            spec = json.load(f)
        if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != END_TO_END:
            problems.append("BENCHMARK.json end_to_end differs from run.py")
        if [(m["name"], m["unit"]) for m in spec["per_layer"]] != PER_LAYER:
            problems.append("BENCHMARK.json per_layer differs from run.py")
        if [w["name"] for w in spec["workloads"]] != WORKLOADS:
            problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        tag = workload + ": "
        report = run_binary(workload, seed, 0, trace=True, smoke=True,
                            artifacts=False)
        error = verify(report, seed)
        if error:
            problems.append(tag + error)
        for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                print_report(report, seed, trace, error)
                print(json.dumps(result_of(report, trace, error)))
            lines = text.getvalue().splitlines()
            result = json.loads(lines[-1])
            for name, unit in names:
                metric = result["metrics"].get(name, {})
                value = metric.get("value")
                if metric.get("unit") != unit or \
                        not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    problems.append(tag + "%s not in the result with unit %s"
                                    % (name, unit))
                if not any(line.split()[:1] == [name] and
                           (" %s" % unit) in line for line in lines[:-1]):
                    problems.append(tag + "%s not in the report" % name)
        print("smoke %-16s gate_checks=%d ticks=%d checksum=%s" % (
            workload, report["gate_checks"], report["attempted"],
            ",".join(sorted(set(report["checksums"].values())))))
    for problem in problems:
        print("smoke FAILED: " + problem)
    print("smoke " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", code=2)

    build()
    if args.smoke:
        return smoke(args.seed)

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        print(json.dumps(result))
        return 0

    # Every workload, end-to-end and per-layer, one result line for all.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            result = measure(workload, args.seed, args.seconds, trace)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"]["%s.%s" % (workload, name)] = metric
            print()
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
