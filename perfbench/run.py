#!/usr/bin/env python3
"""End-to-end scenario benchmark for netmon.

Builds the benchmark binary from source (perfbench/CMakeLists.txt compiles
../src), then runs one workload repeatedly for the measured window, each
run in its own process at the given seed, and prints one JSON object as the
last line of stdout:

    python3 perfbench/run.py --workload paper_bed_failover --seed 1 \
        --seconds 30 --trace 0

Host times are scaled to a nominal host speed. Before and after every
workload run, a reference process times a fixed piece of standard-library
work (perfbench/reference.cpp) that no netmon change can alter; a run's
host times are multiplied by REFERENCE_S over the mean of the two reference
times around it. The host's speed drifts by up to 2x with its neighbours'
load, over minutes; the scaling cancels that drift and keeps what the code
costs.

--trace 0 reports the end-to-end metrics from untraced runs. --trace 1
alternates untraced and traced runs and reports the per-layer metrics from
the traced ones, plus the tracing overhead. Every run is checked: its own
invariants, identical simulated results across runs of one seed, identical
digest and event count with and without the tracer, and, on the default
seed, the golden digest in perfbench/golden.json.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), relative
to the checkout root. See perfbench/README.md for workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("paper_bed_failover", "fabric_budgeted", "fed_two_zone")
DEFAULT_SEED = 1

MIN_RUNS = 3  # untraced runs per measured window, even past its end
MIN_TRACED = 2  # traced runs per window with --trace 1
RUN_TIMEOUT_S = 100  # one workload process
HARD_STOP_S = 150  # no new run starts after this, whatever the minimums
# Nominal reference time: a host on which the reference takes this long
# reports host times unscaled.
REFERENCE_S = 0.35

# end-to-end: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "host_us_per_tuple": "us",
    "host_ns_per_event": "ns",
    "peak_rss_mib": "MiB",
    "events_per_tuple": "event/tuple",
    "senescence_p99_s": "sim_s",
    "monitor_peak_mbps": "Mbit/sim_s",
    "delivered_share": "ratio",
}

# per-layer counts: name -> unit
LAYER_COUNTS = {
    "sim.events": "count",
    "sim.self_s": "s",
    "net.profile_calls": "count",
    "net.octets_total": "byte",
    "nttcp.launches": "count",
    "nttcp.bytes_on_wire": "byte",
    "sensor_director.measurements": "count",
    "sensor_director.retries": "count",
    "sensor_director.timeouts": "count",
    "lane_scheduler.admitted": "count",
    "lane_scheduler.deferred_budget": "count",
    "lane_scheduler.deferred_disjoint": "count",
    "lane_scheduler.wake_tests": "count",
    "lane_scheduler.futile_wakeups": "count",
    "measurement_db.records": "count",
    "measurement_db.pool_pages": "count",
    "measurement_db.evictions": "count",
    "fed.pages_spooled": "count",
    "fed.pages_sent": "count",
    "fed.pages_resent": "count",
    "fed.pages_shed": "count",
    "fed.points_merged": "count",
    "fed.points_lost": "count",
    "fed.deltas_applied": "count",
    "manager.tuples_consumed": "count",
    "manager.reconfigurations": "count",
    "manager.failover_s": "sim_s",
    "trace.spans": "count",
}

# per-layer timings: name -> unit of the samples. Each is reported as
# <name>.p50, <name>.tail (the highest percentile with at least ten samples
# beyond it), <name>.tail_pct (which percentile that is) and <name>.n.
LAYER_TIMINGS = {
    "net.profile_cold_us": "us",
    "net.profile_warm_ns": "ns",
    "nttcp.launch_us": "us",
    "nttcp.probe_ms": "sim_ms",
    "sensor_director.complete_us": "us",
    "lane_scheduler.wait_ms": "sim_ms",
    "measurement_db.record_ns": "ns",
}

# Fields of one run that are simulated physics and must repeat exactly.
DETERMINISTIC = ("events", "tuples", "ops_attempted", "ops_delivered",
                 "senescence_p99_s", "monitor_peak_mbps", "digest")


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = list(LAYER_COUNTS.items())
    for name, unit in LAYER_TIMINGS.items():
        out += [(name + ".p50", unit), (name + ".tail", unit),
                (name + ".tail_pct", "percentile"), (name + ".n", "count")]
    out.append(("trace.overhead_s", "s"))
    out.append(("host.reference_s", "s"))
    return out


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("netmon sources not found next to perfbench/ (no src/)")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                fail("configure failed, see " + log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", build_dir, "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail("build failed, see " + log_path)
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no binary")
    return binary, build_dir


def run_process(cmd, workload):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s run timed out" % workload)
    if proc.returncode != 0:
        fail("%s run exited %d: %s" % (workload, proc.returncode,
                                       proc.stderr.strip()[-500:]))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("%s run printed no result" % workload)


def run_once(binary, build_dir, workload, seed, traced):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--span-file",
                os.path.join(build_dir, "spans-%s.bin" % workload)]
    return run_process(cmd, workload)


def reference(binary):
    return run_process([binary, "--workload", "reference"],
                       "reference")["reference_s"]


def measure(binary, build_dir, workload, seed, seconds, trace):
    """Runs the workload for the window; returns (untraced, traced) runs."""
    plain, traced = [], []
    start = time.monotonic()
    before = reference(binary)
    while True:
        elapsed = time.monotonic() - start
        if elapsed >= HARD_STOP_S:
            break
        if (elapsed >= seconds and len(plain) >= MIN_RUNS and
                (not trace or len(traced) >= MIN_TRACED)):
            break
        want_traced = trace and len(traced) < len(plain)
        run = run_once(binary, build_dir, workload, seed, want_traced)
        after = reference(binary)
        run["reference_s"] = (before + after) / 2
        before = after
        (traced if want_traced else plain).append(run)
    return plain, traced


def check(workload, seed, plain, traced):
    """Returns the list of correctness problems across all runs."""
    problems = []
    runs = plain + traced
    for r in runs:
        problems += ["%s (trace=%d)" % (f, r["trace"]) for f in r["failures"]]
    ref = plain[0]
    for r in runs[1:]:
        for key in DETERMINISTIC:
            if r[key] != ref[key]:
                what = "traced and untraced" if r["trace"] else "two"
                problems.append("%s runs disagree on %s" % (what, key))
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "golden.json")) as f:
            golden = json.load(f)["digests"]
        if ref["digest"] != golden.get(workload):
            problems.append("digest %s != golden %s" %
                            (ref["digest"], golden.get(workload)))
    return sorted(set(problems))


def scaled(run, key):
    """A host time of one run at the nominal host speed."""
    return run[key] * REFERENCE_S / run["reference_s"]


def end_to_end(plain):
    ref = plain[0]
    med = lambda f: statistics.median(f(r) for r in plain)
    values = {
        "setup_s": med(lambda r: scaled(r, "setup_s")),
        "wall_s": med(lambda r: scaled(r, "wall_s")),
        "host_us_per_tuple": med(
            lambda r: scaled(r, "wall_s") * 1e6 / r["tuples"]),
        "host_ns_per_event": med(
            lambda r: scaled(r, "wall_s") * 1e9 / r["events"]),
        "peak_rss_mib": med(lambda r: r["peak_rss_mib"]),
        "events_per_tuple": ref["events"] / ref["tuples"],
        "senescence_p99_s": ref["senescence_p99_s"],
        "monitor_peak_mbps": ref["monitor_peak_mbps"],
        "delivered_share": ref["ops_delivered"] / ref["ops_attempted"],
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(plain, traced):
    values = {}
    for name in LAYER_COUNTS:
        if name == "sim.events":
            samples = [r["events"] for r in traced]
        else:
            samples = [r["counts"].get(name, 0) for r in traced]
        values[name] = statistics.median(samples)
    for name in LAYER_TIMINGS:
        for field in ("p50", "tail", "tail_pct", "n"):
            samples = [r["timings"].get(name, {}).get(field, 0)
                       for r in traced]
            values[name + "." + field] = statistics.median(samples)
    values["trace.overhead_s"] = (
        statistics.median(scaled(r, "wall_s") for r in traced) -
        statistics.median(scaled(r, "wall_s") for r in plain))
    values["host.reference_s"] = statistics.median(
        r["reference_s"] for r in plain + traced)
    return {n: {"value": values[n], "unit": u} for n, u in per_layer_names()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    binary, build_dir = build()
    plain, traced = measure(binary, build_dir, args.workload, args.seed,
                            args.seconds, args.trace == 1)
    problems = check(args.workload, args.seed, plain, traced)
    for p in problems:
        print("perfbench: check failed: " + p, file=sys.stderr)
    runs = plain + traced
    # A disagreement between runs, or with the golden digest, cannot be
    # pinned on one run: then every run counts as failed.
    failed = sum(1 for r in runs if r["failures"])
    if problems and not failed:
        failed = len(runs)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
