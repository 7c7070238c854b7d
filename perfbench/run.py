#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a charter checkout:

    python3 perfbench/run.py --workload paper_dm --seed 2022 --seconds 30 --trace 0

Builds the library, charterd and the benchmark program perfbench from source into
.bench_build/ (or $CARGO_TARGET_DIR), runs one workload at one workload
seed, checks its outputs, and prints every metric by name and unit. The
last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics and writes a Chrome trace-event file (open it in ui.perfetto.dev).
--self-test builds and runs the tests of the benchmark's own helpers.
See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_dm", "paper_traj", "daemon_mix")
DEFAULT_SEED = 2022
DEADLINE_S = 175  # a whole invocation ends within this, builds apart


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    """Configures (once) and builds the given targets; False on failure."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            log("cmake configure failed")
            return False
    rc = subprocess.call(
        ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1), "--target"]
        + list(targets), stdout=sys.stderr)
    if rc != 0:
        log("build failed")
    return rc == 0


def run_perfbench(workload, seed, seconds, trace, deadline, extra=()):
    """Runs perfbench once, killing it at \p deadline (time.monotonic());
    returns its parsed result line, or None."""
    bdir = build_dir()
    os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-file",
           os.path.join(bdir, "traces", "%s-%d.trace.json" % (workload, seed)),
           "--reference-dir", os.path.join(HERE, "reference"),
           "--work-dir", os.path.join(bdir, "run-%d" % os.getpid()),
           "--charterd", os.path.join(bdir, "charter", "charterd")]
    cmd += list(extra)
    # Own process group: a timeout takes perfbench's daemons down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("%s did not finish in time" % workload)
        return None
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        log("perfbench exited with %d" % proc.returncode)
        return None
    return json.loads(lines[-1])


def result_path(workload, seed, seconds):
    return os.path.join(build_dir(), "results",
                        "%s-%d-%g.json" % (workload, seed, seconds))


def latest_untraced(workload, seed, seconds):
    """The cached untraced result for this seed, else the newest one of the
    workload at any seed with the same run length, else None."""
    exact = result_path(workload, seed, seconds)
    if os.path.exists(exact):
        candidates = [exact]
    else:
        rdir = os.path.join(build_dir(), "results")
        suffix = "-%g.json" % seconds
        names = os.listdir(rdir) if os.path.isdir(rdir) else []
        candidates = sorted(
            (os.path.join(rdir, n) for n in names
             if n.startswith(workload + "-") and n.endswith(suffix)),
            key=os.path.getmtime)[-1:]
    for path in candidates:
        with open(path) as f:
            return json.load(f)
    return None


def declared_metrics():
    """Workload names and metric names per kind from BENCHMARK.json at the
    checkout root."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ({w["name"] for w in spec["workloads"]},
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def trace_overhead(untraced, traced):
    """Relative slowdown of the traced run's end-to-end throughput and
    latency against the untraced run at the same seed: the mean over
    gates_per_s (higher is better) and analyze_p50_ms (lower is better)."""
    u, t = untraced["e2e"], traced["e2e"]
    parts = []
    if u["gates_per_s"]["value"] > 0 and t["gates_per_s"]["value"] > 0:
        parts.append(u["gates_per_s"]["value"] / t["gates_per_s"]["value"] - 1)
    if u["analyze_p50_ms"]["value"] > 0:
        parts.append(t["analyze_p50_ms"]["value"] / u["analyze_p50_ms"]["value"] - 1)
    return sum(parts) / len(parts) if parts else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark helper tests")
    ap.add_argument("--write-reference", action="store_true",
                    help="record perfbench/reference/<workload>.json at --seed")
    args = ap.parse_args()

    if args.self_test:
        if not build(["perfbench_selftest"]):
            return 1
        return subprocess.call([os.path.join(build_dir(), "perfbench_selftest")])
    if args.workload is None:
        ap.error("--workload is required")
    try:
        declared_workloads, e2e_units, layer_units = declared_metrics()
    except (OSError, ValueError, KeyError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 1
    if not build(["perfbench", "charterd"]):
        return 1
    deadline = time.monotonic() + DEADLINE_S

    extra = []
    if args.write_reference:
        extra = ["--write-reference",
                 os.path.join(HERE, "reference", args.workload + ".json")]
    if args.trace:
        # The overhead is measured against an untraced run of the same
        # workload: the last one this checkout made at this seed, else at
        # any seed, else a fresh one at this seed.
        untraced = latest_untraced(args.workload, args.seed, args.seconds)
        if untraced is None:
            untraced = run_perfbench(args.workload, args.seed, args.seconds,
                                     False, deadline)
            if untraced is None:
                return 1
    result = run_perfbench(args.workload, args.seed, args.seconds, args.trace,
                           deadline, extra)
    if result is None:
        return 1
    if args.trace:
        result["layer"]["trace_overhead"] = {
            "value": trace_overhead(untraced, result), "unit": "ratio"}
        metrics, declared = result["layer"], layer_units
    else:
        os.makedirs(os.path.join(build_dir(), "results"), exist_ok=True)
        with open(result_path(args.workload, args.seed, args.seconds), "w") as f:
            json.dump(result, f)
        metrics, declared = result["e2e"], e2e_units

    # A declared workload reports exactly the declared metrics; one that
    # BENCHMARK.json does not gate (daemon_mix) reports all it measured.
    if args.workload in declared_workloads:
        missing = sorted(set(declared) - set(metrics))
        if missing:
            log("metrics missing from the run: %s" % missing)
            return 1
        out = {name: metrics[name] for name in declared}
    else:
        out = metrics
    for name, m in out.items():
        print("%-40s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
