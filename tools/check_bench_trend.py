#!/usr/bin/env python3
"""Validate the bench JSON artifacts the CI smoke runs record.

CI uploads BENCH_exec.json / BENCH_kernels.json / BENCH_trajectory.json /
BENCH_characterize.json (via actions/upload-artifact) so the perf trajectory accumulates run over run; this gate fails the job
when an artifact is missing, malformed, or has lost a metric key — a silent
schema drift would otherwise leave holes in the trend right when a
regression needs investigating.  Correctness invariants the benches assert
internally (bit-identity, <= 1e-12 agreements) are re-checked here from the
recorded values so the artifact itself proves they held.

Runnable locally against any bench output:

    ./bench_sim_kernels --smoke --out kernels.json
    python3 tools/check_bench_trend.py kernels.json

Exit status 0 = every file valid; 1 = any check failed.
"""

import json
import math
import sys

AGREEMENT_BOUND = 1e-12


def fail(path, message):
    print(f"check_bench_trend: {path}: {message}", file=sys.stderr)
    return False


def require_number(path, data, key, *, minimum=None, maximum=None):
    value = data.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return fail(path, f"metric '{key}' missing or non-numeric: {value!r}")
    if not math.isfinite(value):
        return fail(path, f"metric '{key}' is not finite: {value!r}")
    if minimum is not None and value < minimum:
        return fail(path, f"metric '{key}' = {value} below {minimum}")
    if maximum is not None and value > maximum:
        return fail(path, f"metric '{key}' = {value} above {maximum}")
    return True


def check_exec(path, data):
    ok = True
    for key in (
        "naive_ms",
        "checkpointed_ms",
        "fused_checkpointed_ms",
        "warm_cache_ms",
    ):
        ok &= require_number(path, data, key, minimum=0.0)
    for key in (
        "cold_speedup",
        "fused_speedup",
        "session_speedup",
        "reanalysis_speedup",
    ):
        ok &= require_number(path, data, key, minimum=0.0)
    ok &= require_number(path, data, "analyzed_gates", minimum=1)
    if data.get("bit_identical") is not True:
        ok = fail(path, "checkpointed run was not bit-identical to naive")
    if data.get("fused_rankings_match") is not True:
        ok = fail(path, "fused analysis changed the gate ranking")
    rows = data.get("threads")
    if not isinstance(rows, list) or not rows:
        ok = fail(path, "metric 'threads' missing or empty")
    else:
        for row in rows:
            ok &= require_number(path, row, "threads", minimum=1)
            ok &= require_number(path, row, "ms", minimum=0.0)
            if row.get("bit_identical_to_1_thread") is not True:
                ok = fail(
                    path,
                    f"threads={row.get('threads')} row not bit-identical "
                    "to the 1-worker report",
                )
    if not isinstance(data.get("simd_active"), str):
        ok = fail(path, "metric 'simd_active' missing")
    return ok


def check_kernels(path, data):
    ok = True
    ok &= require_number(path, data, "qubits", minimum=1)
    for key in ("simd_active", "simd_available"):
        if not isinstance(data.get(key), str) or not data[key]:
            ok = fail(path, f"metric '{key}' missing")
    rows = data.get("simd")
    expected = {"unitary_1q", "unitary_1q_pair", "cx_pair", "diag_run"}
    if not isinstance(rows, list) or not rows:
        ok = fail(path, "per-ISA 'simd' rows missing")
        rows = []
    seen = set()
    for row in rows:
        name = row.get("kernel")
        seen.add(name)
        ok &= require_number(path, row, "scalar_ms", minimum=0.0)
        ok &= require_number(path, row, "best_ms", minimum=0.0)
        ok &= require_number(path, row, "speedup", minimum=0.0)
        ok &= require_number(
            path, row, "max_abs_diff", minimum=0.0, maximum=AGREEMENT_BOUND
        )
    if expected - seen:
        ok = fail(path, f"per-ISA rows missing kernels: {expected - seen}")
    for key in (
        "kernel_pair_speedup",
        "diag_run_speedup",
        "tape_fused_speedup",
    ):
        ok &= require_number(path, data, key, minimum=0.0)
    ok &= require_number(
        path, data, "fused_max_abs_diff", minimum=0.0, maximum=AGREEMENT_BOUND
    )
    ok &= require_number(path, data, "tape_ops_exact", minimum=1)
    ok &= require_number(path, data, "tape_ops_fused", minimum=1)
    if ok and data["tape_ops_fused"] >= data["tape_ops_exact"]:
        ok = fail(path, "fusion did not shrink the tape")
    return ok


def check_trajectory(path, data):
    ok = True
    ok &= require_number(path, data, "qubits", minimum=1)
    ok &= require_number(path, data, "trajectories", minimum=1)
    ok &= require_number(path, data, "fusion_width", minimum=2, maximum=3)
    for key in ("simd_active", "simd_available"):
        if not isinstance(data.get(key), str) or not data[key]:
            ok = fail(path, f"metric '{key}' missing")
    smoke = data.get("smoke")
    if not isinstance(smoke, bool):
        ok = fail(path, f"metric 'smoke' missing or not a bool: {smoke!r}")
    for name in ("coherent", "full_noise"):
        row = data.get(name)
        if not isinstance(row, dict):
            ok = fail(path, f"sweep row '{name}' missing")
            continue
        ok &= require_number(path, row, "exact_ms", minimum=0.0)
        ok &= require_number(path, row, "fused_wide_ms", minimum=0.0)
        # The coherent-dominated row is the headline gate: a fused-wide
        # sweep that fails to at least match the exact tape is a
        # regression in the wide-fusion pipeline itself.  At --smoke size
        # each sweep takes ~0.3 ms and the ratio reads 0.77-1.11 on an
        # unchanged tree, so the bound applies to full-size runs only.
        timed = name == "coherent" and smoke is False
        ok &= require_number(
            path, row, "speedup", minimum=1.0 if timed else 0.0
        )
        ok &= require_number(
            path, row, "max_abs_diff", minimum=0.0, maximum=AGREEMENT_BOUND
        )
        ok &= require_number(path, row, "tape_ops_exact", minimum=1)
        ok &= require_number(path, row, "tape_ops_fused_wide", minimum=1)
        if (
            ok
            and row["tape_ops_fused_wide"] >= row["tape_ops_exact"]
        ):
            ok = fail(path, f"'{name}': wide fusion did not shrink the tape")
    rows = data.get("threads")
    if not isinstance(rows, list) or not rows:
        ok = fail(path, "metric 'threads' missing or empty")
    else:
        for row in rows:
            ok &= require_number(path, row, "threads", minimum=1)
            ok &= require_number(path, row, "ms", minimum=0.0)
            if row.get("bit_identical_to_1_thread") is not True:
                ok = fail(
                    path,
                    f"threads={row.get('threads')} sweep not bit-identical "
                    "to the 1-thread fold",
                )
    # The exec layer's per-unravelling fan-out: one BatchRunner batch must
    # reproduce every job's own run_trajectories average bit for bit.
    fan = data.get("fanout")
    if not isinstance(fan, dict):
        ok = fail(path, "row 'fanout' missing")
    else:
        ok &= require_number(path, fan, "jobs", minimum=1)
        ok &= require_number(path, fan, "trajectories", minimum=1)
        ok &= require_number(path, fan, "threads", minimum=1)
        ok &= require_number(path, fan, "wall_ms", minimum=0.0)
        ok &= require_number(path, fan, "cpu_util", minimum=0.0)
        if fan.get("bit_identical") is not True:
            ok = fail(path, "fanout jobs differ from run_trajectories")
    # Adaptive trajectory budgets: early termination must save trajectories
    # without touching the top-k gate ranking.
    adaptive = data.get("adaptive")
    if not isinstance(adaptive, dict):
        return fail(path, "row 'adaptive' missing")
    ok &= require_number(path, adaptive, "trajectories_budgeted", minimum=1)
    ok &= require_number(path, adaptive, "trajectories_executed", minimum=1)
    ok &= require_number(path, adaptive, "gates_settled_early", minimum=1)
    ok &= require_number(path, adaptive, "savings_pct", minimum=0.0)
    if ok and adaptive["trajectories_executed"] >= adaptive[
        "trajectories_budgeted"
    ]:
        ok = fail(path, "adaptive budget saved no trajectories")
    if adaptive.get("topk_match") is not True:
        ok = fail(path, "adaptive budget changed the top-k gate ranking")
    return ok


def check_characterize(path, data):
    ok = True
    ok &= require_number(path, data, "qubits", minimum=1)
    ok &= require_number(path, data, "gates", minimum=1)
    ok &= require_number(path, data, "depths", minimum=4)
    ok &= require_number(path, data, "sequences", minimum=1)
    ok &= require_number(path, data, "jobs", minimum=1)
    ok &= require_number(path, data, "checkpointed", minimum=1)
    ok &= require_number(path, data, "checkpoint_fallbacks", minimum=0)
    for key in ("naive_ms", "spliced_ms"):
        ok &= require_number(path, data, key, minimum=0.0)
    for key in ("splice_speedup", "sequences_per_s"):
        ok &= require_number(path, data, key, minimum=0.0)
    # Every germ ladder feeds on the base sweep's snapshots: a reuse ratio
    # near zero means the splice machinery silently stopped engaging.
    ok &= require_number(
        path, data, "checkpoint_reuse_ratio", minimum=0.1, maximum=1.0
    )
    ok &= require_number(
        path, data, "rank_agreement", minimum=-1.0, maximum=1.0
    )
    if data.get("bit_identical") is not True:
        ok = fail(path, "spliced characterization not bit-identical to naive")
    if not isinstance(data.get("simd_active"), str):
        ok = fail(path, "metric 'simd_active' missing")
    return ok


CHECKERS = {
    "exec_batching": check_exec,
    "sim_kernels": check_kernels,
    "trajectory": check_trajectory,
    "characterize": check_characterize,
}


def summarize(path, data):
    bench = data.get("bench")
    if bench == "exec_batching":
        print(
            f"{path}: exec_batching simd={data['simd_active']} "
            f"cold={data['cold_speedup']:.2f}x "
            f"fused={data['fused_speedup']:.2f}x "
            f"session={data['session_speedup']:.2f}x"
        )
    elif bench == "characterize":
        print(
            f"{path}: characterize {data['benchmark']} "
            f"gates={data['gates']} seq={data['sequences']} "
            f"splice={data['splice_speedup']:.2f}x "
            f"reuse={data['checkpoint_reuse_ratio']:.2f} "
            f"rank_agreement={data['rank_agreement']:.2f}"
        )
    elif bench == "trajectory":
        print(
            f"{path}: trajectory n={data['qubits']} "
            f"simd={data['simd_active']} "
            f"width={data['fusion_width']} "
            f"coherent={data['coherent']['speedup']:.2f}x "
            f"full_noise={data['full_noise']['speedup']:.2f}x "
            f"fanout={data['fanout']['wall_ms']:.0f}ms "
            f"cpu_util={data['fanout']['cpu_util']:.2f} "
            f"adaptive_saved={data['adaptive']['savings_pct']:.1f}%"
        )
    else:
        rows = {r["kernel"]: r["speedup"] for r in data["simd"]}
        print(
            f"{path}: sim_kernels simd={data['simd_active']} "
            f"1q={rows.get('unitary_1q', 0):.2f}x "
            f"1q_pair={rows.get('unitary_1q_pair', 0):.2f}x "
            f"cx_pair={rows.get('cx_pair', 0):.2f}x "
            f"diag_run={rows.get('diag_run', 0):.2f}x "
            f"diag_run_vs_per_op={data['diag_run_speedup']:.2f}x "
            f"tape_fused={data['tape_fused_speedup']:.2f}x"
        )


def check_file(path):
    # A missing or empty artifact fails: CI writes every artifact before
    # this gate runs, so an absent one means its bench leg did not run.
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as err:
        return fail(path, f"missing artifact: {err.strerror}")
    if not text.strip():
        return fail(path, "empty artifact")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        return fail(path, f"malformed JSON: {err}")
    if not isinstance(data, dict):
        return fail(path, "top-level JSON value is not an object")
    bench = data.get("bench")
    checker = CHECKERS.get(bench)
    if checker is None:
        return fail(
            path, f"unknown bench id {bench!r} (expected {sorted(CHECKERS)})"
        )
    if not checker(path, data):
        return False
    summarize(path, data)
    return True


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        print("usage: check_bench_trend.py BENCH_FILE...", file=sys.stderr)
        return 2
    ok = True
    for path in argv[1:]:
        ok &= check_file(path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
