#!/usr/bin/env python3
"""End-to-end benchmark of the LVQ serving stack at paper scale.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload poll-zipf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own tests

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload and prints, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics. The line before it is a report with the
run's environment, every phase and the reasons for metrics a workload
cannot measure. Exits 1 when any output check fails.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("poll-zipf", "fresh-mix-append", "light-verify")
RUN_TIMEOUT_S = 170
# A generator whose own send lateness (beyond waiting for a free
# connection) reaches this p99 measured its scheduler, not the program.
MAX_LATENESS_MS = 50.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no LVQ sources next to perfbench/ (../src)")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                    "--target", *targets], check=True, stdout=sys.stderr)
    return out


def cpu_info():
    model, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and model == "unknown":
                model = value.strip()
            if key.strip() == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    return model, flags


def source_identity():
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            return commit.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    # Not a git checkout: name the sources by content instead.
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def environment(out, seed, sync_mode, sha_backend):
    model, flags = cpu_info()
    build_type = "unknown"
    cache = out / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                # Empty means perfbench/CMakeLists.txt's default applied.
                build_type = line.split("=", 1)[1] or "RelWithDebInfo"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "sha_ni": "sha_ni" in flags,
        "sse4_2": "sse4_2" in flags,
        "sha256_backend": sha_backend,
        "build_type": build_type,
        "source": source_identity(),
        "seed": seed,
        "store_sync_mode": sync_mode,
        "kernel": platform.release(),
    }


def run_program(out, args):
    # The cached store is built in a process of its own, so building it
    # never inflates the measuring process's memory.
    prepare = subprocess.run(
        [str(out / "lvqbench"), "prepare", "--cache", str(out / "cache")],
        timeout=RUN_TIMEOUT_S)
    if prepare.returncode != 0:
        raise SystemExit(f"perfbench: preparing the store failed ({prepare.returncode})")
    work = out / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    cmd = [str(out / "lvqbench"), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cache", str(out / "cache"),
           "--work", str(work)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("perfbench: run timed out")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: lvqbench exited {proc.returncode}")
    records = {"phase": []}
    for line in stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        for key, value in obj.items():
            if key == "phase":
                records["phase"].append(value)
            else:
                records[key] = value
    return records, work


def med(values):
    return statistics.median(values) if values else None


def end_to_end(rec):
    res = rec["result"]
    if rec.get("ready"):
        setup = med(rec["ready"]["setup_s"])
        peak = rec["window"]["peak_rss_mb"]
        qps = res.get("slo_qps")
    else:
        setup, peak, qps = res["setup_s"], res["peak_rss_mb"], res["verify_qps"]
    return {
        "setup_s": setup,
        "p50_ms": res["p50_ms"],
        "p99_ms": res["p99_ms"],
        "qps": qps,
        "success_ratio": 1.0 - res["error_rate"],
        "reply_kb_per_query": res["reply_kb_per_query"],
        "peak_rss_mb": peak,
    }


def per_layer(rec):
    """Per-layer values and, for those a workload cannot measure, why."""
    res, replay = rec["result"], rec.get("replay", {})
    ready, window = rec.get("ready"), rec.get("window")
    values, missing = {}, {}
    for key in ("node.handle_ms.point", "node.handle_ms.range",
                "node.handle_ms.batch", "node.handle_ms.multi",
                "node.verify_pool_speedup", "core.serialize_ms.background",
                "core.serialize_ms.heavy", "core.decode_ms", "core.verify_ms",
                "crypto.sha256_mb_s"):
        values[key] = replay.get(key)
    overhead = None
    if res.get("traced_p50_ms") and res.get("p50_ms"):
        overhead = 100.0 * (res["traced_p50_ms"] / res["p50_ms"] - 1.0)
    values["trace.overhead_p50_pct"] = overhead
    fresh = rec["result"]["workload"] == "fresh-mix-append"
    if ready is None:  # light-verify: no socket and no server layer runs
        why = "light-verify runs no socket or server layer (replay transport)"
        for key in ("net.rtt_ms.p50", "net.rtt_ms.p99", "net.self_ms.p50",
                    "net.self_ms.p99", "net.backpressure_shed",
                    "net.reply_mb_per_s", "server.handler_ms.p50",
                    "server.handler_ms.p99", "server.cache_hit_ratio",
                    "server.segment_hit_ratio", "server.cache_admitted",
                    "server.cache_bypassed", "server.cache_evictions",
                    "server.hits_per_admit", "server.rejected_busy",
                    "server.expired", "server.rebind_ms"):
            missing[key] = why
        for key in ("store.open_s", "store.load_context_s",
                    "store.rss_after_reopen_mb", "proc.cpu_ms_per_query",
                    "proc.minflt", "proc.majflt", "proc.nivcsw"):
            values[key] = res.get(key)
        for key in ("node.append_ms", "core.derive_s", "core.build_s",
                    "store.append_bytes", "store.bytes_per_block_byte"):
            missing[key] = "light-verify neither ingests nor appends"
    else:
        hits, misses = window["cache_hits"], window["cache_misses"]
        seg_hits, seg_misses = window["segment_hits"], window["segment_misses"]
        values.update({
            "net.rtt_ms.p50": res.get("net.rtt_ms.p50"),
            "net.rtt_ms.p99": res.get("net.rtt_ms.p99"),
            "net.self_ms.p50": res.get("net.self_ms.p50"),
            "net.self_ms.p99": res.get("net.self_ms.p99"),
            "net.backpressure_shed": window["backpressure_shed"],
            "net.reply_mb_per_s": res.get("net.reply_mb_per_s"),
            "server.handler_ms.p50": res.get("server.handler_ms.p50"),
            "server.handler_ms.p99": res.get("server.handler_ms.p99"),
            "server.cache_hit_ratio": hits / max(hits + misses, 1),
            "server.segment_hit_ratio": seg_hits / max(seg_hits + seg_misses, 1),
            "server.cache_admitted": window["cache_admitted"],
            "server.cache_bypassed": window["cache_bypassed"],
            "server.cache_evictions": window["cache_evictions"],
            "server.hits_per_admit": hits / max(window["cache_admitted"], 1),
            "server.rejected_busy": window["rejected_busy"],
            "server.expired": window["expired"],
            "store.open_s": med(ready["open_s"]),
            "store.bytes_per_block_byte":
                ready["store_total_bytes"] / ready["store_blocks_bytes"],
            "proc.cpu_ms_per_query": window["cpu_ms"] / max(window["requests"], 1),
            "proc.minflt": window["minflt"],
            "proc.majflt": window["majflt"],
            "proc.nivcsw": window["nivcsw"],
        })
        if fresh:
            values["server.rebind_ms"] = med(window.get("rebind_ms", []))
            values["node.append_ms"] = med(window.get("append_ms", []))
            values["store.append_bytes"] = med(window.get("append_bytes", []))
            values["core.derive_s"] = med(ready["derive_s"])
            values["core.build_s"] = med(ready["build_s"])
            why = "fresh-mix-append ingests its store instead of reopening it"
            for key in ("store.load_context_s", "store.rss_after_reopen_mb"):
                missing[key] = why
        else:
            values["store.load_context_s"] = med(ready["load_context_s"])
            values["store.rss_after_reopen_mb"] = ready["rss_after_setup_mb"]
            why = "poll-zipf appends no blocks and reopens a prebuilt store"
            for key in ("server.rebind_ms", "node.append_ms",
                        "store.append_bytes", "core.derive_s", "core.build_s"):
                missing[key] = why
    return values, missing


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.test:
        out = build(["perfbench_tests"])
        return subprocess.run([str(out / "perfbench_tests")]).returncode
    if not args.workload:
        ap.error("--workload is required")

    t0 = time.monotonic()
    out = build(["lvqbench"])
    log(f"perfbench: build ready in {time.monotonic() - t0:.1f} s")
    rec, work = run_program(out, args)
    res = rec["result"]

    problems = []
    if res["wrong_replies_all_phases"]:
        problems.append(f"{res['wrong_replies_all_phases']:.0f} replies failed "
                        "the output check")
    if res["server_exit"]:
        problems.append(f"server exited {res['server_exit']:.0f}")
    lateness = res.get("lateness_p99_ms", 0.0)
    if lateness > MAX_LATENESS_MS:
        problems.append(f"run invalid: generator lateness p99 {lateness:.1f} ms "
                        "(it fell behind its own schedule)")
    if rec.get("replay", {}).get("ok", 1) != 1:
        problems.append("a replayed reply failed verification")
    if res.get("trace_unmatched", 0):
        problems.append(f"{res['trace_unmatched']:.0f} traced round trips had "
                        "no server handler span")

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        values, missing = per_layer(rec)
    else:
        values, missing = end_to_end(rec), {}
    metrics = {}
    for spec in specs:
        name = spec["name"]
        value = values.get(name)
        if name in missing:
            value = 0.0
        elif value is None or not math.isfinite(value):
            problems.append(f"metric {name} could not be measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": spec["unit"]}

    report = {
        "workload": args.workload,
        "environment": environment(out, args.seed, res.get("sync_mode"),
                                   res.get("sha256_backend")),
        "phases": rec["phase"],
        "result": res,
        "server_ready": rec.get("ready"),
        "server_window": rec.get("window"),
        "replay": rec.get("replay"),
        "unavailable": missing,
        "problems": problems,
        "spans": [str(p) for p in sorted(work.glob("*spans*"))],
    }
    if rec.get("window") and rec["window"].get("append_total_ms"):
        report["append_p50_ms"] = med(rec["window"]["append_total_ms"])
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    for p in problems:
        log("perfbench: " + p)
    correct = not problems
    print(json.dumps({"correct": correct,
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
