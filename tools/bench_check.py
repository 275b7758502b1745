#!/usr/bin/env python3
"""Bench regression gate: compare a fresh bench JSON against a committed
baseline.

Usage:
    python3 tools/bench_check.py --baseline BENCH_server.json \
        --fresh fresh_server.json [--tolerance 0.25]

The "bench" field of the baseline selects the comparison:

  server_throughput  Every (workers, cache) row's qps in the fresh run must
                     be at least tolerance x the baseline row's qps. The
                     "overload" row (engine at ~4x capacity) is gated both
                     ways: fresh served_qps must be at least tolerance x the
                     baseline's, and fresh p99_us of the served requests must
                     be at most baseline p99_us / tolerance — an overloaded
                     server that stops shedding and lets latency blow up
                     fails the build even if raw throughput looks fine.
                     When the baseline carries "conn_scaling" rows (real
                     sockets at 1k/10k concurrent connections against the
                     reactor), each row is gated both ways too: qps as a
                     floor, p99_us as a ceiling — the event loop regressing
                     to per-connection scans shows up as p99 at 10k conns,
                     not as average throughput. Likewise the "churn" row
                     (connect/query/disconnect soak): cycles_per_sec floor,
                     p99_us ceiling.
  chain_build        The fresh extend_speedup must be at least tolerance x
                     the baseline's (the incremental-append win is the
                     quantity PR "ChainBuilder ingestion" exists for).
                     When the baseline carries a reopen_speedup row (the
                     disk-store warm start), it is gated both ways: fresh
                     reopen_speedup must be at least tolerance x the
                     baseline's, and fresh reopen_peak_rss_bytes must be at
                     most baseline / tolerance — a reopen that silently
                     faults every lazy node-BF page in looks "fast enough"
                     but blows the memory ceiling, and fails here.
  verify_throughput  Every design's single_speedup (owned/serial decode+verify
                     over the zero-copy view pipeline) must be at least
                     tolerance x the baseline's, and likewise the pool
                     scaling at the highest thread count both runs measured.
                     Designs that ship whole Bloom filters (strawman-variant,
                     lvq-no-bmt) are where the view + hash-memo pipeline wins
                     big; a speedup collapsing toward 1.0 there means the
                     view path silently fell back to copying.

The tolerance is deliberately generous: CI runners differ wildly from the
machines that produced the committed baselines, and CI runs scaled-down
workloads (see .github/workflows/ci.yml). The gate exists to catch
order-of-magnitude regressions — a fast path silently falling back to a
tree walk, an accidental O(n^2) — not a few percent of noise.

server_throughput additionally enforces latency SLOs on the FRESH run
alone (no baseline involved, so runner speed cancels out — these are
shape invariants of the engine, not absolute numbers):

  * warm p90 <= cold p90 at every worker count — a cache hit is a memcpy
    and must never be slower than rebuilding the proof;
  * warm qps >= --warm-ratio-floor x cold qps (default 5.0) at every
    worker count — the lock-free hit path must actually pay for itself;
  * per cache regime, qps must be monotone-or-flat in workers:
    qps(more workers) >= --monotone-tolerance x qps(fewer workers)
    (default 0.65, loose enough for the known single-digit-core dip) —
    a shared lock on the hit path shows up here as warm qps *falling*
    with workers;
  * overload p99_us <= --overload-p99-slo-us (default 60000; 0 disables)
    — shedding must keep the served tail bounded in absolute terms, not
    just relative to a baseline that might itself be degraded.
  * socket_rtt p50_us <= 10000 — the light node's blocking round trip
    over a real socket (TcpTransport, no TCP_NODELAY) against the
    reactor. A frame sent as two writes meets Nagle plus delayed ACK and
    reads ~44 ms here; a missing row fails.

Exits 0 when every check passes, 1 otherwise. Stdlib only.
"""

import argparse
import json
import sys

# A blocking TcpTransport round trip of a warm point query takes well under
# 1 ms on loopback; a frame sent as two writes stalls it ~44 ms.
SOCKET_RTT_P50_SLO_US = 10000


def load(path):
    with open(path) as f:
        return json.load(f)


def check_server_slo(fresh, args):
    """Fresh-run-only latency/throughput shape invariants (see module
    docstring). Returns the number of failed checks."""
    failures = 0
    rows = {(r["workers"], r["cache"]): r for r in fresh.get("results", [])}
    workers = sorted({w for (w, _) in rows})

    print(f"{'slo':>8} {'check':>24} {'value':>10} {'bound':>10}  verdict")

    def gate(label, check, value, bound, ok):
        nonlocal failures
        failures += 0 if ok else 1
        print(f"{label:>8} {check:>24} {value:>10.1f} {bound:>10.1f}  "
              f"{'ok' if ok else 'FAIL'}")

    for w in workers:
        cold = rows.get((w, "cold"))
        warm = rows.get((w, "warm"))
        if cold is None or warm is None:
            print(f"{w:>8} {'cold/warm pair':>24} {'':>10} {'':>10}  MISSING")
            failures += 1
            continue
        gate(f"w={w}", "warm_p90<=cold_p90", warm["p90_us"], cold["p90_us"],
             warm["p90_us"] <= cold["p90_us"])
        ratio = warm["qps"] / cold["qps"] if cold["qps"] > 0 else 0.0
        gate(f"w={w}", "warm/cold qps ratio", ratio, args.warm_ratio_floor,
             ratio >= args.warm_ratio_floor)

    for regime in ("cold", "warm"):
        for prev, nxt in zip(workers, workers[1:]):
            a = rows.get((prev, regime))
            b = rows.get((nxt, regime))
            if a is None or b is None:
                continue
            floor = args.monotone_tolerance * a["qps"]
            gate(regime, f"qps w{prev}->w{nxt} monotone", b["qps"], floor,
                 b["qps"] >= floor)

    ov = fresh.get("overload")
    if args.overload_p99_slo_us > 0 and ov is not None:
        gate("overload", "p99_us<=slo", ov["p99_us"],
             args.overload_p99_slo_us,
             ov["p99_us"] <= args.overload_p99_slo_us)

    rtt = fresh.get("socket_rtt")
    if rtt is None:
        print(f"{'socket':>8} {'socket_rtt row':>24} {'':>10} {'':>10}  "
              f"MISSING")
        failures += 1
    else:
        gate("socket", "rtt p50_us<=slo", rtt["p50_us"],
             SOCKET_RTT_P50_SLO_US, rtt["p50_us"] <= SOCKET_RTT_P50_SLO_US)
    return failures


def check_server(baseline, fresh, tolerance):
    fresh_rows = {
        (r["workers"], r["cache"]): r for r in fresh.get("results", [])
    }
    failures = 0
    print(f"{'workers':>8} {'cache':>6} {'baseline-qps':>13} "
          f"{'fresh-qps':>10} {'floor':>9}  verdict")
    for row in baseline.get("results", []):
        key = (row["workers"], row["cache"])
        floor = tolerance * row["qps"]
        got = fresh_rows.get(key)
        if got is None:
            verdict, qps = "MISSING", float("nan")
            failures += 1
        else:
            qps = got["qps"]
            ok = qps >= floor
            verdict = "ok" if ok else "FAIL"
            failures += 0 if ok else 1
        print(f"{key[0]:>8} {key[1]:>6} {row['qps']:>13.1f} "
              f"{qps:>10.1f} {floor:>9.1f}  {verdict}")

    base_ov = baseline.get("overload")
    if base_ov is not None:
        fresh_ov = fresh.get("overload")
        print(f"{'overload':>8} {'metric':>12} {'baseline':>10} "
              f"{'fresh':>10} {'bound':>10}  verdict")
        qps_floor = tolerance * base_ov["served_qps"]
        # p99 is gated as a ceiling: under overload the served requests'
        # tail must stay bounded (shedding is what keeps it so).
        p99_ceiling = base_ov["p99_us"] / tolerance
        checks = [
            ("served_qps", base_ov["served_qps"],
             None if fresh_ov is None else fresh_ov.get("served_qps"),
             qps_floor, lambda v, b: v >= b),
            ("p99_us", base_ov["p99_us"],
             None if fresh_ov is None else fresh_ov.get("p99_us"),
             p99_ceiling, lambda v, b: v <= b),
        ]
        for name, base, val, bound, ok_fn in checks:
            ok = val is not None and ok_fn(val, bound)
            failures += 0 if ok else 1
            shown = float("nan") if val is None else val
            print(f"{'':>8} {name:>12} {base:>10.1f} {shown:>10.1f} "
                  f"{bound:>10.1f}  {'ok' if ok else 'FAIL'}")

    base_scaling = baseline.get("conn_scaling", [])
    if base_scaling:
        fresh_scaling = {
            r["target_conns"]: r for r in fresh.get("conn_scaling", [])
        }
        print(f"{'conns':>8} {'metric':>12} {'baseline':>10} "
              f"{'fresh':>10} {'bound':>10}  verdict")
        for row in base_scaling:
            got = fresh_scaling.get(row["target_conns"])
            checks = [
                ("qps", row["qps"],
                 None if got is None else got.get("qps"),
                 tolerance * row["qps"], lambda v, b: v >= b),
                ("p99_us", row["p99_us"],
                 None if got is None else got.get("p99_us"),
                 row["p99_us"] / tolerance, lambda v, b: v <= b),
            ]
            for name, base, val, bound, ok_fn in checks:
                ok = val is not None and ok_fn(val, bound)
                failures += 0 if ok else 1
                shown = float("nan") if val is None else val
                print(f"{row['target_conns']:>8} {name:>12} {base:>10.1f} "
                      f"{shown:>10.1f} {bound:>10.1f}  "
                      f"{'ok' if ok else 'FAIL'}")

    base_churn = baseline.get("churn")
    if base_churn is not None:
        fresh_churn = fresh.get("churn")
        print(f"{'churn':>8} {'metric':>12} {'baseline':>10} "
              f"{'fresh':>10} {'bound':>10}  verdict")
        checks = [
            ("cycles/s", base_churn["cycles_per_sec"],
             None if fresh_churn is None
             else fresh_churn.get("cycles_per_sec"),
             tolerance * base_churn["cycles_per_sec"], lambda v, b: v >= b),
            ("p99_us", base_churn["p99_us"],
             None if fresh_churn is None else fresh_churn.get("p99_us"),
             base_churn["p99_us"] / tolerance, lambda v, b: v <= b),
        ]
        for name, base, val, bound, ok_fn in checks:
            ok = val is not None and ok_fn(val, bound)
            failures += 0 if ok else 1
            shown = float("nan") if val is None else val
            print(f"{'':>8} {name:>12} {base:>10.1f} {shown:>10.1f} "
                  f"{bound:>10.1f}  {'ok' if ok else 'FAIL'}")
    return failures


def check_build(baseline, fresh, tolerance):
    failures = 0
    print(f"{'metric':>22} {'baseline':>12} {'fresh':>12} {'bound':>12}"
          f"  verdict")

    def gate(name, base, val, bound, ok_fn):
        nonlocal failures
        ok = val is not None and ok_fn(val, bound)
        failures += 0 if ok else 1
        shown = float("nan") if val is None else val
        print(f"{name:>22} {base:>12.2f} {shown:>12.2f} {bound:>12.2f}"
              f"  {'ok' if ok else 'FAIL'}")

    base = baseline["extend_speedup"]
    gate("extend_speedup", base, fresh.get("extend_speedup"),
         tolerance * base, lambda v, b: v >= b)

    # Disk-store warm start: speedup is a floor, peak RSS a ceiling (lazy
    # page-in regressing to eager reads shows up as RSS, not time).
    base_reopen = baseline.get("reopen_speedup")
    if base_reopen is not None:
        gate("reopen_speedup", base_reopen, fresh.get("reopen_speedup"),
             tolerance * base_reopen, lambda v, b: v >= b)
        base_rss = baseline.get("reopen_peak_rss_bytes")
        fresh_rss = fresh.get("reopen_peak_rss_bytes")
        if base_rss:
            mb = 1024.0 * 1024.0
            ceiling = base_rss / tolerance
            ok = bool(fresh_rss) and fresh_rss <= ceiling
            failures += 0 if ok else 1
            shown = float("nan") if not fresh_rss else fresh_rss / mb
            print(f"{'reopen_peak_rss_mb':>22} {base_rss / mb:>12.1f} "
                  f"{shown:>12.1f} {ceiling / mb:>12.1f}"
                  f"  {'ok' if ok else 'FAIL'}")
    return failures


def check_verify(baseline, fresh, tolerance):
    fresh_rows = {r["design"]: r for r in fresh.get("results", [])}
    failures = 0
    print(f"{'design':>18} {'metric':>14} {'baseline':>9} {'fresh':>8} "
          f"{'floor':>8}  verdict")
    for row in baseline.get("results", []):
        got = fresh_rows.get(row["design"])
        checks = [("single_speedup", row["single_speedup"],
                   None if got is None else got.get("single_speedup"))]
        # Compare pool scaling at the highest thread count both runs
        # measured; a baseline from a small box (scaling ~1) sets a floor
        # a healthy run trivially clears, which is the intent — the gate
        # catches collapses, not missing cores on the runner.
        base_par = {c["threads"]: c for c in row.get("parallel", [])}
        fresh_par = {} if got is None else {
            c["threads"]: c for c in got.get("parallel", [])
        }
        common = sorted(set(base_par) & set(fresh_par))
        if common:
            n = common[-1]
            checks.append((f"scaling@x{n}", base_par[n]["scaling"],
                           fresh_par[n]["scaling"]))
        for name, base, val in checks:
            floor = tolerance * base
            ok = val is not None and val >= floor
            failures += 0 if ok else 1
            shown = float("nan") if val is None else val
            print(f"{row['design']:>18} {name:>14} {base:>9.2f} "
                  f"{shown:>8.2f} {floor:>8.2f}  {'ok' if ok else 'FAIL'}")
    return failures


CHECKERS = {
    "server_throughput": check_server,
    "chain_build": check_build,
    "verify_throughput": check_verify,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_*.json")
    ap.add_argument("--fresh", required=True,
                    help="JSON produced by this run's bench binary")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="fresh metric must be >= tolerance x baseline "
                         "(default 0.25)")
    ap.add_argument("--warm-ratio-floor", type=float, default=5.0,
                    help="server SLO: fresh warm qps must be >= this "
                         "multiple of fresh cold qps at every worker "
                         "count (default 5.0)")
    ap.add_argument("--monotone-tolerance", type=float, default=0.65,
                    help="server SLO: per cache regime, fresh qps at the "
                         "next worker count must be >= this fraction of "
                         "the previous one (default 0.65)")
    ap.add_argument("--overload-p99-slo-us", type=float, default=60000,
                    help="server SLO: fresh overload p99_us absolute "
                         "ceiling in microseconds (default 60000; 0 "
                         "disables)")
    args = ap.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    kind = baseline.get("bench")
    checker = CHECKERS.get(kind)
    if checker is None:
        sys.exit(f"unknown bench kind {kind!r} in {args.baseline}; "
                 f"expected one of {sorted(CHECKERS)}")
    if fresh.get("bench") != kind:
        sys.exit(f"bench kind mismatch: baseline is {kind!r}, "
                 f"fresh is {fresh.get('bench')!r}")

    print(f"== bench_check: {kind} "
          f"(tolerance {args.tolerance:g}) ==")
    failures = checker(baseline, fresh, args.tolerance)
    if kind == "server_throughput":
        failures += check_server_slo(fresh, args)
    if failures:
        print(f"{failures} check(s) failed (regression floor or "
              f"latency SLO)", file=sys.stderr)
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
