#!/usr/bin/env python3
"""Validate BENCH_*.json artifacts and gate performance regressions.

Standard library only. Two jobs:

1. Schema validation: every BENCH_*.json in --dir is checked against the
   schema for its "bench" kind (required keys, value sanity, internal
   invariants like bulk-vs-incremental equivalence). Unknown bench kinds
   only need to parse and carry a "bench" key.

2. Regression gate: for tracked throughput/latency metrics, the fresh
   value is compared against the committed baseline of the same file name
   in --baseline (the repo root). A throughput metric (qps) may not drop
   more than --threshold (default 25%) below baseline; a latency metric
   (p99_ns) may not rise more than --threshold above it. Missing baseline
   files skip the gate with a note, so bootstrap runs pass.

Exit status: 0 all good, 1 any schema or regression failure.

Usage (as wired in scripts/ci.sh, after the smoke benches):
    python3 scripts/check_bench.py --dir build --baseline .
"""

import argparse
import glob
import json
import os
import sys

FAILURES = []


def fail(msg):
    FAILURES.append(msg)
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)


def require(doc, keys, where):
    for key in keys:
        if key not in doc:
            fail(f"{where}: missing key {key!r}")
            return False
    return True


def check_service(doc, path):
    if not require(doc, ("bench", "county", "segments", "threads", "batch",
                         "trace_lines", "structures",
                         "segment_pool_hit_ratio"), path):
        return
    if len(doc["structures"]) != 3:
        fail(f"{path}: expected R*, R+, PMR entries")
    for s in doc["structures"]:
        where = f"{path} structure {s.get('index', '?')}"
        if not require(s, ("index", "queries", "qps", "p50_ns", "p90_ns",
                           "p99_ns", "max_ns", "hit_ratio",
                           "faults_injected", "io_retries",
                           "checksum_failures", "degraded"), where):
            continue
        if not (s["queries"] > 0 and s["qps"] > 0):
            fail(f"{where}: nonpositive queries/qps")
        if not (s["p50_ns"] <= s["p90_ns"] <= s["p99_ns"] <= s["max_ns"]):
            fail(f"{where}: percentiles not monotone")
        if not (0.0 <= s["hit_ratio"] <= 1.0):
            fail(f"{where}: hit_ratio out of range")
        # The default bench run injects nothing: counters must be zero and
        # the service healthy.
        if s["faults_injected"] != 0 or s["checksum_failures"] != 0:
            fail(f"{where}: unexpected fault counters in fault-free run")
        if s["degraded"] is not False:
            fail(f"{where}: degraded in fault-free run")
    trace = path + ".trace.jsonl"
    if os.path.exists(trace):
        with open(trace) as fh:
            for i, line in enumerate(fh):
                try:
                    json.loads(line)
                except ValueError:
                    fail(f"{trace}:{i + 1}: invalid JSONL")
                    break


def check_build(doc, path):
    if not require(doc, ("bench", "county", "segments", "smoke",
                         "structures"), path):
        return
    if [s.get("index") for s in doc["structures"]] != ["R*", "R+", "PMR"]:
        fail(f"{path}: expected R*, R+, PMR entries in order")
    for s in doc["structures"]:
        where = f"{path} structure {s.get('index', '?')}"
        if not require(s, ("incremental", "bulk", "speedup", "equivalent",
                           "invariants_ok"), where):
            continue
        for name in ("incremental", "bulk"):
            side = s[name]
            if not require(side, ("seconds", "disk_accesses", "pages",
                                  "height", "avg_occupancy"),
                           f"{where} {name}"):
                continue
            if not (side["pages"] > 0 and side["height"] >= 1):
                fail(f"{where} {name}: implausible pages/height")
        # The bench exits nonzero on failed checks; assert anyway so a
        # stale file cannot pass.
        if s["equivalent"] is not True or s["invariants_ok"] is not True:
            fail(f"{where}: equivalence/invariants not confirmed")


def check_snapshot(doc, path):
    if not require(doc, ("bench", "county", "segments", "smoke", "threads",
                         "build_seconds", "snapshot_write_seconds",
                         "snapshot_bytes", "snapshot_open_mmap_seconds",
                         "speedup", "mmap_qps", "equivalent"), path):
        return
    if doc["snapshot_bytes"] <= 0 or doc["snapshot_open_mmap_seconds"] <= 0:
        fail(f"{path}: implausible snapshot size/open time")
    if doc["speedup"] < 10.0:
        fail(f"{path}: cold-start speedup {doc['speedup']} < 10x")
    if doc["equivalent"] is not True:
        fail(f"{path}: snapshot-vs-built responses not equivalent")
    if not doc["mmap_qps"] > 0:
        fail(f"{path}: nonpositive qps")


def check_introspect(doc, path):
    if not require(doc, ("bench", "county", "segments", "threads",
                         "queries_per_kind", "structures"), path):
        return
    if [s.get("index") for s in doc["structures"]] != ["R*", "R+", "PMR"]:
        fail(f"{path}: expected R*, R+, PMR entries in order")
    kinds = ["point", "window", "nearest", "incident"]
    for s in doc["structures"]:
        where = f"{path} structure {s.get('index', '?')}"
        if not require(s, ("index", "profiles", "xray", "page_heat"), where):
            continue
        if [p.get("kind") for p in s["profiles"]] != kinds:
            fail(f"{where}: expected one profile per query kind in order")
            continue
        for p in s["profiles"]:
            pwhere = f"{where} kind {p.get('kind', '?')}"
            if not require(p, ("queries", "nodes_visited", "nodes_per_query",
                               "false_leaf_read_rate",
                               "false_bucket_read_rate", "prune_rate",
                               "levels"), pwhere):
                continue
            if p["queries"] <= 0 or p["nodes_visited"] <= 0:
                fail(f"{pwhere}: empty profile (introspection off?)")
            for rate in ("false_leaf_read_rate", "false_bucket_read_rate",
                         "prune_rate"):
                if not (0.0 <= p[rate] <= 1.0):
                    fail(f"{pwhere}: {rate} out of [0, 1]")
        xray = s["xray"]
        if require(xray, ("structure", "pages", "height", "leaf",
                          "internal"), f"{where} xray"):
            if s["index"] == "R*" and "overlap_ratio" not in xray:
                fail(f"{where}: R* xray missing overlap_ratio")
            if s["index"] == "R+" and "duplication_factor" not in xray:
                fail(f"{where}: R+ xray missing duplication_factor")
            if s["index"] == "PMR" and "quad_depths" not in xray:
                fail(f"{where}: PMR xray missing quad_depths")
        require(s["page_heat"], ("pages", "pages_touched", "accesses",
                                 "top"), f"{where} page_heat")


def check_overload(doc, path):
    if not require(doc, ("bench", "county", "segments", "smoke", "threads",
                         "policy", "latency_injected_us", "capacity_qps",
                         "unloaded_p99_ns", "deadline_ns", "sweep",
                         "p99_bound_ns", "p99_at_3x_ns", "bounded",
                         "accounted"), path):
        return
    if doc["policy"] not in ("fifo", "lifo", "codel"):
        fail(f"{path}: unknown policy {doc['policy']!r}")
    if not (doc["capacity_qps"] > 0 and doc["deadline_ns"] > 0):
        fail(f"{path}: nonpositive capacity/deadline")
    sweep = doc["sweep"]
    if [p.get("load_factor") for p in sweep] != [0.5, 1.0, 2.0, 3.0]:
        fail(f"{path}: expected sweep at 0.5/1/2/3x capacity")
        return
    for p in sweep:
        where = f"{path} load {p.get('load_factor', '?')}x"
        if not require(p, ("offered_qps", "submitted", "ok", "shed",
                           "timeout", "cancelled", "goodput_qps",
                           "admitted_p50_ns", "admitted_p99_ns"), where):
            continue
        # The accounting contract: every submitted query completes exactly
        # once as success, shed, timeout, or cancellation.
        total = p["ok"] + p["shed"] + p["timeout"] + p["cancelled"]
        if total != p["submitted"]:
            fail(f"{where}: {total} outcomes != {p['submitted']} submitted")
        if p["ok"] > 0 and p["goodput_qps"] <= 0:
            fail(f"{where}: nonpositive goodput with successes")
        if p["admitted_p50_ns"] > p["admitted_p99_ns"]:
            fail(f"{where}: p50 > p99")
    # Past saturation the layer must actually protect itself: some load is
    # shed or timed out, and successes still flow.
    overload = sweep[-1]
    if overload["shed"] + overload["timeout"] == 0:
        fail(f"{path}: no shedding/timeouts at 3x capacity")
    if overload["ok"] == 0:
        fail(f"{path}: zero goodput at 3x capacity")
    if doc["bounded"] is not True:
        fail(f"{path}: admitted p99 not bounded at 3x capacity "
             f"({doc['p99_at_3x_ns']} > {doc['p99_bound_ns']} ns)")
    if doc["accounted"] is not True:
        fail(f"{path}: query accounting did not balance")


CHECKERS = {
    "service_observability": check_service,
    "bulk_build": check_build,
    "snapshot_start": check_snapshot,
    "introspect": check_introspect,
    "overload": check_overload,
}

# Tracked regression metrics: (bench kind, extractor) -> {label: value}.
# "hi" metrics are throughput (must not drop); "lo" metrics are latency
# (must not rise).


def tracked_metrics(doc):
    kind = doc.get("bench")
    out = {}
    if kind == "service_observability":
        for s in doc.get("structures", []):
            idx = s.get("index", "?")
            out[f"{idx}.qps"] = ("hi", s.get("qps"))
            out[f"{idx}.p99_ns"] = ("lo", s.get("p99_ns"))
    elif kind == "snapshot_start":
        out["mmap_qps"] = ("hi", doc.get("mmap_qps"))
    elif kind == "overload":
        # Capacity is the stable cross-run metric; the sweep's absolute
        # latencies are deadline-relative and jitter-dominated on shared
        # runners, so they are schema-checked but not regression-gated.
        out["capacity_qps"] = ("hi", doc.get("capacity_qps"))
    return {k: v for k, v in out.items() if v[1] is not None}


def check_regression(cur_doc, base_doc, name, threshold):
    cur = tracked_metrics(cur_doc)
    base = tracked_metrics(base_doc)
    for key, (direction, base_val) in base.items():
        if base_val in (None, 0):
            continue
        if key not in cur:
            # A tracked metric that vanishes from the fresh artifact is a
            # regression in itself — silently skipping it would let a bench
            # drop the very field the gate watches.
            fail(f"{name}: tracked metric {key} missing from fresh run "
                 f"(baseline {base_val:.6g})")
            continue
        cur_val = cur[key][1]
        if direction == "hi" and cur_val < base_val * (1.0 - threshold):
            fail(f"{name}: {key} regressed {base_val:.6g} -> {cur_val:.6g} "
                 f"(>{threshold:.0%} drop)")
        elif direction == "lo" and cur_val > base_val * (1.0 + threshold):
            fail(f"{name}: {key} regressed {base_val:.6g} -> {cur_val:.6g} "
                 f"(>{threshold:.0%} rise)")


def self_test():
    """Fixture check of the gate's directionality: for every tracked-metric
    direction, an improvement must pass and a regression must fail."""
    base = {"bench": "service_observability",
            "structures": [{"index": "R*", "qps": 100.0, "p99_ns": 1000.0}]}

    def svc(qps, p99):
        return {"bench": "service_observability",
                "structures": [{"index": "R*", "qps": qps, "p99_ns": p99}]}

    cases = [
        # (label, fresh doc, expected gate failures at threshold 0.25)
        ("hi-metric improvement passes", svc(200.0, 1000.0), 0),
        ("lo-metric improvement passes", svc(100.0, 500.0), 0),
        ("within-threshold drift passes", svc(80.0, 1200.0), 0),
        ("hi-metric regression fails", svc(50.0, 1000.0), 1),
        ("lo-metric regression fails", svc(100.0, 2000.0), 1),
        ("both-direction regression fails", svc(50.0, 2000.0), 2),
        ("missing tracked metric fails",
         {"bench": "service_observability",
          "structures": [{"index": "R*", "qps": 100.0}]}, 1),
    ]
    ok = True
    for label, cur, want in cases:
        del FAILURES[:]
        check_regression(cur, base, label, 0.25)
        got = len(FAILURES)
        if got != want:
            ok = False
        print(f"check_bench: self-test [{label}] -> {got} gate failure(s), "
              f"expected {want}: {'ok' if got == want else 'MISMATCH'}")

    # Schema-checker fixtures for the bench kinds whose producing code
    # paths run through the concurrency layer (worker pool, buffer pool,
    # admission): a minimal valid document must pass clean, and each
    # invariant the checker claims to enforce must actually fire.
    def svc_struct(idx):
        return {"index": idx, "queries": 10, "qps": 1.0, "p50_ns": 1,
                "p90_ns": 2, "p99_ns": 3, "max_ns": 4, "hit_ratio": 0.5,
                "faults_injected": 0, "io_retries": 0,
                "checksum_failures": 0, "degraded": False}

    def svc_doc(**over):
        doc = {"bench": "service_observability", "county": "X",
               "segments": 1, "threads": 1, "batch": 1, "trace_lines": 0,
               "segment_pool_hit_ratio": 0.5,
               "structures": [svc_struct("R*"), svc_struct("R+"),
                              svc_struct("PMR")]}
        doc.update(over)
        return doc

    svc_bad_pct = svc_doc()
    svc_bad_pct["structures"][0]["p50_ns"] = 99  # > p99
    svc_bad_degraded = svc_doc()
    svc_bad_degraded["structures"][1]["degraded"] = True
    svc_missing_qps = svc_doc()
    del svc_missing_qps["structures"][2]["qps"]

    def ovl_point(lf):
        return {"load_factor": lf, "offered_qps": 10.0, "submitted": 100,
                "ok": 80, "shed": 10, "timeout": 5, "cancelled": 5,
                "goodput_qps": 8.0, "admitted_p50_ns": 10,
                "admitted_p99_ns": 20}

    def ovl_doc(**over):
        doc = {"bench": "overload", "county": "X", "segments": 1,
               "smoke": True, "threads": 2, "policy": "codel",
               "latency_injected_us": 0, "capacity_qps": 10.0,
               "unloaded_p99_ns": 5, "deadline_ns": 100,
               "sweep": [ovl_point(0.5), ovl_point(1.0), ovl_point(2.0),
                         ovl_point(3.0)],
               "p99_bound_ns": 100, "p99_at_3x_ns": 50, "bounded": True,
               "accounted": True}
        doc.update(over)
        return doc

    ovl_bad_accounting = ovl_doc()
    ovl_bad_accounting["sweep"][3]["ok"] = 81  # outcomes != submitted
    ovl_bad_policy = ovl_doc(policy="random")

    schema_cases = [
        ("service schema valid", check_service, svc_doc(), 0),
        ("service non-monotone percentiles fail", check_service,
         svc_bad_pct, 1),
        ("service degraded in fault-free run fails", check_service,
         svc_bad_degraded, 1),
        ("service missing qps fails", check_service, svc_missing_qps, 1),
        ("overload schema valid", check_overload, ovl_doc(), 0),
        ("overload unbalanced accounting fails", check_overload,
         ovl_bad_accounting, 1),
        ("overload unknown policy fails", check_overload, ovl_bad_policy, 1),
        ("overload unbounded p99 fails", check_overload,
         ovl_doc(bounded=False), 1),
    ]
    for label, checker, doc, want in schema_cases:
        del FAILURES[:]
        checker(doc, label)
        got = len(FAILURES)
        if got != want:
            ok = False
        print(f"check_bench: self-test [{label}] -> {got} schema "
              f"failure(s), expected {want}: "
              f"{'ok' if got == want else 'MISMATCH'}")
    del FAILURES[:]
    if not ok:
        print("check_bench: self-test FAILED", file=sys.stderr)
        return 1
    print("check_bench: self-test ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dir", default="build",
                    help="directory holding freshly generated BENCH_*.json")
    ap.add_argument("--baseline", default=".",
                    help="directory holding committed baseline BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional regression (default 0.25)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the gate-direction fixtures and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    paths = sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json")))
    if not paths:
        fail(f"no BENCH_*.json found in {args.dir}")
    for path in paths:
        name = os.path.basename(path)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except ValueError as e:
            fail(f"{path}: invalid JSON: {e}")
            continue
        if "bench" not in doc:
            fail(f"{path}: missing 'bench' key")
            continue
        checker = CHECKERS.get(doc["bench"])
        if checker is not None:
            checker(doc, path)
            print(f"check_bench: {name} schema ok ({doc['bench']})")
        else:
            print(f"check_bench: {name} parsed (unknown kind "
                  f"{doc['bench']!r}; schema not enforced)")

        base_path = os.path.join(args.baseline, name)
        if not os.path.exists(base_path) or os.path.samefile(
                os.path.dirname(path) or ".", args.baseline):
            print(f"check_bench: {name} no committed baseline; "
                  "regression gate skipped")
            continue
        try:
            with open(base_path) as fh:
                base_doc = json.load(fh)
        except ValueError as e:
            fail(f"{base_path}: invalid baseline JSON: {e}")
            continue
        if tracked_metrics(base_doc):
            before = len(FAILURES)
            check_regression(doc, base_doc, name, args.threshold)
            if len(FAILURES) == before:
                print(f"check_bench: {name} within {args.threshold:.0%} "
                      "of baseline")

    if FAILURES:
        print(f"check_bench: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("check_bench: all artifacts ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
