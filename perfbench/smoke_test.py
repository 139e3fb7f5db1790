#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Usage, from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload briefly through perfbench/run.py and checks that each
run prints every end-to-end metric with its unit and that no request
failed. The paper workload runs twice with the same seed, and its Table 2
counts must be identical. One traced run checks that every per-layer
metric is printed with its unit. Takes about two minutes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
PAPER_COUNTS = ("disk_accesses_per_query", "segment_comps_per_query",
                "bbox_bucket_comps_per_query")


def run(workload, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" %
                             (workload, trace, r.returncode, r.stderr[-3000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def check(result, spec, what):
    assert result["correct"] is True, what
    assert result["attempted"] >= 1, what
    assert result["failed"] == 0, "%s: %d requests failed" % (
        what, result["failed"])
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in spec), (
        "%s: metric names differ from BENCHMARK.json" % what)
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], "%s: %s unit %s != %s" % (
            what, m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)), (what, m["name"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    results = {}
    for name in [w["name"] for w in bench["workloads"]] + ["paper"]:
        result = run(name, 0)
        check(result, bench["end_to_end"], name)
        assert result["metrics"]["ok_frac"]["value"] == 1.0, name
        print("ok: %s prints all %d end-to-end metrics" %
              (name, len(bench["end_to_end"])))
        results[name] = result
    again = run("paper", 0)
    for k in PAPER_COUNTS:
        a = results["paper"]["metrics"][k]["value"]
        b = again["metrics"][k]["value"]
        assert a == b, "paper %s differs across runs: %r vs %r" % (k, a, b)
    print("ok: paper counts identical across two runs with seed %d" % SEED)
    traced = run("serve-hot", 1)
    check(traced, bench["per_layer"], "serve-hot traced")
    print("ok: traced run prints all %d per-layer metrics" %
          len(bench["per_layer"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
