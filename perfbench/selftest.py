#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 perfbench/selftest.py

Runs every BENCHMARK.json workload shortened to 40 simulated minutes,
untraced and traced, and asserts that each declared metric is printed by
name with its unit. Smokes the two ungated workloads too, and checks that
the traced dense-threads run used the thread executor. Then feeds
perturbed worker results to each output check and asserts that it fires.
Exits 0 when everything holds.
"""

import copy
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SHORT = ["duration=40min"]


def expect_failure(what, check, *args):
    try:
        check(*args)
    except bench.CheckFailed as e:
        print("  ok: %s -> %s" % (what, e))
        return
    raise AssertionError("check did not fire: " + what)


def smoke(workload, trace):
    declared = bench.declared_metrics(trace)
    metrics, runs, attempted = bench.run(workload, 42, 1, trace, SHORT)
    out = io.StringIO()
    bench.report(declared, metrics, attempted, out)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    for m in declared:
        printed = [l for l in lines[:-1] if l.split()[0] == m["name"]]
        assert len(printed) == 1 and printed[0].split()[-1] == m["unit"], \
            "%s not printed once with unit %s" % (m["name"], m["unit"])
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    print("  ok: %s trace=%d printed %d metrics" %
          (workload, trace, len(declared)))
    return runs


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    print("smoke:")
    for w in workloads:
        smoke(w, 0)
        traced_runs = smoke(w, 1)
    smoke("churn7h", 0)
    # The decorator forwards SupportsParallelShards, so the threads
    # executor really runs the lanes on their own threads.
    threads = smoke("dense-threads", 1)[1]["host"]["trace.threads"]
    assert threads > 1, "dense-threads traced run used %d thread" % threads
    print("  ok: dense-threads traced run used %d threads" % threads)

    print("perturbed results:")
    untraced, traced = traced_runs[0], traced_runs[1]
    bad = copy.deepcopy(untraced)
    bad["sim"]["queries_served"] += 1
    expect_failure("bumped served count", bench.check_run, bad)
    bad = copy.deepcopy(untraced)
    bad["sim"]["served_by_server"] += 1
    expect_failure("bumped served_by_server", bench.check_run, bad)
    bad = copy.deepcopy(untraced)
    bad["sim"]["lookup_count"] = bad["sim"]["queries_submitted"] + 1
    expect_failure("more lookups than queries", bench.check_run, bad)
    bad = copy.deepcopy(untraced)
    bad["sim"]["hit_ratio"] = 0.0
    expect_failure("zero hit ratio", bench.check_run, bad)
    bad = copy.deepcopy(untraced)
    bad["sim"]["hit_ratio"] *= 1.0001
    expect_failure("mismatched repeat", bench.check_repeats,
                   [untraced, bad], "sim")
    bad = copy.deepcopy(traced)
    bad["counts"]["net.messages"] += 1
    expect_failure("mismatched traced repeat", bench.check_repeats,
                   [traced, bad], "counts")
    bad = copy.deepcopy(traced)
    bad["sim"]["events"] += 1
    expect_failure("traced run adds an event", bench.check_traced,
                   untraced, bad)
    bad = copy.deepcopy(traced)
    bad["sim"]["lookup_ms_p99"] += 25
    expect_failure("traced output differs", bench.check_traced,
                   untraced, bad)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, bench.CheckFailed) as e:
        print("selftest FAILED: %s" % e, file=sys.stderr)
        sys.exit(1)
