#!/usr/bin/env python3
"""End-to-end benchmark of the Flower-CDN simulator.

    python3 perfbench/run.py --workload paper24h --seed 42 --trace 0

Builds perfbench/flowerbench (with the repository's own CMake build of the
simulator library), runs the named workload in fresh worker processes for
about --seconds seconds, checks every run's output, and prints each metric
by name with its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.

Host times are scaled to a reference host speed: a fixed probe, run in
its own process before and after every experiment, measures how fast the
host is at that moment (see perfbench/README.md, "Host speed").

An operation is one simulated experiment (one worker process). A failed
check prints the reason to standard error, exits 1 and prints no numbers.
See perfbench/README.md for the metrics, the workloads and the checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# bench_scale's ScaleConfig(4000) for 1 h, split into three locality
# shards.
DENSE = [
    "num_topology_nodes=4000", "num_localities=6", "num_websites=30",
    "num_active_websites=4", "num_objects_per_website=2000",
    "summary_bits_per_object=2", "max_content_overlay_size=200",
    "queries_per_second=600", "metrics_max_points=256", "duration=1h",
    "shards=3",
]

# Full SimConfig overrides of each workload on top of the all-defaults
# config (the paper's Table 1 setup, bench::PaperConfig). The world
# (topology, deployment, protocol randomness) keeps the default seed=42;
# --seed seeds only the query stream (the worker's workload_seed), so runs
# with different seeds measure the same system on different inputs.
WORKLOADS = {
    # The paper's evaluation run: 5000 nodes, 100 sites (6 active), 500
    # objects/site, S_co=100, 6 q/s, 24 h, serial.
    "paper24h": ["duration=24h"],
    # The only workload that runs ShardedSimulator windows, barriers and
    # cross-lane exchange. The cooperative executor runs the lanes on one
    # thread.
    "dense-sharded": DENSE + ["shard_executor=serial"],
    # The same schedule on three lane threads. Not in BENCHMARK.json: each
    # window waits for the slowest lane thread, so on a shared host its
    # wall time swung from 5 s to 19 s between consecutive runs while
    # single-threaded runs slowed by a third.
    "dense-threads": DENSE + ["shard_executor=threads"],
    # Bounded LRU content caches and directory indexes, no churn: the
    # stores are written (evictions, summary rebuilds, stale claims) on
    # every run.
    "bounded7h": [
        "num_topology_nodes=3000", "cache_policy=lru",
        "cache_capacity_bytes=262144", "directory_index_policy=lru",
        "directory_index_capacity=16384", "duration=7h",
    ],
    # Bounded stores plus churn. Not in BENCHMARK.json: the stale-redirect
    # amplification (a known defect of the default protocol under churn)
    # swings its event count 5x across query seeds (3.2M-16.2M events,
    # 3-15 s), so its cost cannot be gated. It stays runnable, with every
    # check, to exhibit the defect.
    "churn7h": [
        "num_topology_nodes=3000", "churn_enabled=true", "cache_policy=lru",
        "cache_capacity_bytes=262144", "directory_index_policy=lru",
        "directory_index_capacity=65536", "duration=7h",
    ],
}

TRACED_REPEATS = 2  # traced runs per --trace 1 invocation
# Cold set-ups measured after each experiment, each in a fresh process
# that stops once set-up is done, so setup_s is a median of many samples.
SETUPS_PER_RUN = 3
# run_s and setup_s are reported in reference seconds: the time they would
# take on a host where one repeat of the probe (flowerbench probe) takes
# PROBE_REF_S.
PROBE_REF_S = 0.070
WORKER_TIMEOUT_S = 170

# Simulated metrics: pure functions of (config, seed).
SIM_E2E = ["hit_ratio", "query_success", "lookup_ms_p50", "lookup_ms_p99",
           "lookup_under_150ms", "transfer_ms_mean", "background_bps"]


class CheckFailed(Exception):
    pass


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the worker; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "api", "experiment.h"))):
        raise CheckFailed("no simulator sources next to perfbench/ "
                          "(expected CMakeLists.txt and src/)")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "flowerbench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise CheckFailed("build failed: " + " ".join(cmd))
    return os.path.join(out, "flowerbench")


def worker(binary, mode, config, extra=()):
    """Runs one experiment in a fresh process and returns its RESULT."""
    cmd = [binary, mode] + list(extra) + list(config)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CheckFailed("worker timed out: " + " ".join(cmd))
    tag = "PROBE " if mode == "probe" else "RESULT "
    lines = [l for l in done.stdout.splitlines() if l.startswith(tag)]
    if done.returncode != 0 or len(lines) != 1:
        raise CheckFailed("worker failed (%d): %s\n%s" %
                          (done.returncode, " ".join(cmd), done.stderr))
    return json.loads(lines[0][len(tag):])


def probe(binary):
    """Reference seconds per wall second, from the fixed host-speed probe
    run right now."""
    return PROBE_REF_S / worker(binary, "probe", [])["probe_s"]


def check_run(run):
    """Conservation checks on one run's simulated output."""
    sim = run["sim"]
    served = sim["queries_served"]
    by = (sim["served_by_local_peer"] + sim["served_by_remote_peer"] +
          sim["served_by_server"])
    if by != served:
        raise CheckFailed("served_by_* sum to %d, queries_served is %d" %
                          (by, served))
    if not served <= sim["lookup_count"] <= sim["queries_submitted"]:
        raise CheckFailed(
            "expected queries_served <= lookups <= queries_submitted, got "
            "%d, %d, %d" % (served, sim["lookup_count"],
                            sim["queries_submitted"]))
    for name in SIM_E2E:
        if not sim[name] > 0:
            raise CheckFailed("%s is %r, expected > 0" % (name, sim[name]))


def check_repeats(runs, key):
    """Every repeat of a workload must give identical `key` output."""
    for i, run in enumerate(runs[1:], 1):
        if run[key] != runs[0][key]:
            diff = sorted(k for k in run[key]
                          if run[key][k] != runs[0][key].get(k))
            raise CheckFailed("repeat %d differs from repeat 0 in %s: %s" %
                              (i, key, ", ".join(diff)))


def check_traced(untraced, traced):
    """Tracing may only add the observer's own events: one per window
    fired, plus its pending timer that the harness cancels after the
    loop. Everything else the simulation outputs must match."""
    a, b = untraced["sim"], traced["sim"]
    firings = traced["counts"]["trace.observer_firings"]
    if b["events"] - a["events"] != firings:
        raise CheckFailed("traced run dispatched %d extra events for %d "
                          "observer firings" %
                          (b["events"] - a["events"], firings))
    if b["events_cancelled"] - a["events_cancelled"] not in (0, 1):
        raise CheckFailed("traced run cancelled %d extra events" %
                          (b["events_cancelled"] - a["events_cancelled"]))
    diff = sorted(k for k in a if k not in ("events", "events_cancelled")
                  and a[k] != b.get(k))
    if diff:
        raise CheckFailed("traced output differs from untraced in: " +
                          ", ".join(diff))


def median(runs, section, name):
    return statistics.median(r[section][name] for r in runs)


def measure(binary, config, seconds):
    """Untraced runs for about `seconds` (at least two, so the repeat
    check has something to compare); host metrics are their medians.

    Each experiment is followed by SETUPS_PER_RUN cold set-ups and a
    probe. Its host times are scaled by the mean scale of the probes just
    before and just after it, which takes out most of the host's slow and
    fast phases (they last minutes, an experiment seconds)."""
    runs, probes = [], [probe(binary)]
    run_ref, setup_ref = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        run = worker(binary, "run", config)
        check_run(run)
        setups = [run["host"]["setup_s"]] + [
            worker(binary, "setup", config)["host"]["setup_s"]
            for _ in range(SETUPS_PER_RUN)]
        probes.append(probe(binary))
        run["host"]["setups_s"] = setups
        run["host"]["scale"] = statistics.mean(probes[-2:])
        runs.append(run)
        run_ref.append(run["host"]["run_s"] * run["host"]["scale"])
        setup_ref.extend(s * run["host"]["scale"] for s in setups)
        took = time.monotonic() - t0
        if len(runs) >= 2 and time.monotonic() - start + took > seconds:
            break
    check_repeats(runs, "sim")
    metrics = {"run_s": statistics.median(run_ref),
               "setup_s": statistics.median(setup_ref),
               "peak_rss_mb": median(runs, "host", "peak_rss_mb")}
    for name in SIM_E2E:
        metrics[name] = runs[0]["sim"][name]
    return metrics, runs, len(runs)


def measure_traced(binary, config, trace_dir, label):
    """One untraced run, then traced repeats; returns per-layer metrics.
    The layers' host times are plain wall seconds; the host.* metrics say
    how fast the host was around the untraced run."""
    probe_before = probe(binary)
    untraced = worker(binary, "run", config)
    check_run(untraced)
    scale = statistics.mean([probe_before, probe(binary)])
    traced = []
    for i in range(TRACED_REPEATS):
        path = os.path.join(trace_dir, "%s-%d.json" % (label, i))
        traced.append(worker(binary, "trace", config, ["trace_out=" + path]))
        check_run(traced[-1])
        check_traced(untraced, traced[-1])
    check_repeats(traced, "sim")
    check_repeats(traced, "counts")

    sim = traced[0]["sim"]
    counts = traced[0]["counts"]
    layer_host = [k for k in traced[0]["host"]
                  if k not in ("setup_s", "run_s", "peak_rss_mb")]
    metrics = {k: median(traced, "host", k) for k in layer_host}
    metrics["trace.overhead_s"] = (median(traced, "host", "run_s") -
                                   untraced["host"]["run_s"])
    metrics["host.scale"] = scale
    metrics["host.run_wall_s"] = untraced["host"]["run_s"]
    metrics.update(counts)
    metrics["sim.events"] = sim["events"]
    metrics["sim.events_cancelled"] = sim["events_cancelled"]
    for name in ("core.churn_failures", "core.churn_leaves", "core.timeouts",
                 "core.retries", "bloom.stale_redirects", "cache.evictions",
                 "cache.dir_index_evictions", "cache.stale_dir_index",
                 "cache.dir_summary_fallthroughs", "gossip.mean_view",
                 "gossip.mean_summaries_known"):
        metrics[name] = sim[name]
    metrics["core.served.local_peer"] = sim["served_by_local_peer"]
    metrics["core.served.remote_peer"] = sim["served_by_remote_peer"]
    metrics["core.served.server"] = sim["served_by_server"]
    peer_serves = sim["served_by_local_peer"] + sim["served_by_remote_peer"]
    stale = sim["bloom.stale_redirects"]
    metrics["bloom.useful_ratio"] = (peer_serves / (peer_serves + stale)
                                     if peer_serves + stale else 0.0)
    return metrics, [untraced] + traced, 1 + len(traced)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def report(declared, metrics, attempted, out=sys.stdout):
    result = {}
    for m in declared:
        if m["name"] not in metrics:
            raise CheckFailed("metric %s was not measured" % m["name"])
        value = metrics[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  %-34s %16.6g %s" % (m["name"], value, m["unit"]), file=out)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": result}), file=out)


def run(workload, seed, seconds, trace, overrides=()):
    """Measures one workload; returns (metrics, worker results, attempted).
    `overrides` are extra key=value config settings (the self-test
    shortens runs with them)."""
    if workload not in WORKLOADS:
        raise CheckFailed("unknown workload %s (have: %s)" %
                          (workload, ", ".join(sorted(WORKLOADS))))
    binary = build()
    config = (["workload_seed=%d" % seed] + WORKLOADS[workload] +
              list(overrides))
    if trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        return measure_traced(binary, config, trace_dir,
                              "%s-seed%d" % (workload, seed))
    return measure(binary, config, seconds)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        declared = declared_metrics(args.trace)
        metrics, runs, attempted = run(args.workload, args.seed,
                                       args.seconds, args.trace)
        print("%s seed=%d: %d runs, config %s" %
              (args.workload, args.seed, len(runs), runs[0]["config"]))
        print("  wall run_s of each run: " +
              " ".join("%.4f" % r["host"]["run_s"] for r in runs))
        print("  wall setup_s of each run: " + " ".join(
            "%.4f" % s for r in runs
            for s in r["host"].get("setups_s", [r["host"]["setup_s"]])))
        if not args.trace:
            print("  reference seconds per wall second: " +
                  " ".join("%.4f" % r["host"]["scale"] for r in runs))
        print("  lookup samples: %d (of %d queries submitted)" %
              (runs[0]["sim"]["lookup_count"],
               runs[0]["sim"]["queries_submitted"]))
        report(declared, metrics, attempted)
    except (CheckFailed, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
