#!/usr/bin/env python3
"""Over-the-wire benchmark for `wgrap serve`.

    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the `wgrap` binary (release, into
`$CARGO_TARGET_DIR` or `target/`), generates a seeded instance, starts the
deployment the workload names on loopback TCP, drives it with closed-loop
clients for `--seconds` after a warm-up, verifies every response against
an independent scoring oracle, and prints one JSON object as the last
line of stdout. `--trace 0` reports the end-to-end metrics; `--trace 1`
asks the server for per-request span timings and reports per-layer
metrics instead. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import instance  # noqa: E402
import loadgen  # noqa: E402
import server  # noqa: E402

# Set-up is timed over at least 5 starts and 3 s, so small shapes take more.
SETUP_STARTS = 5
SETUP_SECONDS = 3.0
WARMUP_S = 1.0
ORACLE_CHECKS = 150

# Cold replies at the service shape take 0.2-5.5 s (median 0.45 s), too
# few per run for a steady median, so the solver workload keeps that shape
# with a tenth of its reviewers: replies of 50-240 ms, ~280 per 15 s run.
SOLVER = instance.SERVICE._replace(reviewers=1000)

# Closed-loop readers, each waiting for its reply before sending again: one
# per vCPU of the 2-vCPU reference host. Four left the server's per-connection
# solves queueing for the cores, and cold p50 spread 0.14 across seeds.
READERS = 2
# Hot sets hold the 16 queries of the concurrent-serving records
# (serve_concurrent_c* in BENCH_service.json).
HOT_KEYS = 16

WORKLOADS = {
    # Repeated keys at the service shape: after the warm-up every JRA query
    # is a result-cache hit, so time goes to the wire, protocol parse and
    # render, admission and the cache probe. Bypasses the solver.
    "hot": {"shape": instance.SERVICE, "hot": True},
    # Distinct keys: every query misses the cache and runs the exact
    # branch-and-bound search.
    "cold": {"shape": SOLVER},
    # Hot keys through `serve --router` over two shard processes at the
    # sharding benchmark's shape: the router hop and its shard connections.
    "router": {"shape": instance.SHARD, "hot": True, "shards": 2},
}

SPANS = ("plan", "admit", "queue_wait", "cache_probe", "solve", "fanout")
COUNTERS = (
    "cache_hits_total",
    "cache_misses_total",
    "frontend_batches_total",
    "frontend_batched_requests_total",
    "frontend_rejected_total",
)


def build(root):
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("perfbench: no Cargo.toml in the working directory; run from the repo root")
    cmd = ["cargo", "build", "--release", "--quiet", "--bin", "wgrap"]
    if subprocess.run(cmd, cwd=root, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: cargo build failed")
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", "target"), "release", "wgrap")


def jra_line(paper, exclude, trace):
    request = {"v": 2, "op": "jra", "paper_id": paper}
    if exclude:
        request["exclude"] = list(exclude)
    if trace:
        request.update(trace=True, timings=True)
    return (json.dumps(request) + "\n").encode()


def hot_reader(rng, hot, trace):
    def next_request():
        paper = rng.choice(hot)
        return (paper, ()), jra_line(paper, (), trace)

    return next_request


def cold_readers(rng, count, num_papers, trace):
    """Readers sharing one stream of distinct keys: every paper once, then
    every paper again excluding reviewer 0, then reviewer 1, ..."""
    order = list(range(num_papers))
    rng.shuffle(order)
    keys = (
        (paper, () if k == 0 else (k - 1,)) for k in itertools.count() for paper in order
    )

    def next_request():
        paper, exclude = next(keys)
        return (paper, exclude), jra_line(paper, exclude, trace)

    return [next_request] * count


def warm(addr, papers):
    client = server.LineClient(addr)
    for paper in papers:
        client.call({"v": 2, "op": "jra", "paper_id": paper})
    client.close()


def counters(deployment):
    totals = dict.fromkeys(COUNTERS, 0)
    for addr in deployment.metric_addrs():
        client = server.LineClient(addr)
        reply = client.call({"v": 2, "op": "metrics"})
        client.close()
        for name in COUNTERS:
            totals[name] += reply["counters"][name]
    return totals


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(measured, measured_from, setup_s):
    latency = [(r.end - r.start) * 1e3 for r in measured]
    elapsed = max(r.end for r in measured) - measured_from
    return {
        "p50_ms": statistics.median(latency),
        "p90_ms": statistics.quantiles(latency, n=10)[8],
        "throughput_rps": len(measured) / elapsed,
        "setup_s": setup_s,
    }


def per_layer(measured, before, after):
    """Medians of the server's own spans per read request, the client-side
    remainder, and rates from the registry counters over the window."""
    spans = {name: [] for name in SPANS}
    coalesce_self, server_us, wire_us, nodes = [], [], [], []
    for rec in measured:
        reply = json.loads(rec.raw)
        if not reply.get("ok"):
            continue
        recorded = reply["trace"]["spans"]
        total = sum(s["us"] for s in recorded if s["depth"] == 0)
        server_us.append(total)
        wire_us.append((rec.end - rec.start) * 1e6 - total)
        children = sum(s["us"] for s in recorded if s["depth"] == 1)
        for s in recorded:
            if s["name"] in spans:
                spans[s["name"]].append(s["us"])
            elif s["name"] == "coalesce":
                coalesce_self.append(s["us"] - children)
        if reply.get("cache") == "miss":
            nodes.append(reply["results"][0]["nodes"])
    delta = {name: after[name] - before[name] for name in COUNTERS}
    metrics = {"server_us": median(server_us), "client_wire_us": median(wire_us)}
    metrics.update({f"{name}_us": median(values) for name, values in spans.items()})
    metrics.update(
        {
            "coalesce_self_us": median(coalesce_self),
            "bba_nodes_per_solve": statistics.fmean(nodes) if nodes else 0.0,
            "cache_hit_ratio": ratio(
                delta["cache_hits_total"], delta["cache_hits_total"] + delta["cache_misses_total"]
            ),
            "batch_occupancy": ratio(
                delta["frontend_batched_requests_total"], delta["frontend_batches_total"]
            ),
            "rejected": delta["frontend_rejected_total"],
        }
    )
    return metrics


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def run(binary, work, spec, seed, seconds, trace):
    rng = random.Random(seed)
    shape = spec["shape"]
    inst = instance.generate(random.Random(rng.randrange(1 << 32)), shape)
    path = os.path.join(work, "instance.wgrap")
    with open(path, "w") as f:
        f.write(inst.text())
    shard_files = []
    if spec.get("shards"):
        prefix = os.path.join(work, "shard")
        cmd = [binary, "shard", path, str(spec["shards"]), prefix]
        subprocess.run(cmd, check=True, stderr=subprocess.DEVNULL)
        shard_files = [f"{prefix}-{s}.wgrap" for s in range(spec["shards"])]
    deployment = server.Deployment(binary, work, path, shard_files)
    setup_s = server.start_measured(deployment, SETUP_STARTS, SETUP_SECONDS)
    try:
        # Each shard's paper range holds an equal share of the hot set, so
        # the router's load split does not change with the seed.
        slices = spec.get("shards", 1)
        span = shape.papers // slices
        hot = []
        for s in range(slices if spec.get("hot") else 0):
            hot += rng.sample(range(s * span, (s + 1) * span), HOT_KEYS // slices)
        if hot:
            # One warming connection per reader, so the solves share the cores.
            with ThreadPoolExecutor(READERS) as pool:
                share = [hot[i::READERS] for i in range(READERS)]
                list(pool.map(lambda papers: warm(deployment.addr, papers), share))
            clients = [hot_reader(random.Random(rng.random()), hot, trace) for _ in range(READERS)]
        else:
            clients = cold_readers(rng, READERS, shape.papers, trace)
        before = {}
        # The counter deltas cover the timed window only, like the spans.
        on_measure = (lambda: before.update(counters(deployment))) if trace else None
        records, measured_from = loadgen.run(
            deployment.addr, clients, WARMUP_S, seconds, on_measure
        )
        after = counters(deployment) if trace else None
    finally:
        deployment.close()
    failed, problems = check.verify(records, inst, random.Random(seed), ORACLE_CHECKS)
    for problem in problems[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    measured = [r for r in records if r.start >= measured_from]
    if trace:
        metrics = per_layer(measured, before, after)
    else:
        metrics = end_to_end(measured, measured_from, setup_s)
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination signal into an exception, so the `finally` blocks
    # still stop every server process this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    root = os.getcwd()
    binary = build(root)
    work = tempfile.mkdtemp(prefix=".bench_work-", dir=root)
    try:
        result = run(binary, work, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
