"""Closed-loop load generator for the prover service.

Boots an in-process service (real HTTP on an ephemeral port), then
drives it with N client threads × M requests each — distinct
(theorem × hinted × fuel) cells over a mixed-size theorem spread, so
every request runs a real search (no cache or single-flight shortcuts
inside a phase).  Runs the identical request list twice:

1. **unbatched** — ``max_batch_size=1``: every model query is its own
   dispatch against the (rate-limited) endpoint;
2. **batched** — the micro-batcher collects concurrent queries into
   shared dispatches.

The endpoint is a :class:`repro.testing.latency.LatencyGenerator`
around the simulated model: each dispatch charges ``--query-overhead``
seconds, serialized — the requests-per-minute rate limit of a real
API, which is the resource batching amortizes.

Emits ``BENCH_service.json``: per-phase request throughput, p50/p95
latency, mean/max batch size, model dispatch counts — plus a
correctness differential: the per-request outcome records of both
phases must be **identical** (batching is not allowed to change a
single byte of any result).  ``--check`` exits non-zero unless
batched throughput ≥ ``--min-speedup`` × unbatched at equal
correctness.

Usage::

    PYTHONPATH=src python scripts/service_loadgen.py --out BENCH_service.json --check
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time

from repro.corpus.loader import load_project
from repro.service import ProverClient, ProverService, ServerConfig


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=12)
    parser.add_argument(
        "--requests", type=int, default=2, help="requests per client"
    )
    parser.add_argument("--model", default="gpt-4o-mini")
    parser.add_argument(
        "--fuel", type=int, default=10, help="base fuel per search"
    )
    parser.add_argument("--workers", type=int, default=12)
    parser.add_argument("--max-batch-size", type=int, default=8)
    parser.add_argument(
        "--query-overhead",
        type=float,
        default=0.08,
        metavar="SECONDS",
        help="simulated per-dispatch endpoint cost (serialized)",
    )
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless batched >= --min-speedup x unbatched "
        "and both phases' records are identical",
    )
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument(
        "--cluster-workers",
        type=int,
        default=0,
        metavar="N",
        help="add a third phase: the same request list against an "
        "N-process cluster (each worker owns its own rate-limited "
        "endpoint, so throughput should scale near-linearly)",
    )
    parser.add_argument(
        "--cluster-min-speedup",
        type=float,
        default=1.15,
        help="with --check and --cluster-workers: minimum cluster "
        "throughput as a multiple of the single-process batched "
        "phase.  Conservative: micro-batching and sharding partially "
        "substitute for the same endpoint rate limit (per-worker "
        "batches are thinner), and on few-core CI runners the kernel "
        "CPU floor is shared, so scaling is endpoint-linear, not "
        "wall-clock-linear",
    )
    return parser.parse_args()


def pick_theorems(project, count: int):
    """A mixed-size spread: theorems evenly spaced by proof length."""
    ranked = sorted(project.theorems, key=lambda t: t.proof_tokens)
    if count >= len(ranked):
        return ranked
    step = len(ranked) / count
    return [ranked[int(i * step)] for i in range(count)]


def build_requests(project, args) -> list:
    """Distinct task cells so every request is a fresh search."""
    theorems = pick_theorems(project, max(4, args.clients))
    requests = []
    total = args.clients * args.requests
    for index in range(total):
        theorem = theorems[index % len(theorems)]
        requests.append(
            {
                "theorem": theorem.name,
                "model": args.model,
                "hinted": bool((index // len(theorems)) % 2),
                "fuel": args.fuel + 2 * (index // (2 * len(theorems))),
            }
        )
    return requests


def run_phase(project, args, batched: bool) -> dict:
    """One closed-loop run; returns measurements + per-request records."""
    config = ServerConfig(
        port=0,
        workers=args.workers,
        max_queued=max(32, args.clients * args.requests),
        max_batch_size=args.max_batch_size if batched else 1,
        query_overhead=args.query_overhead,
        fast=True,
    )
    service = ProverService(config, project=project)
    httpd = service.make_http_server()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    base_url = f"http://{host}:{port}"

    requests = build_requests(project, args)
    latencies, records, errors, wall = drive_clients(
        base_url, requests, args
    )

    with ProverClient(base_url) as client:
        metrics = client.metrics()
    httpd.shutdown()
    httpd.server_close()
    service.close()

    done = [lat for lat in latencies if lat is not None]
    done.sort()

    def quantile(q: float) -> float:
        if not done:
            return 0.0
        return done[min(len(done) - 1, int(q * len(done)))]

    batchers = metrics["service"]["batchers"]
    return {
        "batched": batched,
        "requests": len(requests),
        "completed": len(done),
        "errors": errors,
        "wall_seconds": wall,
        "throughput_rps": len(done) / wall if wall > 0 else 0.0,
        "latency_p50": quantile(0.50),
        "latency_p95": quantile(0.95),
        "latency_mean": statistics.fmean(done) if done else 0.0,
        "mean_batch_size": (
            batchers[0]["mean_batch_size"] if batchers else 0.0
        ),
        "max_batch_size": (
            batchers[0]["max_batch_size"] if batchers else 0
        ),
        "model_dispatches": (
            batchers[0]["batches"] if batchers else 0
        ),
        "records": records,
    }


def drive_clients(base_url: str, requests: list, args) -> tuple:
    """Closed-loop client threads; returns (latencies, records, errors,
    wall)."""
    per_client = [requests[i::args.clients] for i in range(args.clients)]
    latencies: list = [None] * len(requests)
    records: list = [None] * len(requests)
    errors: list = []

    def client_loop(client_index: int) -> None:
        with ProverClient(base_url, timeout=120.0) as client:
            for local_index, body in enumerate(per_client[client_index]):
                flat_index = client_index + local_index * args.clients
                started = time.monotonic()
                try:
                    status = client.prove_and_wait(
                        timeout=600.0, poll=2.0, **body
                    )
                    latencies[flat_index] = time.monotonic() - started
                    records[flat_index] = status.get("record")
                except Exception as exc:  # noqa: BLE001 - report, don't hang
                    errors.append(f"{body}: {type(exc).__name__}: {exc}")

    started = time.monotonic()
    threads = [
        threading.Thread(target=client_loop, args=(i,))
        for i in range(args.clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return latencies, records, errors, time.monotonic() - started


def run_cluster_phase(project, args) -> dict:
    """The same request list against an N-process cluster.

    Each forked worker owns its *own* rate-limited endpoint (its own
    ``query_overhead`` serialization), so this measures what the
    single-process batcher cannot buy: horizontal scaling across
    endpoint rate limits.  No state dir — the loadgen needs throughput,
    not durability.
    """
    from repro.service.cluster import ClusterConfig, ProverCluster

    cluster = ProverCluster(
        ClusterConfig(
            port=0,
            workers=args.cluster_workers,
            max_inflight=max(256, args.clients * args.requests),
            worker=ServerConfig(
                workers=args.workers,
                max_queued=max(32, args.clients * args.requests),
                max_batch_size=args.max_batch_size,
                query_overhead=args.query_overhead,
            ),
        )
    )
    cluster.start()
    httpd = cluster.make_http_server()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]

    requests = build_requests(project, args)
    latencies, records, errors, wall = drive_clients(
        f"http://{host}:{port}", requests, args
    )

    # Where the jobs went: placements that left their ring owner for a
    # less loaded worker, and each worker's router jobs still in flight
    # (every hop has ended once every client has its answer).
    placed_off_owner = cluster.metrics.counter("cluster.jobs.placed_off_owner")
    _, snapshot = cluster.metrics_snapshot()
    states = snapshot["service"]["cluster"]["supervisor"]["states"]
    router_inflight = [
        states[index]["router_inflight"] for index in sorted(states, key=int)
    ]
    httpd.shutdown()
    httpd.server_close()
    cluster.close()

    done = sorted(lat for lat in latencies if lat is not None)

    def quantile(q: float) -> float:
        if not done:
            return 0.0
        return done[min(len(done) - 1, int(q * len(done)))]

    return {
        "cluster_workers": args.cluster_workers,
        "requests": len(requests),
        "placed_off_owner": placed_off_owner,
        "router_inflight": router_inflight,
        "completed": len(done),
        "errors": errors,
        "wall_seconds": wall,
        "throughput_rps": len(done) / wall if wall > 0 else 0.0,
        "latency_p50": quantile(0.50),
        "latency_p95": quantile(0.95),
        "latency_mean": statistics.fmean(done) if done else 0.0,
        "records": records,
    }


def main() -> int:
    args = parse_args()
    project = load_project(check_proofs=False)

    print(
        f"loadgen: {args.clients} clients x {args.requests} requests, "
        f"model={args.model}, fuel={args.fuel}, "
        f"overhead={args.query_overhead}s",
        file=sys.stderr,
    )
    phases = 3 if args.cluster_workers else 2
    print(
        f"[1/{phases}] unbatched (max_batch_size=1) ...", file=sys.stderr
    )
    unbatched = run_phase(project, args, batched=False)
    print(f"[2/{phases}] batched ...", file=sys.stderr)
    batched = run_phase(project, args, batched=True)
    cluster = None
    if args.cluster_workers:
        print(
            f"[3/{phases}] cluster x{args.cluster_workers} ...",
            file=sys.stderr,
        )
        cluster = run_cluster_phase(project, args)

    records_equal = unbatched["records"] == batched["records"]
    if cluster is not None:
        records_equal = (
            records_equal and cluster["records"] == batched["records"]
        )
    speedup = (
        batched["throughput_rps"] / unbatched["throughput_rps"]
        if unbatched["throughput_rps"] > 0
        else 0.0
    )
    result = {
        "config": {
            "clients": args.clients,
            "requests_per_client": args.requests,
            "model": args.model,
            "fuel": args.fuel,
            "workers": args.workers,
            "max_batch_size": args.max_batch_size,
            "query_overhead": args.query_overhead,
        },
        "unbatched": {
            k: v for k, v in unbatched.items() if k != "records"
        },
        "batched": {k: v for k, v in batched.items() if k != "records"},
        "speedup": speedup,
        "records_identical": records_equal,
    }
    if cluster is not None:
        cluster_speedup = (
            cluster["throughput_rps"] / batched["throughput_rps"]
            if batched["throughput_rps"] > 0
            else 0.0
        )
        result["cluster"] = {
            k: v for k, v in cluster.items() if k != "records"
        }
        result["cluster_speedup"] = cluster_speedup
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        f"unbatched: {unbatched['throughput_rps']:.2f} req/s "
        f"(p50 {unbatched['latency_p50']:.2f}s, "
        f"p95 {unbatched['latency_p95']:.2f}s)"
    )
    print(
        f"batched:   {batched['throughput_rps']:.2f} req/s "
        f"(p50 {batched['latency_p50']:.2f}s, "
        f"p95 {batched['latency_p95']:.2f}s, "
        f"mean batch {batched['mean_batch_size']:.2f})"
    )
    if cluster is not None:
        print(
            f"cluster:   {cluster['throughput_rps']:.2f} req/s "
            f"(p50 {cluster['latency_p50']:.2f}s, "
            f"p95 {cluster['latency_p95']:.2f}s, "
            f"{args.cluster_workers} workers, "
            f"{cluster_speedup:.2f}x batched, "
            f"{cluster['placed_off_owner']} of {cluster['requests']} "
            f"placed off their ring owner)"
        )
    print(f"speedup: {speedup:.2f}x; records identical: {records_equal}")

    failures = []
    if unbatched["errors"] or batched["errors"]:
        failures.append(
            f"client errors: {unbatched['errors'] + batched['errors']}"
        )
    if cluster is not None:
        if cluster["errors"]:
            failures.append(f"cluster client errors: {cluster['errors']}")
        if cluster["completed"] != cluster["requests"]:
            failures.append("cluster phase dropped requests")
        if any(cluster["router_inflight"]):
            failures.append(
                f"router still counts jobs in flight after the pass: "
                f"{cluster['router_inflight']}"
            )
        if args.check and cluster_speedup < args.cluster_min_speedup:
            failures.append(
                f"cluster speedup {cluster_speedup:.2f}x below the "
                f"{args.cluster_min_speedup}x gate"
            )
    if not records_equal:
        failures.append(
            "batched phase produced different records than unbatched"
        )
    if args.check and speedup < args.min_speedup:
        failures.append(
            f"speedup {speedup:.2f}x below the {args.min_speedup}x gate"
        )
    if unbatched["completed"] != unbatched["requests"]:
        failures.append("unbatched phase dropped requests")
    if batched["completed"] != batched["requests"]:
        failures.append("batched phase dropped requests")
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
