"""Serving-tier latency/throughput: concurrent wire requests vs direct calls.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving_latency.py
    SERVING_BENCH_SMOKE=1 PYTHONPATH=src python benchmarks/bench_serving_latency.py

The deployment question the serving tier answers: what does it cost to
put compiled circuits behind an async JSON front-end instead of
calling them in-process?  The bench:

* compiles a pool of monotone lineage DNFs into a store file (the PR 5
  serialization format), then serves it through the full wire path —
  :class:`ServingApp` driven by the in-process :class:`ASGIClient`, so
  every request pays JSON encode/decode, routing, admission,
  semaphores, and micro-batching, everything but the socket;
* storms the app with ``CONCURRENCY`` async workers issuing a mixed
  ``evaluate`` / ``what_if`` / ``sweep`` / ``top_k`` workload, and
  reads throughput plus p50/p99 request latency from
  :class:`ServingStats`;
* times the same logical work as direct in-process circuit sweeps, and
  reports ``overhead_ratio`` = direct rps / serving rps — the
  machine-independent number the regression gate watches (absolute
  seconds differ per machine; the overhead of the serving stack over
  direct calls should not);
* replays a prefix of the workload as a lone client (concurrency 1,
  closed loop) against a fresh engine and reports its p50 and
  ``idle_flush_ratio`` = idle flushes / flushes.  A lone request never
  has company, so every one of its flushes must come from the idle
  rule rather than the batch window — a deterministic count.

Results go to ``BENCH_serving.json`` at the repo root, with the
environment they were measured in (commit, ``-dirty`` when the tree has
uncommitted changes; CPU count; Python and numpy versions; kernel
backend).  The built-in acceptance bars — micro-batch occupancy above
1.0 in the storm, i.e. concurrent same-circuit requests actually
coalesced into shared sweep flushes, and an idle-flush ratio of exactly
1.0 in the lone leg — are asserted unless
``SERVING_BENCH_NO_ASSERT=1``.

Smoke mode (``SERVING_BENCH_SMOKE=1``, used by CI): fewer workers and
rounds.  Runs on the scalar backend too (no numpy required); the
occupancy bar holds either way because batching happens above the
kernel.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time

from repro.circuits import CircuitCache
from repro.circuits.kernels import kernel_backend
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.variables import VariableRegistry
from repro.engine import ConfidenceEngine
from repro.serving import (
    ASGIClient,
    CircuitStoreService,
    ServingApp,
    ServingConfig,
    ServingEngine,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT = os.environ.get(
    "SERVING_BENCH_OUTPUT", os.path.join(REPO_ROOT, "BENCH_serving.json")
)

SMOKE = os.environ.get("SERVING_BENCH_SMOKE") == "1"
ASSERT_OCCUPANCY = os.environ.get("SERVING_BENCH_NO_ASSERT") != "1"

VARIABLES = 16
CIRCUITS = 6 if SMOKE else 12
CONCURRENCY = 8 if SMOKE else 32
ROUNDS = 6 if SMOKE else 40
LONE_REQUESTS = 48 if SMOKE else 320
WHAT_IF_POINTS = 5
SWEEP_SCENARIOS = 8
SEED = 20260808


def environment():
    """Where the numbers were measured: commit, CPUs, versions, backend."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": kernel_backend(),
    }


def build_store(registry, path):
    """Compile the lineage pool and persist it; returns the lineages."""
    rng = random.Random(SEED)
    names = [f"t{i}" for i in range(VARIABLES)]
    engine = ConfidenceEngine(registry)
    cache = CircuitCache()
    lineages = []
    for _ in range(CIRCUITS):
        clauses = []
        for _ in range(rng.randint(3, 6)):
            width = rng.randint(1, 3)
            clauses.append(
                Clause({v: True for v in rng.sample(names, width)})
            )
        lineage = DNF(clauses)
        cache.put(lineage, engine.compile_circuit(lineage))
        lineages.append(lineage)
    cache.save(path)
    return lineages


def build_requests(lineages):
    """The mixed workload, fully materialised so both paths replay it."""
    rng = random.Random(SEED + 1)
    requests = []
    for round_index in range(ROUNDS):
        for worker in range(CONCURRENCY):
            lineage = lineages[(round_index + worker) % len(lineages)]
            p = round(rng.uniform(0.05, 0.95), 6)
            kind = (round_index + worker) % 4
            if kind == 0:
                requests.append(("evaluate", lineage, {"t0": p}))
            elif kind == 1:
                grid = [
                    round(p * step / (WHAT_IF_POINTS - 1), 6)
                    for step in range(WHAT_IF_POINTS)
                ]
                requests.append(("what_if", lineage, grid))
            elif kind == 2:
                scenarios = [
                    {"t1": round(rng.uniform(0.0, 1.0), 6)}
                    for _ in range(SWEEP_SCENARIOS)
                ]
                requests.append(("sweep", lineage, scenarios))
            else:
                requests.append(("top_k", lineage, {"t2": p}))
    return requests


async def drive(client, requests, lineages, concurrency=CONCURRENCY):
    semaphore = asyncio.Semaphore(concurrency)

    async def one(spec):
        kind, lineage, payload = spec
        async with semaphore:
            if kind == "evaluate":
                return await client.evaluate(lineage, overrides=payload)
            if kind == "what_if":
                return await client.what_if(lineage, "t3", payload)
            if kind == "sweep":
                return await client.sweep(lineage, payload)
            return await client.top_k(
                lineages, 3, overrides=payload
            )

    return await asyncio.gather(*[one(spec) for spec in requests])


def direct_pass(cache, requests, lineages):
    """The same logical work as plain in-process circuit calls."""
    results = []
    for kind, lineage, payload in requests:
        circuit = cache.get(lineage)
        if kind == "evaluate":
            results.append(circuit.evaluate(payload))
        elif kind == "what_if":
            results.append(
                [circuit.evaluate({"t3": p}) for p in payload]
            )
        elif kind == "sweep":
            results.append(
                [circuit.evaluate(scenario) for scenario in payload]
            )
        else:
            values = [
                cache.get(entry).evaluate(payload)
                for entry in lineages
            ]
            results.append(
                sorted(range(len(values)), key=lambda i: (-values[i], i))[:3]
            )
    return results


def main() -> int:
    registry = VariableRegistry()
    rng = random.Random(SEED + 2)
    for index in range(VARIABLES):
        registry.add_boolean(f"t{index}", round(rng.uniform(0.05, 0.6), 6))

    with tempfile.TemporaryDirectory() as temp_dir:
        store_path = os.path.join(temp_dir, "store.bin")
        lineages = build_store(registry, store_path)
        cache = CircuitCache()
        cache.load_into(store_path, registry)
        requests = build_requests(lineages)

        stores = CircuitStoreService(registry, {"bench": store_path})
        serving = ServingEngine(
            stores,
            ConfidenceEngine(registry),
            ServingConfig(max_inflight=CONCURRENCY),
        )
        client = ASGIClient(ServingApp(serving))

        # Warm-up: lowers kernels and exercises every route once.
        asyncio.run(drive(client, requests[: CONCURRENCY], lineages))

        started = time.perf_counter()
        asyncio.run(drive(client, requests, lineages))
        serving_seconds = time.perf_counter() - started

        started = time.perf_counter()
        direct_pass(cache, requests, lineages)
        direct_seconds = time.perf_counter() - started

        # The lone client: same store (kernels already lowered), a
        # fresh engine so its counters and response cache start empty.
        lone = ServingEngine(
            stores,
            ConfidenceEngine(registry),
            ServingConfig(max_inflight=CONCURRENCY),
        )
        lone_requests = requests[:LONE_REQUESTS]
        started = time.perf_counter()
        asyncio.run(
            drive(
                ASGIClient(ServingApp(lone)),
                lone_requests,
                lineages,
                concurrency=1,
            )
        )
        lone_seconds = time.perf_counter() - started

    stats = serving.stats
    latency = stats.latency_percentiles()
    serving_rps = len(requests) / serving_seconds
    direct_rps = len(requests) / direct_seconds
    occupancy = stats.occupancy()
    lone_latency = lone.stats.latency_percentiles()
    idle_ratio = (
        lone.stats.idle_flushes / lone.stats.batches
        if lone.stats.batches
        else 0.0
    )
    results = {
        "config": {
            "smoke": SMOKE,
            "circuits": CIRCUITS,
            "concurrency": CONCURRENCY,
            "requests": len(requests),
        },
        "environment": environment(),
        "totals": {
            "throughput_rps": serving_rps,
            "p50_ms": latency["p50_ms"],
            "p99_ms": latency["p99_ms"],
            "mean_ms": latency["mean_ms"],
            "batch_occupancy": occupancy,
            "direct_rps": direct_rps,
            "overhead_ratio": direct_rps / serving_rps,
            "shed": stats.shed,
            "engine_fallbacks": stats.engine_fallbacks,
            "max_inflight": stats.max_inflight,
            "idle_flushes": stats.idle_flushes,
        },
        "lone": {
            "requests": len(lone_requests),
            "throughput_rps": len(lone_requests) / lone_seconds,
            "p50_ms": lone_latency["p50_ms"],
            "p99_ms": lone_latency["p99_ms"],
            "batches": lone.stats.batches,
            "idle_flushes": lone.stats.idle_flushes,
            "idle_flush_ratio": idle_ratio,
            "max_inflight": lone.stats.max_inflight,
        },
    }
    with open(OUTPUT, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")

    totals = results["totals"]
    print(
        f"serving: {totals['throughput_rps']:.0f} req/s "
        f"(p50 {totals['p50_ms']:.2f} ms, p99 {totals['p99_ms']:.2f} ms, "
        f"occupancy {occupancy:.2f}); direct: {direct_rps:.0f} req/s "
        f"-> overhead {totals['overhead_ratio']:.2f}x"
    )
    print(
        f"lone client: p50 {lone_latency['p50_ms']:.2f} ms, "
        f"{lone.stats.idle_flushes}/{lone.stats.batches} flushes idle"
    )
    print(f"results -> {OUTPUT}")

    if ASSERT_OCCUPANCY and occupancy <= 1.0:
        print(
            f"FAIL: micro-batch occupancy {occupancy:.2f} <= 1.0 — "
            "concurrent same-circuit requests are not coalescing",
            file=sys.stderr,
        )
        return 1
    if ASSERT_OCCUPANCY and idle_ratio != 1.0:
        print(
            f"FAIL: lone-client idle-flush ratio {idle_ratio:.3f} != 1.0 "
            "— a request with no company waited out the batch window",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
