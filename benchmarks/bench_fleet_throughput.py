"""Fleet throughput: multi-worker scale-out over real sockets.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet_throughput.py
    FLEET_BENCH_SMOKE=1 PYTHONPATH=src python benchmarks/bench_fleet_throughput.py

The deployment question the fleet answers: when one serving process is
not enough, does scaling *out* — N shared-nothing worker processes over
the same persisted store files — actually buy aggregate throughput,
and does the per-worker response cache carry the load it is supposed
to?  The bench:

* compiles a pool of monotone lineage DNFs into a store file and
  starts a real :class:`ServingFleet` (worker processes, ephemeral
  TCP ports, the stdlib HTTP/1.1 bridge — the exact configuration CI
  runs, since the container ships no uvicorn);
* replays a **repetition-heavy** mixed workload (point evaluates,
  what-if grids, scenario sweeps; every unique request repeated many
  times) through ``CLIENTS`` concurrent :class:`FleetClient` drivers.
  Lineage-affinity routing pins each repeated request onto the same
  worker, so after the first miss the answers come from that worker's
  response cache — the dashboard/monitoring shape the cache exists
  for;
* reads fleet-wide counters over the wire (``aggregate_stats``) and
  records ``throughput_rps``, ``throughput_per_worker`` and
  ``response_hit_ratio`` — the last one machine-independent (it is
  fixed by the workload's repeat structure, not the hardware) and the
  number the regression gate watches;
* spot-checks that a cache hit is **bit-identical** to the miss that
  populated it (same ``==`` floats over the wire, ``cached: true``
  stamped).

Results go to ``BENCH_fleet.json`` at the repo root, with the
environment they were measured in (the serving bench's block — commit,
CPU count, Python and numpy versions, kernel backend — plus the HTTP
server the workers ran).  Built-in
acceptance bars (skipped with ``FLEET_BENCH_NO_ASSERT=1``): more than
one worker served, response hits dominate misses, and — full mode
only — aggregate socket throughput beats the committed single-process
in-process baseline in ``BENCH_serving.json``, which is the point of
having a fleet at all.

Smoke mode (``FLEET_BENCH_SMOKE=1``, used by CI): fewer clients,
circuits and repeats; the hit-ratio structure survives because it is
workload-determined.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys
import tempfile
import time

from repro.circuits import CircuitCache
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.variables import VariableRegistry
from repro.engine import ConfidenceEngine
from repro.serving import (
    FleetClient,
    FleetConfig,
    ServingConfig,
    ServingFleet,
)

from bench_serving_latency import environment

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT = os.environ.get(
    "FLEET_BENCH_OUTPUT", os.path.join(REPO_ROOT, "BENCH_fleet.json")
)
SERVING_BASELINE = os.path.join(REPO_ROOT, "BENCH_serving.json")

SMOKE = os.environ.get("FLEET_BENCH_SMOKE") == "1"
ASSERT_BARS = os.environ.get("FLEET_BENCH_NO_ASSERT") != "1"

VARIABLES = 16
WORKERS = 2
CIRCUITS = 6 if SMOKE else 12
CLIENTS = 4 if SMOKE else 8
#: Distinct request specs per circuit; each is replayed ``REPEATS``
#: times, so the steady-state response-cache hit ratio approaches
#: ``REPEATS / (REPEATS + 1)`` regardless of hardware.
UNIQUE_PER_CIRCUIT = 3 if SMOKE else 4
REPEATS = 6 if SMOKE else 20
WHAT_IF_POINTS = 5
SWEEP_SCENARIOS = 6
SEED = 20260808


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


def build_unique_requests(lineages):
    """The distinct request specs — the cache's working set."""
    rng = random.Random(SEED + 1)
    unique = []
    for index, lineage in enumerate(lineages):
        for slot in range(UNIQUE_PER_CIRCUIT):
            p = round(rng.uniform(0.05, 0.95), 6)
            kind = (index + slot) % 3
            if kind == 0:
                unique.append(("evaluate", lineage, {"t0": p}))
            elif kind == 1:
                grid = [
                    round(p * step / (WHAT_IF_POINTS - 1), 6)
                    for step in range(WHAT_IF_POINTS)
                ]
                unique.append(("what_if", lineage, grid))
            else:
                scenarios = [
                    {"t1": round(rng.uniform(0.0, 1.0), 6)}
                    for _ in range(SWEEP_SCENARIOS)
                ]
                unique.append(("sweep", lineage, scenarios))
    return unique


def build_workload(unique):
    """Every unique spec repeated ``REPEATS`` times, shuffled."""
    rng = random.Random(SEED + 2)
    workload = [spec for spec in unique for _ in range(REPEATS)]
    rng.shuffle(workload)
    return workload


async def one_request(client, spec):
    kind, lineage, payload = spec
    if kind == "evaluate":
        return await client.evaluate(
            lineage, overrides=payload, store="bench"
        )
    if kind == "what_if":
        return await client.what_if(lineage, "t3", payload, store="bench")
    return await client.sweep(lineage, payload, store="bench")


async def drive(addresses, workload):
    """Replay the workload through CLIENTS concurrent fleet clients."""
    clients = [FleetClient(addresses) for _ in range(CLIENTS)]

    async def run_slice(client, index):
        for spec in workload[index::CLIENTS]:
            await one_request(client, spec)

    try:
        await asyncio.gather(
            *[
                run_slice(client, index)
                for index, client in enumerate(clients)
            ]
        )
    finally:
        for client in clients:
            await client.close()


async def check_bit_identical(addresses, unique):
    """A cache hit must replay the miss byte-for-byte (over JSON, that
    means ``==`` on the decoded payloads minus the ``cached`` stamp)."""
    client = FleetClient(addresses)
    try:
        for spec in unique[: min(6, len(unique))]:
            cold = await one_request(client, spec)
            warm = await one_request(client, spec)
            if warm.pop("cached", False) is not True:
                raise AssertionError(
                    f"repeat of {spec[0]} was not served from the "
                    "response cache"
                )
            cold.pop("cached", None)
            if warm != cold:
                raise AssertionError(
                    f"cache hit diverged from its miss for {spec[0]}: "
                    f"{warm!r} != {cold!r}"
                )
    finally:
        await client.close()


async def fleet_totals(addresses):
    client = FleetClient(addresses)
    try:
        return await client.aggregate_stats()
    finally:
        await client.close()


def main() -> int:
    registry = VariableRegistry()
    rng = random.Random(SEED + 3)
    for index in range(VARIABLES):
        registry.add_boolean(f"t{index}", round(rng.uniform(0.05, 0.6), 6))

    with tempfile.TemporaryDirectory() as temp_dir:
        store_path = os.path.join(temp_dir, "store.bin")
        lineages = build_store(registry, store_path)
        unique = build_unique_requests(lineages)
        workload = build_workload(unique)

        fleet = ServingFleet(
            registry,
            {"bench": store_path},
            config=FleetConfig(
                workers=WORKERS,
                serving=ServingConfig(max_inflight=2 * CLIENTS),
            ),
        )
        with fleet:
            addresses = fleet.addresses
            asyncio.run(check_bit_identical(addresses, unique))
            # Warm-up: prime every worker's kernels and response cache
            # with one pass over the working set.
            asyncio.run(drive(addresses, unique))

            started = time.perf_counter()
            asyncio.run(drive(addresses, workload))
            elapsed = time.perf_counter() - started

            totals = asyncio.run(fleet_totals(addresses))
            workers_alive = fleet.alive

    throughput = len(workload) / elapsed
    results = {
        "config": {
            "smoke": SMOKE,
            "workers": WORKERS,
            "clients": CLIENTS,
            "circuits": CIRCUITS,
            "unique_requests": len(unique),
            "repeats": REPEATS,
            "requests": len(workload),
        },
        "environment": {**environment(), "http_server": "stdlib"},
        "totals": {
            "throughput_rps": throughput,
            "throughput_per_worker": throughput / WORKERS,
            "workers": workers_alive,
            "response_hits": totals["response_hits"],
            "response_misses": totals["response_misses"],
            "response_hit_ratio": totals["response_hit_ratio"],
            "quota_rejections": totals["quota_rejections"],
            "shed": totals["shed"],
            "requests_total": totals["requests_total"],
        },
    }
    with open(OUTPUT, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")

    recorded = results["totals"]
    print(
        f"fleet: {recorded['throughput_rps']:.0f} req/s aggregate over "
        f"{workers_alive} workers "
        f"({recorded['throughput_per_worker']:.0f} req/s/worker, "
        f"hit ratio {recorded['response_hit_ratio']:.3f}, "
        f"{int(recorded['response_hits'])} hits / "
        f"{int(recorded['response_misses'])} misses)"
    )
    print(f"results -> {OUTPUT}")

    if not ASSERT_BARS:
        return 0
    failures = []
    if workers_alive <= 1:
        failures.append(
            f"fleet served with {workers_alive} worker(s); scale-out "
            "needs more than one"
        )
    if recorded["response_hits"] <= recorded["response_misses"]:
        failures.append(
            f"response cache is not carrying the repeated workload: "
            f"{int(recorded['response_hits'])} hits vs "
            f"{int(recorded['response_misses'])} misses"
        )
    if not SMOKE and os.path.exists(SERVING_BASELINE):
        with open(SERVING_BASELINE) as handle:
            baseline_rps = json.load(handle)["totals"]["throughput_rps"]
        if throughput <= baseline_rps:
            failures.append(
                f"fleet aggregate {throughput:.0f} req/s does not beat "
                f"the single-process baseline {baseline_rps:.0f} req/s "
                "(BENCH_serving.json)"
            )
        else:
            print(
                f"scale-out: {throughput:.0f} req/s vs single-process "
                f"{baseline_rps:.0f} req/s "
                f"({throughput / baseline_rps:.2f}x)"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
