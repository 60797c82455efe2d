"""Scenario sweeps: vectorized kernel batch vs per-scenario scalar sweeps.

Usage::

    PYTHONPATH=src python benchmarks/bench_scenario_sweep.py
    SWEEP_BENCH_SMOKE=1 PYTHONPATH=src python benchmarks/bench_scenario_sweep.py

The workload the kernel layer exists for: the Fig. 7 hard TPC-H batch
(B2, B9, B20, B21), compiled once, then asked under **thousands of
probability worlds** — sensitivity grids, stress batches, what-if
scans.  The scalar path pays one Python circuit sweep per world; the
numpy backend lowers each circuit once into op-segmented arrays and
pushes the whole world-matrix through in a handful of array sweeps.

Per circuit the bench:

* generates ``WORLDS`` seeded override scenarios (1–4 tuple
  probabilities nudged per world, the shape of a sensitivity probe);
* times the scalar reference (``circuit.evaluate`` per world),
  recording per-world latencies for p50/p99;
* times the vectorized sweep and asserts the values are
  **bit-identical** to the scalar ones;
* repeats the comparison for batched gradients on a subset of worlds
  (agreement there is ~1e-12, not bit-exact).

A Monte-Carlo section times the circuit-native sampler
(:func:`repro.circuits.kernels.circuit_monte_carlo`) against the
Karp–Luby ``aconf`` baseline at the same ``(ε, δ)`` on the hardest
answer of the batch.

Results go to ``BENCH_sweep.json`` at the repo root.  The acceptance
bar — vectorized sweep ``>= 10×`` the scalar scenarios/sec — is
asserted unless ``SWEEP_BENCH_NO_ASSERT=1``; the regression gate
(``benchmarks/check_bench_regression.py``) re-checks the committed
ratio with generous slack since it is machine-independent.

Smoke mode (``SWEEP_BENCH_SMOKE=1``, used by CI): smallest scale,
fewer worlds.  Requires numpy (exits 0 with a notice otherwise — the
scalar fallback has nothing to compare against itself).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

from repro import ConfidenceEngine, EngineConfig
from repro.circuits.kernels import circuit_monte_carlo, numpy_available
from repro.circuits.sweep import sweep_gradients, sweep_values
from repro.datasets.tpch import TPCHConfig, generate_tpch
from repro.datasets.tpch_queries import HARD_QUERIES, make_query
from repro.db.engine import answer_selector, evaluate_to_dnf
from repro.mc.aconf import aconf

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Result file; override with SWEEP_BENCH_OUTPUT so comparison runs
#: don't clobber the committed baseline.
OUTPUT = os.environ.get(
    "SWEEP_BENCH_OUTPUT", os.path.join(REPO_ROOT, "BENCH_sweep.json")
)

SMOKE = os.environ.get("SWEEP_BENCH_SMOKE") == "1"
ASSERT_SPEEDUP = os.environ.get("SWEEP_BENCH_NO_ASSERT") != "1"
SCALE = 0.05 if SMOKE else 0.1
WORLDS = 200 if SMOKE else 1200
GRADIENT_WORLDS = 40 if SMOKE else 200
SPEEDUP_TARGET = 10.0

MC_EPSILON = 0.2
MC_DELTA = 0.05
MC_MAX_SAMPLES = 5_000 if SMOKE else 20_000


def build_workload():
    database = generate_tpch(
        TPCHConfig(
            scale_factor=SCALE, probability_range=(0.0, 1.0), seed=1
        )
    )
    selector = answer_selector(database)
    batch = []
    for query_name in HARD_QUERIES:
        for values, dnf in evaluate_to_dnf(
            make_query(query_name), database
        ):
            batch.append((f"{query_name}{values!r}", dnf))
    return database, selector, batch


def world_scenarios(registry, count, seed=2024):
    """``count`` seeded sensitivity worlds over the tuple variables."""
    rng = random.Random(seed)
    names = [
        name
        for name in registry.variables()
        if registry.is_boolean(name)
    ]
    scenarios = []
    for _ in range(count):
        overrides = {}
        for _ in range(rng.randint(1, 4)):
            name = rng.choice(names)
            base = registry.probability(name, True)
            overrides[name] = min(
                0.99, max(0.01, base * rng.uniform(0.25, 1.75))
            )
        scenarios.append(overrides)
    return scenarios


def percentile(latencies, fraction):
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def main() -> int:
    if not numpy_available():
        print(
            "numpy unavailable: the scalar fallback has nothing to race "
            "against — install the repro[fast] extra to run this bench"
        )
        return 0

    database, selector, batch = build_workload()
    registry = database.registry
    config = EngineConfig(choose_variable=selector, mc_fallback=False)
    engine = ConfidenceEngine(registry, config)

    started = time.perf_counter()
    circuits = [
        (label, engine.compile_circuit(dnf)) for label, dnf in batch
    ]
    compile_seconds = time.perf_counter() - started
    scenarios = world_scenarios(registry, WORLDS)

    scalar_total = 0.0
    vector_total = 0.0
    scalar_latencies = []
    per_circuit = []
    for label, circuit in circuits:
        # Scalar: one Python sweep per world, individually timed so the
        # report carries the per-world latency distribution.
        values_scalar = []
        started = time.perf_counter()
        for overrides in scenarios:
            tick = time.perf_counter()
            values_scalar.append(circuit.evaluate(overrides))
            scalar_latencies.append(time.perf_counter() - tick)
        scalar = time.perf_counter() - started

        started = time.perf_counter()
        values_vector = sweep_values(circuit, scenarios)
        vector = time.perf_counter() - started

        assert values_vector == values_scalar, (
            f"vectorized sweep diverged from scalar on {label}"
        )
        scalar_total += scalar
        vector_total += vector
        per_circuit.append(
            {
                "answer": label,
                "circuit_nodes": len(circuit),
                "scalar_seconds": round(scalar, 6),
                "vectorized_seconds": round(vector, 6),
                "speedup": round(scalar / vector, 1)
                if vector > 0
                else None,
            }
        )

    speedup = (
        scalar_total / vector_total if vector_total > 0 else float("inf")
    )
    world_count = WORLDS * len(circuits)
    print(
        f"values sweep: {len(circuits)} circuits x {WORLDS} worlds  "
        f"scalar {scalar_total:.3f}s  vectorized {vector_total:.3f}s  "
        f"speedup {speedup:,.0f}x"
    )

    # Gradients: the full sensitivity matrix per world, subset of worlds.
    gradient_scenarios = scenarios[:GRADIENT_WORLDS]
    started = time.perf_counter()
    for _label, circuit in circuits:
        [circuit.gradients(overrides) for overrides in gradient_scenarios]
    gradients_scalar = time.perf_counter() - started
    started = time.perf_counter()
    for _label, circuit in circuits:
        sweep_gradients(circuit, gradient_scenarios)
    gradients_vector = time.perf_counter() - started
    gradient_speedup = (
        gradients_scalar / gradients_vector
        if gradients_vector > 0
        else float("inf")
    )
    print(
        f"gradient sweep: scalar {gradients_scalar:.3f}s  vectorized "
        f"{gradients_vector:.3f}s  speedup {gradient_speedup:,.0f}x"
    )

    # Monte Carlo: circuit sampler vs Karp-Luby at the same (eps, delta)
    # on the biggest circuit of the batch.
    mc_label, mc_circuit = max(circuits, key=lambda item: len(item[1]))
    mc_dnf = next(dnf for label, dnf in batch if label == mc_label)
    started = time.perf_counter()
    circuit_mc = circuit_monte_carlo(
        mc_circuit,
        epsilon=MC_EPSILON,
        delta=MC_DELTA,
        seed=7,
        max_samples=MC_MAX_SAMPLES,
    )
    circuit_mc_seconds = time.perf_counter() - started
    started = time.perf_counter()
    karp_luby = aconf(
        mc_dnf,
        registry,
        epsilon=MC_EPSILON,
        delta=MC_DELTA,
        seed=7,
        max_samples=MC_MAX_SAMPLES,
    )
    karp_luby_seconds = time.perf_counter() - started
    mc_rate_circuit = (
        circuit_mc.samples / circuit_mc_seconds
        if circuit_mc_seconds > 0
        else float("inf")
    )
    mc_rate_karp_luby = (
        karp_luby.samples / karp_luby_seconds
        if karp_luby_seconds > 0
        else float("inf")
    )
    print(
        f"monte carlo on {mc_label}: circuit {mc_rate_circuit:,.0f} "
        f"samples/s  karp-luby {mc_rate_karp_luby:,.0f} samples/s"
    )

    report = {
        "experiment": (
            "Vectorized scenario sweeps on the Fig. 7 hard batch "
            "(benchmarks/bench_scenario_sweep.py)"
        ),
        "workload": (
            f"{','.join(HARD_QUERIES)} sf={SCALE}: {len(circuits)} "
            f"compiled answer circuits x {WORLDS} sensitivity worlds "
            "(1-4 tuple probabilities nudged per world)"
        ),
        "environment": {
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
            "smoke": SMOKE,
        },
        "engine_config": config.describe(),
        "compile_once_seconds": round(compile_seconds, 6),
        "per_circuit": per_circuit,
        "totals": {
            "worlds_evaluated": world_count,
            "scalar_seconds": round(scalar_total, 6),
            "vectorized_seconds": round(vector_total, 6),
            "scalar_worlds_per_second": round(
                world_count / scalar_total, 1
            ),
            "vectorized_worlds_per_second": round(
                world_count / vector_total, 1
            ),
            "speedup_vectorized_vs_scalar": round(speedup, 1),
            "scalar_world_latency_p50_us": round(
                percentile(scalar_latencies, 0.50) * 1e6, 2
            ),
            "scalar_world_latency_p99_us": round(
                percentile(scalar_latencies, 0.99) * 1e6, 2
            ),
            "vectorized_world_latency_us": round(
                vector_total / world_count * 1e6, 2
            ),
        },
        "gradients": {
            "worlds": GRADIENT_WORLDS,
            "scalar_seconds": round(gradients_scalar, 6),
            "vectorized_seconds": round(gradients_vector, 6),
            "speedup": round(gradient_speedup, 1),
        },
        "monte_carlo": {
            "answer": mc_label,
            "epsilon": MC_EPSILON,
            "delta": MC_DELTA,
            "circuit_samples_per_second": round(mc_rate_circuit, 1),
            "karp_luby_samples_per_second": round(mc_rate_karp_luby, 1),
            "circuit_estimate": circuit_mc.estimate,
            "karp_luby_estimate": karp_luby.estimate,
        },
        "differential": (
            "vectorized sweep values were bit-identical to per-world "
            "scalar evaluation on every circuit and world"
        ),
    }
    with open(OUTPUT, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(
        f"\ntotal: scalar {scalar_total:.3f}s  vectorized "
        f"{vector_total:.3f}s  speedup {speedup:,.0f}x  -> {OUTPUT}"
    )
    if ASSERT_SPEEDUP:
        assert speedup >= SPEEDUP_TARGET, (
            f"vectorized sweep speedup {speedup:.1f}x is below the "
            f"{SPEEDUP_TARGET}x acceptance bar"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
