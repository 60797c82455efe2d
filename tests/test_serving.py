"""Serving tier: stores, operations, degradation, wire protocol.

The acceptance bar is bit-identity: a circuit compiled in one process
and served from a store in another must answer ``evaluate`` /
``bounds`` / ``gradients`` exactly (``==``) like the in-process
:class:`CompiledResult` path — serving is a deployment decision, never
a semantics one.  Degradation paths (cold lineage, stale version,
overload, deadline) must fail *structurally*, with stable error codes.
"""

import asyncio
import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.serving.engine as serving_engine
from repro.circuits import (
    CircuitCache,
    circuit_kernel,
    compile_circuit,
    expand_residuals,
    refine_sweep_bounds,
    sweep_bounds,
    sweep_values,
)
from repro.circuits.circuit import Circuit
from repro.circuits.sweep import KERNEL_MIN_ROWS
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.variables import VariableRegistry
from repro.db.session import ProbDB
from repro.engine import ConfidenceEngine
from repro.serving import (
    ASGIClient,
    CircuitStoreService,
    ServingApp,
    ServingClient,
    ServingConfig,
    ServingEngine,
    ServingError,
    ServingStats,
    dnf_from_json,
    dnf_to_json,
    overrides_to_json,
)


def run(coroutine):
    return asyncio.run(coroutine)


def make_registry():
    registry = VariableRegistry()
    for index in range(10):
        registry.add_boolean(f"x{index}", 0.08 + 0.07 * index)
    return registry


def dnf(*clauses):
    return DNF([Clause({v: True for v in clause}) for clause in clauses])


L1 = (("x0", "x1"), ("x2",), ("x3", "x4"))
L2 = (("x1", "x5"), ("x6", "x7"))
L3 = (("x0", "x8"), ("x2", "x9"), ("x5",))
COLD = (("x3", "x9"), ("x4", "x6"))


@pytest.fixture
def served(tmp_path):
    """A store file with three circuits + a serving stack over it."""
    registry = make_registry()
    engine = ConfidenceEngine(registry)
    cache = CircuitCache()
    lineages = [dnf(*L1), dnf(*L2), dnf(*L3)]
    for lineage in lineages:
        cache.put(lineage, engine.compile_circuit(lineage))
    path = tmp_path / "store.bin"
    cache.save(path)
    stores = CircuitStoreService(
        registry, {"main": path}, reload_check_seconds=0.0
    )
    serving = ServingEngine(stores, ConfidenceEngine(registry))
    return {
        "registry": registry,
        "cache": cache,
        "lineages": lineages,
        "path": path,
        "stores": stores,
        "serving": serving,
        "client": ServingClient(serving),
        "wire": ASGIClient(ServingApp(serving)),
    }


# ----------------------------------------------------------------------
# Store service
# ----------------------------------------------------------------------
class TestStoreService:
    def test_snapshot_contents_and_versioning(self, served):
        snapshot = served["stores"].snapshot("main")
        assert len(snapshot) == 3
        assert snapshot.name == "main"
        stat = os.stat(served["path"])
        assert snapshot.version == (
            f"{stat.st_mtime_ns}:{stat.st_size}:{stat.st_dev}:{stat.st_ino}"
        )
        for lineage in served["lineages"]:
            assert lineage in snapshot
            assert snapshot.get(lineage) is not None
        assert snapshot.intern is not None

    def test_unknown_store_is_structured(self, served):
        with pytest.raises(ServingError) as info:
            served["stores"].snapshot("nope")
        assert info.value.code == "unknown-store"
        assert info.value.status == 404

    def test_hot_reload_on_version_change(self, served, tmp_path):
        stores = served["stores"]
        before = stores.snapshot("main").version
        # Grow the store file: a fourth circuit changes size => version.
        registry = served["registry"]
        engine = ConfidenceEngine(registry)
        extra = dnf(*COLD)
        served["cache"].put(extra, engine.compile_circuit(extra))
        served["cache"].save(served["path"])
        snapshot = stores.snapshot("main")
        assert snapshot.version != before
        assert len(snapshot) == 4
        assert snapshot.get(extra) is not None
        assert stores.reloads == 1

    def test_vanished_file_keeps_last_good_snapshot(self, served):
        stores = served["stores"]
        before = stores.snapshot("main")
        os.unlink(served["path"])
        after = stores.snapshot("main")
        assert after is before  # degraded, not dead

    def test_live_cache_store_recuts_on_mutation(self):
        registry = make_registry()
        engine = ConfidenceEngine(registry)
        cache = CircuitCache()
        stores = CircuitStoreService(registry)
        stores.add_cache("live", cache)
        assert len(stores.snapshot("live")) == 0
        lineage = dnf(*L1)
        cache.put(lineage, engine.compile_circuit(lineage))
        snapshot = stores.snapshot("live")
        assert len(snapshot) == 1
        assert snapshot.version.startswith("cache:")

    def test_snapshot_survives_cache_clear(self):
        registry = make_registry()
        engine = ConfidenceEngine(registry)
        cache = CircuitCache()
        lineage = dnf(*L2)
        cache.put(lineage, engine.compile_circuit(lineage))
        snapshot = cache.snapshot()
        cache.clear()
        assert snapshot.get(lineage) is not None
        assert cache.get(lineage) is None


# ----------------------------------------------------------------------
# Operations: bit-identity against the direct circuit path
# ----------------------------------------------------------------------
class TestOperations:
    def test_evaluate_bit_identical(self, served):
        circuit = served["cache"].get(dnf(*L1))
        for overrides in (None, {"x0": 0.9}, {"x2": 0.0, "x4": 1.0}):
            response = run(
                served["client"].evaluate(dnf(*L1), overrides=overrides)
            )
            assert response["value"] == circuit.evaluate(overrides)
            assert response["strategy"] == "store"
            assert response["store"] == "main"

    def test_bounds_bit_identical(self, served):
        circuit = served["cache"].get(dnf(*L2))
        response = run(served["client"].bounds(dnf(*L2)))
        assert tuple(response["bounds"]) == circuit.evaluate_bounds()
        assert response["width"] == 0.0  # exact circuit

    def test_gradients_bit_identical(self, served):
        circuit = served["cache"].get(dnf(*L3))
        expected = circuit.gradients({"x5": 0.4})
        response = run(
            served["client"].gradients(dnf(*L3), overrides={"x5": 0.4})
        )
        decoded = {
            variable: gradient
            for variable, gradient in response["gradients"]
        }
        assert decoded == expected

    def test_what_if_matches_scalar_grid(self, served):
        circuit = served["cache"].get(dnf(*L1))
        probabilities = [0.0, 0.25, 0.5, 0.75, 1.0]
        response = run(
            served["client"].what_if(dnf(*L1), "x2", probabilities)
        )
        assert response["values"] == [
            circuit.evaluate({"x2": p}) for p in probabilities
        ]

    def test_sweep_values_and_bounds(self, served):
        circuit = served["cache"].get(dnf(*L3))
        scenarios = [None, {"x0": 0.3}, {"x9": 0.9, "x5": 0.1}]
        values = run(served["client"].sweep(dnf(*L3), scenarios))
        assert values["results"] == [
            circuit.evaluate(s) for s in scenarios
        ]
        bounds = run(
            served["client"].sweep(dnf(*L3), scenarios, kind="bounds")
        )
        assert [tuple(pair) for pair in bounds["results"]] == [
            circuit.evaluate_bounds(s) for s in scenarios
        ]

    def test_top_k_ranks_by_confidence(self, served):
        values = {
            label: served["cache"].get(lineage).evaluate()
            for label, lineage in zip(
                "abc", served["lineages"]
            )
        }
        response = run(
            served["client"].top_k(
                served["lineages"], 2, answers=["a", "b", "c"]
            )
        )
        expected = sorted(
            values.items(), key=lambda item: (-item[1], item[0])
        )[:2]
        assert [tuple(pair) for pair in response["answers"]] == expected

    def test_default_store_when_single(self, served):
        response = run(served["client"].evaluate(dnf(*L1)))
        assert response["store"] == "main"


# ----------------------------------------------------------------------
# Degradation: cold circuits, staleness, overload, deadlines
# ----------------------------------------------------------------------
class TestDegradation:
    def test_cold_lineage_engine_compute(self, served):
        reference = ConfidenceEngine(served["registry"]).compute(
            dnf(*COLD)
        )
        response = run(served["client"].evaluate(dnf(*COLD)))
        assert response["strategy"] == "engine"
        assert response["value"] == reference.probability
        assert served["serving"].stats.engine_fallbacks == 1
        # Repeat answers are stable; if the engine attached a circuit
        # it landed in the overlay and the repeat is served warm.
        again = run(served["client"].evaluate(dnf(*COLD)))
        assert again["strategy"] in ("engine", "overlay")
        assert again["value"] == response["value"]

    def test_cold_lineage_with_overrides_compiles(self, served):
        response = run(
            served["client"].evaluate(dnf(*COLD), overrides={"x3": 0.5})
        )
        assert response["strategy"] == "engine-compile"
        direct = ConfidenceEngine(served["registry"]).compile_circuit(
            dnf(*COLD)
        )
        assert response["value"] == direct.evaluate({"x3": 0.5})

    def test_cold_without_engine_is_unknown_circuit(self, served):
        serving = ServingEngine(served["stores"], engine=None)
        with pytest.raises(ServingError) as info:
            run(ServingClient(serving).evaluate(dnf(*COLD)))
        assert info.value.code == "unknown-circuit"

    def test_stale_version_rejected_with_current(self, served):
        with pytest.raises(ServingError) as info:
            run(
                served["client"].evaluate(
                    dnf(*L1), expect_version="stale"
                )
            )
        assert info.value.code == "stale-version"
        assert info.value.status == 409
        current = served["stores"].snapshot("main").version
        assert info.value.details["current"] == current

    def test_overload_sheds_structurally(self, served):
        serving = served["serving"]
        limit = (
            serving.config.max_inflight + serving.config.queue_limit
        )
        serving._pending = limit  # saturate admission
        try:
            with pytest.raises(ServingError) as info:
                run(served["client"].evaluate(dnf(*L1)))
        finally:
            serving._pending = 0
        assert info.value.code == "overloaded"
        assert info.value.status == 429
        assert serving.stats.shed == 1

    def test_deadline_exceeded_via_fake_clock(self, served, fake_clock):
        fake_clock.auto_advance = 3.0  # every clock read costs 3s
        with pytest.raises(ServingError) as info:
            run(
                served["client"].evaluate(
                    dnf(*L1), deadline_seconds=2.0
                )
            )
        assert info.value.code == "deadline-exceeded"
        assert info.value.status == 504

    def test_bad_requests(self, served):
        with pytest.raises(ServingError) as info:
            run(served["serving"].handle({"op": "frobnicate"}))
        assert info.value.code == "bad-request"
        with pytest.raises(ServingError) as info:
            run(
                served["client"].evaluate(
                    dnf(*L1), overrides={"unknown_var": 0.5}
                )
            )
        assert info.value.code == "bad-request"
        with pytest.raises(ServingError) as info:
            run(served["client"].evaluate(dnf(*L1), store="missing"))
        assert info.value.code == "unknown-store"


# ----------------------------------------------------------------------
# Micro-batching
# ----------------------------------------------------------------------
class TestBatching:
    def test_occupancy_exceeds_one(self, served):
        async def burst():
            client = served["client"]
            await asyncio.gather(
                *[
                    client.evaluate(dnf(*L1), overrides={"x0": p})
                    for p in (0.1, 0.2, 0.3, 0.4, 0.5)
                ]
            )

        run(burst())
        stats = served["serving"].stats
        assert stats.batches >= 1
        assert stats.occupancy() > 1.0

    def test_batched_rows_match_serial(self, served):
        circuit = served["cache"].get(dnf(*L2))
        overrides_list = [{"x1": p / 10.0} for p in range(10)]

        async def burst():
            return await asyncio.gather(
                *[
                    served["client"].evaluate(dnf(*L2), overrides=o)
                    for o in overrides_list
                ]
            )

        responses = run(burst())
        for response, overrides in zip(responses, overrides_list):
            assert response["value"] == circuit.evaluate(overrides)

    def test_bad_row_does_not_poison_batch(self, served):
        async def burst():
            good = asyncio.create_task(
                served["client"].evaluate(
                    dnf(*L1), overrides={"x0": 0.7}
                )
            )
            with pytest.raises(ServingError):
                await served["client"].evaluate(
                    dnf(*L1), overrides={"bogus": 0.5}
                )
            return await good

        response = run(burst())
        circuit = served["cache"].get(dnf(*L1))
        assert response["value"] == circuit.evaluate({"x0": 0.7})


class TestResolveOnce:
    """A batched row's overrides are resolved once: on submit, where a
    bad row fails its own request; the sweep reuses the resolution."""

    @pytest.fixture
    def resolutions(self, monkeypatch):
        calls = []
        original = Circuit._resolve_overrides

        def counting(circuit, overrides):
            calls.append(overrides)
            return original(circuit, overrides)

        monkeypatch.setattr(Circuit, "_resolve_overrides", counting)
        return calls

    @pytest.mark.parametrize("rows", [3, KERNEL_MIN_ROWS + 2])
    def test_one_resolution_per_row(self, served, resolutions, rows):
        client = served["client"]
        l1, l3 = dnf(*L1), dnf(*L3)
        circuit1 = served["cache"].get(l1)
        circuit3 = served["cache"].get(l3)
        probabilities = [(i + 1) / (rows + 2) for i in range(rows)]
        scenarios = [{"x0": p, "x9": 1.0 - p} for p in probabilities]
        expected = {
            "evaluate": [circuit1.evaluate({"x0": p}) for p in probabilities],
            "what_if": [circuit1.evaluate({"x2": p}) for p in probabilities],
            "values": [circuit3.evaluate(s) for s in scenarios],
            "bounds": [circuit3.evaluate_bounds(s) for s in scenarios],
            "top_k": sorted(
                (served["cache"].get(lineage).evaluate({"x5": 0.3}), label)
                for label, lineage in zip("abc", served["lineages"])
            ),
        }

        async def burst():
            return await asyncio.gather(
                *[
                    client.evaluate(l1, overrides={"x0": p})
                    for p in probabilities
                ]
            )

        del resolutions[:]
        responses = run(burst())
        assert len(resolutions) == rows
        assert [r["value"] for r in responses] == expected["evaluate"]

        del resolutions[:]
        response = run(client.what_if(l1, "x2", probabilities))
        assert len(resolutions) == rows
        assert response["values"] == expected["what_if"]

        del resolutions[:]
        response = run(client.sweep(l3, scenarios))
        assert len(resolutions) == rows
        assert response["results"] == expected["values"]

        del resolutions[:]
        response = run(client.sweep(l3, scenarios, kind="bounds"))
        assert len(resolutions) == rows
        assert [tuple(pair) for pair in response["results"]] == (
            expected["bounds"]
        )

        del resolutions[:]
        response = run(
            client.top_k(
                served["lineages"], 3, answers=["a", "b", "c"],
                overrides={"x5": 0.3},
            )
        )
        assert len(resolutions) == len(served["lineages"])
        assert sorted(
            (value, label) for label, value in response["answers"]
        ) == expected["top_k"]


# ----------------------------------------------------------------------
# Idle-aware flush
# ----------------------------------------------------------------------
async def hold_engine(serving):
    """Admit a cold request that blocks on the engine lock, so it runs
    inside the semaphores without parking on the batcher.  Call with
    ``serving._engine_lock`` held; returns the task once it is
    running."""
    task = asyncio.ensure_future(
        ServingClient(serving).evaluate(dnf(*COLD))
    )
    while serving._batcher is None or serving._batcher.running < 1:
        await asyncio.sleep(0)
    return task


class TestIdleFlush:
    """A request with no company flushes on the next loop iteration
    instead of waiting out the window.  The window here is 60 s and
    every wait is capped at 5 s, so a regression fails, not hangs."""

    def make(self, served):
        serving = ServingEngine(
            served["stores"],
            ConfidenceEngine(served["registry"]),
            ServingConfig(batch_window_seconds=60.0),
        )
        return serving, ServingClient(serving)

    def test_lone_evaluate_answers_at_once(self, served):
        serving, client = self.make(served)
        response = run(
            asyncio.wait_for(
                client.evaluate(dnf(*L1), overrides={"x0": 0.3}), 5
            )
        )
        circuit = served["cache"].get(dnf(*L1))
        assert response["value"] == circuit.evaluate({"x0": 0.3})
        stats = serving.stats
        assert (stats.batches, stats.batched_rows) == (1, 1)
        assert stats.idle_flushes == 1
        assert stats.summary()["idle_flushes"] == 1

    def test_lone_sweep_flushes_its_bucket_once(self, served):
        serving, client = self.make(served)
        scenarios = [{"x1": p / 10.0} for p in range(10)]
        response = run(
            asyncio.wait_for(client.sweep(dnf(*L2), scenarios), 5)
        )
        circuit = served["cache"].get(dnf(*L2))
        assert response["results"] == [
            circuit.evaluate(s) for s in scenarios
        ]
        stats = serving.stats
        assert (stats.batches, stats.batched_rows) == (1, 10)
        assert stats.idle_flushes == 1

    def test_lone_top_k_flushes_every_bucket(self, served, monkeypatch):
        flushes = []
        record_batch = ServingStats.record_batch

        def spy(stats, rows, idle=False):
            flushes.append((rows, idle))
            record_batch(stats, rows, idle)

        monkeypatch.setattr(ServingStats, "record_batch", spy)
        serving, client = self.make(served)
        # L1 twice: its bucket carries two rows of this request.
        lineages = [dnf(*L1), dnf(*L2), dnf(*L3), dnf(*L1)]
        response = run(
            asyncio.wait_for(
                client.top_k(lineages, 4, overrides={"x5": 0.4}), 5
            )
        )
        values = [
            served["cache"].get(lineage).evaluate({"x5": 0.4})
            for lineage in lineages
        ]
        assert sorted(pair[1] for pair in response["answers"]) == sorted(
            values
        )
        assert sorted(flushes) == [(1, True), (1, True), (2, True)]
        assert serving.stats.idle_flushes == serving.stats.batches == 3

    def test_row_beside_unparked_request_keeps_the_window(self, served):
        serving, client = self.make(served)

        async def scenario():
            serving._engine_lock.acquire()
            try:
                cold = await hold_engine(serving)
                warm = asyncio.ensure_future(
                    client.evaluate(dnf(*L1), overrides={"x0": 0.3})
                )
                while not serving._batcher.buckets:
                    await asyncio.sleep(0)
                await asyncio.sleep(0.05)
                # Two requests ran since the last drain: the window
                # applies even though only one of them is parked.
                assert not warm.done()
                assert serving.stats.batches == 0
            finally:
                serving._engine_lock.release()
            await cold
            # Every running request is parked once a second row joins,
            # but the peak since the last drain is still two: that is
            # a wave of concurrent traffic, so the window still holds.
            second = asyncio.ensure_future(
                client.evaluate(dnf(*L1), overrides={"x0": 0.6})
            )
            await asyncio.sleep(0.05)
            assert serving._batcher.parked == serving._batcher.running
            assert not warm.done() and not second.done()
            await serving.close()
            return await asyncio.gather(warm, second)

        responses = run(asyncio.wait_for(scenario(), 5))
        circuit = served["cache"].get(dnf(*L1))
        assert [response["value"] for response in responses] == [
            circuit.evaluate({"x0": 0.3}),
            circuit.evaluate({"x0": 0.6}),
        ]
        stats = serving.stats
        assert (stats.batches, stats.batched_rows) == (1, 2)
        assert stats.idle_flushes == 0


# ----------------------------------------------------------------------
# ASGI wire path
# ----------------------------------------------------------------------
class TestASGI:
    def test_wire_matches_direct(self, served):
        # A fresh engine over the same stores: the wire request below
        # must not replay this one from the response cache.
        direct = run(
            ServingEngine(served["stores"]).handle(
                {
                    "op": "evaluate",
                    "lineage": dnf(*L1),
                    "overrides": overrides_to_json({"x4": 0.6}),
                }
            )
        )
        wired = run(
            served["wire"].evaluate(dnf(*L1), overrides={"x4": 0.6})
        )
        assert wired["value"] == direct["value"]
        assert wired["strategy"] == direct["strategy"]

    def test_health_stores_stats_routes(self, served):
        health = run(served["wire"].healthz())
        assert health == {"status": "ok", "stores": ["main"]}
        stores = run(served["wire"].stores())
        assert stores["stores"]["main"]["entries"] == 3
        run(served["wire"].evaluate(dnf(*L2)))
        stats = run(served["wire"].stats())
        assert stats["requests_total"] >= 1
        assert "latency" in stats and "p99_ms" in stats["latency"]
        # The lone evaluate flushed on the idle rule, not the window.
        assert stats["idle_flushes"] == stats["batches"] == 1

    def test_wire_errors_are_structured(self, served):
        with pytest.raises(ServingError) as info:
            run(served["wire"].http("POST", "/v1/nope", {}))
        assert info.value.status == 404
        with pytest.raises(ServingError) as info:
            run(served["wire"].http("GET", "/v1/unknown"))
        assert info.value.status == 404
        with pytest.raises(ServingError) as info:
            run(served["wire"].evaluate(dnf(*L1), store="ghost"))
        assert info.value.code == "unknown-store"

    def test_lifespan_protocol(self, served):
        app = ServingApp(served["serving"])

        async def cycle():
            events = [
                {"type": "lifespan.startup"},
                {"type": "lifespan.shutdown"},
            ]
            sent = []

            async def receive():
                return events.pop(0)

            async def send(message):
                sent.append(message["type"])

            await app({"type": "lifespan"}, receive, send)
            return sent

        assert run(cycle()) == [
            "lifespan.startup.complete",
            "lifespan.shutdown.complete",
        ]


# ----------------------------------------------------------------------
# Session integration
# ----------------------------------------------------------------------
class TestSessionServing:
    def test_probdb_serving_sees_later_compiles(self):
        registry = make_registry()
        db = ProbDB.from_registry(registry)
        first = dnf(*L1)
        circuit = db.circuit(first)
        client = ServingClient(db.serving(store_name="live"))
        response = run(client.evaluate(first))
        assert response["strategy"] == "store"
        assert response["value"] == circuit.evaluate()
        later = dnf(*L2)
        later_circuit = db.circuit(later)
        response = run(client.evaluate(later))
        assert response["strategy"] == "store"
        assert response["value"] == later_circuit.evaluate()


# ----------------------------------------------------------------------
# Satellite: per-circuit kernel caching
# ----------------------------------------------------------------------
class TestKernelCache:
    def test_kernel_cached_by_identity(self):
        from repro.circuits.kernels import BACKEND_NUMPY, kernel_backend

        if kernel_backend() != BACKEND_NUMPY:
            pytest.skip("numpy backend disabled")
        registry = make_registry()
        engine = ConfidenceEngine(registry)
        circuit = engine.compile_circuit(dnf(*L1))
        kernel = circuit_kernel(circuit)
        assert circuit_kernel(circuit) is kernel
        # Sweeps share the instance kernel instead of re-lowering.
        sweep_values(circuit, [None, {"x0": 0.5}])
        assert circuit._kernel is kernel
        # condition() returns a NEW circuit: no stale kernel leaks.
        conditioned = circuit.condition("x0", True)
        assert conditioned is not circuit
        assert conditioned._kernel is None
        assert circuit_kernel(conditioned) is not kernel


# ----------------------------------------------------------------------
# Satellite: batched bounds refinement
# ----------------------------------------------------------------------
class TestRefineSweepBounds:
    def big_lineage(self):
        clauses = [
            ("x0", "x1"), ("x1", "x2"), ("x2", "x3"), ("x3", "x4"),
            ("x4", "x5"), ("x5", "x6"), ("x6", "x7"), ("x7", "x8"),
            ("x8", "x9"), ("x9", "x0"), ("x0", "x5"), ("x2", "x7"),
        ]
        return dnf(*clauses)

    def test_refines_to_exact_bounds(self):
        registry = make_registry()
        engine = ConfidenceEngine(registry)
        lineage = self.big_lineage()
        partial = engine.compile_circuit(lineage, max_nodes=8)
        assert partial.residuals, "need a truncated circuit"
        exact = engine.compile_circuit(lineage)
        scenarios = [None, {"x0": 0.9}, {"x3": 0.1, "x7": 0.8}]
        refined, bounds = refine_sweep_bounds(
            partial,
            scenarios,
            compile_subcircuit=engine.compile_circuit,
            target_width=0.0,
            max_rounds=64,
        )
        assert bounds == sweep_bounds(exact, scenarios)
        for low, high in bounds:
            assert low == high
        # Input circuit is never mutated.
        assert partial.residuals

    def test_single_expansion_nests_bounds(self):
        registry = make_registry()
        engine = ConfidenceEngine(registry)
        lineage = self.big_lineage()
        partial = engine.compile_circuit(lineage, max_nodes=8)
        scenarios = [None, {"x4": 0.2}]
        before = sweep_bounds(partial, scenarios)
        refined, after = refine_sweep_bounds(
            partial,
            scenarios,
            compile_subcircuit=engine.compile_circuit,
            max_rounds=1,
        )
        for (low0, high0), (low1, high1) in zip(before, after):
            assert low1 >= low0 - 1e-12
            assert high1 <= high0 + 1e-12

    def test_serving_refine_via_overlay(self, tmp_path):
        registry = make_registry()
        engine = ConfidenceEngine(registry)
        lineage = self.big_lineage()
        partial = engine.compile_circuit(lineage, max_nodes=8)
        exact = engine.compile_circuit(lineage)
        cache = CircuitCache()
        path = tmp_path / "empty.bin"
        cache.save(path)
        stores = CircuitStoreService(registry, {"main": path})
        serving = ServingEngine(stores, engine)
        serving.overlay.put(lineage, partial, exact_only=False)
        response = run(
            ServingClient(serving).bounds(lineage, refine=True)
        )
        assert response["strategy"] == "overlay+refined"
        low, high = exact.evaluate_bounds()
        assert response["bounds"] == [low, high]
        assert serving.stats.refinements == 1

    def test_deserialized_leaves_stay_refinable(self, tmp_path):
        # Format v2 persists each residual leaf's sub-DNF, so a
        # reloaded partial circuit refines exactly like the original.
        registry = make_registry()
        engine = ConfidenceEngine(registry)
        lineage = self.big_lineage()
        partial = engine.compile_circuit(lineage, max_nodes=8)
        cache = CircuitCache()
        cache.put(lineage, partial, exact_only=False)
        path = tmp_path / "partial.bin"
        cache.save(path)
        other = CircuitCache()
        other.load_into(path, registry)
        loaded = other.get(lineage)
        assert loaded is not None and loaded.residuals
        assert loaded.refinable
        refined, bounds = refine_sweep_bounds(
            loaded,
            [None],
            compile_subcircuit=engine.compile_circuit,
            max_rounds=8,
        )
        assert refined is not loaded
        exact = engine.compile_circuit(lineage)
        assert bounds == sweep_bounds(exact, [None])


# ----------------------------------------------------------------------
# Cross-process acceptance: compile there, serve here, bit-identical
# ----------------------------------------------------------------------
_COMPILER_SCRIPT = """
import json, sys
from repro.circuits import CircuitCache
from repro.circuits.circuit import Circuit
from repro.circuits.sweep import KERNEL_MIN_ROWS
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.variables import VariableRegistry
from repro.engine import ConfidenceEngine

registry = VariableRegistry()
for index in range(10):
    registry.add_boolean(f"x{index}", 0.08 + 0.07 * index)
lineages = [
    DNF([Clause({v: True for v in clause}) for clause in spec])
    for spec in json.loads(sys.argv[2])
]
engine = ConfidenceEngine(registry)
cache = CircuitCache()
expected = []
for lineage in lineages:
    circuit = engine.compile_circuit(lineage)
    cache.put(lineage, circuit)
    expected.append(
        {
            "value": circuit.evaluate(),
            "shifted": circuit.evaluate({"x2": 0.5}),
            "bounds": list(circuit.evaluate_bounds()),
            "gradients": sorted(circuit.gradients().items()),
        }
    )
cache.save(sys.argv[1])
print(json.dumps(expected))
"""


class TestCrossProcess:
    def test_compile_elsewhere_serve_here(self, served, tmp_path):
        path = tmp_path / "shipped.bin"
        specs = [list(map(list, L1)), list(map(list, L2))]
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        output = subprocess.run(
            [
                sys.executable,
                "-c",
                _COMPILER_SCRIPT,
                str(path),
                json.dumps(specs),
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        expected = json.loads(output.stdout)

        stores = CircuitStoreService(
            served["registry"], {"shipped": path}
        )
        client = ServingClient(ServingEngine(stores))
        for spec, want in zip((L1, L2), expected):
            lineage = dnf(*spec)
            response = run(client.evaluate(lineage, store="shipped"))
            assert response["strategy"] == "store"
            assert response["value"] == want["value"]
            shifted = run(
                client.evaluate(
                    lineage, store="shipped", overrides={"x2": 0.5}
                )
            )
            assert shifted["value"] == want["shifted"]
            bounds = run(client.bounds(lineage, store="shipped"))
            assert bounds["bounds"] == want["bounds"]
            gradients = run(client.gradients(lineage, store="shipped"))
            assert [
                [variable, gradient]
                for variable, gradient in gradients["gradients"]
            ] == want["gradients"]


# ----------------------------------------------------------------------
# Response cache: repeated point queries, bit-identity, invalidation
# ----------------------------------------------------------------------
class TestResponseCache:
    def test_repeat_point_query_hits_bit_identical(self, served):
        client = served["client"]
        circuit = served["cache"].get(dnf(*L1))
        first = run(client.evaluate(dnf(*L1), overrides={"x0": 0.9}))
        second = run(client.evaluate(dnf(*L1), overrides={"x0": 0.9}))
        assert "cached" not in first
        assert second["cached"] is True
        expected = circuit.evaluate({"x0": 0.9})
        assert first["value"] == second["value"] == expected
        stats = served["serving"].stats
        assert stats.response_hits == 1
        assert stats.response_misses == 1
        assert stats.response_hit_ratio() == 0.5

    def test_override_insertion_order_is_canonical(self, served):
        client = served["client"]
        first = run(
            client.evaluate(
                dnf(*L1), overrides={"x0": 0.9, "x2": 0.1}
            )
        )
        second = run(
            client.evaluate(
                dnf(*L1), overrides={"x2": 0.1, "x0": 0.9}
            )
        )
        assert second["cached"] is True
        assert second["value"] == first["value"]

    def test_every_deterministic_op_caches(self, served):
        client = served["client"]

        def calls():
            return [
                client.bounds(dnf(*L2), overrides={"x1": 0.3}),
                client.gradients(dnf(*L3), overrides={"x5": 0.4}),
                client.what_if(dnf(*L1), "x2", [0.0, 0.5, 1.0]),
                client.sweep(
                    dnf(*L2), [None, {"x1": 0.2}], kind="values"
                ),
                client.top_k(
                    [dnf(*L1), dnf(*L2), dnf(*L3)],
                    2,
                    overrides={"x0": 0.3},
                ),
            ]

        async def both():
            first = await asyncio.gather(*calls())
            second = await asyncio.gather(*calls())
            return first, second

        first, second = run(both())
        for cold, warm in zip(first, second):
            assert "cached" not in cold
            assert warm.pop("cached") is True
            assert warm == cold

    def test_version_bump_invalidates(self, served):
        client = served["client"]
        warmed = run(client.evaluate(dnf(*L1)))
        hit = run(client.evaluate(dnf(*L1)))
        assert hit["cached"] is True
        # Grow the store: new version, cached responses must not serve.
        engine = ConfidenceEngine(served["registry"])
        extra = dnf(*COLD)
        served["cache"].put(extra, engine.compile_circuit(extra))
        served["cache"].save(served["path"])
        fresh = run(client.evaluate(dnf(*L1)))
        assert "cached" not in fresh
        assert fresh["store_version"] != warmed["store_version"]
        assert fresh["value"] == warmed["value"]  # same circuit bytes

    def test_engine_strategy_is_never_cached(self, served):
        client = served["client"]
        before = len(served["serving"].responses)
        response = run(client.evaluate(dnf(*COLD)))
        assert response["strategy"] == "engine"
        assert len(served["serving"].responses) == before

    def test_refining_bounds_bypass_cache(self, served):
        client = served["client"]
        misses_before = served["serving"].stats.response_misses
        run(client.bounds(dnf(*L2), refine=True))
        assert served["serving"].stats.response_misses == misses_before

    def test_disabled_cache_never_hits(self, served):
        serving = ServingEngine(
            served["stores"],
            None,
            ServingConfig(response_cache_entries=0),
        )
        client = ServingClient(serving)
        run(client.evaluate(dnf(*L1)))
        repeat = run(client.evaluate(dnf(*L1)))
        assert "cached" not in repeat
        assert serving.stats.response_hits == 0
        assert len(serving.responses) == 0


    def test_registry_write_invalidates(self, served):
        """An in-place probability write changes answers without
        touching the store file, so it must not replay old responses."""
        client = served["client"]
        before = run(client.evaluate(dnf(*L1), overrides={"x0": 0.5}))
        served["registry"].set_boolean("x2", 0.9)
        after = run(client.evaluate(dnf(*L1), overrides={"x0": 0.5}))
        assert "cached" not in after
        expected = served["cache"].get(dnf(*L1)).evaluate({"x0": 0.5})
        assert after["value"] == expected != before["value"]


# ----------------------------------------------------------------------
# Response cache transparency: a random request script answers alike
# with and without the cache
# ----------------------------------------------------------------------
BIG = (
    ("x0", "x1"), ("x1", "x2"), ("x2", "x3"), ("x3", "x4"),
    ("x4", "x5"), ("x5", "x6"), ("x6", "x7"), ("x7", "x8"),
    ("x8", "x9"), ("x9", "x0"), ("x0", "x5"), ("x2", "x7"),
)
SCRIPT_LINEAGES = [dnf(*L1), dnf(*L2), dnf(*L3), dnf(*BIG), dnf(*COLD)]
SCRIPT_LINEAGE = st.sampled_from(SCRIPT_LINEAGES)
SCRIPT_PROBABILITY = st.sampled_from([0.0, 0.25, 0.5, 1.0])
SCRIPT_VARIABLE = st.sampled_from([f"x{i}" for i in range(10)])
SCRIPT_OVERRIDES = st.none() | st.dictionaries(
    SCRIPT_VARIABLE, SCRIPT_PROBABILITY, min_size=1, max_size=2
)
SCRIPT_REQUEST = st.one_of(
    st.tuples(st.just("evaluate"), SCRIPT_LINEAGE, SCRIPT_OVERRIDES),
    st.tuples(
        st.just("bounds"), SCRIPT_LINEAGE, SCRIPT_OVERRIDES, st.booleans()
    ),
    st.tuples(st.just("gradients"), SCRIPT_LINEAGE, SCRIPT_OVERRIDES),
    st.tuples(
        st.just("what_if"),
        SCRIPT_LINEAGE,
        SCRIPT_VARIABLE,
        st.lists(SCRIPT_PROBABILITY, min_size=1, max_size=3),
    ),
    st.tuples(
        st.just("sweep"),
        SCRIPT_LINEAGE,
        st.lists(SCRIPT_OVERRIDES, min_size=1, max_size=3),
        st.sampled_from(["values", "bounds"]),
        st.booleans(),
    ),
    st.tuples(
        st.just("top_k"),
        st.lists(SCRIPT_LINEAGE, min_size=1, max_size=3),
        st.integers(1, 3),
        SCRIPT_OVERRIDES,
    ),
)


@pytest.fixture(scope="module")
def script_store(tmp_path_factory):
    """Three exact circuits and one partial one in a store file."""
    registry = make_registry()
    engine = ConfidenceEngine(registry)
    cache = CircuitCache()
    for lineage in SCRIPT_LINEAGES[:3]:
        cache.put(lineage, engine.compile_circuit(lineage))
    partial = engine.compile_circuit(dnf(*BIG), max_nodes=8)
    assert partial.residuals, "need a truncated circuit"
    cache.put(dnf(*BIG), partial, exact_only=False)
    path = tmp_path_factory.mktemp("script") / "store.bin"
    cache.save(path)
    return registry, path


def play(client, request):
    op, *args = request
    if op == "evaluate":
        return client.evaluate(args[0], overrides=args[1])
    if op == "bounds":
        return client.bounds(args[0], overrides=args[1], refine=args[2])
    if op == "gradients":
        return client.gradients(args[0], overrides=args[1])
    if op == "what_if":
        return client.what_if(*args)
    if op == "sweep":
        return client.sweep(args[0], args[1], kind=args[2], refine=args[3])
    return client.top_k(args[0], args[1], overrides=args[2])


#: The strategies a cache hit may replay.  A hit replays the first
#: answer's strategy, which may name a cold compile (``engine-compile``,
#: or ``mixed`` for a top-k) whose circuit an uncached engine later
#: reports as ``overlay``.
REPLAYABLE = {"store", "overlay", "engine-compile", "mixed"}


class TestResponseCacheTransparency:
    """The response cache is invisible: a random script of requests
    (every op, refining or not, over stored exact and partial circuits
    and a cold lineage) answers the same on an engine with the cache
    and one without, and no ``engine`` answer is ever cached.  A hit
    matches in every field but ``strategy`` (see :data:`REPLAYABLE`);
    a miss matches in every field."""

    def engine(self, script_store, entries):
        registry, path = script_store
        stores = CircuitStoreService(registry, {"main": path})
        serving = ServingEngine(
            stores,
            ConfidenceEngine(registry),
            ServingConfig(response_cache_entries=entries),
        )
        return serving, ServingClient(serving)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(script=st.lists(SCRIPT_REQUEST, min_size=1, max_size=12))
    def test_cache_changes_no_answer(self, script_store, script):
        cached, cached_client = self.engine(script_store, 1024)
        plain, plain_client = self.engine(script_store, 0)

        async def answer(client, request):
            try:
                return await play(client, request)
            except ServingError as exc:
                return {"error": exc.code}

        async def both():
            for request in script:
                want = await answer(plain_client, request)
                got = await answer(cached_client, request)
                if got.pop("cached", False):
                    assert got.pop("strategy") in REPLAYABLE
                    want.pop("strategy", None)
                assert got == want, request
                assert all(
                    response["strategy"] != "engine"
                    for response in cached.responses._entries.values()
                )

        run(both())
        assert len(plain.responses) == 0

    def test_exact_compile_drops_stale_partial_answers(self, script_store):
        # evaluate needs an exact circuit, so a partial stored lineage
        # compiles one into the overlay, which from then on answers
        # bounds; the partial answer cached before must not replay.
        serving, client = self.engine(script_store, 1024)
        lineage = dnf(*BIG)

        async def script():
            before = await client.bounds(lineage)
            await client.evaluate(lineage, overrides={"x0": 0.3})
            return before, await client.bounds(lineage)

        before, after = run(script())
        assert before["strategy"] == "store" and before["width"] > 0
        assert "cached" not in after
        assert after["strategy"] == "overlay" and after["width"] == 0.0


# ----------------------------------------------------------------------
# Lineage memo: each wire lineage is decoded and checked once
# ----------------------------------------------------------------------
def count_decodes(monkeypatch):
    """Count calls of the engine module's ``dnf_from_json``."""
    calls = []
    decode = serving_engine.dnf_from_json

    def counting(data):
        calls.append(data)
        return decode(data)

    monkeypatch.setattr(serving_engine, "dnf_from_json", counting)
    return calls


def wire(*clauses):
    return dnf_to_json(dnf(*clauses))


class TestLineageMemo:
    def test_repeated_lineage_decodes_once(self, served, monkeypatch):
        calls = count_decodes(monkeypatch)
        client = served["wire"]
        circuit = served["cache"].get(dnf(*L1))
        for p in (0.1, 0.2, 0.3):
            response = run(
                client.request(
                    {"op": "evaluate", "lineage": wire(*L1),
                     "overrides": [["x0", p]]}
                )
            )
            assert response["value"] == circuit.evaluate({"x0": p})
        run(
            client.request(
                {"op": "top_k", "k": 2,
                 "lineages": [wire(*L1), wire(*L2), wire(*L3)]}
            )
        )
        assert len(calls) == 3  # L1 once, then L2 and L3 once each

    def test_probability_write_clears_memo(self, served, monkeypatch):
        calls = count_decodes(monkeypatch)
        serving, registry = served["serving"], served["registry"]
        requests = [
            {"op": "evaluate", "lineage": wire(*L1),
             "overrides": [["x0", 0.4]]},
            {"op": "bounds", "lineage": wire(*L2)},
            {"op": "what_if", "lineage": wire(*L3), "variable": "x5",
             "probabilities": [0.0, 0.5, 1.0]},
            {"op": "top_k", "k": 2,
             "lineages": [wire(*L1), wire(*L2), wire(*L3)]},
        ]

        def answers(engine):
            client = ASGIClient(ServingApp(engine))
            return [run(client.request(dict(r))) for r in requests]

        answers(serving)
        assert len(calls) == 3 and len(serving._lineages) == 3
        registry.set_boolean("x1", 0.61)
        warm = answers(serving)
        assert len(calls) == 6  # every lineage decoded again
        fresh = answers(
            ServingEngine(served["stores"], ConfidenceEngine(registry))
        )
        for response in warm:
            assert "cached" not in response
        assert warm == fresh

    def test_unknown_variable_is_never_stored(self, served, monkeypatch):
        calls = count_decodes(monkeypatch)
        bad = [[["no_such_variable", True]], [["x0", True]]]
        for attempt in range(3):
            with pytest.raises(ServingError) as info:
                run(
                    served["wire"].request(
                        {"op": "evaluate", "lineage": bad}
                    )
                )
            assert info.value.code == "bad-request"
            assert "no_such_variable" in info.value.message
        assert len(calls) == 3
        assert served["serving"]._lineages == {}

    def test_memo_never_exceeds_its_cap(self, served, monkeypatch):
        monkeypatch.setattr(serving_engine, "_LINEAGE_MEMO_ENTRIES", 3)
        serving = served["serving"]
        circuit = served["cache"].get(dnf(*L1))
        client = served["wire"]
        # Every clause order of L1 is a distinct JSON text for the same
        # stored lineage.
        spellings = list(itertools.permutations(wire(*L1)))
        assert len(spellings) == 6
        for spelling in spellings * 2:
            response = run(
                client.request(
                    {"op": "evaluate", "lineage": list(spelling)}
                )
            )
            assert response["value"] == circuit.evaluate()
            assert response["strategy"] == "store"
            assert 1 <= len(serving._lineages) <= 3

    def test_tuple_spelling_decodes_like_its_list(self, served):
        """The memo keys on JSON text, where a tuple and a list read the
        same; the codec reads them the same too."""
        serving = served["serving"]
        as_list = wire(*L1)
        as_tuple = tuple(
            tuple(tuple(pair) for pair in clause) for clause in as_list
        )
        assert dnf_from_json(as_tuple) == dnf_from_json(as_list)
        first = run(serving.handle({"op": "evaluate", "lineage": as_tuple}))
        second = run(serving.handle({"op": "evaluate", "lineage": as_list}))
        assert first["value"] == second["value"]
        assert len(serving._lineages) == 1


# ----------------------------------------------------------------------
# Per-tenant token-bucket quotas
# ----------------------------------------------------------------------
class TestQuotas:
    def make(self, served, **kwargs):
        serving = ServingEngine(
            served["stores"], None, ServingConfig(**kwargs)
        )
        return serving, ServingClient(serving)

    def test_over_rate_tenant_sheds_with_429(self, served, fake_clock):
        serving, client = self.make(
            served, quota_rps=1.0, quota_burst=2.0
        )
        circuit = served["cache"].get(dnf(*L1))

        async def scenario():
            await client.evaluate(dnf(*L1), tenant="hammer")
            await client.evaluate(dnf(*L1), tenant="hammer")
            with pytest.raises(ServingError) as info:
                await client.evaluate(dnf(*L1), tenant="hammer")
            assert info.value.code == "quota-exceeded"
            assert info.value.status == 429
            retry = info.value.retry_after_seconds
            assert retry is not None and retry > 0.0
            # An unrelated tenant is completely unaffected.
            polite = await client.evaluate(dnf(*L1), tenant="polite")
            assert polite["value"] == circuit.evaluate(None)
            # Tokens accrue with (fake) time; the hammer recovers.
            fake_clock.advance(1.0)
            again = await client.evaluate(dnf(*L1), tenant="hammer")
            assert again["value"] == circuit.evaluate(None)

        run(scenario())
        assert serving.stats.quota_rejections == 1
        assert serving.stats.errors["quota-exceeded"] == 1
        # The rejected request never counted as admitted traffic.
        assert serving.stats.tenants["hammer"] == 3

    def test_per_tenant_rate_overrides(self, served, fake_clock):
        serving, client = self.make(
            served,
            quota_rps=1.0,
            quota_burst=1.0,
            tenant_quota_rps={"vip": None, "slow": 0.5},
        )

        async def scenario():
            # vip is exempt from metering entirely.
            for _ in range(5):
                await client.evaluate(dnf(*L1), tenant="vip")
            # slow gets its own (smaller) bucket.
            await client.evaluate(dnf(*L1), tenant="slow")
            with pytest.raises(ServingError) as info:
                await client.evaluate(dnf(*L1), tenant="slow")
            assert info.value.retry_after_seconds == pytest.approx(2.0)

        run(scenario())
        assert serving.stats.quota_rejections == 1

    def test_wire_carries_retry_after_header(self, served, fake_clock):
        serving = ServingEngine(
            served["stores"],
            None,
            ServingConfig(quota_rps=0.5, quota_burst=1.0),
        )
        app = ServingApp(serving)

        async def post(body):
            scope = {
                "type": "http",
                "asgi": {"version": "3.0"},
                "http_version": "1.1",
                "method": "POST",
                "scheme": "http",
                "path": "/v1/evaluate",
                "raw_path": b"/v1/evaluate",
                "query_string": b"",
                "headers": [(b"content-type", b"application/json")],
            }
            raw = json.dumps(body).encode()
            sent = []

            async def receive():
                return {
                    "type": "http.request",
                    "body": raw,
                    "more_body": False,
                }

            async def send(message):
                sent.append(message)

            await app(scope, receive, send)
            start = next(
                m for m in sent if m["type"] == "http.response.start"
            )
            return start["status"], dict(start["headers"])

        from repro.serving.codec import dnf_to_json

        body = {"lineage": dnf_to_json(dnf(*L1)), "store": "main"}

        async def scenario():
            status, headers = await post(body)
            assert status == 200
            assert b"retry-after" not in headers
            status, headers = await post(body)
            assert status == 429
            assert int(headers[b"retry-after"]) >= 1

        run(scenario())


# ----------------------------------------------------------------------
# Runtime store catalog (add / drop / reload / serve_directory)
# ----------------------------------------------------------------------
def build_store(registry, path, specs):
    engine = ConfidenceEngine(registry)
    cache = CircuitCache()
    for spec in specs:
        lineage = dnf(*spec)
        cache.put(lineage, engine.compile_circuit(lineage))
    cache.save(path)
    return path


class TestCatalog:
    def test_add_evaluate_drop_over_the_wire(self, served, tmp_path):
        wire = served["wire"]
        extra = build_store(
            served["registry"], tmp_path / "extra.bin", [COLD]
        )
        added = run(wire.add_store("extra", str(extra)))
        assert added["loaded"] is True
        assert sorted(added["stores"]) == ["extra", "main"]
        response = run(wire.evaluate(dnf(*COLD), store="extra"))
        assert response["strategy"] == "store"
        dropped = run(wire.drop_store("extra"))
        assert dropped["stores"] == ["main"]
        with pytest.raises(ServingError) as info:
            run(wire.evaluate(dnf(*COLD), store="extra"))
        assert info.value.code == "unknown-store"

    def test_lazy_add_loads_on_first_request(self, served, tmp_path):
        wire = served["wire"]
        extra = build_store(
            served["registry"], tmp_path / "lazy.bin", [COLD]
        )
        added = run(wire.add_store("lazy", str(extra), lazy=True))
        assert added["loaded"] is False
        assert "lazy" in added["stores"]
        response = run(wire.evaluate(dnf(*COLD), store="lazy"))
        assert response["strategy"] == "store"

    def test_reload_route_forces_fresh_snapshot(self, served):
        wire = served["wire"]
        before = served["stores"].reloads
        described = run(wire.reload_store("main"))
        assert described["name"] == "main"
        assert described["entries"] == 3
        assert served["stores"].reloads == before + 1

    def test_serve_directory_lazy_and_rescan(self, served, tmp_path):
        wire = served["wire"]
        directory = tmp_path / "shard"
        directory.mkdir()
        build_store(served["registry"], directory / "alpha.rcir", [L1])
        build_store(served["registry"], directory / "beta.rcir", [L2])
        result = run(wire.serve_directory(str(directory)))
        assert sorted(result["added"]) == ["alpha", "beta"]
        response = run(wire.evaluate(dnf(*L1), store="alpha"))
        assert response["strategy"] == "store"
        # A file dropped in *after* registration is found on miss.
        build_store(served["registry"], directory / "gamma.rcir", [L3])
        late = run(wire.evaluate(dnf(*L3), store="gamma"))
        assert late["strategy"] == "store"

    def test_catalog_requests_are_validated(self, served):
        wire = served["wire"]
        with pytest.raises(ServingError) as info:
            run(wire.http("POST", "/v1/stores/add", {"name": "x"}))
        assert info.value.code == "bad-request"
        with pytest.raises(ServingError) as info:
            run(wire.http("POST", "/v1/stores/frobnicate", {}))
        assert info.value.status == 404

    def test_same_size_atomic_replace_still_reloads(
        self, served, tmp_path
    ):
        """The inode component catches an atomic same-size replace.

        ``os.replace`` of an equal-length store within one mtime tick
        leaves ``mtime_ns:size`` unchanged — the old two-part version
        key would serve the stale snapshot forever.
        """
        stores = served["stores"]
        before = stores.snapshot("main")
        path = served["path"]
        stat = os.stat(path)
        clone = tmp_path / "clone.bin"
        clone.write_bytes(path.read_bytes())
        os.utime(clone, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        os.replace(clone, path)
        after_stat = os.stat(path)
        # The replace is invisible to the old key...
        assert (after_stat.st_mtime_ns, after_stat.st_size) == (
            stat.st_mtime_ns,
            stat.st_size,
        )
        # ...but not to the inode-qualified one.
        reload_count = stores.reloads
        after = stores.snapshot("main")
        assert after.version != before.version
        assert stores.reloads == reload_count + 1
        assert len(after) == len(before)


# ----------------------------------------------------------------------
# Deadline vs. micro-batch interaction
# ----------------------------------------------------------------------
class TestDeadlineMicrobatch:
    def test_expired_row_fails_alone_batch_survives(
        self, served, fake_clock
    ):
        """A row whose deadline expires while queued in the batcher
        must 504 by itself — its batch-mates still get exact values."""
        serving = ServingEngine(
            served["stores"],
            ConfidenceEngine(served["registry"]),
            # Window far beyond the test's lifetime, and a cold request
            # held on the engine lock raises the peak to two before the
            # doomed row parks, so the idle rule cannot flush either:
            # only the max_batch=2 fill can, and the doomed row
            # provably sits queued while the clock jumps past its
            # deadline.
            ServingConfig(batch_window_seconds=60.0, max_batch=2),
        )
        client = ServingClient(serving)
        circuit = served["cache"].get(dnf(*L1))

        async def scenario():
            serving._engine_lock.acquire()
            try:
                cold = await hold_engine(serving)
                doomed = asyncio.ensure_future(
                    client.evaluate(
                        dnf(*L1),
                        overrides={"x0": 0.3},
                        deadline_seconds=0.05,
                    )
                )
                # Let the doomed request run until its row is enqueued.
                while not serving._batcher.buckets:
                    await asyncio.sleep(0)
                assert not doomed.done()
                fake_clock.advance(1.0)  # deadline long gone, row queued
                healthy = await client.evaluate(
                    dnf(*L1), overrides={"x0": 0.7}
                )
                with pytest.raises(ServingError) as info:
                    await doomed
                assert info.value.code == "deadline-exceeded"
            finally:
                serving._engine_lock.release()
            await cold
            return healthy

        healthy = run(asyncio.wait_for(scenario(), 5))
        # The shared flush computed both rows; the survivor's value is
        # bit-identical to the scalar reference.
        assert healthy["value"] == circuit.evaluate({"x0": 0.7})
        assert serving.stats.batches == 1
        assert serving.stats.batched_rows == 2
        assert serving.stats.idle_flushes == 0
        assert serving.stats.errors["deadline-exceeded"] == 1
