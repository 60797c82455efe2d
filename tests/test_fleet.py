"""Serving fleet: real sockets, real processes, bit-identical answers.

End-to-end acceptance for the scale-out tier: a
:class:`~repro.serving.ServingFleet` of worker processes over one
persisted store file must answer exactly (``==``) like the in-process
circuit path, route repeated point queries onto a warm response cache,
replicate catalog changes, shed an over-quota tenant with 429 +
retry-after while its neighbours are unaffected, and shut down
cleanly.  Everything here runs over the stdlib HTTP/1.1 bridge (the
container has no uvicorn), which is exactly the configuration CI
benchmarks.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.circuits import CircuitCache
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.variables import VariableRegistry
from repro.engine import ConfidenceEngine
from repro.serving import (
    FleetClient,
    FleetConfig,
    ServingConfig,
    ServingError,
    ServingFleet,
)
from repro.serving.codec import dnf_to_json


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


def build_store(registry, path, specs):
    engine = ConfidenceEngine(registry)
    cache = CircuitCache()
    circuits = {}
    for spec in specs:
        lineage = dnf(*spec)
        circuit = engine.compile_circuit(lineage)
        cache.put(lineage, circuit)
        circuits[spec] = circuit
    cache.save(path)
    return circuits


@pytest.fixture(scope="module")
def fleet_stack(tmp_path_factory):
    """One 2-worker fleet shared by the module (start-up is the cost)."""
    tmp_path = tmp_path_factory.mktemp("fleet")
    registry = make_registry()
    circuits = build_store(
        registry, tmp_path / "store.bin", [L1, L2, L3]
    )
    fleet = ServingFleet(
        registry,
        {"main": tmp_path / "store.bin"},
        config=FleetConfig(
            workers=2,
            serving=ServingConfig(
                tenant_quota_rps={"metered": 2.0},
                quota_burst=None,
            ),
        ),
    )
    addresses = fleet.start()
    yield {
        "registry": registry,
        "circuits": circuits,
        "fleet": fleet,
        "addresses": addresses,
        "tmp_path": tmp_path,
    }
    fleet.close()


def run(coroutine):
    return asyncio.run(coroutine)


class TestFleetServing:
    def test_two_workers_bit_identical(self, fleet_stack):
        assert len(fleet_stack["addresses"]) == 2
        assert fleet_stack["fleet"].alive == 2
        circuits = fleet_stack["circuits"]

        async def scenario():
            client = FleetClient(fleet_stack["addresses"])
            try:
                for spec in (L1, L2, L3):
                    for overrides in (None, {"x0": 0.9}, {"x5": 0.25}):
                        response = await client.evaluate(
                            dnf(*spec), overrides=overrides, store="main"
                        )
                        assert response["strategy"] == "store"
                        assert response["value"] == circuits[
                            spec
                        ].evaluate(overrides)
                bounds = await client.bounds(dnf(*L2), store="main")
                assert tuple(bounds["bounds"]) == circuits[
                    L2
                ].evaluate_bounds()
            finally:
                await client.close()

        run(scenario())

    def test_bodies_larger_than_one_read_round_trip(self, fleet_stack):
        # Socket reads are capped at 64 KiB on both ends; a request and
        # a response several reads long must still arrive whole.
        from repro.serving.fleet import _READ_BYTES

        circuit = fleet_stack["circuits"][L1]
        scenarios = [
            {"x0": (index % 97 + 1) / 100.0, "x1": 0.5} for index in range(3000)
        ]

        async def scenario():
            client = FleetClient(fleet_stack["addresses"])
            try:
                response = await client.sweep(
                    dnf(*L1), scenarios, store="main"
                )
                connection = next(
                    c for c in client._connections if c is not None
                )
                assert connection.transport.max_size == _READ_BYTES
            finally:
                await client.close()
            return response

        response = run(scenario())
        assert response["results"] == [
            circuit.evaluate(overrides) for overrides in scenarios
        ]

    def test_affinity_routes_repeats_onto_warm_cache(self, fleet_stack):
        circuits = fleet_stack["circuits"]

        async def scenario():
            client = FleetClient(fleet_stack["addresses"])
            try:
                payload = {"lineage": "probe"}
                assert client.worker_for(payload) == client.worker_for(
                    payload
                )
                first = await client.evaluate(
                    dnf(*L1), overrides={"x2": 0.5}, store="main"
                )
                second = await client.evaluate(
                    dnf(*L1), overrides={"x2": 0.5}, store="main"
                )
                assert second["cached"] is True
                expected = circuits[L1].evaluate({"x2": 0.5})
                assert first["value"] == second["value"] == expected
                totals = await client.aggregate_stats()
                assert totals["response_hits"] >= 1
            finally:
                await client.close()

        run(scenario())

    def test_quota_sheds_metered_tenant_only(self, fleet_stack):
        async def scenario():
            client = FleetClient(fleet_stack["addresses"])
            try:
                rejections = 0
                retry_after = None
                # Burst defaults to 2x the 2 rps rate => 4 tokens; the
                # 12-request hammer must overflow the bucket.
                for _ in range(12):
                    try:
                        await client.evaluate(
                            dnf(*L3), store="main", tenant="metered"
                        )
                    except ServingError as exc:
                        assert exc.code == "quota-exceeded"
                        assert exc.status == 429
                        rejections += 1
                        retry_after = exc.retry_after_seconds
                assert rejections > 0
                assert retry_after is not None and retry_after > 0.0
                # Unmetered tenants on the same worker sail through.
                for _ in range(12):
                    response = await client.evaluate(
                        dnf(*L3), store="main", tenant="free"
                    )
                    assert "value" in response
                totals = await client.aggregate_stats()
                assert totals["quota_rejections"] >= rejections
            finally:
                await client.close()

        run(scenario())

    def test_catalog_replicates_across_workers(self, fleet_stack):
        tmp_path = fleet_stack["tmp_path"]
        extra_circuits = build_store(
            fleet_stack["registry"], tmp_path / "extra.bin", [COLD]
        )

        async def scenario():
            client = FleetClient(fleet_stack["addresses"])
            try:
                results = await client.add_store(
                    "extra", str(tmp_path / "extra.bin")
                )
                assert len(results) == 2
                assert all(
                    "extra" in result["stores"] for result in results
                )
                # Every worker can serve it (bypass affinity on purpose).
                for index in range(2):
                    response = await client.http(
                        "POST",
                        "/v1/evaluate",
                        {
                            "lineage": dnf_to_json(dnf(*COLD)),
                            "store": "extra",
                        },
                        worker=index,
                    )
                    assert response["value"] == extra_circuits[
                        COLD
                    ].evaluate(None)
                dropped = await client.drop_store("extra")
                assert all(
                    "extra" not in result["stores"] for result in dropped
                )
                with pytest.raises(ServingError) as info:
                    await client.evaluate(dnf(*COLD), store="extra")
                assert info.value.code == "unknown-store"
            finally:
                await client.close()

        run(scenario())

    def test_every_catalog_call_reaches_every_worker(self, fleet_stack):
        directory = fleet_stack["tmp_path"] / "served"
        directory.mkdir()
        circuits = build_store(
            fleet_stack["registry"], directory / "shard.rcir", [COLD]
        )

        async def scenario():
            client = FleetClient(fleet_stack["addresses"])
            try:
                served = await client.serve_directory(str(directory))
                assert [result["added"] for result in served] == [
                    ["shard"],
                    ["shard"],
                ]
                reloaded = await client.reload_store("shard")
                assert [result["name"] for result in reloaded] == [
                    "shard",
                    "shard",
                ]
                assert all(result["entries"] == 1 for result in reloaded)
                listed = await client.stores()
                assert all("shard" in result["stores"] for result in listed)
                for index in range(2):
                    response = await client.http(
                        "POST",
                        "/v1/evaluate",
                        {
                            "lineage": dnf_to_json(dnf(*COLD)),
                            "store": "shard",
                        },
                        worker=index,
                    )
                    assert response["strategy"] == "store"
                    assert response["value"] == circuits[COLD].evaluate(
                        None
                    )
                # Retire it for the module's other tests: file first,
                # or the served directory re-registers it on a miss.
                (directory / "shard.rcir").unlink()
                await client.drop_store("shard")
            finally:
                await client.close()

        run(scenario())

    def test_healthz_and_stats_per_worker(self, fleet_stack):
        async def scenario():
            client = FleetClient(fleet_stack["addresses"])
            try:
                health = await client.healthz()
                assert [entry["status"] for entry in health] == [
                    "ok",
                    "ok",
                ]
                summaries = await client.stats()
                assert len(summaries) == 2
                for summary in summaries:
                    assert "requests_total" in summary
                    assert "response_hit_ratio" in summary
            finally:
                await client.close()

        run(scenario())


class TestFleetLifecycle:
    def test_close_is_clean_and_idempotent(self, tmp_path):
        registry = make_registry()
        build_store(registry, tmp_path / "store.bin", [L1])
        fleet = ServingFleet(
            registry,
            {"main": tmp_path / "store.bin"},
            config=FleetConfig(workers=1),
        )
        with fleet:
            assert fleet.alive == 1

            async def scenario():
                client = FleetClient(fleet.addresses)
                try:
                    response = await client.evaluate(
                        dnf(*L1), store="main"
                    )
                    assert response["strategy"] == "store"
                finally:
                    await client.close()

            run(scenario())
        assert fleet.alive == 0
        fleet.close()  # idempotent

    def test_zero_workers_rejected(self, tmp_path):
        registry = make_registry()
        build_store(registry, tmp_path / "store.bin", [L1])
        with pytest.raises(ValueError):
            ServingFleet(
                registry,
                {"main": tmp_path / "store.bin"},
                config=FleetConfig(workers=0),
            )

    def test_crashed_worker_is_respawned(self, tmp_path):
        """Kill a worker mid-run; the supervisor must restore the fleet."""
        registry = make_registry()
        circuits = build_store(registry, tmp_path / "store.bin", [L1, L2])
        fleet = ServingFleet(
            registry,
            {"main": tmp_path / "store.bin"},
            config=FleetConfig(
                workers=2,
                restart_budget=2,
                restart_check_seconds=0.05,
            ),
        )
        with fleet:
            victim_index = 1
            victim_address = fleet.addresses[victim_index]
            os.kill(fleet.pids[victim_index], signal.SIGKILL)
            # Real wall clock: process death and respawn are OS work.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if fleet.restarts >= 1 and fleet.alive == 2:
                    break
                time.sleep(0.05)
            assert fleet.restarts == 1
            assert fleet.alive == 2
            # The replacement got a fresh port at the same slot.
            replacement = fleet.addresses[victim_index]
            assert replacement != victim_address

            async def scenario():
                client = FleetClient(fleet.addresses)
                try:
                    response = await client.http(
                        "POST",
                        "/v1/evaluate",
                        {
                            "lineage": dnf_to_json(dnf(*L2)),
                            "store": "main",
                        },
                        worker=victim_index,
                    )
                    assert response["value"] == circuits[L2].evaluate(None)
                finally:
                    await client.close()

            run(scenario())
        assert fleet.alive == 0

    def test_restart_budget_zero_only_reaps(self, tmp_path):
        registry = make_registry()
        build_store(registry, tmp_path / "store.bin", [L1])
        fleet = ServingFleet(
            registry,
            {"main": tmp_path / "store.bin"},
            config=FleetConfig(
                workers=1, restart_budget=0, restart_check_seconds=0.05
            ),
        )
        with fleet:
            assert fleet._supervisor is None
            os.kill(fleet.pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while fleet.alive and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(0.2)  # a respawn would need a poll cycle
            assert fleet.alive == 0
            assert fleet.restarts == 0

    def test_store_only_fleet_has_no_cold_path(self, tmp_path):
        registry = make_registry()
        build_store(registry, tmp_path / "store.bin", [L1])
        fleet = ServingFleet(
            registry,
            {"main": tmp_path / "store.bin"},
            config=FleetConfig(workers=1, engine=None),
        )
        with fleet:

            async def scenario():
                client = FleetClient(fleet.addresses)
                try:
                    with pytest.raises(ServingError) as info:
                        await client.evaluate(dnf(*COLD), store="main")
                    assert info.value.code == "unknown-circuit"
                finally:
                    await client.close()

            run(scenario())


class TestQuotaRetry:
    """FleetClient.retry_quota: one Retry-After-guided retry on 429."""

    @staticmethod
    def make_client(responses, slept, retry_quota=True):
        client = FleetClient(
            [("127.0.0.1", 1)],
            retry_quota=retry_quota,
            sleep=lambda delay: slept.append(delay) or asyncio.sleep(0),
        )

        async def fake_http(method, path, body=None, *, worker=0):
            outcome = responses.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client.http = fake_http
        return client

    @staticmethod
    def quota_error(retry_after=0.37):
        return ServingError(
            "quota-exceeded",
            "tenant over quota",
            status=429,
            details={"retry_after_seconds": retry_after},
        )

    def test_single_retry_after_429(self):
        slept = []
        client = self.make_client(
            [self.quota_error(0.37), {"value": 1.0}], slept
        )

        async def scenario():
            return await client.request({"op": "evaluate", "tenant": "m"})

        assert run(scenario()) == {"value": 1.0}
        assert slept == [0.37]

    def test_second_429_surfaces(self):
        slept = []
        client = self.make_client(
            [self.quota_error(0.1), self.quota_error(0.2)], slept
        )

        async def scenario():
            with pytest.raises(ServingError) as info:
                await client.request({"op": "evaluate"})
            assert info.value.status == 429

        run(scenario())
        assert slept == [0.1]  # exactly one retry, no loop

    def test_opt_out_surfaces_immediately(self):
        slept = []
        client = self.make_client(
            [self.quota_error()], slept, retry_quota=False
        )

        async def scenario():
            with pytest.raises(ServingError):
                await client.request({"op": "evaluate"})

        run(scenario())
        assert slept == []

    def test_429_without_retry_after_surfaces(self):
        slept = []
        client = self.make_client(
            [ServingError("overloaded", "shed", status=429)], slept
        )

        async def scenario():
            with pytest.raises(ServingError):
                await client.request({"op": "evaluate"})

        run(scenario())
        assert slept == []

    def test_non_quota_errors_never_retry(self):
        slept = []
        client = self.make_client(
            [ServingError("unknown-store", "nope", status=404)], slept
        )

        async def scenario():
            with pytest.raises(ServingError) as info:
                await client.request({"op": "evaluate"})
            assert info.value.status == 404

        run(scenario())
        assert slept == []



class TestRouting:
    class Unencodable:
        """A lineage that fails the moment routing tries to encode it."""

        def __str__(self):
            raise AssertionError("lineage was encoded for routing")

    def test_one_worker_routes_without_encoding(self):
        client = FleetClient([("127.0.0.1", 1)])
        lineage = self.Unencodable()
        for payload in (
            {"op": "evaluate", "lineage": lineage},
            {"op": "top_k", "lineages": [lineage, lineage]},
            {"op": "evaluate"},
        ):
            assert client.worker_for(payload) == 0
        # The probe does fire where a hash is needed.
        two = FleetClient([("127.0.0.1", 1), ("127.0.0.1", 2)])
        with pytest.raises(AssertionError):
            two.worker_for({"lineage": lineage})
