"""Resumable anytime refinement: persisted sub-DNFs and circuit-refine.

The acceptance surface of the format-v2 + refinement-unification work:

- Format v2 stores carry each residual leaf's sub-DNF, so a reloaded
  partial circuit refines exactly like the in-memory original;
  format-v1 stores still load, read-only (sound bounds, no refinement).
- ``BatchComputation.refine`` resumes a cached partial circuit
  (strategy ``"circuit-refine"``) instead of re-running the
  ε-approximation — with a warm decomposition cache the resume does
  *zero* cold decomposition work, proven by cache-stats deltas.
- A truncated run persisted by one process resumes in another process
  bit-identically to a never-persisted circuit.
- ``refine_sweep_bounds`` edge cases: ``target_width`` reached
  mid-schedule, ``max_rounds=0``, and a scenario batch that touches no
  residual leaf.
- ``rank_answers(guided=True)`` certifies the same ordering as the
  widest-interval schedule.
- Serving ``refine:true`` write-back: progress survives requests (and
  the session's ``persist_circuits`` store), and partial circuits are
  never served where exact values are required.
"""

import asyncio
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.circuits import CircuitCache
from repro.circuits.serialize import (
    CircuitStoreError,
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    decode_circuit,
    encode_circuit,
    load_circuit_store,
    save_circuit_store,
)
from repro.circuits.sweep import refine_sweep_bounds, sweep_bounds
from repro.core.dnf import DNF
from repro.core.variables import VariableRegistry
from repro.db.session import ProbDB
from repro.db.topk import rank_answers
from repro.engine import ConfidenceEngine, EngineConfig
from repro.serving import CircuitStoreService, ServingEngine
from repro.serving.client import ServingClient


def run(coroutine):
    return asyncio.run(coroutine)


def make_registry(n=12):
    registry = VariableRegistry()
    for index in range(n):
        registry.add_boolean(f"x{index}", 0.08 + 0.06 * (index % 10))
    return registry


def cycle_lineage(n=12, chords=True):
    """A clause cycle (plus chords): dense sharing defeats independence
    decomposition, so small node budgets genuinely truncate."""
    names = [f"x{i}" for i in range(n)]
    clauses = [(names[i], names[(i + 1) % n]) for i in range(n)]
    if chords:
        clauses += [(names[i], names[(i + 5) % n]) for i in range(0, n, 2)]
    return DNF.from_positive_clauses(clauses)


def partial_circuit(engine, lineage, max_nodes=8):
    circuit = engine.compile_circuit(lineage, max_nodes=max_nodes)
    assert circuit.residuals, "expected the node budget to truncate"
    return circuit


# ----------------------------------------------------------------------
# Format v2: sub-DNFs round-trip; v1 loads read-only
# ----------------------------------------------------------------------
class TestFormatVersions:
    def test_v2_roundtrip_preserves_subdnfs(self):
        registry = make_registry()
        engine = ConfidenceEngine(registry)
        lineage = cycle_lineage()
        circuit = partial_circuit(engine, lineage)
        decoded, key = decode_circuit(
            encode_circuit(circuit, key=lineage), registry
        )
        assert key == lineage
        assert decoded.refinable
        assert [
            dnf for dnf in decoded.residual_dnfs
        ] == list(circuit.residual_dnfs)
        assert decoded.evaluate_bounds() == circuit.evaluate_bounds()

    def test_v2_reload_refines_bit_identically(self, tmp_path):
        registry = make_registry()
        engine = ConfidenceEngine(registry)
        lineage = cycle_lineage()
        circuit = partial_circuit(engine, lineage)
        path = tmp_path / "store.rcir"
        save_circuit_store(path, [(lineage, circuit)])
        loaded = dict(load_circuit_store(path, registry))[lineage]
        scenarios = [None, {"x1": 0.4}]
        _, expected = refine_sweep_bounds(
            circuit,
            scenarios,
            compile_subcircuit=engine.compile_circuit,
            max_rounds=3,
        )
        _, resumed = refine_sweep_bounds(
            loaded,
            scenarios,
            compile_subcircuit=engine.compile_circuit,
            max_rounds=3,
        )
        assert resumed == expected

    def test_v1_store_loads_readonly(self, tmp_path):
        registry = make_registry()
        engine = ConfidenceEngine(registry)
        lineage = cycle_lineage()
        circuit = partial_circuit(engine, lineage)
        path = tmp_path / "old.rcir"
        save_circuit_store(path, [(lineage, circuit)], format_version=1)
        loaded = dict(load_circuit_store(path, registry))[lineage]
        # Same sound bounds, but no recorded sub-DNFs: not refinable.
        assert loaded.evaluate_bounds() == circuit.evaluate_bounds()
        assert not loaded.refinable
        refined, bounds = refine_sweep_bounds(
            loaded,
            [None],
            compile_subcircuit=engine.compile_circuit,
            max_rounds=4,
        )
        assert refined is loaded
        assert bounds == sweep_bounds(loaded, [None])

    def test_unsupported_versions_rejected(self, tmp_path):
        registry = make_registry()
        engine = ConfidenceEngine(registry)
        lineage = cycle_lineage()
        circuit = partial_circuit(engine, lineage)
        with pytest.raises(CircuitStoreError, match="format version"):
            encode_circuit(circuit, format_version=99)
        path = tmp_path / "future.rcir"
        save_circuit_store(path, [(lineage, circuit)])
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")  # header version field
        path.write_bytes(bytes(data))
        with pytest.raises(CircuitStoreError):
            load_circuit_store(path, registry)

    def test_current_version_is_supported(self):
        assert FORMAT_VERSION in SUPPORTED_VERSIONS
        assert 1 in SUPPORTED_VERSIONS


# ----------------------------------------------------------------------
# Engine unification: refine resumes cached partial circuits
# ----------------------------------------------------------------------
class TestCircuitRefine:
    def _warm_engine(self):
        registry = make_registry()
        engine = ConfidenceEngine(registry, epsilon=0.0)
        lineage = cycle_lineage()
        # Converged run + full compile first: the decomposition cache
        # now holds the complete trace, so everything below is a replay.
        engine.compute(lineage, epsilon=0.0)
        engine.compile_circuit(lineage)
        cache = CircuitCache()
        cache.put(
            lineage, partial_circuit(engine, lineage), exact_only=False
        )
        engine.circuit_source = cache.get
        return engine, lineage

    def test_refine_resumes_with_zero_cold_decomposition(self):
        engine, lineage = self._warm_engine()
        batch = engine.refine_many(
            [lineage], epsilon=0.0, initial_steps=2, step_growth=2
        )
        previous = batch.results[0]
        assert not previous.converged
        before = engine.cache.stats()["misses"]
        result = batch.refine(0)
        assert result.strategy == "circuit-refine"
        assert result.details["cold_steps"] == 0
        assert engine.cache.stats()["misses"] == before
        assert result.lower >= previous.lower
        assert result.upper <= previous.upper
        assert result.width() < previous.width()

    def test_refine_converges_through_circuit_rounds(self):
        engine, lineage = self._warm_engine()
        exact = engine.compute(lineage, epsilon=0.0)
        batch = engine.refine_many(
            [lineage], epsilon=0.0, initial_steps=2, step_growth=2
        )
        strategies = set()
        for _ in range(64):
            result = batch.refine(0)
            strategies.add(result.strategy)
            if result.converged:
                break
        assert result.converged
        assert "circuit-refine" in strategies
        assert result.lower <= exact.probability <= result.upper

    def test_refine_without_circuit_falls_back(self):
        registry = make_registry()
        engine = ConfidenceEngine(registry, epsilon=0.0)
        lineage = cycle_lineage()
        batch = engine.refine_many(
            [lineage], epsilon=0.0, initial_steps=2, step_growth=2
        )
        result = batch.refine(0)
        assert result.strategy != "circuit-refine"

    def test_sharded_refine_uses_cached_circuit(self):
        engine, lineage = self._warm_engine()
        batch = engine.refine_many(
            [lineage, cycle_lineage(10)],
            epsilon=0.0,
            initial_steps=2,
            step_growth=2,
            workers=2,
        )
        try:
            previous = batch.results[0]
            if previous.converged:
                pytest.skip("initial sharded round already converged")
            result = batch.refine(0)
            assert result.width() <= previous.width()
            assert result.strategy == "circuit-refine"
        finally:
            close = getattr(batch, "close", None)
            if close is not None:
                close()
            engine.close()


# ----------------------------------------------------------------------
# refine_sweep_bounds edge cases
# ----------------------------------------------------------------------
class TestRefineSweepEdges:
    def setup_method(self):
        self.registry = make_registry()
        self.engine = ConfidenceEngine(self.registry)
        self.lineage = cycle_lineage()
        self.partial = partial_circuit(self.engine, self.lineage)

    def test_target_width_stops_mid_schedule(self):
        start = max(
            high - low
            for low, high in sweep_bounds(self.partial, [None])
        )
        target = start / 2.0
        refined, bounds = refine_sweep_bounds(
            self.partial,
            [None],
            compile_subcircuit=self.engine.compile_circuit,
            target_width=target,
            max_rounds=64,
        )
        assert all(high - low <= target for low, high in bounds)
        # Mid-schedule stop: something was left unexpanded (the exact
        # circuit would have width 0 < target already).
        assert refined.residuals

    def test_max_rounds_zero_is_a_pure_sweep(self):
        refined, bounds = refine_sweep_bounds(
            self.partial,
            [None, {"x0": 0.2}],
            compile_subcircuit=self.engine.compile_circuit,
            max_rounds=0,
        )
        assert refined is self.partial
        assert bounds == sweep_bounds(self.partial, [None, {"x0": 0.2}])

    def test_untouched_residuals_still_refine(self):
        # A scenario batch that touches no residual leaf (base
        # probabilities and an empty override): every leaf keeps its
        # stored bounds, and refinement converges to the exact sweep.
        scenarios = [None, {}]
        refined, bounds = refine_sweep_bounds(
            self.partial,
            scenarios,
            compile_subcircuit=self.engine.compile_circuit,
            max_rounds=64,
        )
        assert not refined.residuals
        exact = self.engine.compile_circuit(self.lineage)
        assert bounds == sweep_bounds(exact, scenarios)


# ----------------------------------------------------------------------
# Cross-process resume: persist mid-refinement, finish elsewhere
# ----------------------------------------------------------------------
_RESUME_SCRIPT = """
import json, sys
from repro.circuits import CircuitCache
from repro.core.dnf import DNF
from repro.core.variables import VariableRegistry
from repro.circuits.sweep import refine_sweep_bounds
from repro.engine import ConfidenceEngine

registry = VariableRegistry()
for index in range(12):
    registry.add_boolean(f"x{index}", 0.08 + 0.06 * (index % 10))
names = [f"x{i}" for i in range(12)]
clauses = [(names[i], names[(i + 1) % 12]) for i in range(12)]
clauses += [(names[i], names[(i + 5) % 12]) for i in range(0, 12, 2)]
lineage = DNF.from_positive_clauses(clauses)

cache = CircuitCache()
cache.load_into(sys.argv[1], registry)
circuit = cache.get(lineage)
assert circuit is not None and circuit.refinable
engine = ConfidenceEngine(registry)
refined, bounds = refine_sweep_bounds(
    circuit,
    [None, {"x1": 0.4}],
    compile_subcircuit=engine.compile_circuit,
    max_rounds=64,
)
print(json.dumps(bounds))
"""


class TestSubprocessResume:
    def test_resume_in_fresh_process_is_bit_identical(self, tmp_path):
        registry = make_registry()
        engine = ConfidenceEngine(registry)
        lineage = cycle_lineage()
        circuit = partial_circuit(engine, lineage)
        cache = CircuitCache()
        cache.put(lineage, circuit, exact_only=False)
        path = tmp_path / "truncated.rcir"
        cache.save(path)

        # The never-persisted refinement this session would have run.
        _, expected = refine_sweep_bounds(
            circuit,
            [None, {"x1": 0.4}],
            compile_subcircuit=engine.compile_circuit,
            max_rounds=64,
        )

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        output = subprocess.run(
            [sys.executable, "-c", _RESUME_SCRIPT, str(path)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        resumed = [tuple(pair) for pair in json.loads(output.stdout)]
        assert resumed == [tuple(pair) for pair in expected]

    def test_probdb_open_resumes_truncated_run(self, tmp_path):
        store = tmp_path / "session.rcir"
        lineage = cycle_lineage()

        db = ProbDB.from_registry(
            make_registry(),
            EngineConfig(max_total_steps=None),
            persist_circuits=store,
        )
        db.circuits.put(
            lineage,
            partial_circuit(db.engine, lineage),
            exact_only=False,
        )
        db.close()  # persists the truncated circuit (format v2)

        resumed = ProbDB.from_registry(
            make_registry(),
            EngineConfig(max_total_steps=None),
            persist_circuits=store,
        )
        try:
            circuit = resumed.circuits.get(lineage)
            assert circuit is not None and circuit.refinable
            refined, (bounds,) = refine_sweep_bounds(
                circuit,
                [None],
                compile_subcircuit=resumed.engine.compile_circuit,
                max_rounds=64,
            )
            exact = resumed.engine.compile_circuit(lineage)
            assert bounds == exact.evaluate_bounds()
        finally:
            resumed.close()


# ----------------------------------------------------------------------
# Gradient-guided top-k: same certified ordering as widest-interval
# ----------------------------------------------------------------------
class TestGuidedTopK:
    def _answers(self, registry, count=5, seed=0):
        import random

        rng = random.Random(seed)
        answers = []
        for a in range(count):
            names = [f"a{a}_{i}" for i in range(10)]
            for name in names:
                registry.add_boolean(name, rng.uniform(0.1, 0.6))
            groups = [rng.sample(names, 3) for _ in range(8)]
            answers.append(
                ((f"answer{a}",), DNF.from_positive_clauses(groups))
            )
        return answers

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_guided_matches_widest_ordering(self, seed):
        orderings = []
        for guided in (False, True):
            registry = VariableRegistry()
            answers = self._answers(registry, seed=seed)
            engine = ConfidenceEngine(registry, epsilon=0.0)
            cache = CircuitCache()
            for _values, dnf in answers:
                cache.put(
                    dnf,
                    engine.compile_circuit(dnf, max_nodes=40),
                    exact_only=False,
                )
            engine.circuit_source = cache.get
            ranked = rank_answers(
                engine,
                answers,
                2,
                initial_steps=4,
                step_growth=2,
                guided=guided,
            )
            orderings.append([r.values for r in ranked])
        assert orderings[0] == orderings[1]

    def test_guidance_ignores_circuits_of_another_registry(self):
        # refine() never resumes a circuit compiled on another
        # registry, so gradient targeting must not score one either:
        # with only foreign circuits around, the classic schedule runs.
        from repro.db.topk import _gradient_target

        registry, foreign = VariableRegistry(), VariableRegistry()
        answers = self._answers(registry)
        foreign_engine = ConfidenceEngine(foreign, epsilon=0.0)
        cache = CircuitCache()
        for _values, dnf in self._answers(foreign):
            cache.put(
                dnf,
                foreign_engine.compile_circuit(dnf, max_nodes=40),
                exact_only=False,
            )
        engine = ConfidenceEngine(registry, epsilon=0.0)
        engine.circuit_source = cache.get
        batch = engine.refine_many(
            [dnf for _values, dnf in answers], initial_steps=1
        )
        results = batch.results
        order = sorted(
            range(len(results)), key=lambda index: -results[index].upper
        )
        kth_lower = results[order[0]].lower
        best_excluded_upper = max(results[i].upper for i in order[1:])
        assert kth_lower < best_excluded_upper  # ranking not yet certified
        boundary = [i for i in order if not results[i].converged]
        assert all(cache.get(batch.dnfs[i]) is not None for i in boundary)
        assert _gradient_target(
            batch, order, boundary, 1, kth_lower, best_excluded_upper, 0.0
        ) is None

    def test_guided_defaults_on(self):
        registry = VariableRegistry()
        answers = self._answers(registry, count=3)
        engine = ConfidenceEngine(registry, epsilon=0.0)
        default = rank_answers(engine, answers, 2)
        explicit = rank_answers(engine, answers, 2, guided=True)
        assert [r.values for r in default] == [
            r.values for r in explicit
        ]


# ----------------------------------------------------------------------
# Serving write-back: refinement progress survives requests/processes
# ----------------------------------------------------------------------
class TestServingWriteback:
    def test_live_cache_refine_survives_requests(self, tmp_path):
        store = tmp_path / "live.rcir"
        lineage = cycle_lineage()
        db = ProbDB.from_registry(
            make_registry(),
            EngineConfig(max_total_steps=None),
            persist_circuits=store,
        )
        db.circuits.put(
            lineage,
            partial_circuit(db.engine, lineage),
            exact_only=False,
        )
        client = ServingClient(db.serving())

        async def scenario():
            first = await client.bounds(lineage)
            refined = await client.bounds(lineage, refine=True)
            after = await client.bounds(lineage)
            return first, refined, after

        first, refined, after = run(scenario())
        assert first["strategy"] == "store"
        assert refined["strategy"] == "store+refined"
        assert refined["width"] < first["width"]
        # Write-back bumped the live cache: the re-cut snapshot now
        # serves the refined circuit — no overlay, no stale bounds.
        assert after["strategy"] == "store"
        assert after["width"] == refined["width"]
        db.close()  # persists the refined circuit
        assert store.exists()

        resumed = ProbDB.from_registry(
            make_registry(),
            EngineConfig(max_total_steps=None),
            persist_circuits=store,
        )
        try:
            circuit = resumed.circuits.get(lineage)
            assert circuit is not None
            low, high = circuit.evaluate_bounds()
            assert high - low == refined["width"]
        finally:
            resumed.close()

    def test_file_store_refine_prefers_overlay(self, tmp_path):
        registry = make_registry()
        engine = ConfidenceEngine(registry)
        lineage = cycle_lineage()
        path = tmp_path / "frozen.rcir"
        save_circuit_store(
            path, [(lineage, partial_circuit(engine, lineage))]
        )
        stores = CircuitStoreService(registry, {"frozen": path})
        client = ServingClient(ServingEngine(stores, engine))

        async def scenario():
            first = await client.bounds(lineage, store="frozen")
            refined = await client.bounds(
                lineage, store="frozen", refine=True
            )
            after = await client.bounds(lineage, store="frozen")
            return first, refined, after

        first, refined, after = run(scenario())
        assert first["strategy"] == "store"
        assert refined["strategy"] == "store+refined"
        # The file snapshot is immutable; progress lives in the overlay
        # and later requests must see it, not the stale partial.
        assert after["strategy"] == "overlay"
        assert after["width"] == refined["width"] < first["width"]

    def test_exact_operations_never_serve_partials(self, tmp_path):
        registry = make_registry()
        engine = ConfidenceEngine(registry)
        lineage = cycle_lineage()
        path = tmp_path / "partial.rcir"
        save_circuit_store(
            path, [(lineage, partial_circuit(engine, lineage))]
        )
        stores = CircuitStoreService(registry, {"partial": path})
        client = ServingClient(ServingEngine(stores, engine))
        exact = engine.compile_circuit(lineage)

        async def scenario():
            value = await client.evaluate(lineage, store="partial")
            gradients = await client.gradients(lineage, store="partial")
            return value, gradients

        value, gradients = run(scenario())
        # The partial store hit was rejected: evaluate degraded to a
        # direct engine computation, gradients to an exact cold compile.
        assert value["strategy"] == "engine"
        assert value["value"] == pytest.approx(exact.evaluate())
        assert gradients["strategy"] == "engine-compile"
        assert dict(gradients["gradients"]) == {
            str(k): v for k, v in exact.gradients().items()
        }
