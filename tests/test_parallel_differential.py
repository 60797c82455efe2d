"""Differential tests: sharded parallel execution vs the serial engine.

The contract of :mod:`repro.engine_parallel` is that parallelism is an
*execution* detail, never a semantics one:

* exact strategies (trivial / read-once / converged ``ε = 0`` d-tree)
  return **bit-identical** probabilities, bounds, strategies, and
  convergence flags on the sharded path;
* anytime / MC paths return certified bounds that are **sound** (the
  brute-force probability lies inside them) and consistent with the
  serial bounds (two sound intervals must overlap).

The generator is a plain seeded :class:`random.Random` — re-running any
failure is a matter of the seed embedded in the assertion message — and
failures are *shrunk*: clauses, then atoms, are greedily removed while
the disagreement persists, so the report carries a minimal
counterexample rather than a 10-clause haystack.

Volume: ``total_generated_cases()`` counts ≥ 300 generated lineages
across the thread- and process-pool groups (enforced by
``test_case_volume``).
"""

import random
from typing import List, Optional, Tuple

import pytest

from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.semantics import brute_force_probability
from repro.core.variables import VariableRegistry
from repro.engine import BatchComputation, ConfidenceEngine, EngineConfig

# ----------------------------------------------------------------------
# Case generation (seeded, shrinkable)
# ----------------------------------------------------------------------
#: (group count, cases per group) per suite; the totals are what
#: ``test_case_volume`` audits.
EXACT_THREAD_GROUPS = (12, 25)     # 300 exact-path cases
ANYTIME_THREAD_GROUPS = (4, 25)    # 100 anytime/MC-path cases
EXACT_PROCESS_GROUPS = (1, 30)     # 30 exact cases through a real pool


def total_generated_cases() -> int:
    return (
        EXACT_THREAD_GROUPS[0] * EXACT_THREAD_GROUPS[1]
        + ANYTIME_THREAD_GROUPS[0] * ANYTIME_THREAD_GROUPS[1]
        + EXACT_PROCESS_GROUPS[0] * EXACT_PROCESS_GROUPS[1]
    )


def make_group(
    tag: str, seed: int, cases: int, variables: int = 8
) -> Tuple[VariableRegistry, List[DNF]]:
    """One registry plus ``cases`` random DNFs over it.

    Variable names carry the group tag so every group is a fresh slice
    of the process-wide intern table (no cross-group aliasing).
    """
    rng = random.Random(seed)
    names = [f"{tag}s{seed}v{i}" for i in range(variables)]
    registry = VariableRegistry.from_boolean_probabilities(
        {name: rng.uniform(0.05, 0.95) for name in names}
    )
    dnfs = []
    for _ in range(cases):
        clause_count = rng.randint(1, 8)
        dnfs.append(
            DNF(
                Clause(
                    {
                        rng.choice(names): rng.random() < 0.6
                        for _ in range(rng.randint(1, 4))
                    }
                )
                for _ in range(clause_count)
            )
        )
    return registry, dnfs


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def shrink_failure(dnf, registry, config, disagrees) -> DNF:
    """Greedily minimise a failing DNF while ``disagrees`` still holds.

    Tries dropping whole clauses, then single atoms from a clause,
    first-improvement style, until a fixpoint (or a safety cap) is
    reached.  ``disagrees(candidate)`` re-runs the serial-vs-parallel
    comparison on the candidate alone.
    """
    current = dnf
    for _ in range(200):  # safety cap; shrinking is best-effort
        clauses = current.sorted_clauses()
        smaller: Optional[DNF] = None
        if len(clauses) > 1:
            for drop in range(len(clauses)):
                candidate = DNF(
                    clause
                    for index, clause in enumerate(clauses)
                    if index != drop
                )
                if disagrees(candidate):
                    smaller = candidate
                    break
        if smaller is None:
            for clause_index, clause in enumerate(clauses):
                if len(clause) <= 1:
                    continue
                atoms = list(clause.items())
                for drop in range(len(atoms)):
                    reduced = Clause(
                        dict(
                            atom
                            for index, atom in enumerate(atoms)
                            if index != drop
                        )
                    )
                    candidate = DNF(
                        reduced if index == clause_index else other
                        for index, other in enumerate(clauses)
                    )
                    if disagrees(candidate):
                        smaller = candidate
                        break
                if smaller is not None:
                    break
        if smaller is None:
            return current
        current = smaller
    return current


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def run_serial(registry, dnfs, config):
    return ConfidenceEngine(registry, config).compute_many(dnfs)


def run_parallel(registry, dnfs, config, workers, executor_kind):
    engine = ConfidenceEngine(
        registry,
        config.replace(workers=workers, executor_kind=executor_kind),
    )
    return engine.compute_many(dnfs)


def exact_mismatch(serial, parallel) -> Optional[str]:
    """A description of any exact-path disagreement, else ``None``."""
    if serial.probability != parallel.probability:
        return (
            f"probability {serial.probability!r} != "
            f"{parallel.probability!r}"
        )
    if (serial.lower, serial.upper) != (parallel.lower, parallel.upper):
        return (
            f"bounds [{serial.lower!r}, {serial.upper!r}] != "
            f"[{parallel.lower!r}, {parallel.upper!r}]"
        )
    if serial.strategy != parallel.strategy:
        return f"strategy {serial.strategy} != {parallel.strategy}"
    if serial.converged != parallel.converged:
        return (
            f"converged {serial.converged} != {parallel.converged}"
        )
    return None


def assert_exact_group(tag, seed, cases, workers, executor_kind):
    registry, dnfs = make_group(tag, seed, cases)
    config = EngineConfig()  # ε = 0: every converged answer is exact
    serial = run_serial(registry, dnfs, config)
    parallel = run_parallel(
        registry, dnfs, config, workers, executor_kind
    )
    for index, (dnf, s, p) in enumerate(zip(dnfs, serial, parallel)):
        truth = brute_force_probability(dnf, registry)
        assert s.lower - 1e-9 <= truth <= s.upper + 1e-9
        assert p.lower - 1e-9 <= truth <= p.upper + 1e-9
        why = exact_mismatch(s, p)
        if why is None:
            continue

        def disagrees(candidate: DNF) -> bool:
            one_serial = run_serial(registry, [candidate], config)[0]
            one_parallel = run_parallel(
                registry,
                [candidate, candidate],
                config,
                2,
                executor_kind,
            )[0]
            return exact_mismatch(one_serial, one_parallel) is not None

        minimal = shrink_failure(dnf, registry, config, disagrees)
        raise AssertionError(
            f"parallel/serial exact mismatch ({why}) for group "
            f"{tag!r} seed={seed} case={index}; shrunk "
            f"counterexample: {minimal!r}"
        )


# ----------------------------------------------------------------------
# The differential suites
# ----------------------------------------------------------------------
class TestExactDifferentialThread:
    @pytest.mark.parametrize("seed", range(EXACT_THREAD_GROUPS[0]))
    def test_bit_identical_to_serial(self, seed):
        assert_exact_group(
            "pdx", seed, EXACT_THREAD_GROUPS[1], workers=4,
            executor_kind="thread",
        )


class TestExactDifferentialProcess:
    @pytest.mark.parametrize("seed", range(EXACT_PROCESS_GROUPS[0]))
    def test_bit_identical_through_process_pool(self, seed):
        assert_exact_group(
            "pdp", seed, EXACT_PROCESS_GROUPS[1], workers=2,
            executor_kind="process",
        )


class TestAnytimeDifferential:
    """Budget-capped runs: bounds must be sound, never bit-compared."""

    CONFIG = EngineConfig(
        epsilon=0.05,
        error_kind="relative",
        try_read_once=False,   # force the d-tree/MC rungs
        max_total_steps=60,    # tight shared budget: most tuples capped
        initial_steps=1,
        rng_seed=1234,         # deterministic MC fallback
    )

    @pytest.mark.parametrize("seed", range(ANYTIME_THREAD_GROUPS[0]))
    def test_bounds_sound_and_consistent(self, seed):
        registry, dnfs = make_group(
            "pda", seed, ANYTIME_THREAD_GROUPS[1]
        )
        serial = run_serial(registry, dnfs, self.CONFIG)
        parallel = run_parallel(
            registry, dnfs, self.CONFIG, 3, "thread"
        )
        for index, (dnf, s, p) in enumerate(
            zip(dnfs, serial, parallel)
        ):
            truth = brute_force_probability(dnf, registry)
            for label, result in (("serial", s), ("parallel", p)):
                assert 0.0 <= result.lower <= result.upper <= 1.0, (
                    f"{label} bounds malformed at case {index} "
                    f"(seed {seed}): {result!r}"
                )
                assert (
                    result.lower - 1e-9
                    <= truth
                    <= result.upper + 1e-9
                ), (
                    f"{label} bounds unsound at case {index} "
                    f"(seed {seed}): truth={truth!r}, {result!r}"
                )
                assert (
                    result.lower - 1e-9
                    <= result.probability
                    <= result.upper + 1e-9
                )
            # Two sound intervals for one probability must intersect.
            assert (
                max(s.lower, p.lower) <= min(s.upper, p.upper) + 1e-9
            ), f"disjoint intervals at case {index} (seed {seed})"

    @pytest.mark.parametrize("seed", range(2))
    def test_seeded_parallel_runs_are_reproducible(self, seed):
        registry, dnfs = make_group("pdr", seed, 10)
        first = run_parallel(registry, dnfs, self.CONFIG, 3, "thread")
        second = run_parallel(registry, dnfs, self.CONFIG, 3, "thread")
        assert [r.probability for r in first] == [
            r.probability for r in second
        ]
        assert [(r.lower, r.upper) for r in first] == [
            (r.lower, r.upper) for r in second
        ]


class TestCaseVolume:
    def test_case_volume(self):
        # The ISSUE's floor for the generated differential corpus.
        assert total_generated_cases() >= 300


# ----------------------------------------------------------------------
# Sharded (pooled) batch unit behaviour
# ----------------------------------------------------------------------
class TestShardedBatchMechanics:
    def _batch(self, workers=3, cases=9, **config_fields):
        registry, dnfs = make_group("pdm", 77, cases)
        engine = ConfidenceEngine(
            registry, EngineConfig(**config_fields)
        )
        batch = BatchComputation(
            engine,
            dnfs,
            workers=workers,
            executor_kind="thread",
            initial_steps=1,
        )
        return registry, dnfs, batch

    def test_trivial_lineages_pass_through(self):
        registry, dnfs, _ = self._batch(cases=2)
        engine = ConfidenceEngine(registry)
        mixed = [DNF.false(), dnfs[0], DNF.true(), dnfs[1]]
        results = engine.compute_many(
            mixed, workers=2, executor_kind="thread"
        )
        assert results[0].probability == 0.0
        assert results[0].strategy == "trivial"
        assert results[2].probability == 1.0
        assert results[2].strategy == "trivial"

    def test_step_refines_at_most_one_tuple_per_shard(self):
        _registry, _dnfs, batch = self._batch(
            workers=3, try_read_once=False
        )
        with batch:
            before = list(batch.budgets)
            if batch.step() is None:
                return  # everything converged on the initial pass
            grown = sum(
                1
                for old, new in zip(before, batch.budgets)
                if new != old
            )
            assert 1 <= grown <= batch.shards

    def test_interval_refinement_is_monotone(self):
        _registry, _dnfs, batch = self._batch(
            workers=2, try_read_once=False
        )
        with batch:
            for _ in range(6):
                widths = [result.width() for result in batch.results]
                if batch.step() is None:
                    break
                for old, result in zip(widths, batch.results):
                    assert result.width() <= old + 1e-12

    def test_cache_stats_aggregate_per_worker(self):
        _registry, _dnfs, batch = self._batch(workers=3)
        with batch:
            stats = batch.cache_stats()
            assert stats["caches"] == len(batch.worker_stats) >= 1
            assert stats["misses"] >= 0

    def test_rejects_unknown_executor_kind(self):
        registry, dnfs = make_group("pdm", 78, 3)
        engine = ConfidenceEngine(registry)
        with pytest.raises(ValueError, match="executor_kind"):
            BatchComputation(
                engine, dnfs, workers=2, executor_kind="fiber"
            )

    def test_process_pool_rejects_unpicklable_selector(self):
        registry, dnfs = make_group("pdm", 79, 4)
        engine = ConfidenceEngine(
            registry,
            EngineConfig(
                choose_variable=lambda dnf: dnf.most_frequent_variable()
            ),
        )
        # Construction runs the initial pass, which needs the executor —
        # so the picklability error surfaces directly from __init__.
        with pytest.raises(ValueError, match="picklable"):
            BatchComputation(
                engine, dnfs, workers=2, executor_kind="process"
            )

    def test_config_workers_validation(self):
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(workers=0)
        with pytest.raises(ValueError, match="executor_kind"):
            EngineConfig(executor_kind="gpu")

    def test_describe_reports_parallel_knobs(self):
        config = EngineConfig(workers=4, executor_kind="thread")
        description = config.describe()
        assert description["workers"] == 4
        assert description["executor_kind"] == "thread"
