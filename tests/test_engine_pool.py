"""Engine-lifetime worker pools: amortization and snapshot invalidation.

The contract of :class:`repro.engine_parallel.WorkerPool` (ROADMAP
open item "amortize process pools across batches"):

* consecutive sharded batches on one engine reuse one pool — pool
  start-up is paid once, worker caches stay warm;
* a process pool is invalidated (snapshot re-shipped via a rebuild)
  exactly when new atoms were interned after pool start — never on a
  quiet intern table;
* batch ``close()`` only drops the batch's reference; the pool dies
  with ``engine.close()`` (or the GC finalizer);
* results through a reused pool stay bit-identical to the serial path.
"""

import pytest

from repro.core.events import Atom
from repro.core.variables import intern_version
from repro.engine import BatchComputation, ConfidenceEngine, EngineConfig

from test_parallel_differential import exact_mismatch, make_group


def thread_engine(registry, **overrides):
    return ConfidenceEngine(
        registry,
        EngineConfig(workers=3, executor_kind="thread", **overrides),
    )


class TestPoolReuse:
    def test_thread_pool_survives_across_batches(self):
        registry, dnfs = make_group("plr", 1, 12)
        engine = thread_engine(registry)
        with engine:
            engine.compute_many(dnfs[:6])
            pool = engine._worker_pools["thread"]
            assert pool is not None
            assert engine._pool_starts == 1
            engine.compute_many(dnfs[6:])
            assert engine._worker_pools["thread"] is pool
            assert engine._pool_starts == 1

    def test_thread_worker_caches_stay_warm(self):
        registry, dnfs = make_group("plw", 2, 6)
        engine = thread_engine(registry, try_read_once=False)
        with engine:
            engine.compute_many(dnfs)
            pool = engine._worker_pools["thread"]
            warm = sum(
                len(worker.cache) for worker in pool.thread_engines
            )
            assert warm > 0
            # The same batch again: the same worker engines (and their
            # populated caches) serve it.
            engine.compute_many(dnfs)
            assert engine._worker_pools["thread"] is pool
            assert pool.thread_engines is not None

    def test_pool_grows_when_more_workers_requested(self):
        registry, dnfs = make_group("plg", 3, 8)
        engine = thread_engine(registry)
        with engine:
            engine.compute_many(dnfs, workers=2)
            assert engine._pool_starts == 1
            first = engine._worker_pools["thread"]
            assert first.size == 2
            engine.compute_many(dnfs, workers=4)
            assert engine._pool_starts == 2
            assert engine._worker_pools["thread"] is not first
            assert engine._worker_pools["thread"].size >= 4
            # Smaller requests reuse the bigger pool.
            engine.compute_many(dnfs, workers=2)
            assert engine._pool_starts == 2

    def test_executor_kind_switch_rebuilds(self):
        registry, dnfs = make_group("plk", 4, 6)
        engine = thread_engine(registry)
        with engine:
            engine.compute_many(dnfs)
            thread_pool = engine._worker_pools["thread"]
            engine.compute_many(dnfs, executor_kind="process")
            assert engine._worker_pools["process"].kind == "process"
            assert engine._pool_starts == 2
            # One slot per kind: the thread pool was NOT evicted, so
            # interleaved kinds don't thrash each other.
            assert engine._worker_pools["thread"] is thread_pool
            engine.compute_many(dnfs)
            assert engine._pool_starts == 2

    def test_close_is_idempotent_and_rebuild_works_after(self):
        registry, dnfs = make_group("plc", 5, 6)
        engine = thread_engine(registry)
        engine.compute_many(dnfs)
        engine.close()
        assert not engine._worker_pools
        engine.close()  # idempotent
        engine.compute_many(dnfs)
        assert engine._pool_starts == 2
        engine.close()

    def test_batch_close_leaves_engine_pool_alive(self):
        registry, dnfs = make_group("plb", 6, 8)
        engine = thread_engine(registry)
        with engine:
            batch = engine.refine_many(dnfs)
            batch.close()
            assert engine._worker_pools["thread"] is not None
            # A later batch reuses the surviving pool.
            engine.compute_many(dnfs)
            assert engine._pool_starts == 1


class TestConcurrentBatches:
    def test_two_threads_sharing_one_engine_get_correct_results(self):
        # Two request threads driving one session engine concurrently:
        # rounds serialize on the shared pool's round_lock, so the
        # single-threaded per-shard worker engines are never raced and
        # results stay bit-identical to the serial path.
        import threading as _threading

        registry, dnfs = make_group("pcc", 10, 16)
        serial = ConfidenceEngine(registry).compute_many(dnfs)
        engine = thread_engine(registry, initial_steps=1)
        outcomes = {}

        def run(tag, batch):
            try:
                outcomes[tag] = engine.compute_many(batch)
            except Exception as exc:  # pragma: no cover - failure path
                outcomes[tag] = exc

        with engine:
            for _round in range(3):
                first = _threading.Thread(
                    target=run, args=("a", dnfs[:8])
                )
                second = _threading.Thread(
                    target=run, args=("b", dnfs[8:])
                )
                first.start(); second.start()
                first.join(); second.join()
                assert not isinstance(outcomes["a"], Exception), (
                    outcomes["a"]
                )
                assert not isinstance(outcomes["b"], Exception), (
                    outcomes["b"]
                )
                for left, right in zip(
                    serial, outcomes["a"] + outcomes["b"]
                ):
                    assert exact_mismatch(left, right) is None


class TestBrokenPoolRecovery:
    def test_dead_executor_is_evicted_and_next_batch_heals(self):
        registry, dnfs = make_group("pbr", 9, 6)
        engine = thread_engine(registry)
        with engine:
            engine.compute_many(dnfs)
            assert engine._pool_starts == 1
            # Kill the executor out from under the pool (stand-in for a
            # worker crash): the next batch must fail loudly, evict the
            # corpse, and the one after must rebuild and succeed.
            engine._worker_pools["thread"].executor.shutdown()
            with pytest.raises(RuntimeError):
                engine.compute_many(dnfs)
            assert "thread" not in engine._worker_pools
            serial = ConfidenceEngine(registry).compute_many(dnfs)
            healed = engine.compute_many(dnfs)
            assert engine._pool_starts == 2
            for left, right in zip(serial, healed):
                assert exact_mismatch(left, right) is None


class TestProcessSnapshotInvalidation:
    def test_process_pool_reused_when_interning_is_quiet(self):
        registry, dnfs = make_group("psq", 7, 6)
        engine = ConfidenceEngine(
            registry, EngineConfig(workers=2, executor_kind="process")
        )
        with engine:
            serial = ConfidenceEngine(registry).compute_many(dnfs)
            first = engine.compute_many(dnfs[:3])
            pool = engine._worker_pools["process"]
            version = intern_version()
            second = engine.compute_many(dnfs[3:])
            assert intern_version() == version
            assert engine._worker_pools["process"] is pool
            assert engine._pool_starts == 1
            for left, right in zip(serial, first + second):
                assert exact_mismatch(left, right) is None

    def test_process_pool_rebuilt_after_new_atoms_interned(self):
        registry, dnfs = make_group("psr", 8, 6)
        engine = ConfidenceEngine(
            registry, EngineConfig(workers=2, executor_kind="process")
        )
        with engine:
            engine.compute_many(dnfs[:3])
            assert engine._pool_starts == 1
            stale_version = engine._worker_pools["process"].snapshot_version
            # Intern a brand-new atom: the pool's shipped snapshot no
            # longer covers the table, so the next round must rebuild
            # (re-shipping a fresh snapshot) before id-encoding tasks.
            registry.add_boolean("psr_new_atom", 0.5)
            Atom("psr_new_atom", True)
            assert intern_version() != stale_version
            serial = ConfidenceEngine(registry).compute_many(dnfs[3:])
            results = engine.compute_many(dnfs[3:])
            assert engine._pool_starts == 2
            assert (
                engine._worker_pools["process"].snapshot_version
                == intern_version()
            )
            for left, right in zip(serial, results):
                assert exact_mismatch(left, right) is None


class TestInlineRounds:
    """A batch with one shard runs inline: no pool is ever started."""

    @staticmethod
    def _outcome(results):
        return [
            (r.probability, r.lower, r.upper, r.strategy, r.converged,
             r.steps)
            for r in results
        ]

    def test_per_call_workers_1_overrides_a_pooled_config(self):
        registry, dnfs = make_group("pin", 11, 8)
        fields = dict(try_read_once=False, initial_steps=1)
        serial = ConfidenceEngine(registry, EngineConfig(**fields))
        expected = serial.compute_many(dnfs, max_total_steps=50)
        engine = thread_engine(registry, **fields)
        with engine:
            results = engine.compute_many(
                dnfs, workers=1, max_total_steps=50
            )
            assert engine._pool_starts == 0
        assert self._outcome(results) == self._outcome(expected)

    def test_per_call_workers_1_never_pickles_the_config(self):
        # A process config with an unpicklable selector only fails
        # when a process pool is actually built; workers=1 must not
        # build one.
        registry, dnfs = make_group("pip", 12, 6)
        engine = ConfidenceEngine(
            registry,
            EngineConfig(
                workers=2,
                executor_kind="process",
                choose_variable=lambda dnf: dnf.most_frequent_variable(),
            ),
        )
        with engine:
            results = engine.compute_many(
                dnfs, workers=1, max_total_steps=50
            )
            assert len(results) == len(dnfs)
            assert engine._pool_starts == 0

    def test_empty_and_single_lineage_batches_run_inline(self):
        registry, dnfs = make_group("pis", 13, 1)
        engine = thread_engine(registry)
        with engine:
            with engine.refine_many([], workers=2) as empty:
                assert len(empty) == 0
                assert empty.shards == 0
                assert empty.step() is None
            with engine.refine_many(dnfs, workers=2) as single:
                assert single.shards == 1
                single.run(max_total_steps=100)
            assert engine._pool_starts == 0
            assert not engine._worker_pools

    def test_run_to_guarantee_batch_has_nothing_to_refine(self):
        registry, dnfs = make_group("pig", 14, 6)
        engine = ConfidenceEngine(
            registry, EngineConfig(max_steps=2, try_read_once=False)
        )
        batch = BatchComputation(engine, dnfs, run_to_guarantee=True)
        assert batch.budgets == [2] * len(dnfs)
        assert not batch.converged()  # the tiny budget left work undone
        assert batch.refinable() == []
        assert batch.step() is None
