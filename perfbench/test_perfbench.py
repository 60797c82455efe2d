"""Tests of the benchmark's own helpers (run with the repo's test suite)."""

from __future__ import annotations

import itertools

import pytest

from repro import EngineConfig, ProbDB
from repro.core.approx import ABSOLUTE, RELATIVE

from perfbench import common, dml, harness, http, workloads
from perfbench.oracle import SqlOracle, interval_error
from perfbench.trace import Tracer, WrapperNotFired


def _first(stream, count=40):
    return list(itertools.islice(stream, count))


@pytest.mark.parametrize(
    "generate",
    [workloads.adhoc_ops, dml.dml_ops, http.http_ops],
    ids=["sql_adhoc", "dml_mixed", "http_serve"],
)
def test_same_seed_same_ops_other_seed_other_ops(generate):
    assert _first(generate(7)) == _first(generate(7))
    assert _first(generate(7)) != _first(generate(8))


def test_sql_stream_never_repeats_a_statement():
    texts = [sql for _name, sql in _first(workloads.adhoc_ops(3), 400)]
    assert len(set(texts)) == len(texts)


def test_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert common.percentile(samples, 0.9) == 90.0
    assert common.percentile(samples, 0.5) == 50.0
    with pytest.raises(common.TooFewSamples):
        common.percentile(samples[:99], 0.9)
    assert common.percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(common.TooFewSamples):
        common.percentile(list(range(999)), 0.99)


def test_kind_percentile_is_the_geometric_mean_over_kinds():
    loop = harness.Loop()
    fast = [0.001 * (1 + i / 1000) for i in range(100)]
    slow = [0.016 * (1 + i / 1000) for i in range(100)]
    loop.latencies = fast + slow
    loop.kinds = ["fast"] * 100 + ["slow"] * 100
    expected = (common.percentile(fast, 0.5) * common.percentile(slow, 0.5))
    assert loop.percentile(0.5) == pytest.approx(expected ** 0.5)
    # One kind: the plain percentile.
    loop.latencies, loop.kinds = fast, [None] * 100
    assert loop.percentile(0.9) == pytest.approx(common.percentile(fast, 0.9))


class _Sleeper(harness.Workload):
    """A stand-in workload whose ops take a fixed, known time."""

    name = "sleeper"
    kinds = ("a", "b")

    def run(self, state, op):
        return op, {}

    def kind(self, op):
        return "a" if op % 2 else "b"


def test_run_loop_scales_latencies_to_reference_speed(monkeypatch):
    # A host running at half the reference speed: every kernel reading
    # takes twice the reference time, so every latency is halved.
    monkeypatch.setattr(
        common, "kernel_seconds",
        lambda: 2 * common.REFERENCE_KERNEL_SECONDS,
    )
    bench = _Sleeper(0)
    loop = harness.run_loop(bench, None, iter(range(300)), 0.0, 250)
    assert len(loop.ops) == 250
    assert loop.latencies == [raw / 2 for raw in loop.raw]
    assert sorted(loop.by_kind) == ["a", "b"]
    assert len(loop.by_kind["a"]) == len(loop.by_kind["b"]) == 125


def test_speed_factor():
    reference = common.REFERENCE_KERNEL_SECONDS
    assert common.speed_factor(reference, reference) == 1.0
    assert common.speed_factor(reference, 3 * reference) == 0.5
    assert common.reference_kernel() == common.reference_kernel()


def _answers(count=6):
    """Real outputs of the first ``count`` ops of ``sql_adhoc``."""
    bench = harness.make("sql_adhoc", 1)
    session = bench.setup()
    try:
        ops = _first(bench.ops(), count)
        return ops, [bench.run(session, op)[0] for op in ops]
    finally:
        bench.discard(session)


def test_oracle_accepts_outputs_and_rejects_a_perturbed_bound():
    ops, outputs = _answers()
    oracle = SqlOracle(harness.tpch("sql_adhoc"))
    checked = 0
    for (_template, sql), rows in zip(ops, outputs):
        lineage = oracle.lineage(sql)
        assert oracle.check(rows, lineage, workloads.EPSILON, RELATIVE) is None
        for row in rows:
            values, estimate, lower, upper, strategy = row
            shift = 0.05 * max(estimate, 0.01)
            lifted = [values, estimate + shift, lower + shift,
                      upper + shift, strategy]
            error = oracle.check(
                [lifted if r is row else r for r in rows], lineage,
                workloads.EPSILON, RELATIVE,
            )
            assert error is not None
            checked += 1
    assert checked


def test_interval_error_cases():
    assert interval_error(0.5, 0.5, 0.5, (0.5, 0.5), 0.0, ABSOLUTE) is None
    assert interval_error(0.5, 0.49, 0.51, (0.5, 0.5), 0.01, RELATIVE) is None
    # Estimate outside its own bounds.
    assert interval_error(0.6, 0.49, 0.51, (0.5, 0.5), 0.5, RELATIVE)
    # Sound-looking interval that misses the truth.
    assert interval_error(0.52, 0.51, 0.53, (0.5, 0.5), 0.1, RELATIVE)
    # Bounds hold the truth but the estimate breaks the ε guarantee.
    assert interval_error(0.6, 0.4, 0.6, (0.5, 0.5), 0.01, RELATIVE)


def test_oracle_memo_follows_probability_updates():
    session = ProbDB(harness.tpch(dml.NAME), EngineConfig())
    oracle = SqlOracle(session.database)
    lineage = oracle.lineage(dml.READS[0])
    before = [oracle.interval(dnf) for _values, dnf in lineage]
    session.execute(
        "update partsupp set probability = 0.5 where ps_partkey >= 0"
    )
    after = [oracle.interval(dnf) for _values, dnf in lineage]
    assert before != after


class _Module:
    """A stand-in module with functions bound as attributes."""

    @staticmethod
    def outer(x):
        return _Module.inner(x) + 1

    @staticmethod
    def inner(x):
        return x * 2

    @staticmethod
    def unused():
        return None


def test_wrapper_fired_check_and_self_times_add_up():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(_Module, "outer", "a")
    tracer.wrap(_Module, "inner", "b")
    tracer.wrap(_Module, "unused", "c")
    try:
        tracer.start()
        assert _Module.outer(3) == 7
        tracer.stop()
    finally:
        tracer.restore()
    assert _Module.inner(1) == 2  # restored
    tracer.check(["_Module.outer", "_Module.inner"])
    with pytest.raises(WrapperNotFired):
        tracer.check(["_Module.unused"])
    with pytest.raises(WrapperNotFired):
        tracer.check(["_Module.never_installed"])
    # Clock reads: start 0, enter a 1, enter b 2, exit b 3, exit a 4, stop 5.
    assert tracer.self_seconds == {"a": 2.0, "b": 1.0}
    assert tracer.other_seconds == 2.0
    assert tracer.wall_seconds == 5.0


def test_overlapping_spans_fail_the_sum_check():
    tracer = Tracer(clock=iter([0.0, 1.0, 2.0, 3.0, 4.0]).__next__)
    tracer.start()
    tracer._enter("a")
    tracer._exit()
    tracer.stop()
    tracer.self_seconds["a"] += 10.0  # as if two spans overlapped
    with pytest.raises(AssertionError):
        tracer.check([])
