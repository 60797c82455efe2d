"""The traced run: per-layer self time and counters.

The run first measures the workload untraced (exactly as ``--trace 0``
does, minus the repeated set-ups), then replays the same op sequence on
fresh state with :class:`~perfbench.trace.Tracer` wrappers installed at
every layer boundary (:func:`install`).  The traced replay's wall time
against its untraced twin's gives the tracing overhead: the loop itself,
or, where the replay takes another path (``http_serve`` replays
in-process), an untraced replay on fresh state.  Both are taken at
reference host speed.  Counts come
from observers on the same wrappers and from the program's own statistics
(cache stats, ``/v1/stats``).
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import common, dml, http
from .harness import (
    CALIBRATE_EVERY,
    SqlWorkload,
    Workload,
    loop_lines,
    run_loop,
)
from .trace import Tracer

#: Timed layers, in report order; ``other`` is appended.
LAYERS = (
    "db.sql",
    "db.cq",
    "engine",
    "db.sprout",
    "core.readonce",
    "core.approx",
    "circuits.compiler",
    "circuits.cache",
    "circuits.sweep",
    "circuits.incremental",
    "db.mutations",
    "serving.codec",
    "serving.app",
    "serving.engine",
    "serving.store",
    "serving.response_cache",
)

#: Strategies counted per answer (``engine.rung.<strategy>``).
RUNGS = ("trivial", "read-once", "sprout", "dtree", "mc", "circuit")

#: Wrappers that must fire on each workload: a binding the workload is
#: designed to exercise but that never ran means a wrapper sits on the
#: wrong binding, and the layer would silently read zero.
REQUIRED = {
    "sql_adhoc": (
        "repro.db.session.parse_conf_query", "repro.db.session.evaluate",
        "repro.db.sprout.evaluate", "QueryResult.lineage",
        "ConfidenceEngine.select_query_strategy",
        "ConfidenceEngine.compute_query", "ConfidenceEngine.compute_many",
        "ConfidenceEngine.compute", "repro.db.sprout.sprout_confidence",
        "repro.engine.try_read_once", "repro.engine.approximate_probability",
        "QueryResult.confidences",
    ),
    "dml_mixed": (
        "repro.db.session.parse_statement", "repro.db.mutations.apply_update",
        "repro.db.mutations.apply_insert", "repro.db.mutations.apply_delete",
        "repro.db.mutations.invalidate_variables", "CircuitCache.get",
        "CircuitCache.put", "repro.engine._compile_circuit",
        "repro.engine.approximate_probability",
        "ConfidenceEngine.compute_many", "QueryResult.lineage",
    ),
    "http_serve": (
        "ServingApp.__call__", "ServingApp._read_json",
        "ServingApp._send_json", "ServingEngine.handle",
        "repro.serving.engine.dnf_from_json",
        "repro.serving.engine.overrides_from_json",
        "repro.serving.engine.scenarios_from_json",
        "repro.serving.engine.sweep_values",
        "repro.serving.engine.sweep_bounds",
        "CircuitStoreService.snapshot", "ResponseCache.get",
        "ResponseCache.put", "ConfidenceEngine.compute",
    ),
}


class _Observers:
    """Counters fed by the wrappers' ``observe`` hooks."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def lineage(self, result, *args, **kwargs) -> None:
        self.counts["clauses"] += sum(len(dnf) for _values, dnf in result)

    def confidences(self, result, *args, **kwargs) -> None:
        for _values, answer in result:
            self.counts["rung:" + answer.strategy] += 1

    def read_once(self, result, *args, **kwargs) -> None:
        self.counts["readonce_probes"] += 1
        self.counts["readonce_hits"] += result is not None

    def approx(self, result, *args, **kwargs) -> None:
        self.counts["approx_steps"] += result.steps

    def compiled(self, result, *args, **kwargs) -> None:
        self.counts["compiled_nodes"] += len(result)

    def invalidated(self, result, *args, **kwargs) -> None:
        self.counts["writes"] += 1
        self.counts["touched_vars"] += len(result.variable_ids)
        self.counts["evicted_circuits"] += result.circuits_evicted
        self.counts["evicted_memo"] += result.memo_evicted

    def swept(self, result, circuit, scenarios, *args, **kwargs) -> None:
        self.counts["sweep_calls"] += 1
        self.counts["sweep_rows"] += len(scenarios)


def install(tracer: Tracer, observers: _Observers) -> None:
    """Wrap every layer boundary, at the bindings callers use."""
    import repro.db.engine as db_engine
    import repro.db.mutations as mutations
    import repro.db.session as session
    import repro.db.sprout as sprout
    import repro.engine as engine
    import repro.serving.engine as serving_engine
    from repro.circuits.cache import CircuitCache
    from repro.db.session import QueryResult
    from repro.engine import ConfidenceEngine
    from repro.serving.app import ServingApp
    from repro.serving.engine import ServingEngine
    from repro.serving.response_cache import ResponseCache
    from repro.serving.store import CircuitStoreService

    spec: List[Tuple[Any, str, Optional[str], Optional[Callable]]] = [
        (session, "parse_conf_query", "db.sql", None),
        (session, "parse_statement", "db.sql", None),
        (session, "evaluate", "db.cq", None),
        (sprout, "evaluate", "db.cq", None),
        (db_engine, "evaluate", "db.cq", None),
        (QueryResult, "lineage", "db.cq", observers.lineage),
        (QueryResult, "confidences", None, observers.confidences),
        (ConfidenceEngine, "select_query_strategy", "engine", None),
        (ConfidenceEngine, "compute_query", "engine", None),
        (ConfidenceEngine, "compute_many", "engine", None),
        (ConfidenceEngine, "compute", "engine", None),
        (sprout, "sprout_confidence", "db.sprout", None),
        (engine, "try_read_once", "core.readonce", observers.read_once),
        (engine, "approximate_probability", "core.approx", observers.approx),
        (engine, "_compile_circuit", "circuits.compiler", observers.compiled),
        (CircuitCache, "get", "circuits.cache", None),
        (CircuitCache, "put", "circuits.cache", None),
        (mutations, "apply_insert", "db.mutations", None),
        (mutations, "apply_update", "db.mutations", None),
        (mutations, "apply_delete", "db.mutations", None),
        (mutations, "invalidate_variables", "circuits.incremental",
         observers.invalidated),
        (serving_engine, "sweep_values", "circuits.sweep", observers.swept),
        (serving_engine, "sweep_bounds", "circuits.sweep", observers.swept),
        (ServingApp, "__call__", "serving.app", None),
        (ServingApp, "_read_json", "serving.codec", None),
        (ServingApp, "_send_json", "serving.codec", None),
        (ServingEngine, "handle", "serving.engine", None),
        (CircuitStoreService, "snapshot", "serving.store", None),
        (ResponseCache, "get", "serving.response_cache", None),
        (ResponseCache, "put", "serving.response_cache", None),
    ]
    for name in (
        "dnf_from_json", "overrides_from_json", "scenarios_from_json",
        "answers_from_json", "value_from_json", "value_to_json",
        "gradients_to_json",
    ):
        spec.append((serving_engine, name, "serving.codec", None))
    for owner, attribute, layer, observe in spec:
        tracer.wrap(owner, attribute, layer, observe)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: Tracer,
    counts: Counter,
    stats: Dict[str, float],
    ops: int,
    scale: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, zero where the workload skips the layer;
    layer times are multiplied by ``scale`` (to reference host speed)."""
    metrics: Dict[str, Tuple[float, str]] = {}
    wall = tracer.wall_seconds
    for layer in LAYERS + ("other",):
        seconds = (
            tracer.other_seconds
            if layer == "other"
            else tracer.self_seconds.get(layer, 0.0)
        )
        name = "serving.engine.wait_ms" if layer == "serving.engine" else (
            f"{layer}.ms"
        )
        metrics[name] = (seconds * scale * 1000.0 / ops, "ms")
        metrics[f"{layer}.share"] = (seconds / wall, "ratio")
    answers = sum(counts["rung:" + rung] for rung in RUNGS)
    metrics["db.cq.clauses_per_op"] = (counts["clauses"] / ops, "count")
    for rung in RUNGS:
        metrics[f"engine.rung.{rung}"] = (
            _ratio(counts["rung:" + rung], answers), "ratio")
    metrics["core.readonce.hit_ratio"] = (
        _ratio(counts["readonce_hits"], counts["readonce_probes"]), "ratio")
    metrics["core.approx.steps_per_op"] = (
        counts["approx_steps"] / ops, "count")
    metrics["circuits.compiler.nodes_per_op"] = (
        counts["compiled_nodes"] / ops, "count")
    writes = counts["writes"]
    for key in ("touched_vars", "evicted_circuits", "evicted_memo"):
        metrics[f"circuits.incremental.{key}_per_write"] = (
            _ratio(counts[key], writes), "count")
    metrics["circuits.sweep.rows_per_call"] = (
        _ratio(counts["sweep_rows"], counts["sweep_calls"]), "count")
    for name, unit in STAT_METRICS:
        metrics[name] = (stats.get(name, 0.0), unit)
    return metrics


#: Metrics read from the program's own statistics by each workload's
#: ``trace_stats`` (zero where a workload has no such counter).
STAT_METRICS = (
    ("core.memo.hit_ratio", "ratio"),
    ("core.memo.entries", "count"),
    ("circuits.cache.hit_ratio", "ratio"),
    ("serving.engine.occupancy", "count"),
    ("serving.engine.fallbacks", "ratio"),
    ("serving.store.hit_ratio", "ratio"),
    ("serving.response_cache.hit_ratio", "ratio"),
    ("serving.fleet.transport_ms", "ms"),
)

#: Op kinds per workload, for ``<workload>.<kind>.p50_ms`` / ``.p90_ms``:
#: each kind's latency in the untraced loop, at reference host speed.
KINDS = (
    ("sql_adhoc", SqlWorkload.kinds),
    ("dml_mixed", dml.DmlWorkload.kinds),
    ("http_serve", http.HttpWorkload.kinds),
)


def kind_metrics(bench: Workload, by_kind) -> Dict[str, Tuple[float, str]]:
    """Per-kind p50/p90 of ``bench``'s loop, zero for other workloads."""
    metrics: Dict[str, Tuple[float, str]] = {}
    for workload, kinds in KINDS:
        for kind in kinds:
            for fraction in (0.5, 0.9):
                value = 0.0
                if workload == bench.name:
                    value = common.percentile(by_kind[kind], fraction) * 1000.0
                label = kind.replace(" ", "_")
                metrics[f"{workload}.{label}.p{fraction * 100:g}_ms"] = (
                    value, "ms")
    return metrics


class _Replay:
    """One replay of a loop's ops: outputs, per-op latencies, and its wall
    time as measured and at reference host speed."""

    def __init__(self, bench: Workload, state: Any, ops: List[Any],
                 tracer: Optional[Tracer] = None) -> None:
        """Replay ``ops`` in segments of ``CALIBRATE_EVERY`` seconds with a
        reference-kernel reading between segments, outside the trace."""
        clock = time.perf_counter
        self.outputs: List[Any] = []
        self.latencies: List[float] = []
        self.raw_wall = self.wall = 0.0
        before = common.kernel_seconds()
        index = 0
        while index < len(ops):
            if tracer is not None:
                tracer.start()
            started = clock()
            while index < len(ops) and clock() - started < CALIBRATE_EVERY:
                begin = clock()
                self.outputs.append(bench.replay(state, ops[index]))
                self.latencies.append(clock() - begin)
                index += 1
            elapsed = clock() - started
            if tracer is not None:
                tracer.stop()
            after = common.kernel_seconds()
            self.raw_wall += elapsed
            self.wall += elapsed * common.speed_factor(before, after)
            before = after


def traced_run(bench: Workload, seconds: float, min_ops: int) -> Dict[str, Any]:
    """Untraced loop, then a traced replay of its ops (after an untraced
    one where the replay takes another path than the loop)."""
    gc.collect()
    state = bench.setup()
    loop = run_loop(bench, state, bench.ops(), seconds, min_ops)
    ops, outputs = loop.ops, loop.outputs
    stats: Dict[str, float] = {}
    bench.discard(state)
    errors = [
        f"op {index}: {error}"
        for index, error in enumerate(bench.check(ops, outputs))
        if error is not None
    ]

    # The traced replay starts from fresh state, like the loop.  Where the
    # replay takes the loop's path, the loop is its untraced twin; else an
    # untraced replay on fresh state is.
    replays = {}
    untraced_wall = sum(loop.latencies)
    if bench.untraced_replay:
        replay_state = bench.replay_setup()
        gc.collect()
        replays["untraced"] = plain = _Replay(bench, replay_state, ops)
        stats.update(bench.replay_stats(loop.raw, plain.latencies))
        bench.discard(replay_state)
        untraced_wall = plain.wall
    replay_state = bench.replay_setup()
    tracer = Tracer()
    observers = _Observers()
    install(tracer, observers)
    try:
        gc.collect()
        replays["traced"] = traced = _Replay(bench, replay_state, ops, tracer)
    finally:
        tracer.restore()
    stats.update(bench.trace_stats(replay_state, len(ops)))
    bench.discard(replay_state)
    tracer.check(list(REQUIRED[bench.name]))
    for label, replay in replays.items():
        if common.digest(replay.outputs) != common.digest(outputs):
            mismatched = sum(a != b for a, b in zip(replay.outputs, outputs))
            errors.append(
                f"{label} replay changed {mismatched} of {len(ops)} outputs"
            )

    count = len(ops)
    scale = traced.wall / traced.raw_wall
    overhead = traced.wall / untraced_wall - 1.0
    metrics = layer_metrics(tracer, observers.counts, stats, count, scale)
    metrics.update(kind_metrics(bench, loop.by_kind))
    metrics["host.kernel_ms"] = (
        statistics.median(loop.kernel) * 1000.0, "ms")
    metrics["trace.overhead"] = (overhead, "ratio")
    lines = loop_lines(bench, loop, "untraced ops")
    lines.append(
        f"replay of {count} ops at reference speed: {traced.wall:.3f}s traced against "
        f"{untraced_wall:.3f}s untraced (tracing overhead {overhead:+.1%})"
    )
    lines.append(f"{'layer':<24}{'self ms/op':>12}{'share':>9}")
    for layer, ms, share in tracer.table(count, scale):
        lines.append(f"{layer:<24}{ms:>12.4f}{share:>9.1%}")
    lines.append(
        f"{'total':<24}"
        f"{traced.wall * 1000.0 / count:>12.4f}{1.0:>9.1%}"
    )
    lines.append(
        "wrappers fired: " + ", ".join(
            f"{label}={calls}"
            for label, calls in sorted(tracer.fired_counts.items())
            if calls
        )
    )
    return {
        "attempted": count,
        "failed": len(errors),
        "errors": errors,
        "outputs": outputs,
        "lines": lines,
        "metrics": metrics,
    }
