"""The workload harness and the untraced measured run.

A :class:`Workload` subclass owns one workload: it builds the program
state (``setup``, the work a user pays before the first op), produces the
seeded op sequence, runs one op through the public entry points (``run``),
and checks every output against the oracle after the timed window
(``check``).
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import EngineConfig, ProbDB
from repro.core.approx import RELATIVE
from repro.datasets.tpch import TPCHConfig, generate_tpch

from . import common, workloads
from .oracle import SqlOracle

#: Set-up is repeated at least this often, and until this much time was
#: spent in it, so a short set-up is still a steady median.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 50
#: Throughput chunks.
CHUNKS = 10
CHUNK_OPS = 100
#: Seconds of op time between two reference-kernel readings.
CALIBRATE_EVERY = 0.25


def tpch(workload: str):
    scale_factor, data_seed = workloads.DATA[workload]
    return generate_tpch(TPCHConfig(scale_factor=scale_factor, seed=data_seed))


def answer_rows(pairs) -> List[list]:
    """``QueryResult.confidences()`` pairs as JSON-ready output rows."""
    return [
        [list(values), result.probability, result.lower, result.upper,
         result.strategy]
        for values, result in pairs
    ]


class Workload:
    """Base class: subclasses fill in one workload."""

    name = ""
    http_server = "none"
    #: Op kinds with their own latencies in the report and the per-layer
    #: metrics: an op's kind (:meth:`kind`) or the parts of an op (``run``).
    kinds: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> Any:
        raise NotImplementedError

    def discard(self, state: Any) -> None:
        """Release a state built by :meth:`setup`."""

    def ops(self) -> Iterator[Any]:
        raise NotImplementedError

    def run(self, state: Any, op: Any) -> Tuple[Any, Dict[str, float]]:
        """Execute one op; returns its output and per-kind sub-latencies
        (seconds) for ops made of more than one request."""
        raise NotImplementedError

    def kind(self, op: Any) -> Optional[str]:
        """The kind an op's whole latency is booked under, if any."""
        return None

    def check(self, ops: List[Any], outputs: List[Any]) -> List[Optional[str]]:
        """One error message (or None) per op, computed after timing."""
        raise NotImplementedError

    def peak_rss_mb(self, state: Any) -> float:
        return common.peak_rss_mb()

    def cleanup(self) -> None:
        """Remove files the runs left behind."""

    def report_lines(self) -> List[str]:
        """Extra report lines, available after :meth:`check`."""
        return []

    # -- traced run ----------------------------------------------------------
    #: Whether the traced replay takes another path than the measured loop
    #: (``http_serve`` replays in-process), so the traced run also replays
    #: untraced to have an untraced twin of the traced replay.
    untraced_replay = False

    def replay_stats(self, latencies, replay_latencies) -> Dict[str, float]:
        """Per-layer metrics from the untraced loop and untraced replay."""
        return {}

    def replay_setup(self) -> Any:
        """Fresh state for the traced replay."""
        return self.setup()

    def replay(self, state: Any, op: Any) -> Any:
        """One op of the traced replay; returns its output."""
        return self.run(state, op)[0]

    def trace_stats(self, state: Any, ops: int) -> Dict[str, float]:
        """Per-layer metrics read from the program's own statistics."""
        return session_stats(state)


def session_stats(session: ProbDB) -> Dict[str, float]:
    """Memo and circuit-cache statistics of a ``ProbDB`` session."""
    memo = session.cache_stats()
    circuits = session.circuit_cache_stats()
    return {
        "core.memo.hit_ratio": _share(memo["hits"], memo["misses"]),
        "core.memo.entries": float(memo["entries"]),
        "circuits.cache.hit_ratio": _share(
            circuits["hits"], circuits["misses"]),
    }


def _share(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


class SqlWorkload(Workload):
    """``sql_adhoc``: ``ProbDB.sql(text).confidences()`` on one long-lived
    session."""

    name = "sql_adhoc"
    kinds = tuple(sorted(workloads.ADHOC_TEMPLATES))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = EngineConfig(
            epsilon=workloads.EPSILON, error_kind=RELATIVE, rng_seed=0
        )

    def setup(self) -> ProbDB:
        return ProbDB(tpch(self.name), self.config)

    def discard(self, state: ProbDB) -> None:
        state.close()

    def ops(self) -> Iterator[Tuple[str, str]]:
        return workloads.adhoc_ops(self.seed)

    def run(self, state: ProbDB, op: Tuple[str, str]):
        return answer_rows(state.sql(op[1]).confidences()), {}

    def kind(self, op: Tuple[str, str]) -> str:
        return op[0]

    def check(self, ops, outputs):
        oracle = SqlOracle(tpch(self.name))
        errors = []
        seen = set()
        self.lineage_repeats = 0
        for (_template, sql), rows in zip(ops, outputs):
            lineage = oracle.lineage(sql)
            key = tuple(dnf for _values, dnf in lineage)
            self.lineage_repeats += key in seen
            seen.add(key)
            errors.append(oracle.check(
                rows, lineage, workloads.EPSILON, RELATIVE
            ))
        return errors

    def report_lines(self) -> List[str]:
        # An exact lineage repeat is answered partly from warm caches; on
        # the small TPC-H instance about a third of a run's ops repeat one.
        return [f"ops whose lineage repeats an earlier op's: "
                f"{self.lineage_repeats}"]


def make(workload: str, seed: int) -> Workload:
    if workload == "sql_adhoc":
        return SqlWorkload(seed)
    if workload == "dml_mixed":
        from .dml import DmlWorkload

        return DmlWorkload(seed)
    if workload == "http_serve":
        from .http import HttpWorkload

        return HttpWorkload(seed)
    raise SystemExit(f"unknown workload {workload!r}")


class Loop:
    """What a closed loop did: its ops, their outputs and latencies.

    ``latencies`` and ``by_kind`` are in seconds at reference host speed;
    ``raw`` is as measured, and ``kernel`` holds the reference-kernel
    readings.
    """

    def __init__(self) -> None:
        self.ops: List[Any] = []
        self.outputs: List[Any] = []
        self.raw: List[float] = []
        self.latencies: List[float] = []
        self.by_kind: Dict[str, List[float]] = {}
        #: Each op's kind (:meth:`Workload.kind`).
        self.kinds: List[Optional[str]] = []
        self.kernel: List[float] = []

    def percentile(self, fraction: float) -> float:
        """Latency percentile in seconds: the geometric mean over op kinds
        of each kind's percentile (the plain percentile when every op is
        of one kind).  A percentile over a mix of kinds with different
        latencies can sit on the edge between two of them and jump with
        small changes to the mix; each kind's own percentile sits inside
        its kind, and every kind weighs the same."""
        groups: Dict[Optional[str], List[float]] = {}
        for kind, latency in zip(self.kinds, self.latencies):
            groups.setdefault(kind, []).append(latency)
        return statistics.geometric_mean(
            common.percentile(group, fraction) for group in groups.values()
        )


def run_loop(
    bench: Workload, state: Any, ops: Iterator[Any], seconds: float,
    min_ops: int,
) -> Loop:
    """Closed loop: one op at a time until ``seconds`` of op time and
    ``min_ops`` ops.

    The host's speed drifts: a shared machine can run the same op sequence
    1.3–1.9× slower for seconds to minutes at a time.  So between ops, at
    least every ``CALIBRATE_EVERY`` seconds of op time, the loop times a
    fixed reference kernel (:func:`common.reference_kernel`, outside every
    op's timing), scales each op's latency by ``REFERENCE_KERNEL_SECONDS``
    over the mean of the kernel readings around it, and counts ``seconds``
    at reference speed too (by the latest reading), so a run does about
    the same ops whatever the host's mode."""
    loop = Loop()
    parts_of: List[Dict[str, float]] = []
    # Op index at which each kernel reading was taken.
    marks = [0]
    loop.kernel.append(common.kernel_seconds())
    busy = since = 0.0
    clock = time.perf_counter
    for op in ops:
        if busy >= seconds and len(loop.ops) >= min_ops:
            break
        begin = clock()
        output, parts = bench.run(state, op)
        elapsed = clock() - begin
        busy += elapsed * common.speed_factor(
            loop.kernel[-1], loop.kernel[-1])
        since += elapsed
        loop.ops.append(op)
        loop.outputs.append(output)
        loop.raw.append(elapsed)
        kind = bench.kind(op)
        loop.kinds.append(kind)
        parts_of.append(dict(parts, **{kind: elapsed}) if kind else parts)
        if since >= CALIBRATE_EVERY:
            loop.kernel.append(common.kernel_seconds())
            marks.append(len(loop.ops))
            since = 0.0
    if marks[-1] < len(loop.ops):
        loop.kernel.append(common.kernel_seconds())
        marks.append(len(loop.ops))
    for segment in range(len(marks) - 1):
        factor = common.speed_factor(
            loop.kernel[segment], loop.kernel[segment + 1])
        for index in range(marks[segment], marks[segment + 1]):
            loop.latencies.append(loop.raw[index] * factor)
            for kind, part in parts_of[index].items():
                loop.by_kind.setdefault(kind, []).append(part * factor)
    return loop


def latency_lines(latencies: List[float], label: str) -> List[str]:
    """p50/p90/p99 where there are enough samples, in ms."""
    parts = [f"{label}: {len(latencies)} samples"]
    for fraction in (0.5, 0.9, 0.99):
        try:
            value = common.percentile(latencies, fraction) * 1000.0
        except common.TooFewSamples:
            continue
        parts.append(f"p{fraction * 100:g}={value:.3f}ms")
    return ["  ".join(parts)]


def chunked(latencies: List[float]) -> List[List[float]]:
    """Consecutive chunks of at least ``CHUNK_OPS`` ops (at most
    ``CHUNKS``).  Throughput is the median over chunks, so a few seconds
    of interference from other tenants of the machine move a chunk, not
    the run."""
    count = max(1, min(CHUNKS, len(latencies) // CHUNK_OPS))
    size = len(latencies) // count
    return [
        latencies[index * size:(index + 1) * size if index < count - 1
                  else len(latencies)]
        for index in range(count)
    ]


def _median(values) -> float:
    return statistics.median(list(values))


def loop_lines(bench: Workload, loop: Loop, label: str) -> List[str]:
    """Latency lines of a loop: all ops, each kind, and the host's speed."""
    lines = latency_lines(loop.latencies, f"{label} (at reference speed)")
    lines += latency_lines(loop.raw, f"{label} (as measured)")
    for kind in bench.kinds:
        lines += latency_lines(loop.by_kind.get(kind, []), kind)
    kernel = [seconds * 1000.0 for seconds in loop.kernel]
    lines.append(
        f"reference kernel: {len(kernel)} readings, median "
        f"{statistics.median(kernel):.3f}ms, min {min(kernel):.3f}ms, "
        f"max {max(kernel):.3f}ms (reference "
        f"{common.REFERENCE_KERNEL_SECONDS * 1000.0:g}ms)"
    )
    return lines


def measured_run(
    bench: Workload, seconds: float, min_ops: int
) -> Dict[str, Any]:
    """The untraced run: set-up median, timed loop, then the oracle."""
    state, setup_s, times = common.timed_setups(
        bench.setup, bench.discard, SETUP_MIN_REPEATS, SETUP_MIN_SECONDS,
        SETUP_MAX_REPEATS,
    )
    gc.collect()
    loop = run_loop(bench, state, bench.ops(), seconds, min_ops)
    peak = bench.peak_rss_mb(state)
    bench.discard(state)
    state = None
    errors = [
        f"op {index}: {error}"
        for index, error in enumerate(bench.check(loop.ops, loop.outputs))
        if error is not None
    ]
    attempted = len(loop.ops)
    lines = loop_lines(bench, loop, "all ops")
    lines += bench.report_lines()
    lines.append(
        f"setup: {len(times)} repeats, median {setup_s:.4f}s, "
        f"min {min(times):.4f}s, max {max(times):.4f}s"
    )
    chunks = chunked(loop.latencies)
    lines.append(
        f"{len(chunks)} chunks of {len(chunks[0])}+ ops; throughput per "
        "chunk: " + " ".join(f"{len(c) / sum(c):.1f}" for c in chunks)
    )
    return {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "outputs": loop.outputs,
        "lines": lines,
        "metrics": {
            "throughput_ops": (
                _median(len(c) / sum(c) for c in chunks), "ops/s"),
            "latency_p50_ms": (loop.percentile(0.5) * 1000.0, "ms"),
            "latency_p90_ms": (loop.percentile(0.9) * 1000.0, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak, "MB"),
            "success_ratio": ((attempted - len(errors)) / attempted, "ratio"),
        },
    }
