"""Measurement helpers shared by every workload: percentiles, host-speed
calibration, set-up timing, output digests, peak memory and the
environment record."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than MIN_BEYOND samples
    beyond it, so one outlier could move it."""


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile that insists on ``MIN_BEYOND`` samples
    strictly above the reported rank (p90 needs ≥100 samples, p99 ≥1000).
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    count = len(samples)
    rank = max(1, math.ceil(fraction * count))
    beyond = count - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{fraction * 100:g} of {count} samples leaves {beyond} beyond "
            f"it; at least {MIN_BEYOND} are needed"
        )
    return sorted(samples)[rank - 1]


# -- host-speed calibration ---------------------------------------------------
#: Seconds the reference kernel takes at reference speed: its fast-mode
#: time on a 2.1 GHz Xeon under CPython 3.11.  Corrected times read as
#: times at that speed.
REFERENCE_KERNEL_SECONDS = 0.002
#: Kernel runs per calibration; the fastest counts.
KERNEL_REPEATS = 3


def reference_kernel() -> float:
    """A fixed piece of interpreter-bound work that uses no program code:
    small objects, hashing, dict and set traffic, sorting and float
    products, the mix the SQL and mutation paths spend their time on."""
    rng = random.Random(7)
    clauses = [
        frozenset(rng.randrange(400) for _ in range(4)) for _ in range(600)
    ]
    counts: Dict[int, int] = {}
    for clause in clauses:
        for variable in clause:
            counts[variable] = counts.get(variable, 0) + 1
    order = sorted(counts, key=counts.__getitem__)
    probability = {v: 0.1 + (v % 7) / 10 for v in counts}
    total = 0.0
    for clause in clauses:
        product = 1.0
        for variable in clause:
            product *= probability[variable]
        total += product
    groups: Dict[int, List[Tuple[int, ...]]] = {}
    for clause in clauses:
        groups.setdefault(min(clause), []).append(tuple(sorted(clause)))
    return total + len(order) + len(groups)


def kernel_seconds() -> float:
    """The reference kernel's time now: the host's current speed."""
    times = []
    for _ in range(KERNEL_REPEATS):
        started = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - started)
    return min(times)


def speed_factor(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel readings into
    a time at reference speed."""
    return REFERENCE_KERNEL_SECONDS / ((before + after) / 2.0)


def timed_setups(
    build: Callable[[], Any],
    discard: Callable[[Any], None],
    min_repeats: int,
    min_seconds: float,
    max_repeats: int,
) -> Tuple[Any, float, List[float]]:
    """Time ``build`` after a full collection, repeatedly: at least
    ``min_repeats`` times and until ``min_seconds`` were spent in it (at
    most ``max_repeats``).  Each time is scaled to reference host speed by
    reference-kernel readings taken around it.  Keeps the last
    state; returns ``(state, median seconds, all times)``."""
    times: List[float] = []
    spent = 0.0
    state = None
    while len(times) < max_repeats and (
        len(times) < min_repeats or spent < min_seconds
    ):
        if state is not None:
            discard(state)
            state = None
        gc.collect()
        before = kernel_seconds()
        started = time.perf_counter()
        state = build()
        elapsed = time.perf_counter() - started
        spent += elapsed
        times.append(elapsed * speed_factor(before, kernel_seconds()))
    return state, statistics.median(times), times


def digest(outputs: Sequence[Any]) -> str:
    """Stable hash of op outputs (floats by ``repr``: every digit counts)."""
    text = json.dumps(outputs, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb(pid: int = 0) -> float:
    """Peak resident set size in MB: this process, or ``pid``'s."""
    if pid:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {pid}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(root: str, http_server: str) -> Dict[str, Any]:
    """Where a result was measured: commit, CPUs, versions, backend."""
    from repro.engine import EngineConfig

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": EngineConfig().describe()["kernel_backend"],
        "http_server": http_server,
    }
