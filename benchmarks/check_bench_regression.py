#!/usr/bin/env python3
"""Bench-regression gate: smoke benches vs the committed baselines.

Usage::

    PYTHONPATH=src python benchmarks/check_bench_regression.py

Runs the circuit-reuse and engine-compare benches in **smoke mode**
(small workloads, one repetition) and compares them against the
committed ``BENCH_circuits.json`` / ``BENCH_engine.json`` baselines.
Absolute seconds are meaningless across machines — the committed
baselines were recorded on different hardware than any CI runner — so
the gate checks the two **machine-independent ratios** each bench
measures inside a single run:

* ``speedup_warm_vs_cold`` (circuits): warm circuit re-evaluation vs
  cold exact recompute.  Baseline ≈ 145×; the gate fails if a smoke run
  cannot reach ``max(2, baseline / SLACK)`` — an order-of-magnitude
  collapse of the circuits subsystem.
* ``session_vs_interned`` (engine): batched session confidences vs the
  per-tuple engine loop.  Baseline ≈ 1.0; the gate fails if batching
  becomes ``SLACK×`` slower than the loop — a pathological regression
  in ``compute_many`` / the session façade.
* ``speedup_vectorized_vs_scalar`` (sweep): the numpy kernel batch vs
  the per-world scalar sweep.  Baseline ≈ 30×; checked only when numpy
  is importable — without it the bench has nothing to race, and the
  gate prints a skip notice instead.
* ``speedup_incremental_vs_full`` (updates): incremental re-query after
  a DML mutation (cone-level eviction, warm remainder) vs a full
  from-scratch rebuild.  Baseline from the recorded full run; the gate
  fails if a smoke run cannot reach ``max(2, baseline / SLACK)``.
* ``steps_ratio_guided_vs_widest`` (refine): gradient-guided top-k
  refinement vs the widest-interval scheduler.  Step counts are
  scheduling-deterministic — no timing involved — so this gate is held
  tight: the smoke ratio may not exceed ``max(baseline, 1.0) × 1.05``
  and guided ranking must certify the **identical** ordering.
* ``response_hit_ratio`` (fleet): the share of the repetition-heavy
  socket workload answered from worker response caches.  The ratio is
  fixed by the workload's repeat structure, not the hardware, so the
  gate fails if it halves — the cache stopped carrying repeats.  The
  fleet check also verifies more than one worker actually served and
  that per-worker throughput did not collapse by ``SLACK×`` against
  the committed baseline.
* ``idle_flush_ratio`` (serving, lone-client leg): a request with no
  company must flush on the idle rule instead of waiting out the batch
  window.  With one client there is never company, so every flush of
  that leg must be idle — a deterministic count, held exactly at 1.0.
  The storm's occupancy > 1 bar stays alongside it.

``SLACK`` is deliberately generous (hosted runners are noisy, smoke
workloads are small): the gate exists to catch *order-of-magnitude*
regressions on every PR, not single-digit percentages — those are the
job of the recorded full benches.

Every gate loads its committed baseline through :func:`load_baseline`,
which fails **loudly** — a missing, unparseable, or non-object
``BENCH_*.json`` raises :class:`RegressionError` instead of letting
the gate silently skip a broken baseline.

Smoke outputs are written to a temp directory; the committed baselines
are never touched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)

#: How much worse than baseline a smoke ratio may be before failing.
SLACK = 15.0
#: The warm-vs-cold speedup below which circuits are considered broken
#: regardless of baseline (warm evaluation must beat recompute easily).
CIRCUIT_SPEEDUP_FLOOR = 2.0
#: Likewise for the vectorized sweep vs the scalar per-world loop.
SWEEP_SPEEDUP_FLOOR = 2.0
#: And for incremental re-query vs from-scratch rebuild after DML.
UPDATES_SPEEDUP_FLOOR = 2.0


class RegressionError(AssertionError):
    pass


def load_baseline(name: str) -> dict:
    path = os.path.join(REPO_ROOT, name)
    if not os.path.exists(path):
        raise RegressionError(
            f"committed baseline {name} is missing — record it with the "
            "matching bench script before gating on it"
        )
    try:
        with open(path) as handle:
            baseline = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
        raise RegressionError(
            f"committed baseline {name} is unreadable ({error}) — "
            "re-record it with the matching bench script; a corrupt "
            "baseline must never silently pass the gate"
        ) from error
    if not isinstance(baseline, dict):
        raise RegressionError(
            f"committed baseline {name} is not a JSON object — "
            "re-record it with the matching bench script"
        )
    return baseline


def run_bench(script: str, env: dict, *args: str) -> None:
    command = [sys.executable, os.path.join(BENCH_DIR, script), *args]
    merged_env = dict(os.environ)
    merged_env.update(env)
    merged_env.setdefault(
        "PYTHONPATH", os.path.join(REPO_ROOT, "src")
    )
    completed = subprocess.run(
        command, env=merged_env, capture_output=True, text=True
    )
    if completed.returncode != 0:
        raise RegressionError(
            f"{script} {' '.join(args)} failed:\n{completed.stdout}\n"
            f"{completed.stderr}"
        )


def check_circuit_speedup(failures: list) -> None:
    baseline = load_baseline("BENCH_circuits.json")
    baseline_speedup = baseline["totals"]["speedup_warm_vs_cold"]
    threshold = max(CIRCUIT_SPEEDUP_FLOOR, baseline_speedup / SLACK)

    with tempfile.TemporaryDirectory() as temp_dir:
        output = os.path.join(temp_dir, "circuits_smoke.json")
        run_bench(
            "bench_circuit_reuse.py",
            {
                "CIRCUIT_BENCH_SMOKE": "1",
                "CIRCUIT_BENCH_OUTPUT": output,
                # The gate applies its own threshold below.
                "CIRCUIT_BENCH_NO_ASSERT": "1",
            },
        )
        with open(output) as handle:
            smoke = json.load(handle)
    smoke_speedup = smoke["totals"]["speedup_warm_vs_cold"]
    verdict = "ok" if smoke_speedup >= threshold else "FAIL"
    print(
        f"[circuits] warm-vs-cold speedup: smoke {smoke_speedup:.1f}x, "
        f"baseline {baseline_speedup:.1f}x, threshold "
        f">= {threshold:.1f}x ... {verdict}"
    )
    if smoke_speedup < threshold:
        failures.append(
            f"circuit warm re-evaluation speedup collapsed: "
            f"{smoke_speedup:.1f}x < {threshold:.1f}x (baseline "
            f"{baseline_speedup:.1f}x / slack {SLACK:g})"
        )


def check_session_ratio(failures: list) -> None:
    baseline = load_baseline("BENCH_engine.json")
    try:
        baseline_ratio = baseline["session_vs_interned"]["overall_ratio"]
    except KeyError:
        raise RegressionError(
            "BENCH_engine.json has no session_vs_interned section — "
            "re-record the 'interned' and 'session' labels"
        ) from None
    # Batching may legitimately run a little over the loop on tiny
    # smoke workloads; it must never be an order of magnitude over.
    threshold = max(baseline_ratio, 1.0) * SLACK

    with tempfile.TemporaryDirectory() as temp_dir:
        output = os.path.join(temp_dir, "engine_smoke.json")
        env = {"ENGINE_BENCH_SMOKE": "1", "ENGINE_BENCH_OUTPUT": output}
        run_bench("bench_engine_compare.py", env, "interned")
        run_bench("bench_engine_compare.py", env, "session")
        with open(output) as handle:
            smoke = json.load(handle)
    smoke_ratio = smoke["session_vs_interned"]["overall_ratio"]
    verdict = "ok" if smoke_ratio <= threshold else "FAIL"
    print(
        f"[engine] session/interned ratio: smoke {smoke_ratio:.3f}, "
        f"baseline {baseline_ratio:.3f}, threshold "
        f"<= {threshold:.1f} ... {verdict}"
    )
    if smoke_ratio > threshold:
        failures.append(
            f"batched session confidences regressed vs the per-tuple "
            f"loop: ratio {smoke_ratio:.3f} > {threshold:.1f} "
            f"(baseline {baseline_ratio:.3f} × slack {SLACK:g})"
        )


def check_sweep_speedup(failures: list) -> None:
    try:
        import numpy  # noqa: F401
    except ImportError:
        print(
            "[sweep] skipped: numpy unavailable, scalar fallback has "
            "nothing to race against"
        )
        return
    baseline = load_baseline("BENCH_sweep.json")
    baseline_speedup = baseline["totals"]["speedup_vectorized_vs_scalar"]
    threshold = max(SWEEP_SPEEDUP_FLOOR, baseline_speedup / SLACK)

    with tempfile.TemporaryDirectory() as temp_dir:
        output = os.path.join(temp_dir, "sweep_smoke.json")
        run_bench(
            "bench_scenario_sweep.py",
            {
                "SWEEP_BENCH_SMOKE": "1",
                "SWEEP_BENCH_OUTPUT": output,
                # The gate applies its own threshold below.
                "SWEEP_BENCH_NO_ASSERT": "1",
            },
        )
        with open(output) as handle:
            smoke = json.load(handle)
    smoke_speedup = smoke["totals"]["speedup_vectorized_vs_scalar"]
    verdict = "ok" if smoke_speedup >= threshold else "FAIL"
    print(
        f"[sweep] vectorized-vs-scalar speedup: smoke "
        f"{smoke_speedup:.1f}x, baseline {baseline_speedup:.1f}x, "
        f"threshold >= {threshold:.1f}x ... {verdict}"
    )
    if smoke_speedup < threshold:
        failures.append(
            f"vectorized sweep speedup collapsed: {smoke_speedup:.1f}x "
            f"< {threshold:.1f}x (baseline {baseline_speedup:.1f}x / "
            f"slack {SLACK:g})"
        )


def check_updates(failures: list) -> None:
    baseline = load_baseline("BENCH_updates.json")
    baseline_speedup = baseline["totals"]["speedup_incremental_vs_full"]
    threshold = max(UPDATES_SPEEDUP_FLOOR, baseline_speedup / SLACK)

    with tempfile.TemporaryDirectory() as temp_dir:
        output = os.path.join(temp_dir, "updates_smoke.json")
        run_bench(
            "bench_incremental_updates.py",
            {
                "UPDATES_BENCH_SMOKE": "1",
                "UPDATES_BENCH_OUTPUT": output,
                # The gate applies its own threshold below.
                "UPDATES_BENCH_NO_ASSERT": "1",
            },
        )
        with open(output) as handle:
            smoke = json.load(handle)
    totals = smoke["totals"]
    smoke_speedup = totals["speedup_incremental_vs_full"]
    verdict = "ok" if smoke_speedup >= threshold else "FAIL"
    print(
        f"[updates] incremental-vs-full speedup: smoke "
        f"{smoke_speedup:.1f}x ({totals['mutation_throughput_per_s']:.0f} "
        f"mutations/s, re-query p50 {totals['requery_p50_ms']:.2f} ms / "
        f"p99 {totals['requery_p99_ms']:.2f} ms), baseline "
        f"{baseline_speedup:.1f}x, threshold >= {threshold:.1f}x "
        f"... {verdict}"
    )
    if smoke_speedup < threshold:
        failures.append(
            f"incremental re-query speedup collapsed: "
            f"{smoke_speedup:.1f}x < {threshold:.1f}x (baseline "
            f"{baseline_speedup:.1f}x / slack {SLACK:g})"
        )


def check_serving_overhead(failures: list) -> None:
    baseline = load_baseline("BENCH_serving.json")
    baseline_overhead = baseline["totals"]["overhead_ratio"]
    # The wire stack (JSON + routing + admission + batching windows)
    # legitimately costs a multiple of a direct call; it must not
    # explode by another order of magnitude on top of the baseline.
    threshold = max(baseline_overhead, 1.0) * SLACK

    with tempfile.TemporaryDirectory() as temp_dir:
        output = os.path.join(temp_dir, "serving_smoke.json")
        run_bench(
            "bench_serving_latency.py",
            {
                "SERVING_BENCH_SMOKE": "1",
                "SERVING_BENCH_OUTPUT": output,
                # Occupancy is gated below alongside the overhead.
                "SERVING_BENCH_NO_ASSERT": "1",
            },
        )
        with open(output) as handle:
            smoke = json.load(handle)
    totals = smoke["totals"]
    smoke_overhead = totals["overhead_ratio"]
    occupancy = totals["batch_occupancy"]
    lone = smoke["lone"]
    all_idle = lone["batches"] > 0 and (
        lone["idle_flushes"] == lone["batches"]
    )
    verdict = (
        "ok"
        if smoke_overhead <= threshold and occupancy > 1.0 and all_idle
        else "FAIL"
    )
    print(
        f"[serving] overhead vs direct calls: smoke "
        f"{smoke_overhead:.1f}x (p50 {totals['p50_ms']:.2f} ms, p99 "
        f"{totals['p99_ms']:.2f} ms, {totals['throughput_rps']:.0f} "
        f"req/s, occupancy {occupancy:.2f}), baseline "
        f"{baseline_overhead:.1f}x, threshold <= {threshold:.1f}x; "
        f"lone client p50 {lone['p50_ms']:.2f} ms, "
        f"{lone['idle_flushes']}/{lone['batches']} flushes idle "
        f"... {verdict}"
    )
    if smoke_overhead > threshold:
        failures.append(
            f"serving-tier overhead exploded: {smoke_overhead:.1f}x "
            f"direct calls > {threshold:.1f}x (baseline "
            f"{baseline_overhead:.1f}x × slack {SLACK:g})"
        )
    if occupancy <= 1.0:
        failures.append(
            f"serving micro-batching stopped coalescing: occupancy "
            f"{occupancy:.2f} <= 1.0"
        )
    if not all_idle:
        failures.append(
            f"lone-client requests waited out the batch window: "
            f"{lone['idle_flushes']}/{lone['batches']} flushes idle "
            "(every flush must be idle with no concurrent request)"
        )


def check_fleet(failures: list) -> None:
    baseline = load_baseline("BENCH_fleet.json")
    baseline_totals = baseline["totals"]
    baseline_ratio = baseline_totals["response_hit_ratio"]
    baseline_per_worker = baseline_totals["throughput_per_worker"]
    # The hit ratio is workload-determined (unique specs × repeats), so
    # even a smoke run on slow hardware reproduces it; halving means
    # the response cache stopped carrying repeated requests.
    ratio_threshold = baseline_ratio / 2.0
    # Per-worker throughput of mostly-cached JSON responses is gated
    # only against an order-of-magnitude collapse — hosted runners are
    # slower than the recording machine, never SLACK× slower at
    # answering cache hits over loopback.
    per_worker_threshold = baseline_per_worker / SLACK

    with tempfile.TemporaryDirectory() as temp_dir:
        output = os.path.join(temp_dir, "fleet_smoke.json")
        run_bench(
            "bench_fleet_throughput.py",
            {
                "FLEET_BENCH_SMOKE": "1",
                "FLEET_BENCH_OUTPUT": output,
                # The gate applies its own thresholds below.
                "FLEET_BENCH_NO_ASSERT": "1",
            },
        )
        with open(output) as handle:
            smoke = json.load(handle)
    totals = smoke["totals"]
    workers = totals["workers"]
    hit_ratio = totals["response_hit_ratio"]
    per_worker = totals["throughput_per_worker"]
    ok = (
        workers > 1
        and hit_ratio >= ratio_threshold
        and per_worker >= per_worker_threshold
    )
    print(
        f"[fleet] {int(workers)} workers, response hit ratio "
        f"{hit_ratio:.3f} (threshold >= {ratio_threshold:.3f}), "
        f"{per_worker:.0f} req/s/worker (threshold "
        f">= {per_worker_threshold:.0f}) ... {'ok' if ok else 'FAIL'}"
    )
    if workers <= 1:
        failures.append(
            f"fleet smoke served with {int(workers)} worker(s); "
            "scale-out needs more than one"
        )
    if hit_ratio < ratio_threshold:
        failures.append(
            f"fleet response-cache hit ratio collapsed: "
            f"{hit_ratio:.3f} < {ratio_threshold:.3f} (baseline "
            f"{baseline_ratio:.3f} / 2)"
        )
    if per_worker < per_worker_threshold:
        failures.append(
            f"fleet per-worker throughput collapsed: {per_worker:.0f} "
            f"req/s < {per_worker_threshold:.0f} req/s (baseline "
            f"{baseline_per_worker:.0f} / slack {SLACK:g})"
        )


def check_refine(failures: list) -> None:
    baseline = load_baseline("BENCH_refine.json")
    baseline_totals = baseline["totals"]
    baseline_ratio = baseline_totals["steps_ratio_guided_vs_widest"]
    if not baseline_totals["orderings_identical"]:
        raise RegressionError(
            "BENCH_refine.json baseline recorded diverging orderings — "
            "re-record it; guided ranking must certify the same top-k"
        )
    # Step counts are scheduling-deterministic, not timings, so the
    # gate holds them tight: guided must certify the same ordering and
    # never spend materially more steps than widest-interval.
    ratio_threshold = max(baseline_ratio, 1.0) * 1.05

    with tempfile.TemporaryDirectory() as temp_dir:
        output = os.path.join(temp_dir, "refine_smoke.json")
        run_bench(
            "bench_refine.py",
            {
                "REFINE_BENCH_SMOKE": "1",
                "REFINE_BENCH_OUTPUT": output,
                # The gate applies its own thresholds below.
                "REFINE_BENCH_NO_ASSERT": "1",
            },
        )
        with open(output) as handle:
            smoke = json.load(handle)
    totals = smoke["totals"]
    smoke_ratio = totals["steps_ratio_guided_vs_widest"]
    identical = totals["orderings_identical"]
    ok = identical and smoke_ratio <= ratio_threshold
    print(
        f"[refine] guided/widest step ratio: smoke {smoke_ratio:.3f}, "
        f"baseline {baseline_ratio:.3f}, threshold "
        f"<= {ratio_threshold:.3f}, orderings "
        f"{'identical' if identical else 'DIVERGED'} "
        f"... {'ok' if ok else 'FAIL'}"
    )
    if not identical:
        failures.append(
            "guided top-k ranking certified a different ordering than "
            "widest-interval refinement on the smoke batch"
        )
    if smoke_ratio > ratio_threshold:
        failures.append(
            f"guided refinement step efficiency regressed: ratio "
            f"{smoke_ratio:.3f} > {ratio_threshold:.3f} (baseline "
            f"{baseline_ratio:.3f})"
        )


def main() -> int:
    failures: list = []
    check_circuit_speedup(failures)
    check_session_ratio(failures)
    check_sweep_speedup(failures)
    check_updates(failures)
    check_serving_overhead(failures)
    check_fleet(failures)
    check_refine(failures)
    if failures:
        print("\nbench-regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbench-regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
