"""``http_serve``: JSON requests over a real socket to a serving worker.

Set-up compiles the exact circuits of TPC-H answer lineage, saves them as
a store, and starts ``ServingFleet(workers=1, http_server="stdlib")``.  One
closed-loop client connection then sends a seeded mix of evaluate /
what_if / sweep / top_k / bounds requests with unique probability
overrides; a fixed share are exact repeats of recent requests (served by
the response cache) and a fixed share ask for small lineages that are not
in the store (served by the worker's engine fallback).

The traced run replays the same requests in-process through
``ASGIClient`` on an identical serving stack, which splits the serving
layers; the socket's own cost is the socket latency minus the in-process
latency of the same requests.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import EngineConfig, ProbDB
from repro.circuits import CircuitCache
from repro.core.approx import approximate_probability
from repro.core.dnf import DNF
from repro.engine import ConfidenceEngine
from repro.serving import (
    ASGIClient,
    CircuitStoreService,
    FleetClient,
    FleetConfig,
    ServingApp,
    ServingEngine,
    ServingError,
    ServingFleet,
    dnf_from_json,
    dnf_to_json,
)

from . import common
from .harness import Workload, tpch
from .oracle import SLACK

NAME = "http_serve"
HTTP_SERVER = "stdlib"
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")

#: Answer sets compiled into the store: B2's join grouped by nation over
#: part-size bands (every answer has its own lineage).
STORE_SQL = (
    "select n.n_name, conf() from part p, partsupp ps, supplier s, "
    "nation n where p.p_partkey = ps.ps_partkey "
    "and ps.ps_suppkey = s.s_suppkey and s.s_nationkey = n.n_nationkey "
    "and p.p_size >= {lo} and p.p_size <= {hi}"
)
SIZE_BANDS = ((1, 10), (11, 20), (21, 30), (31, 40), (41, 50))

#: Request kinds, each sent once per round of seven in seeded order.  The
#: equal shares are an assumption, not measured traffic: the repository's
#: serving-latency benchmark sends evaluate / what_if / sweep / top_k in
#: equal shares, and bounds, exact repeats of a recent request (answered by
#: the response cache) and cold requests (the union of two stored
#: lineages, which no store holds: engine fallback) join them at the same
#: share.
KINDS = ("evaluate", "bounds", "what_if", "sweep", "top_k", "repeat", "cold")


def store_lineage(database) -> List[DNF]:
    """The lineage of every stored answer, in a fixed order."""
    session = ProbDB(database)
    lineage: List[DNF] = []
    for lo, hi in SIZE_BANDS:
        for _values, dnf in session.sql(STORE_SQL.format(lo=lo, hi=hi)).lineage():
            lineage.append(dnf)
    return lineage


def _variable(rng: random.Random, dnf: DNF) -> Any:
    return rng.choice(sorted(dnf.variables, key=repr))


def _override(rng: random.Random, dnf: DNF) -> List[list]:
    """One unique probability override on a variable of ``dnf`` (wire form)."""
    return [[list(_variable(rng, dnf)), round(rng.uniform(0.01, 0.99), 6)]]


def http_ops(seed: int) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Seeded ``(kind, payload)`` requests; payloads are wire JSON."""
    rng = random.Random(f"http:{seed}")
    lineage = store_lineage(tpch(NAME))
    wire = [dnf_to_json(dnf) for dnf in lineage]
    recent: List[Dict[str, Any]] = []
    while True:
        order = list(KINDS)
        rng.shuffle(order)
        for kind in order:
            yield _request(rng, kind, lineage, wire, recent)


def _request(rng, kind, lineage, wire, recent) -> Tuple[str, Dict[str, Any]]:
    """One ``(kind, payload)`` request; unique requests join ``recent``."""
    if kind == "repeat" and not recent:
        kind = "evaluate"
    index = rng.randrange(len(lineage))
    dnf = lineage[index]
    if kind == "repeat":
        payload = dict(rng.choice(recent))
    elif kind == "cold":
        # Two answers' lineage joined: a disjunction no store holds.
        other = wire[rng.randrange(len(lineage))]
        clauses = {repr(c): c for c in wire[index] + other}
        payload = {"op": "evaluate",
                   "lineage": [clauses[k] for k in sorted(clauses)]}
    elif kind == "evaluate" or kind == "bounds":
        payload = {"op": kind, "lineage": wire[index],
                   "overrides": _override(rng, dnf)}
    elif kind == "what_if":
        payload = {"op": kind, "lineage": wire[index],
                   "variable": list(_variable(rng, dnf)),
                   "probabilities": [round(rng.random(), 6)
                                     for _ in range(5)]}
    elif kind == "sweep":
        payload = {"op": kind, "lineage": wire[index], "kind": "values",
                   "scenarios": [_override(rng, dnf) for _ in range(4)]}
    else:
        picks = rng.sample(range(len(lineage)), 5)
        payload = {"op": kind, "lineages": [wire[i] for i in picks],
                   "k": 3, "overrides": _override(rng, lineage[picks[0]])}
    if kind not in ("repeat", "cold"):
        recent.append(payload)
        del recent[:-50]
    return kind, payload


#: The CPUs this process may use when the module is first imported.
CPUS = sorted(os.sched_getaffinity(0))


def _pin(server: int) -> None:
    """Run the client on one CPU and the server on another.  Unpinned, the
    two processes share and trade CPUs, and the latency tail follows the
    scheduler: in six runs on a 2-vCPU machine, pinning cut p90 from
    3.4–4.3 ms to 2.6–2.9 ms."""
    if len(CPUS) < 2:
        return
    for pid, cpu in ((os.getpid(), CPUS[0]), (server, CPUS[1])):
        # Every thread: an affinity call moves only the thread it names.
        for thread in os.listdir(f"/proc/{pid}/task"):
            try:
                os.sched_setaffinity(int(thread), {cpu})
            except ProcessLookupError:  # the thread has ended
                pass


def _strip(response: Dict[str, Any]) -> Dict[str, Any]:
    """A response without its store version (a file timestamp)."""
    return {k: v for k, v in response.items() if k != "store_version"}


class _Serving:
    """One serving set-up: database, store file, and a client."""

    def __init__(self, in_process: bool) -> None:
        self.database = tpch(NAME)
        session = ProbDB(self.database)
        for lo, hi in SIZE_BANDS:
            session.sql(STORE_SQL.format(lo=lo, hi=hi)).compile()
        os.makedirs(WORK_DIR, exist_ok=True)
        self.path = os.path.join(
            WORK_DIR, f"store-{os.getpid()}-{time.monotonic_ns()}.rcir"
        )
        session.save_circuits(self.path)
        self.loop = asyncio.new_event_loop()
        self.fleet: Optional[ServingFleet] = None
        if in_process:
            stores = CircuitStoreService(
                self.database.registry, {"main": self.path}
            )
            engine = ConfidenceEngine(self.database.registry, EngineConfig())
            self.client: Any = ASGIClient(
                ServingApp(ServingEngine(stores, engine))
            )
        else:
            self.fleet = ServingFleet(
                self.database.registry, {"main": self.path},
                config=FleetConfig(workers=1, http_server=HTTP_SERVER),
            )
            self.client = FleetClient(self.fleet.start())
            _pin(self.fleet.pids[0])

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        try:
            return _strip(
                self.loop.run_until_complete(self.client.request(dict(payload)))
            )
        except ServingError as exc:
            return {"error": exc.code}

    def stats(self) -> Dict[str, Any]:
        return self.loop.run_until_complete(self.client.stats())

    def close(self) -> None:
        if self.fleet is not None:
            self.loop.run_until_complete(self.client.close())
            self.fleet.close()
        self.loop.close()


class HttpWorkload(Workload):
    name = NAME
    http_server = HTTP_SERVER
    kinds = KINDS
    untraced_replay = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._store: Optional[str] = None

    def setup(self) -> _Serving:
        serving = _Serving(in_process=False)
        self._store = serving.path
        return serving

    def discard(self, state: _Serving) -> None:
        state.close()

    def ops(self):
        return http_ops(self.seed)

    def run(self, state: _Serving, op):
        return state.request(op[1]), {}

    def kind(self, op) -> str:
        return op[0]

    def peak_rss_mb(self, state: _Serving) -> float:
        assert state.fleet is not None
        return common.peak_rss_mb(state.fleet.pids[0])

    def check(self, ops, outputs):
        """Scalar ``Circuit.evaluate`` on the same store: bit-identical."""
        database = tpch(NAME)
        cache = CircuitCache.load(self._store, database.registry)
        return [
            _check(cache, database, kind, payload, response)
            for (kind, payload), response in zip(ops, outputs)
        ]

    def cleanup(self) -> None:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    # -- traced run ----------------------------------------------------------
    def replay_stats(self, latencies, replay_latencies):
        """The socket's share: mean latency over the socket minus the mean
        in-process latency of the same requests."""
        transport = (
            sum(latencies) / len(latencies)
            - sum(replay_latencies) / len(replay_latencies)
        )
        return {"serving.fleet.transport_ms": transport * 1000.0}

    def replay_setup(self) -> _Serving:
        return _Serving(in_process=True)

    def replay(self, state: _Serving, op):
        return state.request(op[1])

    def trace_stats(self, state: _Serving, ops: int) -> Dict[str, float]:
        stats = state.stats()
        store_total = stats["store_hits"] + stats["store_misses"]
        return {
            "serving.engine.occupancy": stats["batch_occupancy"],
            "serving.engine.fallbacks": stats["engine_fallbacks"] / ops,
            "serving.store.hit_ratio": (
                stats["store_hits"] / store_total if store_total else 0.0),
            "serving.response_cache.hit_ratio": stats["response_hit_ratio"],
        }


def _values(circuit, scenarios) -> List[float]:
    return [circuit.evaluate(_overrides(s)) for s in scenarios]


def _overrides(wire: Optional[List[list]]) -> Optional[Dict[Any, float]]:
    if wire is None:
        return None
    return {tuple(variable): p for variable, p in wire}


def _check(cache, database, kind, payload, response) -> Optional[str]:
    if "error" in response:
        return f"{kind} request failed: {response['error']}"
    op = payload["op"]
    if op == "top_k":
        circuits = [cache.get(dnf_from_json(w)) for w in payload["lineages"]]
        values = [c.evaluate(_overrides(payload["overrides"])) for c in circuits]
        ranked = sorted(range(len(values)), key=lambda i: (-values[i], i))
        expected: Any = [[i, values[i]] for i in ranked[: payload["k"]]]
        got: Any = response["answers"]
    else:
        dnf = dnf_from_json(payload["lineage"])
        circuit = cache.get(dnf)
        if circuit is None:
            exact = approximate_probability(
                dnf, database.registry, epsilon=0.0
            ).estimate
            if abs(response["value"] - exact) > SLACK:
                return f"cold evaluate {response['value']!r} != {exact!r}"
            return None
        if op == "evaluate":
            expected = circuit.evaluate(_overrides(payload.get("overrides")))
            got = response["value"]
        elif op == "bounds":
            expected = list(
                circuit.evaluate_bounds(_overrides(payload["overrides"])))
            got = response["bounds"]
        elif op == "what_if":
            variable = payload["variable"]
            expected = _values(
                circuit, [[[variable, p]] for p in payload["probabilities"]])
            got = response["values"]
        else:
            expected = _values(circuit, payload["scenarios"])
            got = response["results"]
    if got != expected:
        return f"{kind} response {got!r} != reference {expected!r}"
    return None
