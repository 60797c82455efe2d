"""The serving wire: one vocabulary, typed errors, no tracebacks.

Every way into the serving tier — the in-process clients, the ASGI app
and the fleet's stdlib HTTP/1.1 bridge — must answer a bad request
with a structured error (``{"error": {code, message, details}}`` and a
4xx status), never a 500 or a dropped connection.  Three layers:

* framing: raw bytes over a socket against the bridge;
* input errors: one regression per client-input mistake that used to
  surface as ``internal``;
* a property: random JSON bodies POSTed to every ``/v1/<op>`` and
  ``/v1/stores/<action>`` through :meth:`ServingApp.exchange` never
  produce status 500 (a corrupt store file is ``corrupt-store``, 422).
"""

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import CircuitCache
from repro.core.dnf import DNF
from repro.core.events import Clause
from repro.core.variables import VariableRegistry
from repro.engine import ConfidenceEngine
from repro.serving import (
    ASGIClient,
    CircuitStoreService,
    FleetClient,
    ServingApp,
    ServingClient,
    ServingEngine,
    ServingError,
)
from repro.serving.client import _ClientBase
from repro.serving.fleet import _StdlibBridge, _bind

OPS = ("evaluate", "bounds", "gradients", "what_if", "sweep", "top_k")
L1 = (("x0", "x1"), ("x2",), ("x3", "x4"))
COLD = (("x3", "x9"), ("x4", "x6"))


def run(coroutine):
    return asyncio.run(coroutine)


def dnf(*clauses):
    return DNF([Clause({v: True for v in clause}) for clause in clauses])


def wire(*clauses):
    return [[[v, True] for v in clause] for clause in clauses]


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    """A serving app over a one-circuit store, with a cold-path engine."""
    registry = VariableRegistry()
    for index in range(10):
        registry.add_boolean(f"x{index}", 0.08 + 0.07 * index)
    engine = ConfidenceEngine(registry)
    cache = CircuitCache()
    cache.put(dnf(*L1), engine.compile_circuit(dnf(*L1)))
    path = tmp_path_factory.mktemp("wire") / "store.bin"
    cache.save(path)
    stores = CircuitStoreService(
        registry, {"main": path}, reload_check_seconds=0.0
    )
    return ServingApp(ServingEngine(stores, ConfidenceEngine(registry)))


# ----------------------------------------------------------------------
# One vocabulary
# ----------------------------------------------------------------------
def public_methods(cls):
    return {
        name
        for name in dir(cls)
        if not name.startswith("_") and callable(getattr(cls, name))
    }


class TestVocabulary:
    def test_three_clients_share_one_method_set(self):
        fleet_only = {"worker_for", "aggregate_stats", "close"}
        assert public_methods(ServingClient) == public_methods(ASGIClient)
        assert (
            public_methods(FleetClient) - fleet_only
            == public_methods(ASGIClient)
        )
        # Only the transport is overridden; every call above it is the
        # shared _ClientBase code.
        transport = {"http", "admin", "request"}
        for cls in (ServingClient, ASGIClient, FleetClient):
            for name in public_methods(_ClientBase) - transport:
                assert getattr(cls, name) is getattr(_ClientBase, name)

    def test_error_json_round_trips(self):
        error = ServingError(
            "stale-version", "moved on", details={"current": "v2"}
        )
        again = ServingError.from_json(error.status, error.to_json())
        assert (again.code, again.message, again.status, again.details) == (
            "stale-version",
            "moved on",
            409,
            {"current": "v2"},
        )
        assert ServingError.from_json(502, []).code == "internal"


# ----------------------------------------------------------------------
# Framing: raw bytes against the stdlib bridge
# ----------------------------------------------------------------------
def raw_reply(app, request, *, byte_at_a_time=False):
    """Send raw bytes to a bridge on an ephemeral port, started as a
    fleet worker starts it; read the reply to EOF."""

    async def scenario():
        bridge = _StdlibBridge(app)
        server = await bridge.start(_bind("127.0.0.1"))
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            chunks = (
                [request[i:i + 1] for i in range(len(request))]
                if byte_at_a_time
                else [request]
            )
            for chunk in chunks:
                writer.write(chunk)
                await writer.drain()
                if byte_at_a_time:
                    await asyncio.sleep(0)
            return await asyncio.wait_for(reader.read(), 5.0)
        finally:
            writer.close()
            server.close()
            await bridge.drain()
            await server.wait_closed()

    return run(scenario())


def parse_reply(raw):
    """The first response in ``raw``: status, lower-cased head, JSON
    body, and the bytes after it."""
    head, _, rest = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 "), raw
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.lower().split(b"\r\n")
        if line.startswith(b"content-length:")
    )
    return (
        int(head.split()[1]),
        head.lower(),
        json.loads(rest[:length]),
        rest[length:],
    )


def raw_exchange(app, request, **kwargs):
    """One response to raw ``request`` bytes: status, head, JSON body."""
    status, head, payload, rest = parse_reply(
        raw_reply(app, request, **kwargs)
    )
    assert rest == b"", rest
    return status, head, payload


def post(length, body=b""):
    return (
        b"POST /v1/evaluate HTTP/1.1\r\nhost: x\r\n"
        b"content-length: " + length + b"\r\n\r\n" + body
    )


class TestFraming:
    @pytest.mark.parametrize("length", [b"abc", b"-5", b"1e3", b"\xb2"])
    def test_malformed_length_is_400(self, app, length):
        status, head, payload = raw_exchange(app, post(length))
        assert status == 400
        assert payload["error"]["code"] == "bad-request"
        assert b"connection: close" in head

    def test_oversized_length_is_413_before_reading(self, app):
        status, _, payload = raw_exchange(app, post(b"99999999999"))
        assert status == 413
        assert payload["error"]["code"] == "bad-request"

    def test_chunked_upload_is_411(self, app):
        request = (
            b"POST /v1/evaluate HTTP/1.1\r\nhost: x\r\n"
            b"transfer-encoding: chunked\r\n\r\n0\r\n\r\n"
        )
        status, _, payload = raw_exchange(app, request)
        assert status == 411
        assert payload["error"]["code"] == "bad-request"

    def test_well_framed_request_is_answered(self, app):
        body = json.dumps({"lineage": wire(*L1)}).encode()
        request = post(str(len(body)).encode(), body).replace(
            b"host: x\r\n", b"host: x\r\nconnection: close\r\n"
        )
        status, _, payload = raw_exchange(app, request)
        assert status == 200
        assert payload["strategy"] == "store"

    def test_malformed_request_line_is_400(self, app):
        status, head, payload = raw_exchange(app, b"GARBAGE\r\n\r\n")
        assert status == 400
        assert payload["error"]["code"] == "bad-request"
        assert b"connection: close" in head

    def test_oversized_head_is_400(self, app):
        request = (
            b"GET /healthz HTTP/1.1\r\nhost: x\r\nx-pad: "
            + b"a" * (70 * 1024)
            + b"\r\n\r\n"
        )
        status, head, payload = raw_exchange(app, request)
        assert status == 400
        assert payload["error"]["code"] == "bad-request"
        assert b"connection: close" in head

    def test_pipelined_requests_are_answered_in_order(self, app):
        first = json.dumps(
            {"lineage": wire(*L1), "overrides": [["x0", 0.25]]}
        ).encode()
        second = json.dumps({"lineage": wire(*L1)}).encode()
        request = post(str(len(first)).encode(), first) + post(
            str(len(second)).encode(), second
        ).replace(b"host: x\r\n", b"host: x\r\nconnection: close\r\n")
        raw = raw_reply(app, request)
        status, head, payload, rest = parse_reply(raw)
        assert status == 200 and b"connection: keep-alive" in head
        again, head, payload2, rest = parse_reply(rest)
        assert again == 200 and b"connection: close" in head
        assert rest == b""
        direct = [
            json.loads(run(app.exchange("POST", "/v1/evaluate", body))[2])
            for body in (first, second)
        ]
        assert payload["value"] == direct[0]["value"]
        assert payload2["value"] == direct[1]["value"]
        assert payload["value"] != payload2["value"]

    def test_request_written_a_byte_at_a_time(self, app):
        body = json.dumps({"lineage": wire(*L1)}).encode()
        request = post(str(len(body)).encode(), body).replace(
            b"host: x\r\n", b"host: x\r\nconnection: close\r\n"
        )
        status, _, payload = raw_exchange(app, request, byte_at_a_time=True)
        assert status == 200
        assert payload["strategy"] == "store"

    def test_empty_sweep_answers_no_results(self, app):
        body = json.dumps(
            {"lineage": wire(*L1), "scenarios": [], "kind": "values"}
        ).encode()
        request = (
            b"POST /v1/sweep HTTP/1.1\r\nhost: x\r\nconnection: close\r\n"
            b"content-length: " + str(len(body)).encode() + b"\r\n\r\n"
            + body
        )
        status, _, payload = raw_exchange(app, request)
        assert status == 200
        assert (payload["results"], payload["scenario_count"]) == ([], 0)
        in_process = run(
            asyncio.wait_for(ASGIClient(app).sweep(dnf(*L1), []), 5)
        )
        assert in_process["results"] == []


# ----------------------------------------------------------------------
# Client-input errors are bad-request, not internal
# ----------------------------------------------------------------------
class TestInputErrors:
    @pytest.mark.parametrize(
        "op, body",
        [
            ("evaluate", {"lineage": [[["zz", True]]]}),
            ("top_k", {"lineages": [[[["zz", True]]]], "k": 1}),
            ("bounds", {"lineage": [[["zz", True]]]}),
            ("evaluate", {"lineage": [[["x0", 3]]]}),
            ("evaluate", {"lineage": wire(*COLD), "epsilon": "a"}),
            ("evaluate", {"lineage": wire(*COLD), "epsilon": 2}),
            (
                "bounds",
                {"lineage": wire(*COLD), "refine": True,
                 "target_width": "a"},
            ),
            (
                "sweep",
                {"lineage": wire(*L1), "scenarios": [None],
                 "kind": "bounds", "target_width": -1},
            ),
        ],
    )
    def test_is_bad_request(self, app, op, body):
        with pytest.raises(ServingError) as info:
            run(ASGIClient(app).http("POST", f"/v1/{op}", body))
        assert info.value.code == "bad-request"
        assert info.value.status == 400

    @pytest.mark.parametrize(
        "deadline", ['"5"', "true", "NaN", "-1", "Infinity"]
    )
    def test_bad_deadline_is_bad_request(self, app, deadline):
        # Raw JSON text: NaN and Infinity are tokens json.loads accepts.
        body = (
            f'{{"lineage": {json.dumps(wire(*L1))}, '
            f'"deadline_seconds": {deadline}}}'
        ).encode()
        status, _, raw = run(app.exchange("POST", "/v1/evaluate", body))
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "bad-request"

    def test_valid_epsilon_still_answers(self, app):
        # A lineage no other test compiles into the overlay.
        lineage = dnf(("x5", "x7"), ("x8",))
        response = run(ASGIClient(app).evaluate(lineage, epsilon=0.01))
        assert response["strategy"] == "engine"


# ----------------------------------------------------------------------
# Wire fuzz: no body makes any op answer 500
# ----------------------------------------------------------------------
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
VARIABLE = st.sampled_from([f"x{i}" for i in range(10)]) | JSON
VALUE = st.sampled_from([True, True, False]) | JSON
LINEAGE = st.lists(
    st.lists(st.tuples(VARIABLE, VALUE).map(list), max_size=3),
    max_size=3,
)
PROBABILITY = st.floats(-0.5, 1.5) | JSON
OVERRIDES = st.none() | st.lists(
    st.tuples(
        VARIABLE,
        PROBABILITY | st.lists(st.tuples(VALUE, PROBABILITY).map(list)),
    ).map(list),
    max_size=3,
)
FIELDS = {
    "lineage": LINEAGE | JSON,
    "lineages": st.lists(LINEAGE, max_size=3) | JSON,
    "overrides": OVERRIDES | JSON,
    "scenarios": st.lists(OVERRIDES, max_size=3) | JSON,
    "variable": VARIABLE,
    "probabilities": st.lists(PROBABILITY, max_size=3) | JSON,
    "kind": st.sampled_from(["values", "bounds"]) | JSON,
    "refine": JSON,
    "k": st.integers(-1, 4) | JSON,
    "answers": JSON,
    "epsilon": st.floats(-0.5, 1.5) | JSON,
    "target_width": st.floats(-0.5, 1.5) | JSON,
    "store": st.sampled_from(["main"]) | JSON,
    "tenant": JSON,
    "deadline_seconds": st.floats(0.0, 5.0) | JSON,
    "expect_version": JSON,
}
BODIES = (
    st.fixed_dictionaries({}, optional=FIELDS).map(
        lambda body: json.dumps(body).encode()
    )
    | JSON.map(lambda value: json.dumps(value).encode())
    | st.binary(max_size=16)
)


class TestWireFuzz:
    @pytest.mark.parametrize("op", OPS)
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(body=BODIES)
    def test_no_body_answers_500(self, app, op, body):
        status, _, raw = run(app.exchange("POST", f"/v1/{op}", body))
        payload = json.loads(raw)
        assert status != 500, payload
        if status >= 300:
            assert set(payload) == {"error"}
            assert isinstance(payload["error"]["code"], str)


# ----------------------------------------------------------------------
# The store catalog: unreadable store files are typed errors
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    """An app with an empty catalog, plus store files good and bad."""
    registry = VariableRegistry()
    for index in range(10):
        registry.add_boolean(f"x{index}", 0.5)
    engine = ConfidenceEngine(registry)
    directory = tmp_path_factory.mktemp("catalog")
    cache = CircuitCache()
    cache.put(dnf(*L1), engine.compile_circuit(dnf(*L1)))
    cache.save(directory / "good.rcir")
    # 18 bytes: the magic, then too short for the header.
    (directory / "corrupt.rcir").write_bytes(b"RCIR\x02\x00" + bytes(12))
    paths = {
        "<good>": str(directory / "good.rcir"),
        "<corrupt>": str(directory / "corrupt.rcir"),
        "<missing>": str(directory / "missing.rcir"),
        "<dir>": str(directory),
    }
    app = ServingApp(
        ServingEngine(CircuitStoreService(registry, {}), engine)
    )
    return app, paths


def catalog_post(app, action, body):
    status, _, raw = run(
        app.exchange("POST", f"/v1/stores/{action}", json.dumps(body).encode())
    )
    return status, json.loads(raw)


class TestCorruptStores:
    def test_eager_add_is_422(self, catalog):
        app, paths = catalog
        status, payload = catalog_post(
            app, "add", {"name": "bad", "path": paths["<corrupt>"]}
        )
        assert status == 422
        assert payload["error"]["code"] == "corrupt-store"

    def test_lazy_add_fails_typed_on_first_use_and_reload(self, catalog):
        app, paths = catalog
        status, _ = catalog_post(
            app, "add",
            {"name": "lazy-bad", "path": paths["<corrupt>"], "lazy": True},
        )
        assert status == 200
        with pytest.raises(ServingError) as info:
            run(ASGIClient(app).evaluate(dnf(*L1), store="lazy-bad"))
        assert (info.value.code, info.value.status) == ("corrupt-store", 422)
        status, payload = catalog_post(app, "reload", {"name": "lazy-bad"})
        assert status == 422
        assert payload["error"]["code"] == "corrupt-store"

    def test_directory_as_store_is_404(self, catalog):
        app, paths = catalog
        status, payload = catalog_post(
            app, "add", {"name": "dir", "path": paths["<dir>"]}
        )
        assert status == 404
        assert payload["error"]["code"] == "unknown-store"


CATALOG_FIELDS = {
    "name": st.sampled_from(["good", "corrupt", "other"]) | JSON,
    # Placeholders for the fixture's files; strings outside them stay
    # out so the fuzz never registers files beyond its own directory.
    "path": st.sampled_from(["<good>", "<corrupt>", "<missing>", "<dir>"])
    | JSON.filter(lambda value: not isinstance(value, str)),
    "lazy": JSON,
    "suffix": st.sampled_from([".rcir", ".bin"]) | JSON,
}


class TestCatalogFuzz:
    @pytest.mark.parametrize(
        "action", ["add", "drop", "reload", "serve_directory"]
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(body=st.fixed_dictionaries(
        {"name": CATALOG_FIELDS["name"], "path": CATALOG_FIELDS["path"]},
        optional={"lazy": CATALOG_FIELDS["lazy"],
                  "suffix": CATALOG_FIELDS["suffix"]},
    ) | st.fixed_dictionaries({}, optional=CATALOG_FIELDS))
    def test_no_body_answers_500(self, catalog, action, body):
        app, paths = catalog
        if isinstance(body.get("path"), str):
            body["path"] = paths[body["path"]]
        status, payload = catalog_post(app, action, body)
        assert status != 500, payload
        if status >= 300:
            assert set(payload) == {"error"}
            assert isinstance(payload["error"]["code"], str)
