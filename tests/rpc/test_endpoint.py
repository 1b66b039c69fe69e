"""RPC endpoints: dispatch, error propagation, retransmission."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import FileSizeError, RpcError, RpcTimeoutError
from repro.common.metrics import Metrics
from repro.rpc.bus import FaultProfile, MessageBus
from repro.rpc.endpoint import (
    RpcClient,
    RpcServer,
    direct_caller,
    expose,
    rpc_caller,
)


def build(profile=None, seed=0, **client_kwargs):
    clock, metrics = SimClock(), Metrics()
    bus = MessageBus(clock, metrics, profile, seed=seed)
    server = RpcServer(bus, "srv")
    client = RpcClient(bus, **client_kwargs)
    return server, client, metrics, clock


class TestDispatch:
    def test_call_round_trip(self):
        server, client, _, _ = build()
        server.expose("add", lambda payload: payload[0] + payload[1])
        assert client.call("srv", "add", (2, 3)) == 5

    def test_unknown_op(self):
        server, client, _, _ = build()
        with pytest.raises(RpcError, match="unknown op"):
            client.call("srv", "nope", None)

    def test_duplicate_op_rejected(self):
        server, _, _, _ = build()
        server.expose("x", lambda payload: None)
        with pytest.raises(RpcError):
            server.expose("x", lambda payload: None)

    def test_remote_errors_propagate_as_answers(self):
        """A handler error is a reply, not a transport failure."""
        server, client, metrics, _ = build()

        def failing(payload):
            raise FileSizeError("bad offset")

        server.expose("fail", failing)
        with pytest.raises(FileSizeError, match="bad offset"):
            client.call("srv", "fail", None)
        assert metrics.get("rpc.retransmissions") == 0

    def test_expose_and_rpc_caller(self):
        """``expose`` + ``rpc_caller``: positional and keyword arguments
        travel as one ``(args, kwargs)`` payload; only tabled ops answer."""

        class Thing:
            def ping(self, a, b=0):
                return ("pong", a, b)

            def hidden(self):
                return "never"

        server, client, _, _ = build()
        expose(server, Thing(), ("ping",))
        caller = rpc_caller(client, "srv")
        assert caller("ping", 1, b=2) == ("pong", 1, 2)
        assert client.call("srv", "ping", ((3,), {})) == ("pong", 3, 0)
        with pytest.raises(RpcError, match="unknown op 'hidden'"):
            caller("hidden")

    def test_direct_caller_looks_the_method_up_at_call_time(self):
        """A class-level replacement made after the caller was built is
        what runs — the property the traced benchmark pass relies on."""

        class Thing:
            def ping(self):
                return "old"

        caller = direct_caller(Thing(), ("ping",))
        Thing.ping = lambda self: "new"
        assert caller("ping") == "new"


class TestRetransmission:
    def test_lossy_request_retransmitted_until_success(self):
        server, client, metrics, _ = build(
            FaultProfile(request_loss=0.5), seed=2, max_attempts=50
        )
        server.expose("op", lambda payload: "done")
        for _ in range(20):
            assert client.call("srv", "op", None) == "done"
        assert metrics.get("rpc.retransmissions") >= 1

    def test_reply_loss_causes_reexecution(self):
        """Retransmission after reply loss re-executes the handler —
        safe only because RHODOS operations are idempotent."""
        server, client, metrics, _ = build(
            FaultProfile(reply_loss=0.4), seed=9, max_attempts=50
        )
        executions = []
        server.expose("op", lambda payload: executions.append(1) or "ok")
        for _ in range(10):
            client.call("srv", "op", None)
        assert len(executions) > 10  # some were executed more than once

    def test_exhausted_attempts_raise_timeout(self):
        server, client, _, _ = build(
            FaultProfile(request_loss=0.99), seed=1, max_attempts=3
        )
        server.expose("op", lambda payload: None)
        with pytest.raises(RpcTimeoutError):
            client.call("srv", "op", None)

    def test_timeout_charges_simulated_time(self):
        server, client, _, clock = build(
            FaultProfile(request_loss=0.99, latency_us=100),
            seed=1,
            max_attempts=3,
            timeout_us=5000,
        )
        server.expose("op", lambda payload: None)
        with pytest.raises(RpcTimeoutError):
            client.call("srv", "op", None)
        assert clock.now_us >= 3 * 5000

    def test_attempt_budget_validated(self):
        clock, metrics = SimClock(), Metrics()
        bus = MessageBus(clock, metrics)
        with pytest.raises(ValueError):
            RpcClient(bus, max_attempts=0)
