"""Request/reply endpoints over the message bus.

:class:`RpcServer` dispatches named operations to registered
functions.  :class:`RpcClient` retransmits on timeout up to a budget —
safe precisely because the operations are idempotent; the bench for
experiment E12 runs this machinery under loss and duplication and
checks the final file state is byte-identical to a fault-free run.

Retransmission can be disciplined further with the policies of
:mod:`repro.rpc.retry`: seeded exponential backoff between attempts
(``rpc.backoff_us`` records every extra wait) and a per-destination
circuit breaker that fails calls fast while a server is known dead
(:class:`~repro.common.errors.CircuitOpenError`).  Both are off by
default, preserving the fixed-interval behaviour the idempotency
benches established.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.errors import CircuitOpenError, RpcError, RpcTimeoutError
from repro.rpc.bus import MessageBus
from repro.rpc.retry import BackoffPolicy, CircuitBreaker


class RpcServer:
    """A named endpoint dispatching ops to handler functions.

    Handlers receive the payload and return the reply payload.
    Exceptions of type :class:`~repro.common.errors.RhodosError` are
    propagated to the caller as part of the reply (errors are answers,
    not transport failures).
    """

    def __init__(self, bus: MessageBus, address: str) -> None:
        # The bus owns its endpoints (it holds the dispatcher); the
        # server keeps no reference back.
        self.address = address
        self._ops: Dict[str, Callable[[Any], Any]] = {}
        bus.register(address, self._dispatch)

    def expose(self, op: str, fn: Callable[[Any], Any]) -> None:
        if op in self._ops:
            raise RpcError(f"{self.address}: op {op!r} already exposed")
        self._ops[op] = fn

    def _dispatch(self, op: str, payload: Any) -> Any:
        fn = self._ops.get(op)
        if fn is None:
            raise RpcError(f"{self.address}: unknown op {op!r}")
        try:
            return ("ok", fn(payload))
        except Exception as exc:  # noqa: BLE001 - errors travel as replies
            return ("error", exc)


class RpcClient:
    """Caller side: retransmission with a per-call attempt budget.

    The timeout charged on a lost message models the client waiting out
    its retransmission timer in simulated time.

    Args:
        backoff: optional exponential-backoff policy; its jitter draws
            from a :class:`random.Random` seeded with ``seed``, so two
            identically seeded clients wait identical schedules.
        breaker: optional per-destination circuit breaker.  While a
            destination's circuit is open, :meth:`call` raises
            :class:`~repro.common.errors.CircuitOpenError` immediately
            — no messages, no simulated time spent.  Note that a
            fast-failed call advances *no* clock; a caller polling in a
            loop must advance time itself (real callers do other work).
    """

    def __init__(
        self,
        bus: MessageBus,
        *,
        timeout_us: int = 20_000,
        max_attempts: int = 8,
        backoff: Optional[BackoffPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("need at least one attempt")
        self.bus = bus
        self.timeout_us = timeout_us
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.breaker = breaker
        self._rng = random.Random(seed)

    def call(self, dst: str, op: str, payload: Any) -> Any:
        """Invoke ``op`` at ``dst``; retransmits until a reply arrives.

        Raises :class:`RpcTimeoutError` after the attempt budget (or
        :class:`CircuitOpenError` as soon as the breaker trips), and
        re-raises any error the remote handler produced.
        """
        if self.breaker is not None and not self.breaker.allow(dst):
            raise CircuitOpenError(
                f"circuit open for {dst!r} op {op!r}: failing fast until "
                f"{self.breaker.policy.cooldown_us}us cooldown elapses"
            )
        failures = 0
        for attempt in range(self.max_attempts):
            if attempt:
                self.bus.metrics.add("rpc.retransmissions")
            arrived, reply = self.bus.transmit(dst, op, payload)
            if arrived:
                if self.breaker is not None:
                    self.breaker.record_success(dst)
                status, value = reply
                if status == "error":
                    raise value
                return value
            failures += 1
            if self.breaker is not None:
                self.breaker.record_failure(dst)
                if self.breaker.is_open(dst):
                    # The breaker tripped mid-call: stop hammering now;
                    # the remaining attempt budget is the whole saving.
                    raise CircuitOpenError(
                        f"circuit for {dst!r} opened after {failures} "
                        f"consecutive timeouts (op {op!r}, bus fault seed "
                        f"{self.bus.seed})"
                    )
            wait_us = self.timeout_us
            if self.backoff is not None:
                extra_us = self.backoff.delay_us(failures, self._rng)
                self.bus.metrics.observe("rpc.backoff_us", extra_us)
                wait_us += extra_us
            self.bus.clock.advance_us(wait_us)
        raise RpcTimeoutError(
            f"no reply from {dst!r} op {op!r} after {self.max_attempts} "
            f"attempts (bus fault seed {self.bus.seed}, profile "
            f"{self.bus.profile})"
        )


#: How every client invokes one server operation, whatever the
#: transport: ``caller(op, *args, **kwargs)``.
Caller = Callable[..., Any]


def expose(rpc_server: RpcServer, obj: object, ops: Tuple[str, ...]) -> None:
    """Expose the methods of ``obj`` named in ``ops`` on an RPC endpoint.

    Payloads are ``(args, kwargs)`` tuples; every operation is
    positional and therefore idempotent under retransmission.
    """

    def wrap(method: Callable[..., Any]) -> Callable[[Any], Any]:
        return lambda payload: method(*payload[0], **payload[1])

    for op in ops:
        rpc_server.expose(op, wrap(getattr(obj, op)))


def direct_caller(obj: object, ops: Tuple[str, ...]) -> Caller:
    """In-process transport: the same op table, no bus in between.

    The method is looked up when called, not when the caller is built,
    and an op outside ``ops`` is refused exactly as an endpoint would.
    """

    def caller(op: str, *args: Any, **kwargs: Any) -> Any:
        if op not in ops:
            raise RpcError(f"{type(obj).__name__}: unknown op {op!r}")
        return getattr(obj, op)(*args, **kwargs)

    return caller


def rpc_caller(client: RpcClient, address: str) -> Caller:
    """Bus transport: one RPC per operation; faults and breakers apply."""

    def caller(op: str, *args: Any, **kwargs: Any) -> Any:
        return client.call(address, op, (args, kwargs))

    return caller
