"""The simulated message bus.

Delivery is synchronous in simulated time: sending charges the latency
model, faults are drawn from a seeded RNG, and the destination handler
runs inline.  That keeps the whole system single-threaded and
deterministic while preserving exactly the semantics the paper's
idempotency argument depends on: a request may be lost (never
executed), executed once, executed more than once, or — under
**reorder** injection — executed *late*, after operations that were
issued after it.

Reordering is modelled with a delayed-delivery queue: a request chosen
for reordering is parked instead of delivered (its sender times out and
retransmits), and parked requests are drained — executed, their replies
discarded — immediately *after* the handler of a later transmit runs.
The late execution therefore really does land out of program order,
which is the case positional idempotent operations must absorb
(experiment E12 sweeps it alongside loss and duplication).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.common.clock import SimClock
from repro.common.frames import charge_elapsed
from repro.common.errors import RpcError
from repro.common.metrics import Metrics

#: A handler takes (op, payload) and returns the reply payload.
Handler = Callable[[str, Any], Any]


@dataclass(frozen=True, slots=True)
class FaultProfile:
    """Fault rates and latency of one bus.

    Attributes:
        latency_us: one-way message latency.
        request_loss: probability a request vanishes in transit.
        reply_loss: probability a reply vanishes (the server *did*
            execute — the dangerous case for non-idempotent designs).
        duplication: probability a delivered request is executed twice.
        reorder: probability a request is parked in the delayed-
            delivery queue and executed only after a later transmit's
            handler (the sender sees a timeout and retransmits).
    """

    latency_us: int = 500
    request_loss: float = 0.0
    reply_loss: float = 0.0
    duplication: float = 0.0
    reorder: float = 0.0

    def __post_init__(self) -> None:
        for rate in (
            self.request_loss, self.reply_loss, self.duplication, self.reorder
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"fault rate {rate} outside [0, 1)")
        if self.latency_us < 0:
            raise ValueError("latency cannot be negative")

    @classmethod
    def reliable(cls, latency_us: int = 500) -> "FaultProfile":
        return cls(latency_us=latency_us)


class MessageBus:
    """Registry of addressable endpoints plus the fault model."""

    def __init__(
        self,
        clock: SimClock,
        metrics: Metrics,
        profile: FaultProfile | None = None,
        *,
        seed: int = 0,
    ) -> None:
        self.clock = clock
        self.metrics = metrics
        self.profile = profile or FaultProfile.reliable()
        #: Surfaced in timeout messages so a failing run names the exact
        #: fault schedule that reproduces it.
        self.seed = seed
        self._rng = random.Random(seed)
        self._endpoints: Dict[str, Handler] = {}
        self._down: set[str] = set()
        self._delayed: List[Tuple[str, str, Any]] = []

    # ------------------------------------------------------ registry

    def register(self, address: str, handler: Handler) -> None:
        if address in self._endpoints:
            raise RpcError(f"address {address!r} already registered")
        self._endpoints[address] = handler

    def set_down(self, address: str, down: bool = True) -> None:
        """Mark an endpoint crashed: its requests are silently lost."""
        if down:
            self._down.add(address)
        else:
            self._down.discard(address)

    # ------------------------------------------------------ transport

    def transmit(self, dst: str, op: str, payload: Any) -> tuple[bool, Any]:
        """One send attempt: returns ``(reply_arrived, reply)``.

        Charges one-way latency for the request; if the request is
        delivered, the handler runs (possibly twice under duplication)
        and the reply charges latency back — unless the reply itself is
        lost, in which case the caller sees a timeout *after the server
        already executed*.  Requests parked for reordering execute
        after a later transmit's handler (see :meth:`drain_delayed`).
        """
        handler = self._endpoints.get(dst)
        if handler is None:
            raise RpcError(f"no endpoint at {dst!r}")
        with self.metrics.timer("rpc.transmit_us", self.clock):
            charge_elapsed(self.clock, self.profile.latency_us)
            self.metrics.add("rpc.messages")
            if dst in self._down or self._chance(self.profile.request_loss):
                self.metrics.add("rpc.requests_lost")
                return False, None
            if self._chance(self.profile.reorder):
                self._delayed.append((dst, op, payload))
                self.metrics.add("rpc.requests_delayed")
                return False, None
            reply = handler(op, payload)
            self.metrics.add("rpc.executions")
            if self._chance(self.profile.duplication):
                reply = handler(op, payload)
                self.metrics.add("rpc.executions")
                self.metrics.add("rpc.duplicated_executions")
            self.drain_delayed()
            charge_elapsed(self.clock, self.profile.latency_us)
            if dst in self._down or self._chance(self.profile.reply_loss):
                self.metrics.add("rpc.replies_lost")
                return False, None
            return True, reply

    def drain_delayed(self) -> int:
        """Execute every parked request late; returns how many ran.

        Replies are discarded (their senders gave up long ago).  A
        parked request whose endpoint is down or unregistered by drain
        time is dropped as lost.  Runs automatically after each
        delivered transmit; callers (campaign teardown, tests) may also
        invoke it directly so no delivery stays parked forever.
        """
        drained = 0
        while self._delayed:
            dst, op, payload = self._delayed.pop(0)
            handler = self._endpoints.get(dst)
            if handler is None or dst in self._down:
                self.metrics.add("rpc.requests_lost")
                continue
            handler(op, payload)
            drained += 1
            self.metrics.add("rpc.executions")
            self.metrics.add("rpc.reordered_executions")
        return drained

    def pending_delayed(self) -> int:
        """Requests currently parked in the delayed-delivery queue."""
        return len(self._delayed)

    # ------------------------------------------------------ internal

    def _chance(self, rate: float) -> bool:
        return rate > 0.0 and self._rng.random() < rate
