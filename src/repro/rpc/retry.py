"""Retry discipline for RPC callers: backoff and circuit breaking.

Plain fixed-interval retransmission is the right model for the paper's
idempotency argument, but it makes a caller hammer a dead server at
full rate for its whole attempt budget — failover latency is then the
*worst case* of the budget, every time.  Two policies fix that, both
deterministic under a seed:

* :class:`BackoffPolicy` — exponential backoff with seeded jitter
  added to the retransmission timeout.  Jitter is subtracted from the
  deterministic delay (never added), so ``max_us`` is a hard bound a
  latency budget can be computed from.
* :class:`BreakerPolicy` / :class:`CircuitBreaker` — a per-destination
  circuit breaker: ``threshold`` consecutive timeouts open the
  circuit, further calls fail fast (no messages, no waiting) until
  ``cooldown_us`` of simulated time has passed, then one half-open
  probe decides between closing the circuit and re-opening it.

Breaker transitions are the RPC layer's failure-detector feed: a
:class:`BreakerListener` (in practice an adapter onto
:class:`~repro.recovery.health.HealthRegistry`) hears every open and
close, which is how "the client gave up on this server" becomes
system-wide health truth without this package importing anything above
:mod:`repro.common`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Protocol

from repro.common.clock import SimClock
from repro.common.metrics import Metrics

#: Circuit states (module constants, not an Enum, so breaker state can
#: be compared cheaply in the transmit hot path).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True, slots=True)
class BackoffPolicy:
    """Exponential backoff parameters (pure values, no runtime state).

    The delay after the ``n``-th consecutive failure is
    ``min(max_us, base_us * multiplier**n)``, reduced by up to
    ``jitter`` (a fraction in [0, 1]) drawn from the caller's seeded
    RNG.  Jitter only ever shrinks the delay: ``max_us`` stays a hard
    upper bound usable in availability budgets.
    """

    base_us: int = 2_000
    multiplier: float = 2.0
    max_us: int = 160_000
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base_us < 0 or self.max_us < self.base_us:
            raise ValueError("need 0 <= base_us <= max_us")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter is a fraction in [0, 1]")

    def delay_us(self, failures: int, rng: random.Random) -> int:
        """Backoff to add after ``failures`` consecutive timeouts (>= 1)."""
        exponent = max(0, failures - 1)
        raw = min(float(self.max_us), self.base_us * self.multiplier**exponent)
        if self.jitter:
            raw -= raw * self.jitter * rng.random()
        return int(raw)


@dataclass(frozen=True, slots=True)
class BreakerPolicy:
    """Circuit-breaker parameters (pure values, no runtime state)."""

    threshold: int = 4
    cooldown_us: int = 400_000

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.cooldown_us < 0:
            raise ValueError("cooldown cannot be negative")


class BreakerListener(Protocol):
    """Receives breaker transitions (the failure-detector feed)."""

    def on_breaker_open(self, destination: str) -> None: ...

    def on_breaker_close(self, destination: str) -> None: ...


class _Circuit:
    """Runtime state of one destination's circuit."""

    __slots__ = ("state", "consecutive_failures", "opened_at_us")

    def __init__(self) -> None:
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at_us = 0


class CircuitBreaker:
    """Per-destination circuit breaker over shared simulated time.

    One instance serves one caller (the simulation is single-threaded,
    so at most one probe is ever in flight: ``allow`` → transmit →
    ``record_success``/``record_failure`` happen back to back).
    """

    def __init__(
        self,
        policy: BreakerPolicy,
        clock: SimClock,
        metrics: Metrics,
        *,
        listener: Optional[BreakerListener] = None,
    ) -> None:
        self.policy = policy
        self.clock = clock
        self.metrics = metrics
        self.listener = listener
        self._circuits: Dict[str, _Circuit] = {}

    # ------------------------------------------------------- queries

    def state(self, destination: str) -> str:
        return self._circuits[destination].state if destination in self._circuits else CLOSED

    def is_open(self, destination: str) -> bool:
        """True when a call to ``destination`` would be rejected now."""
        circuit = self._circuits.get(destination)
        if circuit is None or circuit.state is not OPEN:
            return False
        return self.clock.now_us < circuit.opened_at_us + self.policy.cooldown_us

    # ----------------------------------------------------- lifecycle

    def allow(self, destination: str) -> bool:
        """Gate one call: False = fail fast without touching the bus."""
        circuit = self._circuits.get(destination)
        if circuit is None or circuit.state == CLOSED:
            return True
        if circuit.state == OPEN:
            if self.clock.now_us < circuit.opened_at_us + self.policy.cooldown_us:
                self.metrics.add("rpc.breaker_rejections")
                return False
            circuit.state = HALF_OPEN
            self.metrics.add("rpc.breaker_probes")
            return True
        # HALF_OPEN with the probe outcome still unrecorded: single-
        # threaded callers never reach this, but fail safe anyway.
        self.metrics.add("rpc.breaker_rejections")
        return False

    def record_success(self, destination: str) -> None:
        circuit = self._circuits.get(destination)
        if circuit is None:
            return
        was_broken = circuit.state != CLOSED
        circuit.state = CLOSED
        circuit.consecutive_failures = 0
        if was_broken:
            self.metrics.add("rpc.breaker_closes")
            if self.listener is not None:
                self.listener.on_breaker_close(destination)

    def record_failure(self, destination: str) -> None:
        """One timed-out attempt; may trip the circuit open."""
        circuit = self._circuits.setdefault(destination, _Circuit())
        if circuit.state == HALF_OPEN:
            self._trip(destination, circuit)
            return
        circuit.consecutive_failures += 1
        if circuit.state == CLOSED and (
            circuit.consecutive_failures >= self.policy.threshold
        ):
            self._trip(destination, circuit)

    # ------------------------------------------------------ internal

    def _trip(self, destination: str, circuit: _Circuit) -> None:
        reopened = circuit.state == HALF_OPEN
        circuit.state = OPEN
        circuit.opened_at_us = self.clock.now_us
        circuit.consecutive_failures = 0
        self.metrics.add("rpc.breaker_opens")
        if reopened:
            self.metrics.add("rpc.breaker_reopens")
        if self.listener is not None:
            self.listener.on_breaker_open(destination)

    def __repr__(self) -> str:
        open_count = sum(1 for c in self._circuits.values() if c.state != CLOSED)
        return f"CircuitBreaker({len(self._circuits)} circuits, {open_count} broken)"
