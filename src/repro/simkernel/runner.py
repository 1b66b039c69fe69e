"""Deterministic interleaving of transactional client scripts.

See the package docstring for the execution model.  The runner knows
nothing about locks or transactions; it only understands the two
control-flow signals scripts can raise:

* :class:`LockWaitPending` — "park me; retry this same operation when
  ``ready()`` says so".  Raised from inside transaction-agent calls when
  a two-phase-locking acquire must wait (paper section 6.3: the
  transaction "will be put into the wait queue").
* ``TransactionAbortedError`` — restart the whole script from scratch,
  which is how a timeout-aborted transaction (paper section 6.4)
  eventually completes.

:func:`lock_timeout_runner` is the one place the lock-timeout stall
rule is stated; it reaches the lock service only through two duck-typed
calls, so this module still imports nothing of the transaction layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional

from repro.common.clock import SimClock
from repro.common.errors import TransactionAbortedError

#: A client script: called with nothing, returns a generator that yields
#: zero-argument thunks and receives each thunk's result via ``send``.
Script = Callable[[], Generator[Callable[[], Any], Any, None]]


class LockWaitPending(Exception):
    """Raised by an operation that must wait for a lock.

    Attributes:
        item: opaque description of the contended data item (for reports).
        ready: callable returning True once the wait is over (lock granted,
            or the waiter itself was aborted — retrying then surfaces the
            abort as ``TransactionAbortedError``).
    """

    def __init__(self, item: Any, ready: Callable[[], bool]) -> None:
        super().__init__(f"waiting for lock on {item!r}")
        self.item = item
        self.ready = ready


@dataclass
class ClientOutcome:
    """Per-client statistics accumulated by the runner."""

    client_id: int
    commits: int = 0
    aborts: int = 0
    restarts: int = 0
    lock_waits: int = 0
    ops_executed: int = 0
    finished_at_us: Optional[int] = None


@dataclass
class RunReport:
    """Aggregate result of one :meth:`InterleavedRunner.run`."""

    clients: List[ClientOutcome] = field(default_factory=list)
    elapsed_us: int = 0
    total_ops: int = 0

    @property
    def total_commits(self) -> int:
        return sum(c.commits for c in self.clients)

    @property
    def total_aborts(self) -> int:
        return sum(c.aborts for c in self.clients)

    @property
    def total_lock_waits(self) -> int:
        return sum(c.lock_waits for c in self.clients)

    def throughput_per_s(self) -> float:
        """Committed scripts per simulated second."""
        if self.elapsed_us == 0:
            return 0.0
        return self.total_commits / (self.elapsed_us / 1_000_000)


class _ClientState:
    __slots__ = (
        "script",
        "gen",
        "pending_thunk",
        "pending_wait",
        "outcome",
        "done",
        "repeat_remaining",
    )

    def __init__(self, script: Script, client_id: int, repeats: int) -> None:
        self.script = script
        self.gen = script()
        self.pending_thunk: Optional[Callable[[], Any]] = None
        self.pending_wait: Optional[LockWaitPending] = None
        self.outcome = ClientOutcome(client_id=client_id)
        self.done = False
        self.repeat_remaining = repeats


class InterleavedRunner:
    """Round-robin scheduler for client scripts over simulated time.

    Args:
        clock: the system's shared simulated clock.
        think_time_us: simulated time charged per executed operation,
            modelling client processing between file-facility calls.
        on_stall: called when every live client is parked waiting; must
            make progress (e.g. advance the clock to the next lock-timeout
            expiry and fire the deadlock detector) and return True, or
            return False to declare the system wedged.
        on_step: called after every executed operation with the current
            time; transaction benches wire this to the lock-timeout
            detector so expiries happen as load runs.
        max_restarts: per-client limit on abort-and-retry cycles, after
            which the client is marked failed (prevents livelock from
            pathological configurations).
    """

    def __init__(
        self,
        clock: SimClock,
        *,
        think_time_us: int = 100,
        on_stall: Optional[Callable[[int], bool]] = None,
        on_step: Optional[Callable[[int], None]] = None,
        max_restarts: int = 1000,
    ) -> None:
        self.clock = clock
        self.think_time_us = think_time_us
        self.on_stall = on_stall
        self.on_step = on_step
        self.max_restarts = max_restarts
        self._clients: List[_ClientState] = []

    def add_client(self, script: Script, *, repeats: int = 1) -> int:
        """Register a script; it will run to completion ``repeats`` times.

        Returns the client id.
        """
        client_id = len(self._clients)
        self._clients.append(_ClientState(script, client_id, repeats))
        return client_id

    def run(self, *, max_steps: int = 10_000_000) -> RunReport:
        """Interleave all clients until every script completes.

        Raises RuntimeError if the system wedges (every client parked and
        ``on_stall`` cannot make progress) or ``max_steps`` is exceeded.
        """
        start_us = self.clock.now_us
        steps = 0
        while True:
            live = [c for c in self._clients if not c.done]
            if not live:
                break
            progressed = False
            for client in live:
                if client.done:
                    continue
                if client.pending_wait is not None:
                    if not client.pending_wait.ready():
                        continue
                    client.pending_wait = None
                self._step(client)
                progressed = True
                steps += 1
                if steps > max_steps:
                    raise RuntimeError(f"runner exceeded {max_steps} steps")
            if not progressed:
                if self.on_stall is None or not self.on_stall(self.clock.now_us):
                    stuck = [c.outcome.client_id for c in live]
                    raise RuntimeError(f"all clients wedged waiting: {stuck}")
        report = RunReport(
            clients=[c.outcome for c in self._clients],
            elapsed_us=self.clock.now_us - start_us,
            total_ops=sum(c.outcome.ops_executed for c in self._clients),
        )
        return report

    # ------------------------------------------------------------ steps

    def _step(self, client: _ClientState) -> None:
        """Execute one operation for ``client`` (fetch thunk, run it)."""
        if client.pending_thunk is None:
            try:
                client.pending_thunk = client.gen.send(None)
            except StopIteration:
                self._finish_iteration(client)
                return
        thunk = client.pending_thunk
        self.clock.advance_us(self.think_time_us)
        try:
            result = thunk()
        except LockWaitPending as wait:
            client.pending_wait = wait
            client.outcome.lock_waits += 1
            if self.on_step is not None:
                self.on_step(self.clock.now_us)
            return
        except TransactionAbortedError:
            self._restart(client)
            if self.on_step is not None:
                self.on_step(self.clock.now_us)
            return
        client.outcome.ops_executed += 1
        client.pending_thunk = None
        if self.on_step is not None:
            self.on_step(self.clock.now_us)
        try:
            client.pending_thunk = client.gen.send(result)
        except StopIteration:
            self._finish_iteration(client)
        except TransactionAbortedError:
            # The script body itself surfaced an abort (e.g. tend failed).
            self._restart(client)

    def _finish_iteration(self, client: _ClientState) -> None:
        client.outcome.commits += 1
        client.repeat_remaining -= 1
        if client.repeat_remaining <= 0:
            client.done = True
            client.outcome.finished_at_us = self.clock.now_us
        else:
            client.gen = client.script()
            client.pending_thunk = None
            client.pending_wait = None

    def _restart(self, client: _ClientState) -> None:
        client.outcome.aborts += 1
        client.outcome.restarts += 1
        client.gen.close()
        if client.outcome.restarts > self.max_restarts:
            client.done = True
            client.outcome.finished_at_us = self.clock.now_us
            return
        client.gen = client.script()
        client.pending_thunk = None
        client.pending_wait = None


def lock_timeout_runner(
    clock: SimClock, timeouts: Any, *, think_time_us: int = 100
) -> InterleavedRunner:
    """A runner wired to a lock-timeout service (paper section 6.4).

    ``timeouts`` is anything with ``next_expiry_us()`` and
    ``expire_locks(now_us)`` — a transaction coordinator.  The LT/N
    policy runs after every step; when every client is parked the clock
    jumps to the next lock expiry and the policy runs there.  A stall
    with no lock granted is a wedge.
    """

    def on_stall(_now_us: int) -> bool:
        next_expiry = timeouts.next_expiry_us()
        if next_expiry is None:
            return False
        clock.advance_to(next_expiry)
        timeouts.expire_locks(clock.now_us)
        return True

    return InterleavedRunner(
        clock,
        think_time_us=think_time_us,
        on_stall=on_stall,
        on_step=timeouts.expire_locks,
    )
