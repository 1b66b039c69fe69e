"""Deferred-time service frames: the overlapped-operation time context.

Historically every modelled delay — a disk reference, an RPC hop, a
port transfer — advanced the one shared
:class:`~repro.common.clock.SimClock` inline, which serializes the
whole simulated world: two operations on two different disks cost the
*sum* of their service times instead of the max.

A :class:`ServiceFrame` is the deferred-time context one overlapped
operation runs inside.  While a frame is open, components charge their
delays to the frame's *cursor* (via :func:`charge_elapsed` or a
server's busy-until :class:`Timeline`) instead of the global clock.
On exit the cursor is the operation's completion time;
the caller (a request pipeline or the cluster's concurrent driver)
schedules the completion on the event loop, and the loop advances the
clock event-to-event.  With no frame open, charging falls back to
inline clock advancement: a blocking caller waits for each delay in
turn.  A reference's charge has one implementation,
:meth:`Timeline.charge_ceiled`, which the disk's reference paths call;
work a server does after its reply (a drive's track readahead) keeps
it busy through :meth:`Timeline.occupy`, which charges nobody.

Frames nest (the innermost wins) and are keyed by clock instance, so
independent simulated systems in one process never share a frame
stack.  :func:`fan_out` expresses fan-out *within* an operation, under
one rule — a fan-out over independent spindles costs its slowest
branch, whoever calls.  Its branches replay from the fork point and
its exit joins at the slowest branch, on the caller's frame or, for a
blocking caller, on a frame it opens and pays to the clock on the way
out.  It has three users: an array reference (the members of a RAID
array), a replicated write (the replicas' volumes) and a cluster flush
(the volumes' file servers).

Everything here is deterministic: time is integer microseconds, state
is explicit, and nothing consults wall clock, dict order, or object
identity.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional

from repro.analysis import monitor as _monitor
from repro.common.clock import SimClock

#: Active frame stacks, keyed by ``id(clock)``.  The simulation is
#: single-threaded by construction (DESIGN.md §2), and the context
#: manager below pops eagerly, so entries never outlive their block.
_FRAMES: Dict[int, List["ServiceFrame"]] = {}


class ServiceFrame:
    """Deferred-time context for one overlapped operation.

    The frame's ``cursor_us`` starts at the global now and advances by
    every charge the operation performs, sequencing the operation's own
    delays while leaving the global clock — and therefore every *other*
    operation — untouched.
    """

    __slots__ = ("cursor_us",)

    def __init__(self, clock: SimClock) -> None:
        self.cursor_us = clock.now_us

    def __repr__(self) -> str:
        return f"ServiceFrame(cursor_us={self.cursor_us})"


def active_frame(clock: SimClock) -> Optional[ServiceFrame]:
    """The innermost frame open for ``clock``, or None (blocking mode)."""
    stack = _FRAMES.get(id(clock))
    return stack[-1] if stack else None


def frame_now(clock: SimClock) -> int:
    """The operation-local now: frame cursor if one is open, else clock."""
    frame = active_frame(clock)
    return frame.cursor_us if frame is not None else clock.now_us


@contextlib.contextmanager
def service_frame(clock: SimClock) -> Iterator[ServiceFrame]:
    """Open a deferred-time frame: charges inside move the frame cursor.

    On exit the frame's ``cursor_us`` is the operation's completion
    time; the caller (a pipeline or driver) schedules the completion on
    the event loop instead of advancing the clock inline.
    """
    frame = ServiceFrame(clock)
    stack = _FRAMES.setdefault(id(clock), [])
    stack.append(frame)
    try:
        yield frame
    finally:
        stack.pop()
        if not stack:
            del _FRAMES[id(clock)]


def ceil_us(delta_us: float) -> int:
    """Round a delay up to whole microseconds.

    Mirrors :meth:`SimClock.advance_us` so a frame charge and the old
    inline advancement account for identical integer time.
    """
    return int(-(-delta_us // 1))


def charge_elapsed(clock: SimClock, delta_us: float) -> None:
    """Charge a plain (non-disk) delay — RPC latency, port transfer.

    Inside a frame the delay extends the frame cursor; otherwise the
    clock advances inline, exactly as ``clock.advance_us`` always did.
    Components with a busy-until resource of their own (disks) charge
    through their timeline instead.
    """
    frame = active_frame(clock)
    if frame is None:
        clock.advance_us(delta_us)
        return
    frame.cursor_us += ceil_us(delta_us)


class Timeline:
    """One server's busy-until timeline (a disk's head, a shard's CPU).

    Charges to one timeline serialize; charges to different timelines
    overlap — which is all "two spindles" or "eight shard servers"
    means to the simulator.

    Args:
        clock: the shared simulated clock the timeline waits against.

    Attributes:
        busy_until_us: absolute time the server finishes its last
            accepted reference; new charges start at
            ``max(now, busy_until_us)``.
        busy_total_us: cumulative service time ever charged — the
            numerator of the utilization gauge.
    """

    __slots__ = ("clock", "busy_until_us", "busy_total_us", "_frame_key")

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.busy_until_us = 0
        self.busy_total_us = 0
        # id() is stable: the timeline holds the clock for its lifetime.
        self._frame_key = id(clock)

    def charge(self, elapsed_us: float) -> tuple[int, int]:
        """Charge one reference's service time; returns ``(start, end)``.

        With no frame active this blocks in simulated time — the global
        clock advances to ``end`` exactly as the old inline
        ``advance_us`` did for sequential callers.  Inside a
        :func:`service_frame` only the frame cursor moves; the global
        clock is left for the event loop to advance.
        """
        return self.charge_ceiled(ceil_us(elapsed_us))

    def charge_ceiled(self, busy: int) -> tuple[int, int]:
        """:meth:`charge` for a service time already in whole us.

        Every disk reference lands here, so this is written for
        constant per-reference cost (DESIGN.md §13): the frame stack is
        probed by a cached key, the race monitor's enabled flag is read
        off the module global, and the blocking branch moves the clock
        field itself instead of paying a method call.
        """
        # Reservation order is a real synchronization point: the server
        # serves charges in the order they reserved the timeline.
        mon = _monitor._active
        if mon.enabled:
            mon.chain(self)
        busy_until = self.busy_until_us
        stack = _FRAMES.get(self._frame_key)
        if stack:
            frame = stack[-1]
            now = frame.cursor_us
            start = busy_until if busy_until > now else now
            frame.cursor_us = end = start + busy
        else:
            clock = self.clock
            now = clock._now_us
            start = busy_until if busy_until > now else now
            end = start + busy
            if end > now:
                clock._now_us = end
        self.busy_until_us = end
        self.busy_total_us += busy
        return start, end

    def occupy(self, busy: int) -> tuple[int, int]:
        """Keep the server busy for ``busy`` whole us without the caller
        waiting: work after the reply, such as a drive's track readahead.

        The occupation starts at ``max(now, busy_until_us)`` like a
        charge, and the server's next charge starts after it; but
        neither the caller's frame cursor nor the clock moves.
        """
        mon = _monitor._active
        if mon.enabled:
            mon.chain(self)
        stack = _FRAMES.get(self._frame_key)
        now = stack[-1].cursor_us if stack else self.clock._now_us
        busy_until = self.busy_until_us
        start = busy_until if busy_until > now else now
        self.busy_until_us = end = start + busy
        self.busy_total_us += busy
        return start, end

    def utilization_percent(self) -> int:
        """Busy time as an integer percentage of elapsed simulated time.

        Measured against the later of the global clock and the
        timeline's own horizon, so deferred-mode reservations count as
        elapsed time instead of inflating the ratio past 100.
        """
        horizon = max(self.clock.now_us, self.busy_until_us)
        if horizon <= 0:
            return 0
        return min(100, self.busy_total_us * 100 // horizon)

    def __repr__(self) -> str:
        return (
            f"Timeline(busy_until_us={self.busy_until_us}, "
            f"busy_total_us={self.busy_total_us})"
        )


class Fork:
    """The branches of one :func:`fan_out`; enter each with ``branch()``.

    Branches replay from the fork-point cursor.  Per-timeline
    ``busy_until`` ordering still applies inside each branch, so two
    branches on one disk serialize while branches on different disks
    overlap.
    """

    __slots__ = ("frame", "start_us", "end_us", "_branch_tasks")

    def __init__(self, frame: ServiceFrame) -> None:
        self.frame = frame
        self.start_us = self.end_us = frame.cursor_us
        self._branch_tasks: List[int] = []

    @contextlib.contextmanager
    def branch(self) -> Iterator[None]:
        self.frame.cursor_us = self.start_us
        mon = _monitor.active()
        tid = mon.open_task("fork.branch") if mon.enabled else 0
        try:
            yield
        finally:
            if mon.enabled:
                mon.close_task()
                self._branch_tasks.append(tid)
            self.end_us = max(self.end_us, self.frame.cursor_us)

    def _join(self) -> None:
        self.frame.cursor_us = max(self.end_us, self.frame.cursor_us)
        mon = _monitor.active()
        if mon.enabled and self._branch_tasks:
            # The joiner sees every branch's effects; branches stay
            # mutually unordered (that is the fork's whole point).
            mon.rejoin("fork.join", after=tuple(self._branch_tasks))


@contextlib.contextmanager
def fan_out(clock: SimClock) -> Iterator[Fork]:
    """Fan one operation out into overlapping branches::

        with fan_out(clock) as fork:
            for replica in replicas:
                with fork.branch():
                    replica.write(...)

    Inside a caller's frame the fork borrows it; a blocking caller gets
    a frame of its own.  A normal exit joins at the slowest branch, so
    the fan-out costs the max of its branches, not their sum.  A
    blocking caller's clock then advances to the frame's cursor — on
    any exit, so an exception still leaves it at what was charged.
    """
    frame = active_frame(clock)
    if frame is not None:
        fork = Fork(frame)
        yield fork
        fork._join()
        return
    with service_frame(clock) as frame:
        fork = Fork(frame)
        try:
            yield fork
            fork._join()
        finally:
            clock.advance_to(frame.cursor_us)
