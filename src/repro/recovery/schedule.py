"""Deterministic outage scripts in simulated time.

A :class:`FailureSchedule` is a list of :class:`Outage` — "at simulated
time *t*, target *T* goes down for *d* microseconds" — polled from a
workload loop.  Because the simulation is single-threaded, failures
land *between* operations, never inside a physical write; the
sub-write crash atomicity story belongs to the crash-point sweep
(:mod:`repro.chaos.scheduler`).  What the schedule adds is the other
half of the reliability claim: recovery running **concurrently with
traffic** — the workload keeps issuing operations while a target is
down and while its restart/resync/rebuild is in progress.

A target is a volume, one RAID member of a volume, or a naming shard;
:data:`KINDS` holds everything that differs between them.  The
schedule is pure bookkeeping: the actual failure and repair are
performed by the host it is polled with (in practice
:class:`~repro.cluster.system.RhodosCluster`), which needs only the two
methods each scripted kind names, so this module depends only on
:mod:`repro.common`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.clock import SimClock
from repro.common.metrics import Metrics


class _Action(NamedTuple):
    """One half of an outage, as the schedule performs it."""

    method: str  # host method called with the target ids
    wording: str  # lifecycle-log phrase, formatted with the target ids
    counter: str  # ``recovery.*`` counter bumped per firing


class _Kind(NamedTuple):
    """Everything one target kind contributes to the schedule."""

    rank: int  # same-instant firing order among kinds
    arity: int  # ids in the target
    fail: _Action
    repair: _Action


#: The kind table: adding an outage kind is one row here plus the two
#: host methods it names.  A volume *crashes* and restarts through the
#: ordinary recovery path; a RAID member is *killed* and a blank
#: replacement arrives (the volume keeps serving throughout — degraded,
#: then rebuilding); a naming shard is killed (keyed operations fail
#: over to its ring successor's replica) and resyncs on restart.
KINDS: Dict[str, _Kind] = {
    "volume": _Kind(
        rank=0,
        arity=1,
        fail=_Action(
            "fail_volume", "crash volume {0}", "recovery.crashes_injected"
        ),
        repair=_Action(
            "restart_volume", "restart volume {0}", "recovery.restarts_injected"
        ),
    ),
    "member": _Kind(
        rank=1,
        arity=2,
        fail=_Action(
            "fail_member",
            "kill member {1} of volume {0}",
            "recovery.member_kills_injected",
        ),
        repair=_Action(
            "replace_member",
            "replace member {1} of volume {0}",
            "recovery.member_replacements_injected",
        ),
    ),
    "shard": _Kind(
        rank=2,
        arity=1,
        fail=_Action(
            "fail_shard", "kill shard {0}", "recovery.shard_kills_injected"
        ),
        repair=_Action(
            "restart_shard",
            "restart shard {0}",
            "recovery.shard_restarts_injected",
        ),
    ),
}


@dataclass(frozen=True, slots=True)
class Outage:
    """One fail/repair pair: ``target`` down at ``at_us``, back ``down_us`` later.

    ``target`` is ``("volume", v)``, ``("member", v, m)`` or
    ``("shard", s)`` — a kind from :data:`KINDS` followed by its ids.
    """

    at_us: int
    down_us: int
    target: Tuple

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise ValueError("outage time cannot be negative")
        if self.down_us <= 0:
            raise ValueError("downtime must be positive")
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown outage target kind {self.kind!r}")
        if len(self.ids) != kind.arity:
            raise ValueError(f"malformed {self.kind} target {self.target!r}")
        if any(i < 0 for i in self.ids):
            raise ValueError("target ids cannot be negative")

    @property
    def kind(self) -> str:
        return self.target[0] if self.target else ""

    @property
    def ids(self) -> Tuple[int, ...]:
        return tuple(self.target[1:])

    @property
    def up_at_us(self) -> int:
        return self.at_us + self.down_us


class FailureSchedule:
    """Polls the clock and fires due failures and repairs, in order.

    Args:
        events: the script — outages of any kinds, freely mixed;
            windows of the same target must not overlap.
        clock: the shared simulated clock the script reads.
        metrics: optional registry (``recovery.*`` counters).
    """

    def __init__(
        self,
        events: Sequence[Outage],
        clock: SimClock,
        *,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.clock = clock
        self.metrics = metrics or Metrics()
        self._events = tuple(
            sorted(events, key=lambda e: (e.at_us, KINDS[e.kind].rank, e.ids))
        )
        last_up: Dict[Tuple, int] = {}
        for event in self._events:
            previous = last_up.get(event.target)
            if previous is not None and event.at_us < previous:
                raise ValueError(
                    f"{event.target}: outage at {event.at_us}us overlaps "
                    f"the window ending at {previous}us"
                )
            last_up[event.target] = event.up_at_us
        #: (time, failing, kind rank, ids, kind) actions not yet fired.
        #: The tuple order *is* the firing order: by time, then every
        #: repair (failing=0) before every failure, then kind rank, ids.
        self._pending: List[Tuple[int, int, int, Tuple[int, ...], str]] = sorted(
            (at_us, failing, KINDS[e.kind].rank, e.ids, e.kind)
            for e in self._events
            for at_us, failing in ((e.at_us, 1), (e.up_at_us, 0))
        )
        self._down_since: Dict[Tuple, int] = {}
        self._windows: Dict[str, List[Tuple[int, ...]]] = {k: [] for k in KINDS}

    # ----------------------------------------------------------- api

    @property
    def events(self) -> Tuple[Outage, ...]:
        return self._events

    def done(self) -> bool:
        return not self._pending

    def next_event_us(self) -> Optional[int]:
        """Simulated time of the next unfired action (None when done)."""
        return self._pending[0][0] if self._pending else None

    def poll(self, host: object) -> List[str]:
        """Fire every action due at the current clock; returns a log.

        Call between workload operations.  Actions fire in scripted
        time order even when the clock jumped past several of them, so
        a repair always precedes a later failure of the same target.
        ``host`` must have the methods :data:`KINDS` names for every
        kind in the script.
        """
        actions: List[str] = []
        now = self.clock.now_us
        while self._pending and self._pending[0][0] <= now:
            at_us, failing, _rank, ids, kind = self._pending.pop(0)
            target = (kind, *ids)
            if failing:
                self._down_since[target] = at_us
                action = KINDS[kind].fail
            else:
                started = self._down_since.pop(target, at_us)
                self._windows[kind].append((*ids, started, at_us))
                action = KINDS[kind].repair
            getattr(host, action.method)(*ids)
            self.metrics.add(action.counter)
            actions.append(f"t={at_us}us {action.wording.format(*ids)}")
        return actions

    def run_out(self, host: object) -> List[str]:
        """Advance the clock through every remaining action and fire it.

        Used at end-of-workload so a run always converges to a fully
        repaired system before the final invariant checks.
        """
        actions: List[str] = []
        while self._pending:
            self.clock.advance_to(self._pending[0][0])
            actions.extend(self.poll(host))
        return actions

    def windows(self, kind: str) -> List[Tuple[int, ...]]:
        """Completed ``(*ids, down_at_us, up_at_us)`` windows of one kind."""
        return list(self._windows[kind])

    def __repr__(self) -> str:
        return (
            f"FailureSchedule({len(self._events)} events, "
            f"{len(self._pending)} actions pending)"
        )
