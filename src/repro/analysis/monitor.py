"""Access recording for the happens-before race detector.

The simulation is single-threaded, so "concurrency" means overlapped
*simulated* time: deferred-time service frames, per-disk busy-until
timelines, and Completions delivered by the event loop.  Two pieces of
code interfere when they touch the same shared structure and nothing in
the *design* — not the incidental execution order — forces one before
the other.  This module records what the design promises:

* a **task** is one unit of design-level concurrency — the mainline (a
  chain of segments split at join points), one event-loop callback, one
  pipeline service batch, one ``fan_out`` branch;
* an **edge** ``src -> dst`` is one promised ordering: program order
  into a spawned task, pipeline submit → drain, scheduler dequeue
  order, Completion resolve → callback delivery, a ``wait`` or a
  fan-out's exit rejoining the mainline, a per-resource serialization
  chain;
* an **access** is one read or write of a registered shared structure,
  interval-granular (fragment, sector, or request-sequence cells).

Tasks are numbered in creation order and every edge points forward
(``src < dst``), so the graph is acyclic *by construction* — the
detector never needs a cycle check, and topological order is id order.

Zero cost when disabled: the module-level :data:`NULL_MONITOR` (a
NULL object) swallows every call; :func:`install` swaps in a real
:class:`AccessMonitor` only for analysis runs (``repro.tools.racecheck``).
Everything here is stdlib-only and deterministic: no wall clock, no
``id()`` in any output, structures interned in first-touch order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

#: Upper cell bound of whole-structure accesses (``read_all``/``write_all``):
#: overlaps every interval a structure can legally use.
ALL_CELLS_HI = 1 << 62


@dataclass(frozen=True)
class Access:
    """One recorded access to a shared structure.

    Attributes:
        structure: interned structure id (see ``structure_labels``).
        lo / hi: the half-open cell interval ``[lo, hi)`` touched.
        kind: ``"r"`` or ``"w"``.
        task: id of the task that performed the access.
        time_us: simulated time at the access.
        site: short instrumentation-site label, e.g. ``"bitmap.mark_free"``.
    """

    structure: int
    lo: int
    hi: int
    kind: str
    task: int
    time_us: int
    site: str


class _TaskHandle:
    """Context manager closing the task it entered."""

    __slots__ = ("_monitor", "_tid")

    def __init__(self, monitor: "AccessMonitor", tid: int) -> None:
        self._monitor = monitor
        self._tid = tid

    def __enter__(self) -> int:
        return self._tid

    def __exit__(self, *_exc: object) -> bool:
        self._monitor.close_task()
        return False


class _NullTaskHandle:
    """Shared no-op context for the null monitor."""

    __slots__ = ()

    def __enter__(self) -> int:
        return 0

    def __exit__(self, *_exc: object) -> bool:
        return False


_NULL_TASK = _NullTaskHandle()


class NullMonitor:
    """The disabled monitor: every call is a no-op.

    Instrumentation sites call :func:`active` unconditionally; with this
    installed (the default) the cost is one global read and one no-op
    method call — no allocation, no recording, no behavioural change.
    """

    enabled = False

    def current(self) -> int:
        return 0

    def open_task(
        self, label: str, after: Sequence[int] = (), *, bind: bool = True
    ) -> int:
        return 0

    def close_task(self) -> None:
        pass

    def task(
        self, label: str, after: Sequence[int] = (), *, bind: bool = True
    ) -> _NullTaskHandle:
        return _NULL_TASK

    def rejoin(self, label: str, after: Sequence[int] = ()) -> int:
        return 0

    def barrier(self, label: str) -> int:
        return 0

    def chain(self, obj: object, name: str = "") -> None:
        pass

    def note_settled(self, obj: object) -> None:
        pass

    def settled_task(self, obj: object) -> Optional[int]:
        return None

    def read(
        self, obj: object, lo: int, hi: Optional[int] = None,
        *, name: str = "", site: str = "",
    ) -> None:
        pass

    def write(
        self, obj: object, lo: int, hi: Optional[int] = None,
        *, name: str = "", site: str = "",
    ) -> None:
        pass

    def key_read(
        self, obj: object, key: str, *, name: str = "", site: str = ""
    ) -> None:
        pass

    def key_write(
        self, obj: object, key: str, *, name: str = "", site: str = ""
    ) -> None:
        pass

    def read_all(self, obj: object, *, name: str = "", site: str = "") -> None:
        pass

    def write_all(self, obj: object, *, name: str = "", site: str = "") -> None:
        pass


class AccessMonitor(NullMonitor):
    """Records tasks, happens-before edges, and shared-structure accesses.

    Args:
        now_fn: returns the current simulated time in microseconds;
            accesses and task openings are stamped with it.  Defaults
            to a constant 0 (unit tests that don't care about time).
    """

    enabled = True

    def __init__(self, now_fn: Optional[Callable[[], int]] = None) -> None:
        self._now = now_fn or (lambda: 0)
        #: task id -> label; task 0 is the mainline root.
        self.task_labels: List[str] = ["main"]
        #: task id -> simulated time the task was opened.
        self.task_stamps: List[int] = [0]
        #: promised orderings, every edge with ``src < dst``.
        self.edges: List[Tuple[int, int]] = []
        self._edge_set: Set[Tuple[int, int]] = set()
        self._stack: List[int] = [0]
        self.accesses: List[Access] = []
        self._seen: Set[Tuple[int, int, int, int, str, str]] = set()
        #: interned structure id -> deterministic label.
        self.structure_labels: List[str] = []
        self._structure_ids: Dict[Tuple[int, str], int] = {}
        self._structure_refs: List[object] = []  # pin objects: no id reuse
        self._key_cells: Dict[int, Dict[str, int]] = {}
        self._chain_last: Dict[Tuple[int, str], int] = {}
        self._chain_refs: Dict[Tuple[int, str], object] = {}
        self._settled: Dict[int, Tuple[object, int]] = {}

    # ------------------------------------------------------- tasks

    def current(self) -> int:
        return self._stack[-1]

    def open_task(
        self, label: str, after: Sequence[int] = (), *, bind: bool = True
    ) -> int:
        """Create a task ordered after ``after`` (and the opener if ``bind``).

        ``bind=False`` is for tasks whose enclosing execution context is
        *incidental*, not a promised ordering — event-loop callbacks are
        ordered after their spawner, pipeline batches after their
        submitters, regardless of which stack frame happened to pump
        them.
        """
        tid = self._new_task(label)
        if bind:
            self._edge(self._stack[-1], tid)
        for src in after:
            self._edge(src, tid)
        self._stack.append(tid)
        return tid

    def close_task(self) -> None:
        if len(self._stack) > 1:
            self._stack.pop()

    def task(
        self, label: str, after: Sequence[int] = (), *, bind: bool = True
    ) -> _TaskHandle:
        return _TaskHandle(self, self.open_task(label, after, bind=bind))

    def rejoin(self, label: str, after: Sequence[int] = ()) -> int:
        """Split the current segment at a join point.

        The running task's continuation becomes a *new* task ordered
        after both the old segment and every task in ``after`` — this is
        how ``wait``, a ``fan_out``'s exit, ``run_until_idle`` and
        ``drain`` express "everything after this line sees those tasks'
        effects".
        """
        old = self._stack[-1]
        tid = self._new_task(label)
        self._edge(old, tid)
        for src in after:
            self._edge(src, tid)
        self._stack[-1] = tid
        return tid

    def barrier(self, label: str) -> int:
        """Rejoin after *every* task created so far.

        The machine-restart edge: a crash ends all concurrency, and
        recovery is promised to observe everything that ran before it —
        including event tasks whose waiter the crash interrupted (their
        ``wait`` never rejoined, so nothing else orders them).
        """
        return self.rejoin(label, after=tuple(range(len(self.task_labels))))

    def chain(self, obj: object, name: str = "") -> None:
        """Append the current task to ``obj``'s serialization chain.

        Models serially-owned resources: a disk timeline accepts
        reservations in order; a disk server is one serial actor whose
        entry-point invocations are totally ordered.  Consecutive chain
        members get an edge.
        """
        key = (id(obj), name)
        current = self._stack[-1]
        last = self._chain_last.get(key)
        if last is None:
            self._chain_refs[key] = obj
        elif last < current:
            self._edge(last, current)
        # last > current: a task that outlives a nested child touches
        # the chain after it.  The forward edge into the child already
        # orders that pair, and a backward edge would make a cycle, so
        # the pair is skipped; the chain still advances to ``current``.
        self._chain_last[key] = current

    # -------------------------------------------------- completions

    def note_settled(self, obj: object) -> None:
        """Record that ``obj`` (a Completion) settled in the current task."""
        self._settled[id(obj)] = (obj, self._stack[-1])

    def settled_task(self, obj: object) -> Optional[int]:
        entry = self._settled.get(id(obj))
        return entry[1] if entry is not None else None

    # ------------------------------------------------------ accesses

    def read(
        self, obj: object, lo: int, hi: Optional[int] = None,
        *, name: str = "", site: str = "",
    ) -> None:
        self._record(obj, name, lo, hi if hi is not None else lo + 1, "r", site)

    def write(
        self, obj: object, lo: int, hi: Optional[int] = None,
        *, name: str = "", site: str = "",
    ) -> None:
        self._record(obj, name, lo, hi if hi is not None else lo + 1, "w", site)

    def key_read(
        self, obj: object, key: str, *, name: str = "", site: str = ""
    ) -> None:
        cell = self._key_cell(obj, name, key)
        self._record(obj, name, cell, cell + 1, "r", site)

    def key_write(
        self, obj: object, key: str, *, name: str = "", site: str = ""
    ) -> None:
        cell = self._key_cell(obj, name, key)
        self._record(obj, name, cell, cell + 1, "w", site)

    def read_all(self, obj: object, *, name: str = "", site: str = "") -> None:
        self._record(obj, name, 0, ALL_CELLS_HI, "r", site)

    def write_all(self, obj: object, *, name: str = "", site: str = "") -> None:
        self._record(obj, name, 0, ALL_CELLS_HI, "w", site)

    # ------------------------------------------------------ internal

    def _new_task(self, label: str) -> int:
        tid = len(self.task_labels)
        self.task_labels.append(label)
        self.task_stamps.append(self._now())
        return tid

    def _edge(self, src: int, dst: int) -> None:
        if src == dst:
            return
        if src > dst:
            raise ValueError(
                f"happens-before edge {src} -> {dst} points backward; "
                "tasks are numbered in creation order and edges must too"
            )
        if (src, dst) not in self._edge_set:
            self._edge_set.add((src, dst))
            self.edges.append((src, dst))

    def _structure(self, obj: object, name: str) -> int:
        key = (id(obj), name)
        sid = self._structure_ids.get(key)
        if sid is None:
            sid = len(self.structure_labels)
            self._structure_ids[key] = sid
            self._structure_refs.append(obj)
            suffix = f".{name}" if name else ""
            self.structure_labels.append(
                f"{type(obj).__name__}{suffix}#{sid}"
            )
        return sid

    def _key_cell(self, obj: object, name: str, key: str) -> int:
        sid = self._structure(obj, name)
        cells = self._key_cells.setdefault(sid, {})
        cell = cells.get(key)
        if cell is None:
            cell = len(cells)
            cells[key] = cell
        return cell

    def _record(
        self, obj: object, name: str, lo: int, hi: int, kind: str, site: str
    ) -> None:
        sid = self._structure(obj, name)
        task = self._stack[-1]
        dedup = (task, sid, lo, hi, kind, site)
        if dedup in self._seen:
            return
        self._seen.add(dedup)
        self.accesses.append(
            Access(
                structure=sid, lo=lo, hi=hi, kind=kind,
                task=task, time_us=self._now(), site=site,
            )
        )


#: The installed-by-default monitor: all instrumentation is a no-op.
NULL_MONITOR = NullMonitor()

_active: NullMonitor = NULL_MONITOR


def active() -> NullMonitor:
    """The monitor instrumentation sites report into (usually the null one)."""
    return _active


def install(monitor: AccessMonitor) -> AccessMonitor:
    """Make ``monitor`` the active monitor; returns it for chaining.

    Only one analysis run may be active at a time — nested installs are
    a harness bug.
    """
    global _active
    if _active is not NULL_MONITOR:
        raise RuntimeError("an access monitor is already installed")
    _active = monitor
    return monitor


def uninstall() -> None:
    """Restore the null monitor (idempotent)."""
    global _active
    _active = NULL_MONITOR
