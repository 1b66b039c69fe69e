"""Cross-layer request tracing in simulated time.

The paper argues its design layer by layer — agent, file service, disk
service, physical disk (Fig. 1) — so understanding one request means
reconstructing the path it took through those layers: which cache
level answered, how many disk references it cost, where its simulated
time went.  A :class:`Tracer` records that path as a tree of
:class:`Span` objects.

Design constraints, in order:

* **deterministic** — span ids are monotonically assigned, timestamps
  come from the shared :class:`~repro.common.clock.SimClock` — inside a
  deferred-time frame, from the frame's cursor, or every span of an
  overlapped operation would read zero — and no ambient randomness or
  wall clock is ever consulted, so two identical runs produce identical
  traces;
* **zero-cost when disabled** — every instrumentation point is a
  ``with tracer.span(...)`` block; a disabled tracer returns one
  shared no-op handle and touches nothing else, so the benchmark
  numbers are unaffected by the instrumentation existing;
* **bounded** — completed spans live in a ring buffer
  (:class:`collections.deque` with ``maxlen``), so a long simulation
  cannot grow memory without bound; analysis reads the most recent
  window.

The simulation is single-threaded by construction (DESIGN.md §2), so
the tracer keeps one open-span stack: a span started while another is
open becomes its child, which is exactly the synchronous call
structure agents → file service → disk service → disk has.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.common.clock import SimClock
from repro.common.frames import frame_now

#: Default ring-buffer capacity (completed spans retained).
DEFAULT_CAPACITY = 4096


@dataclass(slots=True)
class Span:
    """One timed operation inside one layer.

    Attributes:
        span_id: unique per tracer, monotonically increasing.
        parent_id: the enclosing span's id, or None for a root span.
        trace_id: the root span's id — every span of one request
            shares it, which is what makes a trace reconstructible.
        layer: the architectural layer (``file_agent``,
            ``file_service``, ``disk_service``, ``simdisk``, ``rpc``,
            ``transactions``).
        op: the operation (``read``, ``write``, ``commit``, ...).
        start_us / end_us: simulated-clock bounds; ``end_us`` is None
            while the span is still open.
        annotations: facts attached along the way (cache level that
            answered, sector counts, disk-reference deltas).
    """

    span_id: int
    parent_id: Optional[int]
    trace_id: int
    layer: str
    op: str
    start_us: int
    end_us: Optional[int] = None
    annotations: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_us(self) -> int:
        """Simulated microseconds the span covered (0 while open)."""
        if self.end_us is None:
            return 0
        return self.end_us - self.start_us


class _NullSpanHandle:
    """The shared do-nothing handle a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def annotate(self, key: str, value: object) -> None:
        return None

    def annotate_add(self, key: str, amount: int) -> None:
        return None


#: Singleton no-op handle: the entire cost of tracing-while-disabled.
NULL_SPAN = _NullSpanHandle()


class _SpanHandle:
    """Context manager that closes its span at block exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._finish(self.span)
        return None

    def annotate(self, key: str, value: object) -> None:
        self.span.annotations[key] = value

    def annotate_add(self, key: str, amount: int) -> None:
        current = self.span.annotations.get(key, 0)
        self.span.annotations[key] = int(current) + amount  # type: ignore[arg-type]


class Tracer:
    """Ring-buffered recorder of cross-layer request spans.

    Args:
        clock: the simulation clock timestamps come from; may be None
            only while the tracer stays disabled.
        capacity: completed spans retained (ring buffer).

    A tracer starts disabled; :meth:`enable` / :meth:`disable` switch it.
    """

    __slots__ = ("clock", "capacity", "enabled", "_next_span_id", "_open", "_done")

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        *,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.clock = clock
        self.capacity = max(1, capacity)
        #: Plain attribute, deliberately not a property: hot paths guard
        #: span construction on it (``if tracer.enabled:``) so disabled
        #: tracing costs one attribute read — no kwargs dict, no call.
        self.enabled = False
        self._next_span_id = 0
        self._open: List[Span] = []
        self._done: Deque[Span] = deque(maxlen=self.capacity)

    # ------------------------------------------------------- control

    def enable(self) -> None:
        if self.clock is None:
            raise ValueError("cannot enable a tracer without a clock")
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; open spans still close, new spans are no-ops."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every recorded span (open-span stack included)."""
        self._open.clear()
        self._done.clear()

    # ----------------------------------------------------- recording

    def span(self, layer: str, op: str, **annotations: object):
        """Open a span; use as ``with tracer.span("simdisk", "read"):``.

        The span nests under whatever span is currently open, giving
        the synchronous call tree.  Disabled tracers return the shared
        :data:`NULL_SPAN` handle and allocate nothing.
        """
        if not self.enabled:
            return NULL_SPAN
        assert self.clock is not None  # guaranteed by enable()
        span_id = self._next_span_id
        self._next_span_id += 1
        parent = self._open[-1] if self._open else None
        span = Span(
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=parent.trace_id if parent is not None else span_id,
            layer=layer,
            op=op,
            start_us=frame_now(self.clock),
            annotations=dict(annotations),
        )
        self._open.append(span)
        return _SpanHandle(self, span)

    def annotate(self, key: str, value: object) -> None:
        """Attach a fact to the innermost open span (no-op otherwise).

        This is how a lower layer that did not open the span reports
        into it — e.g. the track cache marking the enclosing
        ``disk_service.get`` span hit or miss.
        """
        if self.enabled and self._open:
            self._open[-1].annotations[key] = value

    def annotate_add(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to a numeric fact on the innermost open span."""
        if self.enabled and self._open:
            annotations = self._open[-1].annotations
            annotations[key] = int(annotations.get(key, 0)) + amount  # type: ignore[arg-type]

    def _finish(self, span: Span) -> None:
        assert self.clock is not None
        now = frame_now(self.clock)
        span.end_us = now
        # Close any abandoned children first (exception unwinding skips
        # their __exit__ only if the with-statement was subverted; the
        # stack discipline below keeps the tree consistent regardless).
        while self._open and self._open[-1] is not span:
            orphan = self._open.pop()
            orphan.end_us = now
            self._done.append(orphan)
        if self._open and self._open[-1] is span:
            self._open.pop()
        self._done.append(span)

    # ------------------------------------------------------ analysis

    def spans(self) -> List[Span]:
        """Completed spans, oldest first (bounded by ``capacity``)."""
        return list(self._done)

    def traces(self) -> Dict[int, List[Span]]:
        """Completed spans grouped by trace id, each group oldest first."""
        grouped: Dict[int, List[Span]] = {}
        for span in self._done:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def trace(self, trace_id: int) -> List[Span]:
        """Every completed span of one trace, oldest first."""
        return [span for span in self._done if span.trace_id == trace_id]

    def roots(self) -> List[Span]:
        """Completed root spans (one per fully recorded request)."""
        return [span for span in self._done if span.parent_id is None]

    def children(self, span: Span) -> List[Span]:
        """Completed direct children of ``span``, oldest first."""
        return [s for s in self._done if s.parent_id == span.span_id]

    def layer_path(self, trace_id: int) -> List[str]:
        """The layers of one trace along one root-to-leaf chain.

        Follows the first child at every level (the request's primary
        path) and reports each distinct layer once, in order — e.g.
        ``["file_agent", "file_service", "disk_service", "simdisk"]``
        for a cold read.
        """
        spans = self.trace(trace_id)
        if not spans:
            return []
        by_parent: Dict[Optional[int], List[Span]] = {}
        for span in spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        path: List[str] = []
        cursor: Optional[Span] = next(
            (span for span in spans if span.trace_id == span.span_id), spans[0]
        )
        while cursor is not None:
            if not path or path[-1] != cursor.layer:
                path.append(cursor.layer)
            children = by_parent.get(cursor.span_id, [])
            cursor = children[0] if children else None
        return path

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"Tracer({state}, {len(self._done)} done, "
            f"{len(self._open)} open, capacity={self.capacity})"
        )


#: Shared disabled tracer components default to when none is wired in.
#: Never enable this instance — create a real Tracer with a clock.
NULL_TRACER = Tracer()
