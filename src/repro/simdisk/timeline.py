"""Per-disk busy timelines over the deferred-time frame machinery.

Before this module existed, every disk reference advanced the one
shared :class:`~repro.common.clock.SimClock` inline, so two requests to
two *different* disks cost the sum of their service times instead of
the max.  The timeline splits the two meanings that call conflated:

* **service time charged to a disk** — each :class:`SimDisk` owns a
  :class:`DiskTimeline` (:class:`repro.common.frames.Timeline`) whose
  ``busy_until_us`` advances by the modelled service time of every
  reference it absorbs;
* **global clock advanced** — only happens when somebody *waits* for a
  timeline: the blocking path (``charge`` with no active frame) waits
  inline, exactly reproducing the old semantics for sequential
  callers, while overlapped paths defer the wait to the event loop.

The frame machinery and the busy-until class itself live in
:mod:`repro.common.frames` (so the rpc, agent and naming layers can
charge their latencies frame-aware without importing the disk
substrate); this module re-exports them for the disk side.
"""

from __future__ import annotations

from repro.common.frames import (  # noqa: F401 - re-exported surface
    FrameFork,
    ServiceFrame,
    Timeline,
    active_frame,
    ceil_us,
    charge_elapsed,
    frame_now,
    service_frame,
)

#: The disk side's historical name for the one busy-until class.
DiskTimeline = Timeline
