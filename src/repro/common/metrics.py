"""Counter registry used throughout the facility.

The paper's performance argument is counted in *disk references*,
*messages*, and *cache hits*, not wall-clock seconds.  Every component
therefore increments named counters on a shared :class:`Metrics`
instance; benchmarks snapshot and diff them to produce the tables in
EXPERIMENTS.md.

Beyond plain counters the registry holds two further instrument kinds,
both fed exclusively from *simulated* time and therefore fully
deterministic:

* **histograms** — distributions of observed values (typically
  per-operation simulated-microsecond durations recorded through
  :meth:`Metrics.observe` or the :meth:`Metrics.timer` context
  manager); quantiles are computed by the deterministic nearest-rank
  rule, so two identically seeded runs report byte-identical p50/p95;
* **gauges** — last-value-wins level measurements
  (:meth:`Metrics.gauge`), e.g. current cached-sector counts.

All instrument names follow the same ``layer.noun_verb`` dotted
grammar the ``metrics-naming`` lint rule enforces.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import defaultdict
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
)

if TYPE_CHECKING:
    from repro.common.clock import SimClock

#: Percentiles every histogram summary reports, in order.
HISTOGRAM_PERCENTILES = (50, 95)

#: One histogram's samples: signed 64-bit integers, 8 bytes each.  A
#: campaign records hundreds of thousands of them, and a list of int
#: objects costs four to five times that.
_samples = functools.partial(array, "q")


def prefix_matches(name: str, prefix: str) -> bool:
    """Dot-segment-aware prefix match.

    ``"disk.1"`` matches ``disk.1`` and ``disk.1.*`` but **not**
    ``disk.10.*`` (raw ``str.startswith`` would).  A prefix ending in
    a dot matches any name under it, preserving the established
    ``total("disk.")`` idiom.
    """
    if prefix.endswith("."):
        return name.startswith(prefix)
    return name == prefix or name.startswith(prefix + ".")


def _nearest_rank(ordered: List[int], percentile: int) -> int:
    """Nearest-rank percentile of a sorted, non-empty sample list.

    Integer arithmetic only (``rank = ceil(p*n/100)``), so the result
    never depends on floating-point rounding.
    """
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def summarize(samples: Iterable[int]) -> Dict[str, int]:
    """Deterministic summary of histogram samples.

    Returns ``{count, min, max, sum, p50, p95}``, all zero when there
    are no samples.  Quantiles use the nearest-rank rule over the
    sorted samples, so identical runs produce identical summaries.
    """
    ordered = sorted(samples)
    if not ordered:
        return dict.fromkeys(
            ["count", "min", "max", "sum"]
            + [f"p{percentile}" for percentile in HISTOGRAM_PERCENTILES],
            0,
        )
    summary = {
        "count": len(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "sum": sum(ordered),
    }
    for percentile in HISTOGRAM_PERCENTILES:
        summary[f"p{percentile}"] = _nearest_rank(ordered, percentile)
    return summary


class Counter:
    """Pre-bound handle to one counter: the name is resolved once.

    Hot paths (a simulated disk charging every reference) used to build
    an f-string metric name per call; a handle created at construction
    time keeps the hot path to one dictionary update with a cached
    string hash.  The handle writes into the registry's own counter
    table, so every read path (:meth:`Metrics.get`, :meth:`Metrics.total`,
    :meth:`Metrics.snapshot`, :meth:`Metrics.diff`, :meth:`Metrics.reset`)
    observes handle increments exactly as if :meth:`Metrics.add` had
    been called with the same name.
    """

    __slots__ = ("name", "_counters")

    def __init__(self, name: str, counters: Dict[str, int]) -> None:
        self.name = name
        self._counters = counters

    def add(self, amount: int = 1) -> None:
        """Increment the bound counter by ``amount`` (may be negative)."""
        self._counters[self.name] += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r})"


class HistogramHandle:
    """Pre-bound handle recording samples into one histogram."""

    __slots__ = ("name", "_histograms")

    def __init__(self, name: str, histograms: Dict[str, array]) -> None:
        self.name = name
        self._histograms = histograms

    def observe(self, value: int) -> None:
        """Record one sample (floats truncate toward zero, as observe)."""
        self._histograms[self.name].append(int(value))

    def extend(self, values: Iterable[int]) -> None:
        """Record many samples at once, in order.

        Values must already be integers — this is the bulk drain used
        by deferred-accounting flushes, which only ever batch values
        :meth:`observe` would have recorded one at a time.
        """
        self._histograms[self.name].extend(values)

    def __repr__(self) -> str:
        return f"HistogramHandle({self.name!r})"


class Gauge:
    """Pre-bound handle setting one gauge (last write wins)."""

    __slots__ = ("name", "_gauges")

    def __init__(self, name: str, gauges: Dict[str, int]) -> None:
        self.name = name
        self._gauges = gauges

    def set(self, value: int) -> None:
        """Set the bound gauge to ``value``."""
        self._gauges[self.name] = int(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name!r})"


class Metrics:
    """A hierarchic bag of named integer counters, histograms and gauges.

    Instrument names are dotted paths, e.g. ``disk.0.reads`` or
    ``file_agent.cache.hits``.  Components only ever *add*/*observe*;
    analysis code reads, snapshots and diffs.
    """

    #: When a :meth:`tracking` block is active, every Metrics instance
    #: constructed registers itself here so harnesses (the bench
    #: runner) can aggregate registries benchmarks build internally.
    _live: Optional[List["Metrics"]] = None

    def __init__(self) -> None:
        self._counters: Dict[str, int] = defaultdict(int)
        self._histograms: Dict[str, array] = defaultdict(_samples)
        self._gauges: Dict[str, int] = {}
        # Histogram summaries keyed by name -> (sample count, summary).
        # Samples only ever grow between resets, so the count is a
        # complete staleness check even for handle-recorded samples.
        self._summaries: Dict[str, tuple[int, Dict[str, int]]] = {}
        # Deferred-accounting drains (see register_flush): every read
        # entry point runs these before touching the tables.
        self._flush_hooks: List[Callable[[], None]] = []
        if Metrics._live is not None:
            Metrics._live.append(self)

    @classmethod
    @contextlib.contextmanager
    def tracking(cls) -> Iterator[List["Metrics"]]:
        """Collect every Metrics instance constructed inside the block.

        Used by ``repro.tools.bench`` to aggregate the registries that
        benchmark helpers build internally.  Nesting restores the outer
        collector on exit.
        """
        previous, collected = cls._live, []
        cls._live = collected
        try:
            yield collected
        finally:
            cls._live = previous

    # -------------------------------------------------- deferred flush

    def register_flush(self, hook: Callable[[], None]) -> None:
        """Register a deferred-accounting drain to run before any read.

        Hot components (the simulated disk charging every reference)
        batch their per-operation updates into plain attributes and
        register a hook that drains the batch into the tables.  Every
        read entry point (:meth:`get`, :meth:`snapshot`,
        :meth:`histogram`, ...) calls :meth:`flush` first, so observers
        see the registry exactly as if each update had been applied
        immediately — same counter values, same per-name histogram
        sample order, same last-write-wins gauge values.  Hooks must be
        idempotent and cheap when their batch is empty.
        """
        self._flush_hooks.append(hook)

    def flush(self) -> None:
        """Drain every registered deferred-accounting batch now."""
        for hook in self._flush_hooks:
            hook()

    # -------------------------------------------------------- handles

    def counter(self, name: str) -> Counter:
        """A pre-bound :class:`Counter` handle for ``name``.

        Resolve the name once (typically at component construction) and
        call ``handle.add(...)`` on the hot path; behaviour is identical
        to :meth:`add` with the same name, minus the per-call string
        formatting.  Prefix scans (:meth:`total`, :meth:`snapshot`) stay
        lazy — handle increments cost one table update and nothing else
        until an analysis read actually asks.
        """
        return Counter(name, self._counters)

    def histogram_handle(self, name: str) -> HistogramHandle:
        """A pre-bound :class:`HistogramHandle` for ``name`` (see counter)."""
        return HistogramHandle(name, self._histograms)

    def gauge_handle(self, name: str) -> Gauge:
        """A pre-bound :class:`Gauge` handle for ``name`` (see counter)."""
        return Gauge(name, self._gauges)

    # ------------------------------------------------------- counters

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (may be negative)."""
        self._counters[name] += amount

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        self.flush()
        return self._counters.get(name, 0)

    def total(self, prefix: str) -> int:
        """Sum of all counters under dotted prefix ``prefix``.

        Matching is dot-segment aware: ``total("disk.1")`` covers
        ``disk.1`` and ``disk.1.*`` but never ``disk.10.*``.
        """
        self.flush()
        return sum(
            value
            for name, value in self._counters.items()
            if prefix_matches(name, prefix)
        )

    def snapshot(self, prefixes: Iterable[str] | None = None) -> Dict[str, int]:
        """A copy of the counters, optionally restricted to ``prefixes``.

        Prefixes are matched dot-segment aware, like :meth:`total`.
        """
        self.flush()
        if prefixes is None:
            return dict(self._counters)
        wanted = tuple(prefixes)
        return {
            name: value
            for name, value in self._counters.items()
            if any(prefix_matches(name, prefix) for prefix in wanted)
        }

    def diff(self, before: Mapping[str, int]) -> Dict[str, int]:
        """Counters that changed since ``before`` (a prior snapshot)."""
        self.flush()
        changed: Dict[str, int] = {}
        for name, value in self._counters.items():
            delta = value - before.get(name, 0)
            if delta:
                changed[name] = delta
        return changed

    # ----------------------------------------------------- histograms

    def observe(self, name: str, value: int) -> None:
        """Record one sample into histogram ``name``.

        Values are integers by convention (simulated microseconds,
        sector counts); floats are truncated toward zero to keep
        summaries platform-independent.
        """
        self._histograms[name].append(int(value))

    @contextlib.contextmanager
    def timer(self, name: str, clock: "SimClock") -> Iterator[None]:
        """Observe the simulated time a ``with`` block spends.

        The elapsed ``clock`` microseconds are recorded into histogram
        ``name`` on exit — including exits by exception, so failed
        operations still account for the time they consumed.  Inside a
        deferred-time frame (:mod:`repro.common.frames`) the frame
        cursor is measured instead, so overlapped operations record
        their modelled duration rather than zero.
        """
        from repro.common.frames import frame_now

        started = frame_now(clock)
        try:
            yield
        finally:
            self._histograms[name].append(frame_now(clock) - started)

    def histogram(self, name: str) -> Dict[str, int]:
        """:func:`summarize` of histogram ``name`` (all zero if unknown).

        Summaries are cached per sample count: repeated calls without
        new samples reuse the computed summary instead of re-sorting
        the full sample list (samples are append-only between resets,
        so an unchanged count proves the summary is still current).
        """
        self.flush()
        samples = self._histograms.get(name, ())
        cached = self._summaries.get(name)
        if cached is None or cached[0] != len(samples):
            cached = self._summaries[name] = (len(samples), summarize(samples))
        return dict(cached[1])

    def histogram_names(self) -> List[str]:
        """Names of every histogram with at least one sample, sorted."""
        self.flush()
        return sorted(name for name, samples in self._histograms.items() if samples)

    def histogram_samples(self, name: str) -> List[int]:
        """A copy of the raw samples of histogram ``name`` (merge-friendly)."""
        self.flush()
        return list(self._histograms.get(name, ()))

    # --------------------------------------------------------- gauges

    def gauge(self, name: str, value: int) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = int(value)

    def get_gauge(self, name: str) -> int:
        """Current value of gauge ``name`` (0 if never set)."""
        self.flush()
        return self._gauges.get(name, 0)

    def gauges(self) -> Dict[str, int]:
        """A copy of every gauge."""
        self.flush()
        return dict(self._gauges)

    # ------------------------------------------------------ lifecycle

    def reset(self) -> None:
        """Zero every counter, histogram and gauge (between bench runs).

        Tables are cleared in place, so pre-bound handles created before
        the reset keep recording into this registry afterwards.
        Deferred batches are drained first, so nothing recorded before
        the reset can leak into the epoch after it.
        """
        self.flush()
        self._counters.clear()
        self._histograms.clear()
        self._gauges.clear()
        self._summaries.clear()

    def __repr__(self) -> str:
        return (
            f"Metrics({len(self._counters)} counters, "
            f"{len(self._histograms)} histograms, {len(self._gauges)} gauges)"
        )
