"""Buffer pools and write policies.

Paper section 5: "The space for caching a fragment and block is
acquired from a fragment-pool and block-pool, respectively.  The size
of these pools is determined on the basis of the amount of main memory
available.  These pools of free buffers are maintained by the file
agent, transaction agent and the file service."

And on modification policy: "we decided to implement the delayed-write
policy to save modifications made to data cached by the file agent.
However ... the delayed-write together with write-through policies are
adapted to save modifications made to data cached by the file service"
(write-through for files operated on with transaction semantics).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from itertools import islice
from typing import (
    Callable,
    Collection,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.metrics import Metrics


class WritePolicy(enum.Enum):
    """When modified buffers reach the layer below."""

    DELAYED = "delayed"  # written back on flush / close / eviction
    WRITE_THROUGH = "write-through"  # written back immediately


class BufferPool:
    """A fixed-capacity LRU pool of equal-sized buffers.

    A dirty buffer is written back through ``writeback(key, data)`` when
    it is evicted; the owner writes back the rest (:meth:`dirty_items`,
    then :meth:`mark_clean`), and may have what an insertion would evict
    written back ahead of it (:meth:`dirty_victims`, then
    :meth:`write_back`).  The pool never loses
    data silently: evicting a dirty buffer without a writeback callback
    is an error.

    A buffer may be *partially known*: put with ``known=(start, end)``,
    only those bytes of it are the data's, the rest unknown (a write
    that did not read what it left).  :meth:`get` and :meth:`contains`
    report such a buffer missing, :meth:`fill` completes it from a
    fetch (a *merge read*), and its write-back passes only the known
    bytes, ``writeback(key, data[start:end], start)`` (a *partial
    write-back*).  The range lives and dies with its buffer: eviction,
    :meth:`invalidate`, :meth:`invalidate_all` and a put of the whole
    buffer end it.

    Args:
        name: metric prefix (``<name>.hits`` etc.).
        metrics: counter registry.
        capacity: maximum buffers held.
        writeback: callback invoked with (key, data) when a dirty buffer
            is evicted, with (key, known bytes, their offset) for a
            partially known one.
    """

    def __init__(
        self,
        name: str,
        metrics: Metrics,
        capacity: int,
        writeback: Optional[Callable[..., None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("buffer pool capacity must be >= 1")
        self.name = name
        self.metrics = metrics
        self.capacity = capacity
        self.writeback = writeback
        self._buffers: "OrderedDict[Hashable, bytes]" = OrderedDict()
        self._dirty: Dict[Hashable, bool] = {}
        #: key -> (start, end) of each partially known buffer.
        self._known: Dict[Hashable, Tuple[int, int]] = {}

    # ------------------------------------------------------------ api

    def get(self, key: Hashable) -> Optional[bytes]:
        """Look up a whole buffer; None on miss.  Hits refresh LRU position."""
        if key in self._known or key not in self._buffers:
            self.metrics.add(f"{self.name}.misses")
            return None
        self._buffers.move_to_end(key)
        self.metrics.add(f"{self.name}.hits")
        return self._buffers[key]

    def contains(self, key: Hashable) -> bool:
        """Whether a whole buffer is held, without disturbing LRU order
        or metrics."""
        return key in self._buffers and key not in self._known

    def partial(self, key: Hashable) -> Optional[Tuple[bytes, int, int]]:
        """``(data, start, end)`` of a partially known buffer, None for
        a whole or absent one (no LRU or metric effect)."""
        known = self._known.get(key)
        return None if known is None else (self._buffers[key], *known)

    def put(
        self,
        key: Hashable,
        data: bytes,
        *,
        dirty: bool = False,
        known: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Insert or update a buffer; dirty buffers await writeback.
        ``known`` is the byte range of ``data`` that holds the buffer's
        contents, when not all of it does."""
        if key in self._buffers:
            self._buffers.move_to_end(key)
        self._buffers[key] = data
        self._dirty[key] = dirty or self._dirty.get(key, False)
        if known is None:
            self._known.pop(key, None)
        else:
            self._known[key] = known
        self._evict_if_needed()

    def fill(self, buffers: Sequence[Tuple[Hashable, bytes]]) -> List[bytes]:
        """Cache fetched ``(key, data)`` buffers, clean, and return what
        each now holds: a partially known one keeps its own, newer bytes
        over the fetched ones, and its dirty flag (a merge read).

        The partially known ones are completed first, so the insertions
        evict what :meth:`dirty_victims` named for them."""
        held = []
        for key, data in buffers:
            known = self._known.pop(key, None)
            if known is not None:
                start, end = known
                data = data[:start] + self._buffers[key][start:end] + data[end:]
                self._buffers[key] = data
                self._buffers.move_to_end(key)
                self.metrics.add(f"{self.name}.merge_reads")
            held.append(data)
        for key, data in buffers:
            if key not in self._buffers:
                self.put(key, data)
        return held

    def mark_clean(self, key: Hashable) -> None:
        if key in self._dirty:
            self._dirty[key] = False

    def invalidate(self, key: Hashable) -> None:
        """Drop a buffer without writeback (caller owns durability)."""
        self._buffers.pop(key, None)
        self._dirty.pop(key, None)
        self._known.pop(key, None)

    def invalidate_all(self) -> None:
        self._buffers.clear()
        self._dirty.clear()
        self._known.clear()

    def dirty_items(self) -> Iterator[Tuple[Hashable, bytes]]:
        for key, data in self._buffers.items():
            if self._dirty.get(key):
                yield key, data

    def dirty_among(self, keys: Iterable[Hashable]) -> Dict[Hashable, bytes]:
        """The dirty buffers among ``keys`` (no LRU or metric effect)."""
        return {key: self._buffers[key] for key in keys if self._dirty.get(key)}

    def dirty_victims(
        self, n: int, refreshed: Collection[Hashable] = ()
    ) -> List[Hashable]:
        """The keys of the dirty buffers that inserting ``n`` absent keys
        would evict, in eviction order, once the held buffers among
        ``refreshed`` moved to the young end (no LRU or metric effect)."""
        evicted = max(0, len(self._buffers) + n - self.capacity)
        order = (key for key in self._buffers if key not in refreshed)
        return [key for key in islice(order, evicted) if self._dirty.get(key)]

    def write_back(self, keys: Iterable[Hashable]) -> None:
        """Write back the named dirty buffers now, in order, as their
        eviction would; each is marked clean once it is down, so a
        failing write-back leaves it dirty."""
        for key in keys:
            if self._dirty.get(key):
                self._write_back(key, self._buffers[key], self._known.get(key))
                self._dirty[key] = False

    def __len__(self) -> int:
        return len(self._buffers)

    # ------------------------------------------------------ internal

    def _evict_if_needed(self) -> None:
        while len(self._buffers) > self.capacity:
            key, data = self._buffers.popitem(last=False)
            known = self._known.pop(key, None)
            if self._dirty.pop(key, False):
                self._write_back(key, data, known)
            self.metrics.add(f"{self.name}.evictions")

    def _write_back(
        self, key: Hashable, data: bytes, known: Optional[Tuple[int, int]]
    ) -> None:
        if self.writeback is None:
            raise RuntimeError(
                f"buffer pool {self.name}: dirty buffer {key!r} has no writeback"
            )
        if known is None:
            self.writeback(key, data)
        else:
            start, end = known
            self.writeback(key, data[start:end], start)
            self.metrics.add(f"{self.name}.partial_writebacks")
        self.metrics.add(f"{self.name}.writebacks")
