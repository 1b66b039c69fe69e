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
from typing import Callable, Dict, Hashable, Iterable, Iterator, Optional, Tuple

from repro.common.metrics import Metrics


class WritePolicy(enum.Enum):
    """When modified buffers reach the layer below."""

    DELAYED = "delayed"  # written back on flush / close / eviction
    WRITE_THROUGH = "write-through"  # written back immediately


class BufferPool:
    """A fixed-capacity LRU pool of equal-sized buffers.

    A dirty buffer is written back through ``writeback(key, data)`` when
    it is evicted; the owner writes back the rest (:meth:`dirty_items`,
    then :meth:`mark_clean`).  The pool never loses data silently:
    evicting a dirty buffer without a writeback callback is an error.

    Args:
        name: metric prefix (``<name>.hits`` etc.).
        metrics: counter registry.
        capacity: maximum buffers held.
        writeback: callback invoked with (key, data) when a dirty buffer
            is evicted.
    """

    def __init__(
        self,
        name: str,
        metrics: Metrics,
        capacity: int,
        writeback: Optional[Callable[[Hashable, bytes], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("buffer pool capacity must be >= 1")
        self.name = name
        self.metrics = metrics
        self.capacity = capacity
        self.writeback = writeback
        self._buffers: "OrderedDict[Hashable, bytes]" = OrderedDict()
        self._dirty: Dict[Hashable, bool] = {}

    # ------------------------------------------------------------ api

    def get(self, key: Hashable) -> Optional[bytes]:
        """Look up a buffer; None on miss.  Hits refresh LRU position."""
        data = self._buffers.get(key)
        if data is None:
            self.metrics.add(f"{self.name}.misses")
            return None
        self._buffers.move_to_end(key)
        self.metrics.add(f"{self.name}.hits")
        return data

    def contains(self, key: Hashable) -> bool:
        """Presence check that does not disturb LRU order or metrics."""
        return key in self._buffers

    def put(self, key: Hashable, data: bytes, *, dirty: bool = False) -> None:
        """Insert or update a buffer; dirty buffers await writeback."""
        if key in self._buffers:
            self._buffers.move_to_end(key)
        self._buffers[key] = data
        self._dirty[key] = dirty or self._dirty.get(key, False)
        self._evict_if_needed()

    def mark_clean(self, key: Hashable) -> None:
        if key in self._dirty:
            self._dirty[key] = False

    def invalidate(self, key: Hashable) -> None:
        """Drop a buffer without writeback (caller owns durability)."""
        self._buffers.pop(key, None)
        self._dirty.pop(key, None)

    def invalidate_all(self) -> None:
        self._buffers.clear()
        self._dirty.clear()

    def dirty_items(self) -> Iterator[Tuple[Hashable, bytes]]:
        for key, data in self._buffers.items():
            if self._dirty.get(key):
                yield key, data

    def dirty_among(self, keys: Iterable[Hashable]) -> Dict[Hashable, bytes]:
        """The dirty buffers among ``keys`` (no LRU or metric effect)."""
        return {key: self._buffers[key] for key in keys if self._dirty.get(key)}

    def __len__(self) -> int:
        return len(self._buffers)

    # ------------------------------------------------------ internal

    def _evict_if_needed(self) -> None:
        while len(self._buffers) > self.capacity:
            key, data = self._buffers.popitem(last=False)
            if self._dirty.pop(key, False):
                if self.writeback is None:
                    raise RuntimeError(
                        f"buffer pool {self.name}: dirty buffer {key!r} has "
                        "no writeback"
                    )
                self.writeback(key, data)
                self.metrics.add(f"{self.name}.writebacks")
            self.metrics.add(f"{self.name}.evictions")
