"""Callbacks that do not keep their owner alive.

Components hand bound methods to hubs they also hold a reference to — a
disk registers its accounting flush with the metrics registry it
charges, a file server gives its block pool the write-back routine, a
replication service listens on the health registry it consults.  A
strong bound method there closes a reference cycle, and a dropped
cluster (megabytes of sector store behind it) then lingers until the
cycle collector's next full pass instead of being freed on the spot.
Ownership in this code base runs one way, top-down from whoever built
the component; the way back is weak.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable


def weak_method(method: Callable[..., Any]) -> Callable[..., Any]:
    """``method`` (a bound method) as a callable that holds its object weakly.

    Calling the result once the object is gone does nothing and returns
    None — the callback's owner no longer exists to care.
    """
    ref = weakref.WeakMethod(method)

    def call(*args: Any, **kwargs: Any) -> Any:
        target = ref()
        return target(*args, **kwargs) if target is not None else None

    return call
