# lint-fixture-module: repro.disk_service.charged_delay
"""Fixture: the same component charging its delay frame-aware."""

from repro.common.clock import SimClock
from repro.common.frames import charge_elapsed


def serve(clock: SimClock, service_us: int) -> None:
    charge_elapsed(clock, service_us)


def deadline(clock: SimClock, service_us: int) -> int:
    # reading the clock's field moves no time; only a store is banned
    return clock._now_us + service_us
