# lint-fixture-module: repro.disk_service.sneaky_delay
"""Fixture: a service path advancing the global clock inline."""

from repro.common.clock import SimClock


def serve(clock: SimClock, service_us: int) -> None:
    clock.advance_us(service_us)  # lint-expect: clock-advance-discipline


def settle(clock: SimClock, when_us: int) -> None:
    clock.advance_to(when_us)  # lint-expect: clock-advance-discipline


def settle_by_hand(clock: SimClock, when_us: int) -> None:
    clock._now_us = when_us  # lint-expect: clock-advance-discipline
