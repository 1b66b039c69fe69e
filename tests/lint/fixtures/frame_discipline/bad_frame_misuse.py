# lint-fixture-module: repro.replication.fake_frames
"""Fixture: unscoped branches, cursor pokes."""


def branch_without_with(fork, replica) -> None:
    fork.branch()  # lint-expect: frame-discipline
    replica.write(b"x")


def teleport(frame) -> None:
    frame.cursor_us = 1_000_000  # lint-expect: frame-discipline


class FakeService:
    def serve(self, frame, delta_us: int) -> None:
        frame.cursor_us += delta_us  # lint-expect: frame-discipline
