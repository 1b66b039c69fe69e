# lint-fixture-module: repro.replication.fake_frames_ok
"""Fixture: branches scoped, no inline charging."""


def replicate(clock, replicas) -> None:
    with fan_out(clock) as fork:
        for replica in replicas:
            with fork.branch():
                replica.write(b"x")


def serve(clock, timeline, n_sectors, think_us) -> None:
    # pricing goes through the charging substrate, never the cursor
    timeline.charge(n_sectors)
    charge_elapsed(clock, think_us)
