"""Failure schedules: ordering, overlap rejection, poll/run_out."""

from typing import NamedTuple

import pytest

from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.recovery.schedule import FailureSchedule, Outage


class _Host:
    """Records the lifecycle calls a schedule makes, in order."""

    def __init__(self):
        self.calls = []

    def fail_volume(self, volume_id):
        self.calls.append(("fail", volume_id))

    def restart_volume(self, volume_id):
        self.calls.append(("restart", volume_id))

    def fail_member(self, volume_id, member_index):
        self.calls.append(("kill", volume_id, member_index))

    def replace_member(self, volume_id, member_index):
        self.calls.append(("replace", volume_id, member_index))

    def fail_shard(self, shard_id):
        self.calls.append(("shard_kill", shard_id))

    def restart_shard(self, shard_id):
        self.calls.append(("shard_restart", shard_id))


def build(events):
    clock = SimClock()
    return FailureSchedule(events, clock, metrics=Metrics()), clock, _Host()


def volume(at_us, volume_id, down_us):
    return Outage(at_us, down_us, ("volume", volume_id))


def member(at_us, volume_id, member_index, down_us):
    return Outage(at_us, down_us, ("member", volume_id, member_index))


def shard(at_us, shard_id, down_us):
    return Outage(at_us, down_us, ("shard", shard_id))


class Case(NamedTuple):
    """One target kind: two distinct targets of it, the host calls and
    the ``recovery.*`` counter stems its failure and repair use."""

    kind: str
    ids: tuple
    other: tuple
    fail: str
    repair: str
    fail_counter: str
    repair_counter: str


CASES = [
    Case("volume", (0,), (1,), "fail", "restart", "crashes", "restarts"),
    Case("member", (0, 2), (0, 1), "kill", "replace",
         "member_kills", "member_replacements"),
    Case("shard", (2,), (1,), "shard_kill", "shard_restart",
         "shard_kills", "shard_restarts"),
]


@pytest.fixture(params=CASES, ids=[case.kind for case in CASES])
def case(request):
    return request.param


class TestEveryKind:
    """One outage model: the same behaviour for every target kind."""

    def test_validation(self, case):
        kind, ids = case.kind, case.ids
        with pytest.raises(ValueError):
            Outage(-1, 10, (kind, *ids))
        with pytest.raises(ValueError):
            Outage(0, 0, (kind, *ids))
        with pytest.raises(ValueError):
            Outage(0, 10, (kind, *ids[:-1], -1))
        with pytest.raises(ValueError):
            Outage(0, 10, (kind, *ids, 0))  # one id too many
        with pytest.raises(ValueError):
            Outage(0, 10, ("planet", *ids))
        event = Outage(100, 40, (kind, *ids))
        assert event.up_at_us == 140
        assert (event.kind, event.ids) == (kind, ids)

    def test_down_then_up_with_windows(self, case):
        kind, ids = case.kind, case.ids
        schedule, clock, host = build([Outage(100, 50, (kind, *ids))])
        assert schedule.poll(host) == []
        assert host.calls == []
        assert schedule.next_event_us() == 100
        clock.advance_to(100)
        schedule.poll(host)
        assert host.calls == [(case.fail, *ids)]
        clock.advance_to(150)
        schedule.poll(host)
        assert host.calls == [(case.fail, *ids), (case.repair, *ids)]
        assert schedule.done()
        assert schedule.windows(kind) == [(*ids, 100, 150)]
        for stem in (case.fail_counter, case.repair_counter):
            assert schedule.metrics.get(f"recovery.{stem}_injected") == 1

    def test_same_target_overlap_rejected(self, case):
        target = (case.kind, *case.ids)
        with pytest.raises(ValueError):
            build([Outage(0, 100, target), Outage(50, 100, target)])

    def test_distinct_targets_may_overlap(self, case):
        # The schedule does not police redundancy; whether two members
        # (or volumes, or shards) down at once is survivable is the
        # host's verdict to deliver.
        kind, ids, other = case.kind, case.ids, case.other
        schedule, _, host = build(
            [Outage(0, 100, (kind, *ids)), Outage(50, 100, (kind, *other))]
        )
        assert len(schedule.events) == 2
        schedule.run_out(host)
        assert sorted(schedule.windows(kind)) == sorted(
            [(*ids, 0, 100), (*other, 50, 150)]
        )


class TestPoll:
    def test_clock_jump_fires_actions_in_script_order(self):
        """A big jump past crash AND restart still restarts after the
        crash — and a restart due at the same instant as another
        volume's crash fires first."""
        schedule, clock, host = build(
            [volume(100, 0, 100), volume(200, 1, 100)]
        )
        clock.advance_to(400)
        schedule.poll(host)
        assert host.calls == [
            ("fail", 0),
            ("restart", 0),
            ("fail", 1),
            ("restart", 1),
        ]

    def test_run_out_advances_to_each_action(self):
        schedule, clock, host = build([volume(300, 2, 100)])
        actions = schedule.run_out(host)
        assert host.calls == [("fail", 2), ("restart", 2)]
        assert clock.now_us == 400
        assert actions == ["t=300us crash volume 2", "t=400us restart volume 2"]
        assert schedule.done()

    def test_rekill_after_replace_allowed(self):
        """Losing the same slot again after its replacement is the
        rebuild-interrupted scenario — a legal script."""
        schedule, clock, host = build(
            [member(0, 0, 2, 100), member(100, 0, 2, 100)]
        )
        schedule.run_out(host)
        # The same-instant replace fires before the second kill.
        assert host.calls == [
            ("kill", 0, 2),
            ("replace", 0, 2),
            ("kill", 0, 2),
            ("replace", 0, 2),
        ]
        assert schedule.windows("member") == [(0, 2, 0, 100), (0, 2, 100, 200)]

    def test_mixed_volume_and_member_script(self):
        schedule, clock, host = build([volume(10, 1, 30), member(20, 0, 3, 30)])
        actions = schedule.run_out(host)
        assert host.calls == [
            ("fail", 1),
            ("kill", 0, 3),
            ("restart", 1),
            ("replace", 0, 3),
        ]
        assert actions[1] == "t=20us kill member 3 of volume 0"
        assert actions[3] == "t=50us replace member 3 of volume 0"

    def test_same_instant_repairs_before_failures_then_kind_order(self):
        """Windows of different kinds are independent, and the
        same-instant firing order is: all repairs precede all failures,
        then volume < member < shard within each class."""
        schedule, clock, host = build(
            [shard(10, 1, 50), member(10, 0, 1, 50), volume(10, 1, 50)]
        )
        schedule.run_out(host)
        assert host.calls == [
            ("fail", 1),
            ("kill", 0, 1),
            ("shard_kill", 1),
            ("restart", 1),
            ("replace", 0, 1),
            ("shard_restart", 1),
        ]
        assert schedule.windows("volume") == [(1, 10, 60)]
        assert schedule.windows("shard") == [(1, 10, 60)]
