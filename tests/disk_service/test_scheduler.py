"""Disk-scheduling policies: FCFS, SCAN with aging, coalescing.

The SCAN no-starvation property is the headline: a pure elevator can
park a far-away request forever behind a hot cylinder, and the aging
bound is the contract that it cannot.  A hypothesis test drives the
scheduler with adversarial hot-cylinder streams and asserts no request
ever waits past ``aging_bound_us`` plus one in-flight service.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.common.units import SECTORS_PER_FRAGMENT
from repro.disk_service.addresses import Extent
from repro.disk_service.queue import DiskRequest, RequestQueue
from repro.disk_service.scheduler import (
    CoalescingScheduler,
    FcfsScheduler,
    ScanScheduler,
    make_scheduler,
)
from repro.disk_service.server import Source, Stability


def cylinder_of(sector: int) -> int:
    # One fragment per cylinder: a request at fragment f sits on
    # cylinder f, which keeps seek geometry legible in the tests.
    return sector // SECTORS_PER_FRAGMENT


def request(seq: int, fragment: int, *, at_us: int = 0, kind: str = "get",
            length: int = 1, **kwargs) -> DiskRequest:
    return DiskRequest(
        seq=seq,
        kind=kind,
        extent=Extent(fragment, length),
        enqueued_at_us=at_us,
        **kwargs,
    )


def take(scheduler, queue, *, head: int = 0, now: int = 0):
    return scheduler.take(
        queue, head_cylinder=head, now_us=now, cylinder_of=cylinder_of
    )


def fill(queue: RequestQueue, *requests: DiskRequest) -> None:
    for item in requests:
        queue.push(item)


class TestFcfs:
    def test_serves_in_arrival_order_regardless_of_position(self):
        queue = RequestQueue()
        fill(queue, request(1, 900), request(2, 0), request(3, 450))
        scheduler = FcfsScheduler()
        order = [take(scheduler, queue, head=0)[0].seq for _ in range(3)]
        assert order == [1, 2, 3]

    def test_batches_are_singletons(self):
        queue = RequestQueue()
        fill(queue, request(1, 0), request(2, 1))  # adjacent, still separate
        assert len(take(FcfsScheduler(), queue)) == 1


class TestScan:
    def test_serves_nearest_in_sweep_direction(self):
        queue = RequestQueue()
        fill(queue, request(1, 90), request(2, 10), request(3, 50))
        scheduler = ScanScheduler()
        # head at 40 sweeping up: 50, then 90; only then reverse to 10
        order = [take(scheduler, queue, head=40)[0].seq for _ in range(3)]
        assert order == [3, 1, 2]

    def test_reverses_when_nothing_ahead(self):
        queue = RequestQueue()
        fill(queue, request(1, 10), request(2, 30))
        scheduler = ScanScheduler()
        assert take(scheduler, queue, head=50)[0].seq == 2
        assert take(scheduler, queue, head=30)[0].seq == 1

    def test_equidistant_tie_breaks_by_seq(self):
        queue = RequestQueue()
        fill(queue, request(2, 60), request(1, 60))
        assert take(ScanScheduler(), queue, head=60)[0].seq == 1

    def test_aged_request_preempts_the_sweep(self):
        bound = 1_000
        queue = RequestQueue()
        fill(
            queue,
            request(1, 500, at_us=0),       # far away, but past the bound
            request(2, 10, at_us=bound),    # right under the head, fresh
        )
        scheduler = ScanScheduler(aging_bound_us=bound)
        assert take(scheduler, queue, head=10, now=bound)[0].seq == 1

    def test_oldest_aged_request_wins_among_several(self):
        bound = 100
        queue = RequestQueue()
        fill(queue, request(3, 5, at_us=0), request(1, 900, at_us=0))
        scheduler = ScanScheduler(aging_bound_us=bound)
        assert take(scheduler, queue, head=5, now=bound)[0].seq == 1

    def test_negative_aging_bound_rejected(self):
        with pytest.raises(ValueError):
            ScanScheduler(aging_bound_us=-1)


class TestScanNoStarvation:
    """The aging bound is a hard latency contract, not a heuristic."""

    @settings(max_examples=60, deadline=None)
    @given(
        bound=st.integers(min_value=100, max_value=5_000),
        service_us=st.integers(min_value=10, max_value=400),
        hot_cylinders=st.lists(
            st.integers(min_value=0, max_value=5), min_size=1, max_size=4
        ),
        far_fragment=st.integers(min_value=500, max_value=1_000),
        data=st.data(),
    )
    def test_wait_is_bounded_under_hot_cylinder_pressure(
        self, bound, service_us, hot_cylinders, far_fragment, data
    ):
        """An endless stream of hot-cylinder arrivals cannot starve any
        request.  Aging is only observed at service-selection time and
        the valve drains oldest-first, so the hard ceiling is the bound
        plus one service per request that can be queued ahead — with
        queue capacity Q, ``bound + Q * service``.  A pure elevator has
        no ceiling at all here: the far request would wait forever.
        """
        scheduler = ScanScheduler(aging_bound_us=bound)
        queue = RequestQueue()
        queue.push(request(0, far_fragment, at_us=0))
        capacity = 1 + len(hot_cylinders)
        ceiling = bound + capacity * service_us
        now, head, seq = 0, 0, 0
        # enough service slots for the far request to age and drain
        slots = ceiling // service_us + capacity + 2
        for _ in range(slots):
            # refill the hot set: new work arrives every service slot
            while len(queue) < capacity:
                seq += 1
                hot = data.draw(st.sampled_from(hot_cylinders))
                queue.push(request(seq, hot, at_us=now))
            batch = take(scheduler, queue, head=head, now=now)
            (served,) = batch
            assert served.wait_us(now) <= ceiling, (
                f"request {served.seq} starved: waited "
                f"{served.wait_us(now)}us against a {bound}us bound"
            )
            if served.seq == 0:
                return  # the far request got served within its ceiling
            head = cylinder_of(served.extent.first_sector)
            now += service_us
        raise AssertionError(f"far request never served in {slots} services")

    @settings(max_examples=100, deadline=None)
    @given(
        bound=st.integers(min_value=1, max_value=10_000),
        positions=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1_000),   # fragment
                st.integers(min_value=0, max_value=20_000),  # enqueue time
            ),
            min_size=1,
            max_size=8,
        ),
        head=st.integers(min_value=0, max_value=1_000),
        now=st.integers(min_value=0, max_value=40_000),
    )
    def test_any_aged_request_preempts_the_sweep(
        self, bound, positions, head, now
    ):
        """The valve mechanism itself: whenever *any* pending request
        has aged past the bound, selection ignores seek distance and
        returns the oldest aged request (minimum seq)."""
        pending = tuple(
            request(seq, fragment, at_us=min(at, now))
            for seq, (fragment, at) in enumerate(positions)
        )
        scheduler = ScanScheduler(aging_bound_us=bound)
        chosen = scheduler.select(
            pending, head_cylinder=head, now_us=now, cylinder_of=cylinder_of
        )
        aged = [r for r in pending if r.wait_us(now) >= bound]
        if aged:
            assert chosen.seq == min(r.seq for r in aged)

    def test_select_is_pure_with_respect_to_the_queue(self):
        queue = RequestQueue()
        fill(queue, request(1, 10), request(2, 20))
        scheduler = ScanScheduler()
        scheduler.select(
            queue.pending(), head_cylinder=0, now_us=0, cylinder_of=cylinder_of
        )
        assert len(queue) == 2


class TestCoalescing:
    def test_merges_adjacent_gets_into_one_batch(self):
        queue = RequestQueue()
        fill(queue, request(1, 10), request(2, 11), request(3, 12))
        batch = take(CoalescingScheduler(FcfsScheduler()), queue)
        assert [r.seq for r in batch] == [1, 2, 3]
        assert len(queue) == 0

    def test_extends_in_both_directions(self):
        queue = RequestQueue()
        fill(queue, request(1, 11), request(2, 12), request(3, 10))
        batch = take(CoalescingScheduler(FcfsScheduler()), queue)
        assert {r.seq for r in batch} == {1, 2, 3}

    def test_non_adjacent_requests_stay_queued(self):
        queue = RequestQueue()
        fill(queue, request(1, 10), request(2, 40))
        batch = take(CoalescingScheduler(FcfsScheduler()), queue)
        assert [r.seq for r in batch] == [1]
        assert len(queue) == 1

    def test_kinds_never_mix(self):
        queue = RequestQueue()
        fill(
            queue,
            request(1, 10, kind="put", data=b""),
            request(2, 11, kind="get"),
        )
        batch = take(CoalescingScheduler(FcfsScheduler()), queue)
        assert [r.seq for r in batch] == [1]

    def test_stable_bound_put_refuses_to_merge(self):
        queue = RequestQueue()
        fill(
            queue,
            request(1, 10, kind="put", data=b"", stability=Stability.ORIGINAL_ONLY),
            request(2, 11, kind="put", data=b"", stability=Stability.STABLE_ONLY),
        )
        batch = take(CoalescingScheduler(FcfsScheduler()), queue)
        assert [r.seq for r in batch] == [1]

    def test_stable_read_refuses_to_merge(self):
        queue = RequestQueue()
        fill(
            queue,
            request(1, 10, source=Source.STABLE),
            request(2, 11),
        )
        batch = take(CoalescingScheduler(FcfsScheduler()), queue)
        assert [r.seq for r in batch] == [1]

    def test_uncached_and_cached_gets_stay_apart(self):
        queue = RequestQueue()
        fill(queue, request(1, 10, use_cache=False), request(2, 11))
        batch = take(CoalescingScheduler(FcfsScheduler()), queue)
        assert [r.seq for r in batch] == [1]

    def test_batch_respects_max_batch(self):
        queue = RequestQueue()
        fill(queue, *(request(i, 10 + i - 1) for i in range(1, 9)))
        batch = take(CoalescingScheduler(FcfsScheduler(), max_batch=3), queue)
        assert len(batch) == 3

    def test_invalid_max_batch_rejected(self):
        with pytest.raises(ValueError):
            CoalescingScheduler(max_batch=0)

    def test_name_reflects_the_inner_policy(self):
        assert CoalescingScheduler(ScanScheduler()).name == "scan+coalesce"


class TestFactory:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("fcfs", FcfsScheduler),
            ("scan", ScanScheduler),
            ("scan+coalesce", CoalescingScheduler),
        ],
    )
    def test_known_names(self, name, expected):
        scheduler = make_scheduler(name)
        assert isinstance(scheduler, expected)
        assert scheduler.name == name

    def test_aging_bound_reaches_the_elevator(self):
        scheduler = make_scheduler("scan+coalesce", aging_bound_us=123)
        assert scheduler.inner.aging_bound_us == 123

    def test_unknown_name_is_an_error(self):
        with pytest.raises(ValueError, match="unknown disk scheduler"):
            make_scheduler("sstf")
