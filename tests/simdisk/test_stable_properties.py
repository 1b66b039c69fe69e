"""Property tests: stable storage under arbitrary crash schedules.

The careful-write guarantee, fuzzed: whatever sequence of puts,
deletes, scheduled mirror crashes, torn machine crashes and directory
rebuilds occurs, after repair + recover a key with an acknowledged put
and no later delete is present, every present key holds a value that
was written to it, and every sector the store has handed out is in
exactly one place: a directory slot, a superseded copy's slot, or a
free heap.
"""

from hypothesis import given, settings, strategies as st

from repro.chaos.trace import CrashPointMonitor
from repro.common.clock import SimClock
from repro.common.errors import DiskCrashedError
from repro.common.metrics import Metrics
from repro.simdisk.disk import SimDisk
from repro.simdisk.geometry import DiskGeometry
from repro.simdisk.stable import StableStore

OPS = ["put", "put", "put", "crash_a", "crash_b", "delete", "torn_put", "rebuild"]


@st.composite
def crash_schedules(draw):
    n_ops = draw(st.integers(min_value=1, max_value=25))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(OPS))
        key = f"k{draw(st.integers(min_value=0, max_value=4))}"
        value = draw(st.integers(min_value=0, max_value=255))
        size = draw(st.sampled_from([10, 400, 1500, 3000]))
        crash_at = draw(st.integers(min_value=1, max_value=3))
        ops.append((kind, key, value, size, crash_at))
    return ops


def build_store():
    clock, metrics = SimClock(), Metrics()
    mirror_a = SimDisk("a", DiskGeometry.small(), clock, metrics)
    mirror_b = SimDisk("b", DiskGeometry.small(), clock, metrics)
    return StableStore(mirror_a, mirror_b), mirror_a, mirror_b


def assert_every_sector_owned_once(store):
    slots = list(store._directory.values())
    slots += [slot for older in store._older.values() for slot in older]
    slots += [(start, n) for n, starts in store._free.items() for start in starts]
    owners = [0] * store._next_sector
    for start, n_sectors in slots:
        for sector in range(start, start + n_sectors):
            owners[sector] += 1
    leaked = [sector for sector, count in enumerate(owners) if count == 0]
    shared = [sector for sector, count in enumerate(owners) if count > 1]
    assert not leaked and not shared, f"leaked {leaked}, shared {shared}"


class Schedule:
    """Runs one crash schedule against a store and a model of it."""

    def __init__(self):
        self.store, self.mirror_a, self.mirror_b = build_store()
        self.monitor = CrashPointMonitor().attach(self.mirror_a, self.mirror_b)
        self.written: dict[str, list[bytes]] = {}
        self.acked: set[str] = set()  # acknowledged put, no delete since

    def run(self, ops):
        for kind, key, value, size, crash_at in ops:
            if kind in ("put", "torn_put"):
                if kind == "torn_put":  # the whole machine dies mid-put
                    self.monitor.arm(self.monitor.writes_seen + min(crash_at, 2))
                self.put(key, bytes([value]) * size)
            elif kind == "delete":
                self.acked.discard(key)
                try:
                    self.store.delete(key)
                except DiskCrashedError:
                    self.recover()
            elif kind == "rebuild":
                self.recover(rebuild=True)
            elif kind == "crash_a":
                self.mirror_a.faults.crash_after_writes(crash_at)
            else:
                self.mirror_b.faults.crash_after_writes(crash_at)
        self.recover()
        return self.store

    def put(self, key, payload):
        self.written.setdefault(key, []).append(payload)
        try:
            self.store.put(key, payload)
        except DiskCrashedError:
            # The write may or may not have become durable; an earlier
            # acknowledged value still counts.
            self.recover()
        else:
            self.acked.add(key)

    def recover(self, rebuild=False):
        self.monitor.disarm()  # a put that crashed early left it armed
        self.mirror_a.repair()
        self.mirror_b.repair()
        if rebuild:
            self.store.rebuild_directory()
        self.store.recover()
        for key in self.acked:
            assert key in self.store, f"{key} lost its acknowledged put"
        for key in self.store.keys():
            assert self.store.get(key) in self.written[key], (
                f"{key} holds a value that was never written to it"
            )
        assert_every_sector_owned_once(self.store)


class TestStableStoreFuzz:
    @given(crash_schedules())
    @settings(max_examples=60, deadline=None)
    def test_recovery_yields_some_written_value(self, ops):
        Schedule().run(ops)

    @given(crash_schedules())
    @settings(max_examples=40, deadline=None)
    def test_mirrors_agree_after_recover(self, ops):
        store = Schedule().run(ops)
        mirror_a = store.mirror_a
        # After recovery, both copies of every key decode identically.
        for key in list(store.keys()):
            value = store.get(key)
            mirror_a.crash()
            assert store.get(key) == value  # forced read from B
            mirror_a.repair()
