"""Buffer pools: LRU, dirty tracking, writeback."""

import pytest

from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE
from repro.file_service.cache import BufferPool, WritePolicy
from tests.conftest import build_file_server


def build(capacity=3):
    metrics = Metrics()
    written = []
    pool = BufferPool(
        "pool", metrics, capacity, writeback=lambda key, data: written.append((key, data))
    )
    return pool, written, metrics


class TestLookup:
    def test_miss_returns_none(self):
        pool, _, metrics = build()
        assert pool.get("a") is None
        assert metrics.get("pool.misses") == 1

    def test_hit(self):
        pool, _, metrics = build()
        pool.put("a", b"1")
        assert pool.get("a") == b"1"
        assert metrics.get("pool.hits") == 1

    def test_contains_does_not_count(self):
        pool, _, metrics = build()
        pool.put("a", b"1")
        assert pool.contains("a")
        assert not pool.contains("b")
        assert metrics.get("pool.hits") == 0
        assert metrics.get("pool.misses") == 0

    def test_update_replaces(self):
        pool, _, _ = build()
        pool.put("a", b"1")
        pool.put("a", b"2")
        assert pool.get("a") == b"2"
        assert len(pool) == 1


class TestEvictionAndDirt:
    def test_lru_eviction(self):
        pool, written, metrics = build(capacity=2)
        pool.put("a", b"1")
        pool.put("b", b"2")
        pool.get("a")  # refresh a
        pool.put("c", b"3")  # evicts b
        assert pool.get("b") is None
        assert pool.get("a") == b"1"
        assert metrics.get("pool.evictions") == 1

    def test_dirty_eviction_writes_back(self):
        pool, written, _ = build(capacity=1)
        pool.put("a", b"1", dirty=True)
        pool.put("b", b"2")
        assert written == [("a", b"1")]

    def test_clean_eviction_is_silent(self):
        pool, written, _ = build(capacity=1)
        pool.put("a", b"1")
        pool.put("b", b"2")
        assert written == []

    def test_dirty_eviction_without_writeback_is_an_error(self):
        pool = BufferPool("p", Metrics(), 1)
        pool.put("a", b"1", dirty=True)
        with pytest.raises(RuntimeError):
            pool.put("b", b"2")

    def test_dirtiness_is_sticky_across_updates(self):
        pool, written, _ = build()
        pool.put("a", b"1", dirty=True)
        pool.put("a", b"2")  # update without dirty flag: stays dirty
        assert list(pool.dirty_items()) == [("a", b"2")]
        assert written == []


class TestFlush:
    """The pool writes back only on eviction; its owner's flush writes
    back the rest."""

    def test_flush_writes_all_dirty(self):
        server = build_file_server(SimClock(), Metrics())
        name = server.create()
        server.write(name, 0, b"d" * (3 * BLOCK_SIZE))
        pool = server._data_cache
        assert len(list(pool.dirty_items())) == 3
        server.flush()
        assert list(pool.dirty_items()) == []
        server.recover()  # drop the pool: the bytes come from disk
        assert server.read(name, 0, 3 * BLOCK_SIZE) == b"d" * (3 * BLOCK_SIZE)

    def test_dirty_items_are_exactly_the_dirty_buffers(self):
        pool, written, _ = build()
        pool.put("a", b"1", dirty=True)
        pool.put("b", b"2")
        pool.put("c", b"3", dirty=True)
        assert sorted(pool.dirty_items()) == [("a", b"1"), ("c", b"3")]
        assert written == []

    def test_mark_clean(self):
        pool, written, _ = build()
        pool.put("a", b"1", dirty=True)
        pool.mark_clean("a")
        assert list(pool.dirty_items()) == []
        assert pool.get("a") == b"1"

    def test_invalidate_discards_dirty_data(self):
        pool, written, _ = build()
        pool.put("a", b"1", dirty=True)
        pool.invalidate("a")
        assert list(pool.dirty_items()) == []
        assert pool.get("a") is None

    def test_invalidate_all(self):
        pool, _, _ = build()
        pool.put("a", b"1")
        pool.put("b", b"2", dirty=True)
        pool.invalidate_all()
        assert len(pool) == 0
        assert list(pool.dirty_items()) == []


class TestWritePolicy:
    def test_policy_values(self):
        assert WritePolicy.DELAYED.value == "delayed"
        assert WritePolicy.WRITE_THROUGH.value == "write-through"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BufferPool("p", Metrics(), 0)
