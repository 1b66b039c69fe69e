"""Property tests: the file server against a bytearray oracle."""

from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE, FRAGMENT_SIZE
from repro.file_service.fit import (
    BlockDescriptor,
    FileIndexTable,
    recompute_counts,
)
from tests.conftest import build_file_server


@st.composite
def write_schedules(draw):
    """A list of (offset, payload) writes within a bounded file."""
    n_writes = draw(st.integers(min_value=1, max_value=12))
    schedule = []
    for _ in range(n_writes):
        offset = draw(st.integers(min_value=0, max_value=3 * BLOCK_SIZE))
        length = draw(st.integers(min_value=1, max_value=2 * BLOCK_SIZE))
        fill = draw(st.integers(min_value=1, max_value=255))
        schedule.append((offset, bytes([fill]) * length))
    return schedule


class TestFileServerOracle:
    @given(write_schedules())
    @settings(max_examples=40, deadline=None)
    def test_write_read_matches_bytearray_oracle(self, schedule):
        server = build_file_server(SimClock(), Metrics())
        name = server.create()
        oracle = bytearray()
        for offset, payload in schedule:
            server.write(name, offset, payload)
            if len(oracle) < offset + len(payload):
                oracle.extend(bytes(offset + len(payload) - len(oracle)))
            oracle[offset : offset + len(payload)] = payload
        assert server.get_attribute(name).file_size == len(oracle)
        assert server.read(name, 0, len(oracle) + 10) == bytes(oracle)

    @given(write_schedules())
    @settings(max_examples=20, deadline=None)
    def test_flush_recover_preserves_content(self, schedule):
        server = build_file_server(SimClock(), Metrics())
        name = server.create()
        oracle = bytearray()
        for offset, payload in schedule:
            server.write(name, offset, payload)
            if len(oracle) < offset + len(payload):
                oracle.extend(bytes(offset + len(payload) - len(oracle)))
            oracle[offset : offset + len(payload)] = payload
        server.flush()
        server.recover()
        assert server.read(name, 0, len(oracle)) == bytes(oracle)


@st.composite
def small_pool_scripts(draw):
    """Operations on two files: fragment-aligned and unaligned writes,
    reads, ``flush()`` + ``recover()``, and a delete followed by a
    create that reuses the freed block addresses."""
    fragments = 4 * BLOCK_SIZE // FRAGMENT_SIZE
    aligned_write = st.tuples(
        st.just("write"),
        st.integers(0, 1),
        st.integers(0, fragments - 1).map(lambda k: k * FRAGMENT_SIZE),
        st.integers(1, 6).map(lambda k: k * FRAGMENT_SIZE),
    )
    unaligned_write = st.tuples(
        st.just("write"),
        st.integers(0, 1),
        st.integers(0, 4 * BLOCK_SIZE),
        st.integers(1, BLOCK_SIZE + 100),
    )
    read = st.tuples(
        st.just("read"),
        st.integers(0, 1),
        st.integers(0, 4 * BLOCK_SIZE),
        st.integers(1, 2 * BLOCK_SIZE),
    )
    others = st.one_of(
        st.just(("flush_recover",)), st.tuples(st.just("recreate"), st.integers(0, 1))
    )
    return draw(
        st.lists(
            st.one_of(aligned_write, aligned_write, unaligned_write, read, others),
            min_size=1,
            max_size=40,
        )
    )


class TestSmallPoolOracle:
    """A two-block pool over two files of four blocks or more: nearly
    every partial write lands on a block the pool does not hold, so
    partially known buffers are made, evicted, written back, completed
    by reads and dropped by deletes all the time, with the freed
    addresses reused by the next create."""

    @given(small_pool_scripts())
    @settings(max_examples=100, deadline=None)
    def test_partial_writes_match_a_bytearray_oracle(self, script):
        server = build_file_server(SimClock(), Metrics(), data_cache_blocks=2)
        names, oracles = [None, None], [bytearray(), bytearray()]

        def create(index):
            names[index] = server.create()
            oracles[index] = bytearray([index + 1]) * (4 * BLOCK_SIZE)
            server.write(names[index], 0, bytes(oracles[index]))

        create(0)
        create(1)
        for step, op in enumerate(script):
            kind, args = op[0], op[1:]
            if kind == "write":
                index, offset, length = args
                payload = bytes((step * 13 + i) % 251 + 1 for i in range(length))
                server.write(names[index], offset, payload)
                oracle = oracles[index]
                if len(oracle) < offset + length:
                    oracle.extend(bytes(offset + length - len(oracle)))
                oracle[offset : offset + length] = payload
            elif kind == "read":
                index, offset, length = args
                expected = bytes(oracles[index][offset : offset + length])
                assert server.read(names[index], offset, length) == expected
            elif kind == "flush_recover":
                server.flush()
                server.recover()
            else:
                (index,) = args
                server.delete(names[index])
                create(index)
        for name, oracle in zip(names, oracles):
            assert server.read(name, 0, len(oracle) + 1) == bytes(oracle)
        server.flush()
        server.recover()
        for name, oracle in zip(names, oracles):
            assert server.read(name, 0, len(oracle) + 1) == bytes(oracle)


class TestFitCodecProperties:
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.tuples(
                    st.integers(min_value=0, max_value=2**31),
                    st.integers(min_value=1, max_value=0xFFFF),
                ),
            ),
            min_size=64,
            max_size=64,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_direct_descriptors_round_trip(self, raw):
        fit = FileIndexTable()
        fit.direct = [
            None if entry is None else BlockDescriptor(entry[0], entry[1])
            for entry in raw
        ]
        restored = FileIndexTable.decode(fit.encode())
        assert restored.direct == fit.direct

    @given(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=2**30)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_recompute_counts_invariant(self, addresses):
        descs = [
            None if address is None else BlockDescriptor(address, 1)
            for address in addresses
        ]
        counted = recompute_counts(descs)
        for index, desc in enumerate(counted):
            if desc is None:
                continue
            # Invariant: count = 1 + count of the next block iff it is
            # physically adjacent (capped at two bytes).
            nxt = counted[index + 1] if index + 1 < len(counted) else None
            if nxt is not None and nxt.address == desc.address + 4:
                assert desc.count == min(nxt.count + 1, 0xFFFF)
            else:
                assert desc.count == 1
