"""The block-map tree: fit.py's walker and the file server on top of it."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import SimClock
from repro.common.errors import FileSizeError
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE
from repro.file_service.fit import (
    DESCRIPTORS_PER_INDIRECT,
    DIRECT_DESCRIPTORS,
    SINGLE_INDIRECT_SLOTS,
    BlockDescriptor,
    FileIndexTable,
    encode_indirect_block,
    leaves_under,
    logical_map,
    pointer_block_of,
    populated_leaves,
    walk_tree,
)
from repro.verify.fsck import fsck_volume
from tests.conftest import build_file_server

LEAF = DESCRIPTORS_PER_INDIRECT
FIRST_DOUBLE = DIRECT_DESCRIPTORS + SINGLE_INDIRECT_SLOTS * LEAF


def pattern(n: int, seed: int = 1) -> bytes:
    return bytes((seed * 37 + index) % 256 for index in range(n))


def leaf_block(*entries):
    """An encoded tree block with ``(slot, address)`` entries set."""
    descriptors = [None] * LEAF
    for slot, address in entries:
        descriptors[slot] = BlockDescriptor(address, 1)
    return encode_indirect_block(descriptors)


class TestWalker:
    """A FIT with single leaf 2 and, under pointer block 1, inner leaves
    0 and 7 — i.e. leaves 2, 8 + 1365 and 8 + 1365 + 7."""

    def tree(self):
        fit = FileIndexTable()
        fit.direct[1] = BlockDescriptor(40, 1)
        fit.single_indirect[2] = 100
        fit.double_indirect[1] = 200
        disk = {
            100: leaf_block((5, 1000)),
            200: leaf_block((0, 300), (7, 400)),
            300: leaf_block((0, 2000), (LEAF - 1, 2004)),
            400: leaf_block((3, 3000)),
        }
        return fit, disk

    def test_yields_each_block_once_parents_first_leaves_ascending(self):
        fit, disk = self.tree()
        reads = []

        def read(address):
            reads.append(address)
            return disk[address]

        blocks = list(walk_tree(fit, read))
        assert reads == [100, 200, 300, 400]
        assert [(block.leaf, block.address) for block in blocks] == [
            (2, 100),
            (None, 200),
            (SINGLE_INDIRECT_SLOTS + LEAF, 300),
            (SINGLE_INDIRECT_SLOTS + LEAF + 7, 400),
        ]
        assert blocks[0].descriptors[5] == BlockDescriptor(1000, 1)
        assert blocks[1].descriptors[7] == BlockDescriptor(400, 1)

    def test_leaf_numbering_is_one_divmod(self):
        fit, disk = self.tree()
        flat = logical_map(fit, walk_tree(fit, disk.get))
        for block in walk_tree(fit, disk.get):
            if block.leaf is None:
                continue
            for slot, desc in enumerate(block.descriptors):
                if desc is not None:
                    index = DIRECT_DESCRIPTORS + block.leaf * LEAF + slot
                    assert flat[index] == desc
                    assert divmod(index - DIRECT_DESCRIPTORS, LEAF) == (
                        block.leaf,
                        slot,
                    )
        assert [pointer_block_of(leaf) for leaf in (0, 7, 8, 8 + LEAF - 1)] == [
            None,
            None,
            0,
            0,
        ]
        assert pointer_block_of(SINGLE_INDIRECT_SLOTS + LEAF + 7) == 1
        assert leaves_under(1)[7] == SINGLE_INDIRECT_SLOTS + LEAF + 7
        assert len(leaves_under(0)) == LEAF and leaves_under(0)[0] == 8
        with pytest.raises(FileSizeError):
            pointer_block_of(SINGLE_INDIRECT_SLOTS + 2 * LEAF)

    def test_map_stops_at_the_last_mapped_block(self):
        fit, disk = self.tree()
        flat = logical_map(fit, walk_tree(fit, disk.get))
        last = DIRECT_DESCRIPTORS + (SINGLE_INDIRECT_SLOTS + LEAF + 7) * LEAF + 3
        assert len(flat) == last + 1 and flat[last] == BlockDescriptor(3000, 1)
        assert sum(desc is not None for desc in flat) == 5
        # Nothing but direct descriptors: no holes are materialised at all.
        small = FileIndexTable()
        small.direct[2] = BlockDescriptor(8, 1)
        assert logical_map(small, walk_tree(small, disk.get)) == [
            None,
            None,
            BlockDescriptor(8, 1),
        ]
        assert logical_map(FileIndexTable(), []) == []

    def test_populated_leaves_inverts_the_fold(self):
        fit, disk = self.tree()
        flat = logical_map(fit, walk_tree(fit, disk.get))
        leaves = dict(populated_leaves(flat))
        assert sorted(leaves) == [
            2,
            SINGLE_INDIRECT_SLOTS + LEAF,
            SINGLE_INDIRECT_SLOTS + LEAF + 7,
        ]
        for block in walk_tree(fit, disk.get):
            if block.leaf is not None:
                got = leaves[block.leaf]
                assert got + [None] * (LEAF - len(got)) == block.descriptors
        assert list(populated_leaves(fit.direct)) == []

    def test_unread_block_is_yielded_and_nothing_below_it_is_visited(self):
        fit, disk = self.tree()
        del disk[200], disk[100]
        blocks = list(walk_tree(fit, disk.get))
        assert [(b.leaf, b.address, b.descriptors) for b in blocks] == [
            (2, 100, None),
            (None, 200, None),
        ]
        assert logical_map(fit, blocks) == [None, BlockDescriptor(40, 1)]
        # An unread *leaf* is a hole that keeps the leaves after it aligned.
        fit, disk = self.tree()
        del disk[300]
        flat = logical_map(fit, walk_tree(fit, disk.get))
        assert flat[-1] == BlockDescriptor(3000, 1)
        start = DIRECT_DESCRIPTORS + (SINGLE_INDIRECT_SLOTS + LEAF) * LEAF
        assert not any(flat[start : start + LEAF])


@pytest.fixture
def server():
    return build_file_server(SimClock(), Metrics())


def accounting(server):
    """The stable records and free space a file can hold; the free-space
    log's tail is written by the first change and never released."""
    tail = server.disk.free_space_log.tail_key
    return (
        sorted(key for key in server.disk.stable.keys() if key != tail),
        server.disk.free_fragments,
    )


class TestDeleteReleasesTheTree:
    """Tree blocks are put to both copies, so delete must give back the
    fragments *and* the stable records (PR 15: it used to release only
    the FIT's, leaking one ``ext:<addr>:4`` record per tree block until
    stable storage was exhausted)."""

    @pytest.mark.parametrize(
        "offset, n_bytes",
        [
            (0, 20 * 1024),
            (0, 3 * 1024 * 1024),
            (FIRST_DOUBLE * BLOCK_SIZE, 100),
        ],
        ids=["direct-only", "single-indirect", "double-indirect"],
    )
    def test_delete_returns_fragments_and_stable_records(
        self, server, offset, n_bytes
    ):
        server.flush()
        baseline = accounting(server)
        name = server.create()
        server.write(name, offset, pattern(n_bytes))
        server.flush()
        assert accounting(server) != baseline
        server.delete(name)
        server.flush()
        assert accounting(server) == baseline

    def test_delete_after_cache_drop_walks_the_tree_from_disk(self, server):
        server.flush()
        baseline = accounting(server)
        name = server.create()
        server.write(name, 70 * BLOCK_SIZE, b"single")
        server.write(name, (FIRST_DOUBLE + LEAF + 1) * BLOCK_SIZE, b"double")
        server.flush()
        server.recover()
        server.delete(name)
        server.flush()
        assert accounting(server) == baseline


class TestReservationStaysInsideTheLoadedMap:
    def test_filling_a_direct_hole_does_not_map_over_the_unloaded_tree(
        self, server
    ):
        """Found by the model test below, present before PR 15: with only
        the direct area loaded, the growth reservation of a write into a
        hole at block 63 mapped its surplus at blocks 64.. — over the
        blocks the (unread) first leaf already held."""
        name = server.create()
        server.write(name, 0, pattern(10 * BLOCK_SIZE))
        server.write(name, 70 * BLOCK_SIZE, b"island")  # leaf 0
        server.flush()
        server.recover()
        server.write(name, 63 * BLOCK_SIZE, pattern(BLOCK_SIZE, 2))
        server.flush()
        server.recover()
        assert server.read(name, 70 * BLOCK_SIZE, 6) == b"island"
        assert server.read(name, 63 * BLOCK_SIZE, 9) == pattern(9, 2)
        report = fsck_volume(server)
        assert report.clean and report.orphaned_fragments == 0


# ------------------------------------------------ model-based property

BLOCKS = st.one_of(
    st.integers(0, DIRECT_DESCRIPTORS - 1),
    st.integers(DIRECT_DESCRIPTORS, FIRST_DOUBLE - 1),
    st.integers(FIRST_DOUBLE, FIRST_DOUBLE + 3 * LEAF),
)
FILES = st.integers(0, 1)
STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("pwrite"),
            FILES,
            BLOCKS,
            st.integers(0, BLOCK_SIZE - 1),
            st.integers(1, BLOCK_SIZE + 64),
            st.integers(0, 255),
        ),
        st.tuples(st.just("read"), FILES, BLOCKS),
        st.tuples(st.just("recover")),
        st.tuples(st.just("delete"), FILES),
    ),
    max_size=12,
)


class _Model:
    """One file as ``dict[int, bytes]``: block-index -> that block's bytes."""

    def __init__(self):
        self.blocks: dict[int, bytes] = {}
        self.size = 0

    def write(self, offset, data):
        for index, byte in enumerate(data):
            block, within = divmod(offset + index, BLOCK_SIZE)
            content = bytearray(self.blocks.get(block, bytes(BLOCK_SIZE)))
            content[within] = byte
            self.blocks[block] = bytes(content)
        self.size = max(self.size, offset + len(data))

    def read_block(self, block):
        start = block * BLOCK_SIZE
        visible = max(0, min(BLOCK_SIZE, self.size - start))
        return self.blocks.get(block, bytes(BLOCK_SIZE))[:visible]


class TestAgainstBlockModel:
    @given(STEPS)
    @settings(max_examples=40, deadline=None)
    def test_random_scripts_match_a_block_model(self, steps):
        server = build_file_server(SimClock(), Metrics())
        server.flush()
        baseline = accounting(server)
        names, models = {}, {}

        def check(index, block):
            got = server.read(names[index], block * BLOCK_SIZE, BLOCK_SIZE)
            assert got == models[index].read_block(block), (index, block)

        for step in steps:
            op, args = step[0], step[1:]
            if op == "pwrite":
                index, block, within, n_bytes, seed = args
                if index not in names:
                    names[index], models[index] = server.create(), _Model()
                offset, data = block * BLOCK_SIZE + within, pattern(n_bytes, seed)
                assert server.write(names[index], offset, data) == n_bytes
                models[index].write(offset, data)
            elif op == "read" and args[0] in names:
                check(*args)
            elif op == "recover":
                server.flush()
                server.recover()
            elif op == "delete" and args[0] in names:
                server.delete(names.pop(args[0]))
                del models[args[0]]
            for index, model in models.items():
                # Each written block and the one after it: a growth
                # reservation, or a hole, EOF may have passed unwritten.
                for block in set(model.blocks) | {b + 1 for b in model.blocks}:
                    check(index, block)
        server.flush()
        assert fsck_volume(server).errors == []
        for name in names.values():
            server.delete(name)
        server.flush()
        assert fsck_volume(server).errors == []
        assert accounting(server) == baseline
