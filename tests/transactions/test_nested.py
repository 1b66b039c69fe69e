"""Nested transactions (acknowledged in section 6.4).

A child shares its ancestors' locks and tentative view; committing a
child merges its work into the parent (nothing reaches the disk until
the top-level commit); aborting a child discards only the child's
work; aborting a parent cascades.
"""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import InvalidTransactionStateError
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE
from repro.file_service.attributes import LockingLevel
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from repro.simkernel.runner import LockWaitPending
from repro.transactions.agent import TransactionAgentHost
from repro.transactions.coordinator import TransactionCoordinator
from tests.conftest import build_file_server

NAME = AttributedName.file("/nested/data")


def build():
    clock, metrics = SimClock(), Metrics()
    server = build_file_server(clock, metrics)
    naming = NamingService(metrics)
    coordinator = TransactionCoordinator(clock, metrics)
    coordinator.register_volume(server)
    host = TransactionAgentHost("m0", naming, coordinator, clock, metrics)
    return host, server, naming, coordinator


def seed(host, content=b"base" * 8):
    tid = host.tbegin()
    descriptor = host.tcreate(tid, NAME, locking_level=LockingLevel.PAGE)
    host.twrite(tid, descriptor, content)
    host.tend(tid)


class TestChildVisibility:
    def test_child_sees_parents_tentative_writes(self):
        host, server, naming, _ = build()
        seed(host)
        parent = host.tbegin()
        d_parent = host.topen(parent, NAME)
        host.tpwrite(parent, d_parent, b"PARENT", 0)
        child = host.tbegin(parent=parent)
        d_child = host.topen(child, NAME)
        assert host.tpread(child, d_child, 6, 0) == b"PARENT"
        host.tend(child)
        host.tend(parent)

    def test_child_does_not_block_on_parents_locks(self):
        host, *_ = build()
        seed(host)
        parent = host.tbegin()
        d_parent = host.topen(parent, NAME)
        host.tpwrite(parent, d_parent, b"locked by parent", 0)  # parent IW
        child = host.tbegin(parent=parent)
        d_child = host.topen(child, NAME)
        # No LockWaitPending: the child inherits access.
        assert host.tpread(child, d_child, 6, 0) == b"locked"
        host.tpwrite(child, d_child, b"CHILD!", 0)
        host.tend(child)
        host.tend(parent)

    def test_parent_sees_committed_childs_writes(self):
        host, *_ = build()
        seed(host)
        parent = host.tbegin()
        d_parent = host.topen(parent, NAME)
        child = host.tbegin(parent=parent)
        d_child = host.topen(child, NAME)
        host.tpwrite(child, d_child, b"FROM-CHILD", 0)
        host.tend(child)
        assert host.tpread(parent, d_parent, 10, 0) == b"FROM-CHILD"
        host.tend(parent)

    def test_strangers_still_blocked_by_the_family(self):
        host, *_ = build()
        seed(host)
        parent = host.tbegin()
        d_parent = host.topen(parent, NAME)
        host.tpwrite(parent, d_parent, b"family secret", 0)
        stranger = host.tbegin()
        d_stranger = host.topen(stranger, NAME)
        with pytest.raises(LockWaitPending):
            host.tpread(stranger, d_stranger, 4, 0)
        host.tend(parent)
        host.tabort(stranger)


class TestDurabilityBoundary:
    def test_child_commit_is_not_durable_until_parent_commits(self):
        host, server, naming, _ = build()
        seed(host, b"O" * 32)
        system_name = naming.resolve_file(NAME)
        parent = host.tbegin()
        child = host.tbegin(parent=parent)
        d_child = host.topen(child, NAME)
        host.tpwrite(child, d_child, b"N" * 32, 0)
        host.tend(child)  # merges into the parent only
        assert server.read(system_name, 0, 32) == b"O" * 32
        host.tend(parent)  # the top-level commit makes it durable
        assert server.read(system_name, 0, 32) == b"N" * 32

    def test_child_abort_discards_only_child_work(self):
        host, server, naming, _ = build()
        seed(host, b"O" * 32)
        system_name = naming.resolve_file(NAME)
        parent = host.tbegin()
        d_parent = host.topen(parent, NAME)
        host.tpwrite(parent, d_parent, b"P", 0)
        child = host.tbegin(parent=parent)
        d_child = host.topen(child, NAME)
        host.tpwrite(child, d_child, b"C", 1)
        host.tabort(child)
        assert host.tpread(parent, d_parent, 2, 0) == b"PO"  # child's C gone
        host.tend(parent)
        assert server.read(system_name, 0, 2) == b"PO"

    def test_parent_abort_cascades_to_children(self):
        host, server, naming, _ = build()
        seed(host, b"O" * 8)
        system_name = naming.resolve_file(NAME)
        parent = host.tbegin()
        child = host.tbegin(parent=parent)
        d_child = host.topen(child, NAME)
        host.tpwrite(child, d_child, b"XXXX", 0)
        host.tabort(parent)  # child still live: must cascade
        assert server.read(system_name, 0, 8) == b"O" * 8
        with pytest.raises(InvalidTransactionStateError):
            host.tpread(child, d_child, 4, 0)  # left the agent with its parent

    def test_grandchildren(self):
        host, server, naming, _ = build()
        seed(host, b"-" * 8)
        system_name = naming.resolve_file(NAME)
        root = host.tbegin()
        child = host.tbegin(parent=root)
        grandchild = host.tbegin(parent=child)
        d = host.topen(grandchild, NAME)
        host.tpwrite(grandchild, d, b"deep", 0)
        host.tend(grandchild)
        host.tend(child)
        host.tend(root)
        assert server.read(system_name, 0, 4) == b"deep"

    def test_created_file_rides_the_ancestry(self):
        host, server, naming, _ = build()
        other = AttributedName.file("/nested/new-file")
        root = host.tbegin()
        child = host.tbegin(parent=root)
        descriptor = host.tcreate(child, other)
        host.twrite(child, descriptor, b"made by child")
        host.tend(child)
        host.tabort(root)  # aborting the root must undo the child's create
        assert other not in naming


class TestRules:
    def test_cannot_nest_under_finished_transaction(self):
        host, *_ = build()
        tid = host.tbegin()
        host.tabort(tid)
        with pytest.raises(InvalidTransactionStateError):
            host.tbegin(parent=tid)

    def test_parent_cannot_commit_over_live_children(self):
        host, *_ = build()
        parent = host.tbegin()
        child = host.tbegin(parent=parent)
        with pytest.raises(InvalidTransactionStateError):
            host.tend(parent)
        host.tabort(child)
        host.tend(parent)

    def test_agent_lives_while_any_family_member_does(self):
        host, *_ = build()
        parent = host.tbegin()
        child = host.tbegin(parent=parent)
        host.tend(child)
        assert host.agent_exists
        host.tend(parent)
        assert not host.agent_exists
