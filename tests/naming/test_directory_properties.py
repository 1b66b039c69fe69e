"""Property test: the directory tree against a dict-tree oracle — one
model script over both file stores (plain and transactional)."""

import copy

from hypothesis import given, settings, strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.errors import NameExistsError, NameNotFoundError, NamingError
from repro.simdisk.geometry import DiskGeometry

NAMES = ["a", "b", "c", "d"]


@st.composite
def directory_ops(draw):
    n_ops = draw(st.integers(min_value=1, max_value=25))
    ops = []
    for _ in range(n_ops):
        kind = draw(
            st.sampled_from(
                ["mkdir", "create", "unlink", "rmdir", "rename", "list"]
            )
        )
        depth = draw(st.integers(min_value=1, max_value=3))
        path = "/" + "/".join(
            draw(st.sampled_from(NAMES)) for _ in range(depth)
        )
        other = "/" + "/".join(
            draw(st.sampled_from(NAMES))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        )
        ops.append((kind, path, other))
    return ops


class _Oracle:
    """A plain dict-of-dicts model of the tree (files are None values)."""

    def __init__(self):
        self.root: dict = {}

    def _walk(self, path):
        parts = [p for p in path.split("/") if p]
        node = self.root
        for part in parts[:-1]:
            child = node.get(part)
            if not isinstance(child, dict):
                raise KeyError(path)
            node = child
        return node, (parts[-1] if parts else None)

    def mkdir(self, path):
        parent, leaf = self._walk(path)
        if leaf in parent:
            raise FileExistsError(path)
        parent[leaf] = {}

    def create(self, path):
        parent, leaf = self._walk(path)
        if leaf in parent:
            raise FileExistsError(path)
        parent[leaf] = None

    def unlink(self, path):
        parent, leaf = self._walk(path)
        if leaf not in parent or isinstance(parent[leaf], dict):
            raise KeyError(path)
        del parent[leaf]

    def rmdir(self, path):
        parent, leaf = self._walk(path)
        node = parent.get(leaf)
        if not isinstance(node, dict) or node:
            raise KeyError(path)
        del parent[leaf]

    def rename(self, old, new):
        old_parent, old_leaf = self._walk(old)
        if old_leaf not in old_parent:
            raise KeyError(old)
        if isinstance(old_parent[old_leaf], dict) and (new + "/").startswith(old + "/"):
            raise KeyError(new)  # a directory cannot move into itself
        new_parent, new_leaf = self._walk(new)
        if new_leaf in new_parent:
            raise FileExistsError(new)
        new_parent[new_leaf] = old_parent.pop(old_leaf)

    def listing(self, path):
        parent, leaf = self._walk(path)
        node = parent[leaf] if leaf else self.root
        if not isinstance(node, dict):
            raise KeyError(path)
        return sorted(node)


_TREE_ERRORS = (NameExistsError, NameNotFoundError, NamingError)
_ORACLE_ERRORS = (KeyError, FileExistsError)


def _apply(tree, oracle, kind, path, other):
    """One scripted operation against a tree (plain service or
    transaction view — same methods) and the oracle; they must agree on
    whether it is an error, and on what a listing shows."""
    tree_op, oracle_op = {
        "mkdir": (tree.mkdir, oracle.mkdir),
        "create": (tree.create_file, oracle.create),
        "unlink": (tree.unlink, oracle.unlink),
        "rmdir": (tree.rmdir, oracle.rmdir),
        "rename": (tree.rename, oracle.rename),
        "list": (tree.list_directory, oracle.listing),
    }[kind]
    args = (path, other) if kind == "rename" else (path,)
    tree_result = oracle_result = None
    try:
        tree_result = tree_op(*args)
    except _TREE_ERRORS:
        tree_error = True
    else:
        tree_error = False
    try:
        oracle_result = oracle_op(*args)
    except _ORACLE_ERRORS:
        oracle_error = True
    else:
        oracle_error = False
    assert tree_error == oracle_error, (
        f"{kind} {path} {other}: tree_error={tree_error}, "
        f"oracle_error={oracle_error}"
    )
    if kind == "list" and not tree_error:
        assert [e.name for e in tree_result] == oracle_result


def _assert_same_tree(directories, oracle):
    """Final structural agreement, read through the plain service."""

    def compare(path, node):
        listing = [e.name for e in directories.list_directory(path)]
        assert listing == sorted(node)
        for name, child in node.items():
            if isinstance(child, dict):
                compare(f"{path.rstrip('/')}/{name}", child)

    compare("/", oracle.root)


class _Rollback(Exception):
    """Raised inside ``transaction()`` to end the batch in ``tabort``."""


def _cluster():
    return RhodosCluster(ClusterConfig(geometry=DiskGeometry.small()))


class TestDirectoryOracle:
    @given(directory_ops())
    @settings(max_examples=25, deadline=None)
    def test_matches_dict_tree_oracle(self, ops):
        """The plain store: every write takes effect at once."""
        cluster = _cluster()
        oracle = _Oracle()
        for op in ops:
            _apply(cluster.directories, oracle, *op)
        _assert_same_tree(cluster.directories, oracle)

    @given(directory_ops())
    @settings(max_examples=15, deadline=None)
    def test_one_transaction_per_operation_matches_oracle(self, ops):
        """The transactional store, each operation its own transaction."""
        cluster = _cluster()
        tdir = cluster.transactional_directories()
        oracle = _Oracle()
        for op in ops:
            with tdir.transaction() as view:
                _apply(view, oracle, *op)
            _assert_same_tree(cluster.directories, oracle)

    @given(directory_ops(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_batches_commit_or_roll_back_with_the_model(self, ops, batch):
        """Several operations per transaction.  A rejected operation
        wrote nothing (the tree checks before it writes), so the batch
        carries on; even batches commit, odd ones end in ``tabort`` and
        the model rolls back with them."""
        cluster = _cluster()
        tdir = cluster.transactional_directories()
        oracle = _Oracle()
        for number, start in enumerate(range(0, len(ops), batch)):
            before = copy.deepcopy(oracle.root)
            try:
                with tdir.transaction() as view:
                    for op in ops[start : start + batch]:
                        _apply(view, oracle, *op)
                    if number % 2:
                        raise _Rollback
            except _Rollback:
                oracle.root = before
            _assert_same_tree(cluster.directories, oracle)
