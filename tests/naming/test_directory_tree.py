"""The one directory tree over both file stores: errors are typed,
checks come before writes, one walk per path, and the plain store's
write order survives a crash between two writes.  Store-independent
cases run against the plain store and inside an open transaction.
"""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.errors import (
    FileServiceError,
    NameExistsError,
    NameNotFoundError,
    NamingError,
)
from repro.simdisk.geometry import DiskGeometry


@pytest.fixture
def cluster():
    return RhodosCluster(ClusterConfig(geometry=DiskGeometry.small()))


@pytest.fixture(params=["plain", "transactional"])
def tree(request, cluster):
    """A :class:`DirectoryTree` over each store; the transaction (begun
    before the test body, untouched until its first call) commits at
    teardown."""
    if request.param == "plain":
        yield cluster.directories
    else:
        with cluster.transactional_directories().transaction() as view:
            yield view


def names(tree, path):
    return [entry.name for entry in tree.list_directory(path)]


class TestRenameIntoOwnSubtree:
    @pytest.mark.parametrize("new_path", ["/a/b/c", "/a/sub", "/a/b/../x", "//a//b/"])
    def test_rejected_before_any_write(self, tree, new_path):
        tree.mkdir("/a")
        tree.mkdir("/a/b")
        tree.create_file("/a/b/leaf")
        with pytest.raises(NamingError):
            tree.rename("/a", new_path)
        # nothing was detached: the whole subtree still resolves
        assert tree.is_directory("/a")
        assert names(tree, "/a") == ["b"]
        assert names(tree, "/a/b") == ["leaf"]

    def test_a_sibling_sharing_a_name_prefix_is_not_a_descendant(self, tree):
        tree.mkdir("/a")
        tree.mkdir("/ab")
        tree.rename("/a", "/ab/a")
        assert names(tree, "/") == ["ab"]
        assert names(tree, "/ab") == ["a"]

    def test_a_file_has_no_subtree_to_move_into(self, tree):
        tree.create_file("/f")
        with pytest.raises(NamingError):
            tree.rename("/f", "/f/x")
        assert tree.exists("/f")


class TestTypedErrors:
    def test_listing_a_regular_file_is_a_naming_error(self, cluster, tree):
        target = cluster.directories.create_file("/plain.txt")
        cluster.file_servers[0].write(target, 0, b"not an entry table")
        with pytest.raises(NamingError):
            tree.list_directory("/plain.txt")

    def test_listing_an_empty_regular_file_is_a_naming_error(self, tree):
        tree.create_file("/empty")
        with pytest.raises(NamingError):
            tree.list_directory("/empty")

    @pytest.mark.parametrize(
        "garbage", [b"{not json", b"\xff\xfe", b"[1]", b'[{"name": "x"}]']
    )
    def test_a_corrupt_directory_file_is_a_file_service_error(
        self, cluster, tree, garbage
    ):
        directory = cluster.directories.mkdir("/d")
        cluster.file_servers[0].write(directory, 0, garbage)
        with pytest.raises(FileServiceError):
            tree.list_directory("/d")
        with pytest.raises(FileServiceError):
            tree.create_file("/d/f")

    def test_predicates_answer_false_for_what_is_not_there(self, tree):
        tree.create_file("/f")
        assert not tree.exists("/no/such/path")
        assert not tree.is_directory("/no/such/path")
        assert not tree.is_directory("/f")
        assert not tree.exists("/f/under-a-file")


class TestCheckBeforeWrite:
    def test_a_rejected_operation_leaves_the_tree_as_it_was(self, tree):
        tree.mkdir("/d")
        tree.create_file("/d/f")
        for attempt, error in [
            (lambda: tree.mkdir("/d"), NameExistsError),
            (lambda: tree.create_file("/d/f"), NameExistsError),
            (lambda: tree.mkdir("/missing/x"), NameNotFoundError),
            (lambda: tree.create_file("/d/f/x"), NamingError),
            (lambda: tree.rmdir("/d"), NamingError),
            (lambda: tree.rmdir("/d/f"), NamingError),
            (lambda: tree.unlink("/d"), NamingError),
            (lambda: tree.rename("/d/f", "/d"), NameExistsError),
            (lambda: tree.rename("/d/ghost", "/d/g"), NameNotFoundError),
            (lambda: tree.rename("/d/f", "/"), NamingError),
        ]:
            with pytest.raises(error):
                attempt()
        assert names(tree, "/") == ["d"]
        assert names(tree, "/d") == ["f"]

    def test_a_duplicate_mkdir_creates_no_file(self, cluster):
        cluster.directories.mkdir("/dup")
        created = cluster.metrics.get("file_server.0.creates")
        with pytest.raises(NameExistsError):
            cluster.directories.mkdir("/dup")
        with pytest.raises(NameExistsError):
            cluster.directories.create_file("/dup")
        assert cluster.metrics.get("file_server.0.creates") == created


class TestOneWalk:
    """The plain store: a mutation at depth *d* reads *d* directory
    files — one walk to the parent, no re-resolution."""

    @pytest.fixture
    def deep(self, cluster):
        directories = cluster.directories
        path = ""
        for depth in range(1, 5):
            path += f"/d{depth}"
            directories.mkdir(path)
            directories.create_file(f"{path}/f")
        return directories

    @staticmethod
    def reads(cluster, operation):
        before = cluster.metrics.get("file_server.0.reads")
        operation()
        return cluster.metrics.get("file_server.0.reads") - before

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_single_parent_mutations_read_depth_files(self, cluster, deep, depth):
        parent = "".join(f"/d{level}" for level in range(1, depth))
        target = cluster.directories.resolve(f"{parent}/f" if parent else "/d1/f")
        assert self.reads(cluster, lambda: deep.mkdir(f"{parent}/new")) == depth
        assert self.reads(cluster, lambda: deep.create_file(f"{parent}/g")) == depth
        assert self.reads(cluster, lambda: deep.link(f"{parent}/h", target)) == depth
        assert self.reads(cluster, lambda: deep.unlink(f"{parent}/g")) == depth
        # a rename walks each of its two paths once, even to the same parent
        assert (
            self.reads(cluster, lambda: deep.rename(f"{parent}/h", f"{parent}/i"))
            == 2 * depth
        )
        # rmdir also reads the directory it removes, to see it is empty
        assert self.reads(cluster, lambda: deep.rmdir(f"{parent}/new")) == depth + 1

    def test_rename_reads_each_path_once(self, cluster, deep):
        assert self.reads(cluster, lambda: deep.rename("/d1/d2/d3/f", "/d1/g")) == 4 + 2


class _FailingWrites:
    """A file store whose ``write`` dies on the N-th call — the plain
    store's crash between two directory writes."""

    def __init__(self, files, fail_at):
        self._files = files
        self._left = fail_at

    def write(self, name, blob):
        self._left -= 1
        if self._left == 0:
            raise RuntimeError("crashed before this write")
        self._files.write(name, blob)

    def __getattr__(self, attribute):
        return getattr(self._files, attribute)


class TestPlainCrashOrdering:
    """Without a transaction the writes are ordered so a crash between
    two of them leaves an entry present twice or a file unreferenced —
    never an entry naming nothing, never a reachable file lost."""

    def crash_at_write(self, directories, fail_at, operation):
        healthy = directories.files
        directories.files = _FailingWrites(healthy, fail_at)
        try:
            with pytest.raises(RuntimeError):
                operation()
        finally:
            directories.files = healthy

    def test_cross_directory_rename_writes_the_new_parent_first(self, cluster):
        directories = cluster.directories
        directories.mkdir("/src")
        directories.mkdir("/dst")
        target = directories.create_file("/src/f")
        self.crash_at_write(
            directories, 2, lambda: directories.rename("/src/f", "/dst/g")
        )
        assert directories.resolve("/src/f") == target
        assert directories.resolve("/dst/g") == target

    def test_same_directory_rename_is_one_write(self, cluster):
        directories = cluster.directories
        target = directories.create_file("/old")
        writes = cluster.metrics.get("file_server.0.writes")
        directories.rename("/old", "/new")
        assert cluster.metrics.get("file_server.0.writes") == writes + 1
        assert directories.resolve("/new") == target
        assert not directories.exists("/old")

    def test_mkdir_interrupted_leaves_no_dangling_entry(self, cluster):
        directories = cluster.directories
        for fail_at in (1, 2):  # the new directory's table, the parent's
            self.crash_at_write(directories, fail_at, lambda: directories.mkdir("/d"))
            assert not directories.exists("/d")
        directories.mkdir("/d")
        assert directories.list_directory("/d") == []

    def test_unlink_drops_the_entry_before_the_file(self, cluster):
        directories = cluster.directories
        target = directories.create_file("/f")
        self.crash_at_write(directories, 1, lambda: directories.unlink("/f"))
        # the entry write never happened, so the file must still be there
        assert directories.resolve("/f") == target
        assert cluster.file_servers[0].read(target, 0, 1) == b""
