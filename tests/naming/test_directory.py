"""The directory service: hierarchy stored in RHODOS files."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.errors import (
    NameExistsError,
    NameNotFoundError,
    NamingError,
)
from repro.naming.directory import DirectoryService
from repro.simdisk.geometry import DiskGeometry


@pytest.fixture
def cluster():
    return RhodosCluster(
        ClusterConfig(n_disks=2, geometry=DiskGeometry.small())
    )


@pytest.fixture
def directories(cluster):
    return cluster.directories


class TestStructure:
    def test_root_exists(self, directories):
        assert directories.exists("/")
        assert directories.is_directory("/")
        assert directories.list_directory("/") == []

    def test_mkdir_and_list(self, directories):
        directories.mkdir("/home")
        directories.mkdir("/home/raj")
        names = [entry.name for entry in directories.list_directory("/home")]
        assert names == ["raj"]
        assert directories.is_directory("/home/raj")

    def test_mkdir_needs_parent(self, directories):
        with pytest.raises(NameNotFoundError):
            directories.mkdir("/no/such/parent")

    def test_mkdir_duplicate_rejected(self, directories):
        directories.mkdir("/dup")
        with pytest.raises(NameExistsError):
            directories.mkdir("/dup")

    def test_deep_nesting(self, directories):
        path = ""
        for depth in range(8):
            path += f"/d{depth}"
            directories.mkdir(path)
        assert directories.exists(path)
        assert directories.list_directory(path) == []

    def test_entries_sorted(self, directories):
        for name in ("zeta", "alpha", "mid"):
            directories.mkdir(f"/{name}")
        assert [e.name for e in directories.list_directory("/")] == [
            "alpha",
            "mid",
            "zeta",
        ]

    def test_relative_components_rejected(self, directories):
        with pytest.raises(NamingError):
            directories.resolve("/a/../b")


class TestFiles:
    def test_create_resolve_roundtrip(self, cluster, directories):
        target = directories.create_file("/data.bin")
        cluster.file_servers[target.volume_id].write(target, 0, b"payload")
        resolved = directories.resolve("/data.bin")
        assert resolved == target
        assert cluster.file_servers[0].read(resolved, 0, 7) == b"payload"

    def test_create_on_chosen_volume(self, directories):
        target = directories.create_file("/on-one", volume_id=1)
        assert target.volume_id == 1

    def test_file_is_not_a_directory(self, directories):
        directories.create_file("/plain")
        assert not directories.is_directory("/plain")
        with pytest.raises(NamingError):
            directories.list_directory("/plain")
        with pytest.raises(NamingError):
            directories.resolve("/plain/child")

    def test_link_existing_file(self, cluster, directories):
        target = cluster.file_servers[0].create()
        cluster.file_servers[0].write(target, 0, b"shared")
        directories.mkdir("/a")
        directories.link("/a/one", target)
        directories.link("/a/two", target)  # hard-link style
        assert directories.resolve("/a/one") == directories.resolve("/a/two")

    def test_unlink_deletes_by_default(self, cluster, directories):
        target = directories.create_file("/victim")
        directories.unlink("/victim")
        assert not directories.exists("/victim")
        assert not cluster.file_servers[0].exists(target)

    def test_unlink_can_keep_the_file(self, cluster, directories):
        target = directories.create_file("/kept")
        returned = directories.unlink("/kept", delete_file=False)
        assert returned == target
        assert cluster.file_servers[0].exists(target)

    def test_unlink_directory_rejected(self, directories):
        directories.mkdir("/d")
        with pytest.raises(NamingError):
            directories.unlink("/d")


class TestRmdirRename:
    def test_rmdir_empty(self, directories):
        directories.mkdir("/gone")
        directories.rmdir("/gone")
        assert not directories.exists("/gone")

    def test_rmdir_nonempty_rejected(self, directories):
        directories.mkdir("/full")
        directories.create_file("/full/x")
        with pytest.raises(NamingError):
            directories.rmdir("/full")

    def test_rename_file(self, directories):
        directories.create_file("/old-name")
        directories.mkdir("/sub")
        directories.rename("/old-name", "/sub/new-name")
        assert not directories.exists("/old-name")
        assert directories.exists("/sub/new-name")

    def test_rename_directory_moves_subtree(self, directories):
        directories.mkdir("/src")
        directories.create_file("/src/inner")
        directories.rename("/src", "/dst")
        assert directories.exists("/dst/inner")
        assert not directories.exists("/src")

    def test_walk(self, directories):
        directories.mkdir("/a")
        directories.mkdir("/a/b")
        directories.create_file("/a/b/leaf")
        visited = {path: [e.name for e in entries] for path, entries in directories.walk("/")}
        assert visited["/"] == ["a"]
        assert visited["/a"] == ["b"]
        assert visited["/a/b"] == ["leaf"]


class TestDurability:
    def test_tree_survives_crash_and_new_service_instance(self, cluster, directories):
        directories.mkdir("/projects")
        target = directories.create_file("/projects/paper.tex")
        cluster.file_servers[0].write(target, 0, b"\\documentclass{article}")
        cluster.flush_all()
        cluster.fail_volume(0)
        cluster.restart_volume(0)
        fresh = DirectoryService(cluster.naming, cluster.router, cluster.metrics)
        resolved = fresh.resolve("/projects/paper.tex")
        assert cluster.file_servers[0].read(resolved, 0, 14) == b"\\documentclass"

    def test_the_root_survives_a_volume_crash_before_any_flush(
        self, cluster, directories
    ):
        # Directory files are created durable: the root's binding (and
        # an entry) names one at once.  The entries written since the
        # last flush are delayed writes, lost with the crash.
        directories.mkdir("/a")
        cluster.fail_volume(0)
        cluster.restart_volume(0)
        assert directories.list_directory("/") == []
        directories.mkdir("/a")
        assert [entry.name for entry in directories.list_directory("/")] == ["a"]

    def test_directory_shrink_leaves_valid_encoding(self, directories):
        """Removing entries shrinks the JSON; stale tail bytes must not
        corrupt later reads."""
        for index in range(10):
            directories.mkdir(f"/d{index:02d}")
        for index in range(10):
            directories.rmdir(f"/d{index:02d}")
        assert directories.list_directory("/") == []
        directories.mkdir("/fresh")
        assert [e.name for e in directories.list_directory("/")] == ["fresh"]
