"""The directory service: hierarchy stored in RHODOS files.

Figure 1 of the paper labels its top layer "NAMING / DIRECTORY
SERVICE".  The naming service (attributed names) is flat; this module
adds the conventional hierarchy on top — and stores every directory
*as a RHODOS file* through the basic file service, so directories get
the facility's own durability (FITs on stable storage, crash recovery)
for free, and the directory tree survives anything a file survives.

A directory file holds a serialised entry table: name -> (system name,
kind).  The root directory's system name is bootstrapped through the
flat naming service under a reserved attributed name.

The tree algorithm is written once, in :class:`DirectoryTree`, over a
*file store* of four calls — ``create(volume_id, **kwargs)``,
``read(name)``, ``write(name, blob)``, ``delete(name)``.  The store
decides what a write *means*: :class:`DirectoryService` writes at once
through the router; a transaction's view
(:mod:`repro.naming.tdirectory`) writes tentatively, so the same
mutations become atomic as a group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import (
    FileServiceError,
    NameExistsError,
    NameNotFoundError,
    NamingError,
)
from repro.common.ids import SystemName
from repro.common.metrics import Metrics
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService

#: The flat-naming bootstrap binding for the root directory.
ROOT_BINDING = AttributedName.file(directory="root", path="/")

_KIND_FILE = "file"
_KIND_DIR = "dir"
_MAX_DIRECTORY_BYTES = 1 << 20
#: The volume hosting the root directory (and, by default, every
#: directory and file created through the tree).
_ROOT_VOLUME = 0


@dataclass(frozen=True, slots=True)
class DirectoryEntry:
    """One row of a directory file."""

    name: str
    target: SystemName
    kind: str  # "file" | "dir"

    @property
    def is_directory(self) -> bool:
        return self.kind == _KIND_DIR


def _encode_entries(entries: Dict[str, DirectoryEntry]) -> bytes:
    rows = [
        {
            "name": entry.name,
            "volume": entry.target.volume_id,
            "fit": entry.target.fit_address,
            "generation": entry.target.generation,
            "kind": entry.kind,
        }
        for entry in sorted(entries.values(), key=lambda e: e.name)
    ]
    return json.dumps(rows, sort_keys=True).encode("utf-8")


def _decode_entries(blob: bytes) -> Dict[str, DirectoryEntry]:
    if not blob:
        return {}
    entries = {}
    for row in json.loads(blob.decode("utf-8")):
        entry = DirectoryEntry(
            name=row["name"],
            target=SystemName(row["volume"], row["fit"], row["generation"]),
            kind=row["kind"],
        )
        entries[entry.name] = entry
    return entries


def _padded(blob: bytes, current_size: int) -> bytes:
    """A directory file never shrinks: a shorter table is space-padded
    to the file's current size, so stale tail bytes cannot follow it."""
    return blob + b" " * max(0, current_size - len(blob))


class DirectoryTree:
    """Hierarchical paths over a file store — the one tree algorithm.

    Every mutation walks to the parent once, checks before it writes,
    and orders its writes so that a crash between two of them leaves an
    entry present twice or a file unreferenced — never an entry naming
    nothing, never a reachable file lost.

    Args:
        files: the file store (``create`` / ``read`` / ``write`` /
            ``delete``, see the module docstring).
        root: system name of the root directory file.
        root_volume: volume for new directories and files by default.
        metrics: counter registry.
    """

    def __init__(
        self, files, root: SystemName, root_volume: int, metrics: Metrics
    ) -> None:
        self.files = files
        self.root = root
        self.root_volume = root_volume
        self.metrics = metrics

    # ------------------------------------------------------- lookup

    def resolve(self, path: str) -> SystemName:
        """Walk the tree; raises :class:`NameNotFoundError` if absent."""
        target = self._entry(path).target
        self.metrics.add("directory.resolutions")
        return target

    def list_directory(self, path: str) -> List[DirectoryEntry]:
        """Entries of a directory, sorted by name."""
        entry = self._entry(path)
        if not entry.is_directory:
            raise NamingError(f"{path} is not a directory")
        return sorted(self._read_entries(entry.target).values(), key=lambda e: e.name)

    def exists(self, path: str) -> bool:
        return self._find(path) is not None

    def is_directory(self, path: str) -> bool:
        entry = self._find(path)
        return entry is not None and entry.is_directory

    def walk(self, path: str = "/") -> Iterator[Tuple[str, List[DirectoryEntry]]]:
        """Yield (directory_path, entries) depth-first, like os.walk."""
        entries = self.list_directory(path)
        yield path.rstrip("/") or "/", entries
        for entry in entries:
            if entry.is_directory:
                child = (path.rstrip("/") or "") + "/" + entry.name
                yield from self.walk(child)

    # ------------------------------------------------------- mutate

    def mkdir(self, path: str, *, volume_id: int | None = None) -> SystemName:
        """Create an empty directory; parent must exist."""
        parent, entries, leaf = self._vacancy(path)
        directory = self.files.create(self._volume(volume_id))
        self.files.write(directory, _encode_entries({}))
        self._put(parent, entries, DirectoryEntry(leaf, directory, _KIND_DIR))
        self.metrics.add("directory.mkdirs")
        return directory

    def create_file(
        self, path: str, *, volume_id: int | None = None, **create_kwargs
    ) -> SystemName:
        """Create a file and link it at ``path``."""
        parent, entries, leaf = self._vacancy(path)
        target = self.files.create(self._volume(volume_id), **create_kwargs)
        self._put(parent, entries, DirectoryEntry(leaf, target, _KIND_FILE))
        self.metrics.add("directory.creates")
        return target

    def link(self, path: str, target: SystemName) -> None:
        """Link an existing file under a (new) path — hard-link style."""
        parent, entries, leaf = self._vacancy(path)
        self._put(parent, entries, DirectoryEntry(leaf, target, _KIND_FILE))
        self.metrics.add("directory.links")

    def unlink(self, path: str, *, delete_file: bool = True) -> SystemName:
        """Remove a file entry; optionally delete the file itself."""
        parent, entries, leaf = self._locate(path)
        entry = entries.pop(leaf, None)
        if entry is None:
            raise NameNotFoundError(f"{path}: no such file")
        if entry.is_directory:
            raise NamingError(f"{path} is a directory; use rmdir")
        self._write_entries(parent, entries)
        if delete_file:
            self.files.delete(entry.target)
        self.metrics.add("directory.unlinks")
        return entry.target

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        parent, entries, leaf = self._locate(path)
        entry = entries.pop(leaf, None)
        if entry is None:
            raise NameNotFoundError(f"{path}: no such directory")
        if not entry.is_directory:
            raise NamingError(f"{path} is a file, not a directory")
        if self._read_entries(entry.target):
            raise NamingError(f"{path} is not empty")
        self._write_entries(parent, entries)
        self.files.delete(entry.target)
        self.metrics.add("directory.rmdirs")

    def rename(self, old_path: str, new_path: str) -> None:
        """Move an entry (file or directory) to a new path.

        The new parent is written before the old one (one write when
        they are the same file): a crash in between leaves the entry
        under both names, never under neither.
        """
        old_parent, old_entries, old_leaf = self._locate(old_path)
        entry = old_entries.get(old_leaf)
        if entry is None:
            raise NameNotFoundError(f"{old_path}: no such entry")
        old_parts = self._split(old_path)
        if entry.is_directory and self._split(new_path)[: len(old_parts)] == old_parts:
            raise NamingError(f"cannot move {old_path} into itself ({new_path})")
        new_parent, new_entries, new_leaf = self._locate(new_path)
        if new_parent == old_parent:
            new_entries = old_entries
        if new_leaf in new_entries:
            raise NameExistsError(f"{new_path} already exists")
        new_entries[new_leaf] = DirectoryEntry(new_leaf, entry.target, entry.kind)
        if new_parent != old_parent:
            self._write_entries(new_parent, new_entries)
        del old_entries[old_leaf]
        self._write_entries(old_parent, old_entries)
        self.metrics.add("directory.renames")

    # ------------------------------------------------------ internal

    @staticmethod
    def _split(path: str) -> List[str]:
        parts = [part for part in path.split("/") if part]
        for part in parts:
            if part in (".", ".."):
                raise NamingError("relative path components are not supported")
        return parts

    def _volume(self, volume_id: Optional[int]) -> int:
        return volume_id if volume_id is not None else self.root_volume

    def _locate(
        self, path: str
    ) -> Tuple[SystemName, Dict[str, DirectoryEntry], str]:
        """The one walk: ``(parent, the parent's entries, leaf)``.

        Verifies every step, the parent included, is a directory; a
        path of depth *d* costs *d* directory reads.
        """
        parts = self._split(path)
        if not parts:
            raise NamingError("the root directory itself cannot be a target")
        directory = self.root
        entries = self._read_entries(directory)
        for index, part in enumerate(parts[:-1]):
            entry = entries.get(part)
            if entry is None:
                raise NameNotFoundError(
                    f"no entry {part!r} in /{'/'.join(parts[:index])}"
                )
            if not entry.is_directory:
                raise NamingError(f"/{'/'.join(parts[: index + 1])} is not a directory")
            directory = entry.target
            entries = self._read_entries(directory)
        return directory, entries, parts[-1]

    def _vacancy(
        self, path: str
    ) -> Tuple[SystemName, Dict[str, DirectoryEntry], str]:
        """:meth:`_locate` for a path that must not exist yet."""
        parent, entries, leaf = self._locate(path)
        if leaf in entries:
            raise NameExistsError(f"{path} already exists")
        return parent, entries, leaf

    def _put(
        self,
        parent: SystemName,
        entries: Dict[str, DirectoryEntry],
        entry: DirectoryEntry,
    ) -> None:
        entries[entry.name] = entry
        self._write_entries(parent, entries)

    def _entry(self, path: str) -> DirectoryEntry:
        """The entry at ``path`` (the root is its own, nameless, entry)."""
        if not self._split(path):
            return DirectoryEntry("", self.root, _KIND_DIR)
        _, entries, leaf = self._locate(path)
        entry = entries.get(leaf)
        if entry is None:
            raise NameNotFoundError(f"{path}: no such entry")
        return entry

    def _find(self, path: str) -> Optional[DirectoryEntry]:
        try:
            return self._entry(path)
        except (NameNotFoundError, NamingError):
            return None

    def _read_entries(self, directory: SystemName) -> Dict[str, DirectoryEntry]:
        try:
            return _decode_entries(self.files.read(directory))
        except (ValueError, KeyError, TypeError) as exc:
            raise FileServiceError(
                f"directory file {directory} is corrupt: {exc}"
            ) from exc

    def _write_entries(
        self, directory: SystemName, entries: Dict[str, DirectoryEntry]
    ) -> None:
        self.files.write(directory, _encode_entries(entries))


class _RouterFiles:
    """The plain file store: every write takes effect at once."""

    def __init__(self, router) -> None:
        self.router = router

    def create(self, volume_id: int, **kwargs) -> SystemName:
        return self.router.create(volume_id, **kwargs)

    def read(self, name: SystemName) -> bytes:
        return self.router.read(name, 0, _MAX_DIRECTORY_BYTES)

    def write(self, name: SystemName, blob: bytes) -> None:
        current_size = self.router.get_attribute(name).file_size
        self.router.write(name, 0, _padded(blob, current_size))

    def delete(self, name: SystemName) -> None:
        self.router.delete(name)


class DirectoryService(DirectoryTree):
    """The directory tree over the basic file service, plus the root
    bootstrap through the flat naming service.

    Args:
        naming: the flat naming service (holds the root bootstrap).
        router: any :class:`~repro.agents.routing.FileServiceRouter`-
            shaped object carrying file operations by volume.
        metrics: counter registry.
    """

    def __init__(self, naming: NamingService, router, metrics: Metrics) -> None:
        self.naming = naming
        self.router = router
        files = _RouterFiles(router)
        if ROOT_BINDING in naming:
            root = naming.resolve_file(ROOT_BINDING)
        else:
            root = files.create(_ROOT_VOLUME)
            files.write(root, _encode_entries({}))
            naming.bind(ROOT_BINDING, root)
        super().__init__(files, root, _ROOT_VOLUME, metrics)
