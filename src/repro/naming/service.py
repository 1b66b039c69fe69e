"""The naming service: attributed name -> system name resolution.

Bindings map an :class:`AttributedName` to either a file's
:class:`~repro.common.ids.SystemName` or a device's system device name
(a plain string).  Resolution tries an exact match first and falls
back to subset matching; an ambiguous subset match is an error rather
than a guess.

The service also offers directory-flavoured helpers over the ``path``
attribute convention, and a codec so a naming database can itself be
stored in a RHODOS file (used by the cluster facade to make naming
survive restarts).

Subset matching is served from a **per-attribute inverted index**: for
every ``(object_type, key, value)`` attribute a binding carries, the
index keeps an insertion-ordered posting of the names carrying it.  A
query intersects its attributes' postings starting from the smallest,
so the cost is proportional to the rarest attribute's posting — not to
the whole binding table, which matters once a shard holds thousands of
names and every client operation resolves through it.  Posting order
is first-install order, so results come back in exactly the order the
historical linear scan produced (the equivalence test in
``tests/naming`` proves it against a defeated-lane oracle).
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Tuple, Union

from repro.common.errors import NameExistsError, NameNotFoundError, NamingError
from repro.common.ids import SystemName
from repro.common.metrics import Metrics
from repro.naming.attributed import AttributedName, ObjectType

Target = Union[SystemName, str]

#: One inverted-index posting key: (object type, attribute key, value).
_Posting = Tuple[ObjectType, str, str]


class NamingService:
    """An in-memory binding store with subset-match resolution."""

    def __init__(self, metrics: Metrics | None = None) -> None:
        self.metrics = metrics or Metrics()
        self._bindings: Dict[AttributedName, Target] = {}
        #: posting -> insertion-ordered set (a dict-to-None) of names.
        self._index: Dict[_Posting, Dict[AttributedName, None]] = {}

    # ---------------------------------------------------------- bind

    def bind(self, name: AttributedName, target: Target) -> None:
        """Bind ``name``; raises :class:`NameExistsError` if already bound."""
        if name in self._bindings:
            raise NameExistsError(f"{name} is already bound")
        self._check_target(name, target)
        self._install(name, target)
        self.metrics.add("naming.binds")

    def rebind(self, name: AttributedName, target: Target) -> None:
        """Bind or replace ``name`` (used by replication failover)."""
        self._check_target(name, target)
        self._install(name, target)
        self.metrics.add("naming.rebinds")

    def unbind(self, name: AttributedName) -> Target:
        """Remove a binding; returns the old target."""
        try:
            target = self._remove(name)
        except KeyError:
            raise NameNotFoundError(f"{name} is not bound") from None
        self.metrics.add("naming.unbinds")
        return target

    # ------------------------------------------------------- resolve

    def resolve(self, query: AttributedName) -> Target:
        """Evaluate and resolve an attributed name to its system name.

        Exact match wins; otherwise the unique binding whose attributes
        are a superset of the query's.  Zero matches raise
        :class:`NameNotFoundError`, several raise :class:`NamingError`.
        """
        self.metrics.add("naming.resolutions")
        exact = self._bindings.get(query)
        if exact is not None:
            return exact
        matches = self._subset_matches(query)
        if not matches:
            raise NameNotFoundError(f"nothing matches {query}")
        if len(matches) > 1:
            raise NamingError(
                f"{query} is ambiguous: matches {[str(name) for name, _ in matches]}"
            )
        return matches[0][1]

    def resolve_file(self, query: AttributedName) -> SystemName:
        """Resolve a FILE name, guaranteeing a SystemName result."""
        if query.object_type is not ObjectType.FILE:
            raise NamingError(f"{query} is not a FILE name")
        target = self.resolve(query)
        if not isinstance(target, SystemName):
            raise NamingError(f"{query} resolved to a device, not a file")
        return target

    def lookup(self, query: AttributedName) -> List[Tuple[AttributedName, Target]]:
        """All bindings matching a query (attribute search)."""
        self.metrics.add("naming.lookups")
        return self._subset_matches(query)

    def __contains__(self, name: AttributedName) -> bool:
        return name in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)

    def __iter__(self) -> Iterator[AttributedName]:
        return iter(list(self._bindings))

    # ----------------------------------------------- path helpers

    def bind_path(self, path: str, target: SystemName, **attrs: str) -> AttributedName:
        """Bind a file under a conventional hierarchical path."""
        name = AttributedName.file(path=self._norm_path(path), **attrs)
        self.bind(name, target)
        return name

    def resolve_path(self, path: str) -> SystemName:
        return self.resolve_file(AttributedName.file(path=self._norm_path(path)))

    def unbind_path(self, path: str) -> Target:
        return self.unbind(self.path_name(path))

    def path_name(self, path: str) -> AttributedName:
        """The first binding carrying ``path`` — exact-match removal
        needs the full name, and the path posting yields it directly."""
        bucket = self._index.get((ObjectType.FILE, "path", self._norm_path(path)))
        if bucket:
            return next(iter(bucket))
        raise NameNotFoundError(f"no binding for path {path!r}")

    def list_directory(self, prefix: str) -> List[str]:
        """Paths bound directly under ``prefix`` (one level)."""
        base = self._norm_path(prefix).rstrip("/")
        seen = set()
        for name in self._bindings:
            path = name.get("path")
            if path is None or not path.startswith(base + "/"):
                continue
            rest = path[len(base) + 1 :]
            seen.add(rest.split("/", 1)[0])
        return sorted(seen)

    @staticmethod
    def _norm_path(path: str) -> str:
        if not path.startswith("/"):
            path = "/" + path
        while "//" in path:
            path = path.replace("//", "/")
        return path

    # ----------------------------------------------------- codec

    def to_bytes(self) -> bytes:
        """Serialise the binding table (for storage in a RHODOS file)."""
        records = []
        for name, target in self._bindings.items():
            if isinstance(target, SystemName):
                encoded: object = {
                    "kind": "file",
                    "volume": target.volume_id,
                    "fit": target.fit_address,
                    "generation": target.generation,
                }
            else:
                encoded = {"kind": "device", "device": target}
            records.append(
                {
                    "type": name.object_type.value,
                    "attrs": name.attributes,
                    "target": encoded,
                }
            )
        return json.dumps(records, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, blob: bytes, metrics: Metrics | None = None) -> "NamingService":
        service = cls(metrics)
        for record in json.loads(blob.decode("utf-8")):
            name = AttributedName(ObjectType(record["type"]), record["attrs"])
            target = record["target"]
            if target["kind"] == "file":
                service._install(
                    name,
                    SystemName(target["volume"], target["fit"], target["generation"]),
                )
            else:
                service._install(name, target["device"])
        return service

    # ----------------------------------------------------- internal

    def _install(self, name: AttributedName, target: Target) -> None:
        """Store a binding and index its attributes (first install only:
        a rebind of an existing name keeps its posting positions, which
        is what keeps index-served results in linear-scan order)."""
        if name not in self._bindings:
            for key, value in name:
                self._index.setdefault(
                    (name.object_type, key, value), {}
                )[name] = None
        self._bindings[name] = target

    def _remove(self, name: AttributedName) -> Target:
        """Drop a binding and its postings; raises ``KeyError`` if absent."""
        target = self._bindings.pop(name)
        for key, value in name:
            posting = (name.object_type, key, value)
            bucket = self._index.get(posting)
            if bucket is not None:
                bucket.pop(name, None)
                if not bucket:
                    del self._index[posting]
        return target

    def _subset_matches(
        self, query: AttributedName
    ) -> List[Tuple[AttributedName, Target]]:
        """Bindings whose attributes are a superset of the query's.

        Intersects the query attributes' postings starting from the
        smallest bucket; candidates are verified with the same
        ``matches`` predicate the linear scan used, and emitted in that
        bucket's insertion order — which equals the binding table's
        insertion order restricted to those names, so callers observe
        results byte-identical to the historical full scan.
        """
        buckets: List[Dict[AttributedName, None]] = []
        for key, value in query:
            bucket = self._index.get((query.object_type, key, value))
            if not bucket:
                return []
            buckets.append(bucket)
        smallest = min(buckets, key=len)
        return [
            (name, self._bindings[name])
            for name in smallest
            if name.matches(query)
        ]

    @staticmethod
    def _check_target(name: AttributedName, target: Target) -> None:
        if name.object_type is ObjectType.FILE and not isinstance(target, SystemName):
            raise NamingError(f"FILE name {name} must bind to a SystemName")
        if name.object_type is ObjectType.TTY and not isinstance(target, str):
            raise NamingError(f"TTY name {name} must bind to a system device name")
