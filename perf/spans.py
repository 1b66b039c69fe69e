"""Outside-in host-time spans around each layer's public entry points.

The benchmark may not edit ``src/``, so the spans are recorded from
here: :class:`SpanRecorder` replaces, at class level and only for the
traced pass, the public methods listed in :data:`ENTRY_POINTS` with
wrappers that time the call on the host clock (``perf_counter_ns``).
Nothing inside the program is read or changed, and no simulated clock
is touched, so a traced pass must produce bit-identical simulated
metrics (the harness checks that).

A span's *self time* is its duration minus the time covered by its
child spans.  The simulator is single-threaded and the wrappers nest
strictly, so the children of a span never overlap and "time covered"
is the plain sum of the direct children's durations.  Summed over any
root span's subtree, self time equals the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

#: Layers are the ``src/repro`` packages on the request path, top down.
LAYERS = (
    "agents",
    "naming",
    "rpc",
    "transactions",
    "replication",
    "file_service",
    "disk_service",
    "simdisk",
    "simkernel",
)

#: layer -> [(module, class, public methods)].
ENTRY_POINTS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "agents": [
        (
            "repro.agents.file_agent",
            "FileAgent",
            ("create", "open", "close", "delete", "read", "pread", "write",
             "pwrite", "flush"),
        ),
    ],
    "naming": [
        (
            "repro.naming.shard",
            "ShardedNamespace",
            ("bind", "unbind", "resolve", "resolve_file", "lookup"),
        ),
        ("repro.naming.shard", "NamingShard", ("bind", "unbind", "resolve", "match")),
    ],
    "rpc": [
        ("repro.rpc.endpoint", "RpcClient", ("call",)),
        ("repro.rpc.bus", "MessageBus", ("transmit",)),
    ],
    "transactions": [
        (
            "repro.transactions.agent",
            "TransactionAgentHost",
            ("tbegin", "topen", "tpread", "tpwrite", "tend", "tabort"),
        ),
        ("repro.transactions.coordinator", "TransactionCoordinator", ("commit",)),
        ("repro.transactions.lock_manager", "LockManager", ("acquire", "release_all")),
    ],
    "replication": [
        ("repro.replication.service", "ReplicationService", ("create", "read", "write")),
    ],
    "file_service": [
        (
            "repro.file_service.server",
            "FileServer",
            ("create", "open", "close", "delete", "read", "write", "flush",
             "read_block", "write_block"),
        ),
    ],
    "disk_service": [
        (
            "repro.disk_service.server",
            "DiskServer",
            ("allocate", "allocate_block", "try_allocate_at", "free", "get",
             "put", "submit_get", "submit_put", "flush"),
        ),
        ("repro.disk_service.pipeline", "DiskPipeline", ("drain",)),
    ],
    "simdisk": [
        (
            "repro.simdisk.disk",
            "SimDisk",
            ("read_sectors", "write_sectors", "read_in_passing"),
        ),
        (
            "repro.simdisk.raid",
            "StripedVolume",
            ("read_sectors", "write_sectors", "read_in_passing"),
        ),
        ("repro.simdisk.stable", "StableStore", ("put", "get", "delete")),
    ],
    "simkernel": [
        # call_at is wrapped for its call count: events scheduled per op.
        ("repro.simkernel.loop", "EventLoop", ("call_at", "run_until_idle")),
        ("repro.simkernel.runner", "InterleavedRunner", ("run",)),
    ],
}


class SpanRecorder:
    """Aggregate (and optionally keep) spans of the wrapped entry points.

    ``install()`` swaps the wrappers in, ``uninstall()`` restores the
    originals; both are needed because some components capture bound
    methods when a cluster is built, so the wrappers must be in place
    *before* the traced cluster exists.  While ``enabled`` is false a
    wrapper is a plain pass-through.

    Attributes:
        enabled: record spans (set around the traced units only).
        request: request id stamped on spans; the workload sets it to
            the index of the operation it is about to issue.
        raw: when a list, every finished span is appended to it as
            ``(id, parent, entry, start_ns, end_ns, request)``; the
            harness keeps this on for the first traced unit only.
        root_ns: summed duration of spans that had no parent.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.request = -1
        self.raw: Optional[List[tuple]] = None
        self.root_ns = 0
        #: entry index -> (layer, "Class.method")
        self.entries: List[Tuple[str, str]] = []
        #: entry index -> [calls, self_ns, total_ns]
        self.totals: List[List[int]] = []
        self._child_ns: List[int] = []
        self._ids: List[int] = []
        self._next_id = 0
        self._originals: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------ wrapping

    def install(self) -> None:
        for layer, targets in ENTRY_POINTS.items():
            for module_name, class_name, methods in targets:
                cls = getattr(importlib.import_module(module_name), class_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self._originals.append((cls, method, original))
                    self.entries.append((layer, f"{class_name}.{method}"))
                    self.totals.append([0, 0, 0])
                    setattr(
                        cls, method, self._wrap(original, len(self.entries) - 1)
                    )

    def uninstall(self) -> None:
        for cls, method, original in self._originals:
            setattr(cls, method, original)
        self._originals.clear()

    def _wrap(self, fn, entry: int):
        recorder = self
        child_ns = self._child_ns
        ids = self._ids
        total = self.totals[entry]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            recorder._next_id += 1
            span_id = recorder._next_id
            parent = ids[-1] if ids else 0
            ids.append(span_id)
            child_ns.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                duration = end - start
                covered = child_ns.pop()
                ids.pop()
                if child_ns:
                    child_ns[-1] += duration
                else:
                    recorder.root_ns += duration
                total[0] += 1
                total[1] += duration - covered
                total[2] += duration
                if recorder.raw is not None:
                    recorder.raw.append(
                        (span_id, parent, entry, start, end, recorder.request)
                    )

        return span

    # ------------------------------------------------------- reading

    def by_layer(self) -> Dict[str, Tuple[int, int]]:
        """layer -> (calls, self_ns) over everything recorded so far."""
        out = {layer: [0, 0] for layer in LAYERS}
        for (layer, _name), total in zip(self.entries, self.totals):
            out[layer][0] += total[0]
            out[layer][1] += total[1]
        return {layer: (calls, self_ns) for layer, (calls, self_ns) in out.items()}

    def entry(self, name: str) -> Tuple[int, int, int]:
        """(calls, self_ns, total_ns) of ``Class.method``."""
        for (_layer, entry_name), total in zip(self.entries, self.totals):
            if entry_name == name:
                return tuple(total)
        raise KeyError(name)

    def write_raw(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        spans = self.raw or []
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, entry, start, end, request in spans:
                layer, name = self.entries[entry]
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "layer": layer,
                            "op": name,
                            "start_ns": start,
                            "end_ns": end,
                            "request": request,
                        }
                    )
                )
                out.write("\n")
        return len(spans)


def self_times(spans: List[dict]) -> Dict[int, int]:
    """span id -> self time (ns) for spans read back from a span file."""
    own = {span["id"]: span["end_ns"] - span["start_ns"] for span in spans}
    known = set(own)
    for span in spans:
        if span["parent"] in known:
            own[span["parent"]] -= span["end_ns"] - span["start_ns"]
    return own
