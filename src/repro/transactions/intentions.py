"""The intentions list: one stable record per transaction and volume.

Paper section 6.6–6.7: recovery uses the *intentions list* approach
(chosen over file versions for its lower disk cost).  Each record in
the list maintains the descriptors of the data item and the tentative
data item; an **intention flag** records the transaction's status —
tentative, commit or abort — and "keeps necessary information to allow
a file server to take a decision on how the changes in the intentions
list will be made permanent, i.e., by shadow page technique or wal
approach".

Those are the only two things commit puts on stable storage, and here
they share one record: an :class:`IntentionList` — every entry of the
transaction on one volume plus its status — stored under
``intentions:<tid>`` in that volume's stable store with a single
careful write.  A record-level after-image of at most
:data:`INLINE_LIMIT` bytes rides in its record — the record *is* the
tentative data item and the list's careful write makes it durable; any
other after-image lives in a scratch extent on the volume's main disk,
written before the list that names it.

* A **single-volume** transaction writes its list with status
  ``commit``: that one write is the commit point.  A crash that tears
  the first mirror copy leaves no decodable record — the transaction
  never committed and its scratch extents, which no bitmap checkpoint
  ever contained, are simply free.  Once the first copy has landed,
  stable-storage recovery completes the second and the list is redone.
* A **multi-volume** transaction writes one list per volume with status
  ``tentative`` and then a ``txndecision:<tid>`` record on the
  coordinator volume; the decision is the commit point and the lists
  are never rewritten.  A recovering volume that finds a tentative list
  asks every registered volume for the decision before presuming abort.

Replaying a list after a crash is idempotent; removing it (one delete)
ends the transaction's redo obligation.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import DiskError, TransactionError
from repro.common.ids import SystemName
from repro.common.units import FRAGMENT_SIZE
from repro.disk_service.addresses import Extent
from repro.file_service.attributes import LockingLevel
from repro.simdisk.stable import StableStore
from repro.transactions.transaction import TransactionStatus

#: Stable-storage key prefixes of the transaction service.
LIST_PREFIX = "intentions:"
DECISION_PREFIX = "txndecision:"

#: Largest record-level after-image carried in its intentions record
#: instead of a scratch extent.  Inline always saves the extent's two
#: data-disk references; an inline byte is written to both mirrors
#: where an extent is whole fragments written once, so up to half a
#: fragment inline also writes no more sectors (EXPERIMENTS.md M5,
#: crossover table).
INLINE_LIMIT = FRAGMENT_SIZE // 2


def _name_to_json(name: SystemName) -> List[int]:
    return [name.volume_id, name.fit_address, name.generation]


class Technique(enum.Enum):
    """How a tentative change is made permanent (paper section 6.7)."""

    WAL = "wal"  # write-ahead log: in-place update, contiguity preserved
    SHADOW = "shadow"  # descriptor swap: cheap commit, contiguity destroyed


@dataclass(frozen=True, slots=True)
class IntentionRecord:
    """One entry of a transaction's intentions list.

    The after-image has exactly one carrier: ``extent`` (a scratch
    extent on the volume's main disk) or ``data`` (the bytes themselves,
    in the list's own stable record).

    Attributes:
        sequence: application order within the transaction.
        name: the file the change applies to.
        level: locking granularity the item was locked at.
        lo: byte offset where the change begins.
        length: number of bytes of after-image data.
        technique: WAL or SHADOW.
        block_index: for SHADOW, which logical block's descriptor to
            swap to ``extent.start``.
        extent: disk space holding the after-image (the tentative data
            item's descriptor), or None when it is inline.
        data: the inline after-image, or None when an extent holds it.
    """

    sequence: int
    name: SystemName
    level: LockingLevel
    lo: int
    length: int
    technique: Technique
    block_index: int = -1
    extent: Optional[Extent] = None
    data: Optional[bytes] = None

    def __post_init__(self) -> None:
        if (self.extent is None) == (self.data is None):
            raise TransactionError(
                f"intention record {self.sequence} needs exactly one of an "
                f"extent and inline data"
            )

    def to_json(self) -> dict:
        raw = {
            "seq": self.sequence,
            "file": _name_to_json(self.name),
            "level": self.level.name,
            "lo": self.lo,
            "length": self.length,
            "technique": self.technique.value,
            "block_index": self.block_index,
        }
        if self.data is None:
            raw["extent"] = [self.extent.start, self.extent.length]
        else:
            raw["inline"] = len(self.data)
        return raw

    @classmethod
    def from_json(cls, raw: dict, data: Optional[bytes]) -> "IntentionRecord":
        return cls(
            sequence=raw["seq"],
            name=SystemName(*raw["file"]),
            level=LockingLevel[raw["level"]],
            lo=raw["lo"],
            length=raw["length"],
            technique=Technique(raw["technique"]),
            block_index=raw["block_index"],
            extent=Extent(*raw["extent"]) if "extent" in raw else None,
            data=data,
        )


@dataclass(frozen=True, slots=True)
class IntentionList:
    """Everything one transaction intends on one volume, and its flag.

    Attributes:
        tid: the transaction descriptor.
        status: the intention flag.  ``COMMITTED`` — this record is the
            commit point; ``TENTATIVE`` — the multi-volume decision
            record is (absent one, the transaction aborted).
        records: the tentative items, in application order.
        deletes: files the transaction ``tdelete``d on this volume,
            removed after the records are applied — named here so redo
            completes a half-done commit instead of resurrecting them.
    """

    tid: int
    status: TransactionStatus
    records: Tuple[IntentionRecord, ...]
    deletes: Tuple[SystemName, ...] = ()

    def to_bytes(self) -> bytes:
        """One JSON line, then the inline after-images, raw, in record order."""
        head = json.dumps(
            {
                "tid": self.tid,
                "status": self.status.value,
                "records": [record.to_json() for record in self.records],
                "deletes": [_name_to_json(name) for name in self.deletes],
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        inline = [r.data for r in self.records if r.data is not None]
        return head + b"\n" + b"".join(inline) if inline else head

    @classmethod
    def from_bytes(cls, blob: bytes) -> "IntentionList":
        head, _, tail = blob.partition(b"\n")
        try:
            raw = json.loads(head.decode("utf-8"))
            records = []
            cursor = 0
            for item in raw["records"]:
                data = None
                if "inline" in item:
                    data = tail[cursor : cursor + item["inline"]]
                    if len(data) != item["inline"]:
                        raise ValueError("inline after-image cut short")
                    cursor += len(data)
                records.append(IntentionRecord.from_json(item, data))
            if cursor != len(tail):
                raise ValueError(f"{len(tail) - cursor} inline bytes unclaimed")
            return cls(
                tid=raw["tid"],
                status=TransactionStatus(raw["status"]),
                records=tuple(records),
                deletes=tuple(SystemName(*name) for name in raw["deletes"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise TransactionError(f"undecodable intentions list: {exc!r}") from exc


class IntentionStore:
    """The intentions lists of one volume, persisted in its stable store."""

    def __init__(self, stable: StableStore) -> None:
        self.stable = stable

    def write(self, intentions: IntentionList) -> None:
        """One careful write: the whole list and its flag."""
        self.stable.put(f"{LIST_PREFIX}{intentions.tid}", intentions.to_bytes())

    def read(self, tid: int) -> Optional[IntentionList]:
        try:
            blob = self.stable.get(f"{LIST_PREFIX}{tid}")
        except KeyError:
            return None
        return IntentionList.from_bytes(blob)

    def remove(self, tid: int) -> None:
        self.stable.delete(f"{LIST_PREFIX}{tid}")

    def transactions(self) -> List[int]:
        """Transactions with a list on this volume, ascending."""
        return self._tids(LIST_PREFIX)

    # ------------------------------------------- multi-volume commit

    def set_decision(self, tid: int, volumes: List[int]) -> None:
        """Record the commit decision of a multi-volume transaction.

        Written on the coordinator volume (the lowest involved volume
        id) *after* every involved volume's tentative list is durable.
        It is the single source of truth from then on: a recovering
        volume that finds a tentative list consults every registered
        volume for the decision before presuming abort — which is what
        makes a two-volume commit all-or-nothing across volumes, not
        just within one.
        """
        payload = json.dumps({"tid": tid, "volumes": sorted(volumes)})
        self.stable.put(f"{DECISION_PREFIX}{tid}", payload.encode("utf-8"))

    def get_decision(self, tid: int) -> Optional[List[int]]:
        """Volumes of a committed multi-volume transaction, or None.

        A decision whose careful write never completed (both copies
        unreadable) reads as None: the transaction is presumed aborted.
        """
        try:
            blob = self.stable.get(f"{DECISION_PREFIX}{tid}")
        except (KeyError, DiskError):
            return None
        return json.loads(blob.decode("utf-8"))["volumes"]

    def remove_decision(self, tid: int) -> None:
        self.stable.delete(f"{DECISION_PREFIX}{tid}")

    def decided_transactions(self) -> List[int]:
        return self._tids(DECISION_PREFIX)

    def _tids(self, prefix: str) -> List[int]:
        return sorted(
            int(key[len(prefix):])
            for key in self.stable.keys()
            if key.startswith(prefix)
        )
