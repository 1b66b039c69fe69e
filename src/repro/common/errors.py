"""Exception hierarchy of the RHODOS distributed file facility.

Every layer raises errors rooted at :class:`RhodosError` so callers can
distinguish facility failures from programming errors.  The hierarchy
mirrors the service layering of the paper: disk service, file service,
naming service, transaction service, replication service, and the RPC
substrate each own a branch.
"""

from __future__ import annotations


class RhodosError(Exception):
    """Base class for every error raised by the file facility."""


# ---------------------------------------------------------------- disk


class DiskError(RhodosError):
    """Base class for disk-service and simulated-disk failures."""


class DiskFullError(DiskError):
    """No extent of the requested size (or shape) can be allocated."""


class BadAddressError(DiskError):
    """An address or extent lies outside the disk, or is malformed."""


class MediaError(DiskError):
    """The physical medium failed silently: a latent sector error or
    detected at-rest corruption.

    Distinct from :class:`DiskCrashedError` (the whole drive stopped):
    a media error is localised — the rest of the disk keeps serving —
    and the repair story is redundancy (the stable-storage mirror or a
    replica), not restart.
    """


class BadSectorError(MediaError):
    """A sector is unreadable (injected media failure)."""


class ChecksumError(MediaError):
    """Stored data failed its fragment checksum on read.

    Raised by the disk server *instead of returning the corrupt bytes*
    — no caller, and no cache, ever sees data whose CRC disagrees with
    the recorded one.
    """


class SectorAlignmentError(DiskError):
    """A write payload is not a whole number of sectors.

    Raised *before* any byte reaches disk or cache: a silently
    truncated tail would leave a stale cached suffix behind.
    """


class DiskCrashedError(DiskError):
    """The disk (or its server) has crashed and is not serving requests."""


class StableKeyError(DiskError, KeyError):
    """No stable-storage record exists for the requested key.

    Also a :class:`KeyError` so mapping-style callers (``except
    KeyError``) keep working while the error stays classifiable inside
    the facility taxonomy.
    """


# ---------------------------------------------------------------- file


class FileServiceError(RhodosError):
    """Base class for basic-file-service failures."""


class FileNotFoundError_(FileServiceError):
    """No file with the given system name exists.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class BadDescriptorError(FileServiceError):
    """An object descriptor does not designate an open file or device."""


class FileSizeError(FileServiceError):
    """An operation would exceed representable file size or a bad offset."""


# -------------------------------------------------------------- naming


class NamingError(RhodosError):
    """Base class for naming-service failures."""


class NameNotFoundError(NamingError):
    """An attributed name resolves to no system name."""


class NameExistsError(NamingError):
    """An attributed name is already bound."""


class WrongShardError(NamingError):
    """The addressed shard does not own the name's hash slot.

    Raised by a shard server when a request arrives under a stale
    shard map — after a rebalance moved the slot, or before a router
    learned of one.  Carries the server's current map epoch so the
    router knows to re-fetch before retrying.
    """

    def __init__(self, message: str, *, epoch: int, slot: int) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.slot = slot


class ShardDownError(NamingError):
    """A shard server is crashed and cannot serve the request.

    The in-process analogue of an RPC timeout against a dead endpoint:
    routers treat both identically (fail reads over to the replica
    peer, surface writes as unavailability).
    """


# -------------------------------------------------------- transactions


class TransactionError(RhodosError):
    """Base class for transaction-service failures."""


class TransactionAbortedError(TransactionError):
    """The transaction was aborted (explicitly, or by the service)."""

    def __init__(self, message: str, *, reason: str = "aborted") -> None:
        super().__init__(message)
        self.reason = reason


class LockTimeoutError(TransactionAbortedError):
    """A lock outlived its N*LT invulnerability budget; holder aborted."""

    def __init__(self, message: str) -> None:
        super().__init__(message, reason="lock-timeout")


class InvalidTransactionStateError(TransactionError):
    """An operation is illegal in the transaction's current phase."""


class SerializabilityError(TransactionError):
    """An action would violate two-phase locking (e.g. lock after unlock)."""


# --------------------------------------------------------- replication


class ReplicationError(RhodosError):
    """Base class for replication-service failures."""


# ----------------------------------------------------------------- rpc


class RpcError(RhodosError):
    """Base class for message-transport failures."""


class RpcTimeoutError(RpcError):
    """A request exhausted its retransmission budget without a reply."""


class CircuitOpenError(RpcTimeoutError):
    """The destination's circuit breaker is open: the call failed fast.

    A :class:`RpcTimeoutError` subclass so callers that treat timeouts
    as "server unreachable" need no new handling — the breaker merely
    delivers the same verdict without spending the attempt budget.
    """


# ------------------------------------------------------------- process


class ProcessError(RhodosError):
    """Illegal process operation (e.g. process_twin with live transactions)."""
