"""File-specific attributes stored in the file index table.

Paper section 5: "The file index table also stores the file-specific
attributes: file size; date and time of file creation; last read
access; a reference count to indicate the number of instances a file
is opened simultaneously; service type to indicate whether operations
on a file follow the semantics of the basic file service or
transaction service; locking level to indicate level of locking; and
space to indicate the amount of extra space needed for storing the
file-specific attributes."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ServiceType(enum.IntEnum):
    """Which semantics govern operations on the file right now.

    Paper section 2.2: "At any moment a file can be used either as a
    basic file ... or as a transaction file."
    """

    BASIC = 0
    TRANSACTION = 1


class LockingLevel(enum.IntEnum):
    """Granularity at which the transaction service locks this file.

    Paper section 6.1: record, page, or complete file locking; DEFAULT
    lets the service pick based on how the file is used.
    """

    RECORD = 0
    PAGE = 1
    FILE = 2
    DEFAULT = 255


@dataclass(slots=True)
class FileAttributes:
    """Mutable attribute block of one file.

    Times are simulated microseconds (see :class:`repro.common.clock.SimClock`).
    """

    file_size: int = 0
    created_us: int = 0
    last_read_us: int = 0
    last_write_us: int = 0
    ref_count: int = 0
    service_type: ServiceType = ServiceType.BASIC
    locking_level: LockingLevel = LockingLevel.DEFAULT
    extra_space: int = 0
    generation: int = 0
    open_count_total: int = field(default=0)  # usage statistic for DEFAULT locking

    def copy(self) -> "FileAttributes":
        return FileAttributes(
            file_size=self.file_size,
            created_us=self.created_us,
            last_read_us=self.last_read_us,
            last_write_us=self.last_write_us,
            ref_count=self.ref_count,
            service_type=self.service_type,
            locking_level=self.locking_level,
            extra_space=self.extra_space,
            generation=self.generation,
            open_count_total=self.open_count_total,
        )
