"""The RHODOS basic file service.

A *flat* file service (paper section 5): mutable files identified by
system names, no structure between files.  Each file is described by a
**file index table (FIT)** stored in a single 2 KB fragment, created
dynamically and contiguous with the file's first data block.  The FIT
holds the file-specific attributes and one 6-byte block descriptor per
data block; each descriptor carries a 2-byte **count** of contiguous
successive disk blocks, so any contiguous run is retrieved with one
single ``get_block``.  Sixty-four direct descriptors cover 512 KB —
"for files up to half a megabyte, the maximum number of disk references
is two: one for the file index table and the other for file data" —
and single/double indirect blocks remove any practical size limit.

Operations (paper section 5): create, open, delete, read, write,
pread, pwrite, get_attribute, lseek, close.  ``read``/``write`` vs
``pread``/``pwrite`` and ``lseek`` are *client* (file-agent) concepts —
the server itself is positional and therefore idempotent; see
:mod:`repro.agents`.
"""
