"""The RHODOS transaction service.

Entirely optional and event-driven (paper sections 2.2, 6): a
per-machine **transaction agent** comes into existence on the first
``tbegin`` and ceases to exist when the last transaction on that
machine completes or aborts.  File operations under transaction
semantics use their own verbs — tbegin, tcreate, topen, tdelete,
tread, tpread, twrite, tpwrite, tget_attribute, tlseek, tclose, tend,
tabort — so there is "no ambiguity as to whether a particular file
operation belongs to the basic file service or the transaction
service".

Concurrency control is strict two-phase locking with three lock modes
(read-only, Iread, Iwrite; Table 1) at three optional granularities
(record / page / file), one lock table per granularity per file
server.  Deadlock is resolved by timeouts: a lock is invulnerable for
LT, renewable while uncontended up to N times, then broken and its
holder aborted.  Recovery uses an intentions list whose tentative
changes are made permanent by write-ahead logging when the file's data
blocks are contiguous (preserving contiguity) and by the shadow-page
technique when they are not; the list and its intention flag reach
stable storage in one careful write, which makes commit atomic across
crashes.
"""
