"""Whole-system assembly: machines, volumes, the RHODOS cluster.

The paper's design "does not take into account the physical location"
of the naming, file and disk services — "these services can either
co-exist on the same machine or be located separately" (section 2.2) —
and promises "practically no limitation on the number of disks", with
files partitionable across disks so that "the size of a file can be as
large as the total space available on all the disks" (section 7).

:class:`RhodosCluster` builds a complete simulated system — disks with
stable-storage mirrors, one disk server per disk, file servers,
naming, replication, the transaction coordinator, and per-machine
agent bundles — from one configuration object.  :class:`StripedFile`
implements the cross-disk partitioning.
"""
