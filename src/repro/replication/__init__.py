"""The RHODOS replication service.

The paper's architecture (Figure 1, section 2.2) places a replication
service above the file service, and the design goals demand "the
provision to support the concept of file replication" (section 2.1).
The paper does not detail the protocol, so this package implements the
simplest scheme consistent with the architecture: **primary-copy,
read-one / write-all** over the basic file service, with automatic
failover when the volume holding a replica crashes and resynchronisation
when it returns.
"""
