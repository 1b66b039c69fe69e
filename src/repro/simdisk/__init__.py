"""Simulated physical disks.

The paper's performance claims are stated in terms of *disk
references*, seek elimination and rotational-latency amortisation, on
1994-era drives we obviously do not have.  This package substitutes a
faithful service-time model: a sector-addressed disk with cylinder /
track / sector geometry, a seek-plus-rotation-plus-transfer timing
model, per-disk metrics, fault injection (crashes, bad sectors, torn
writes), and the mirrored careful-write *stable storage* the paper
relies on for all vital structural information (sections 2.1, 4, 6.6).

Absolute times are calibration constants; the shapes the paper claims
(one reference per contiguous run, two references per small file, seek
saved by FIT/data contiguity) fall out of the access pattern, which the
model reproduces exactly.
"""
