"""Shared kernel for the RHODOS distributed file facility reproduction.

This package holds the pieces every other layer relies on: the unit
constants that define fragments and blocks, the simulated clock,
the exception hierarchy, identifier types (system names, object
descriptors), the metrics registry used by benchmarks, and binary
serialization helpers for on-disk structures.
"""
