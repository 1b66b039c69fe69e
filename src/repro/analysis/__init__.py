"""Concurrency-correctness analysis: the happens-before race detector.

Stdlib-only by charter — this package sits *below* every simulation
layer in the DAG (even ``common.frames`` instruments itself against it),
so it may import nothing from ``repro``.  See DESIGN.md §12 for the
detector model and the happens-before edge catalogue.
"""
