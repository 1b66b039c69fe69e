"""A3 — ablation: the contiguous-growth batch size.

A design choice of this implementation that the paper leaves implicit:
when a file grows, how many blocks ahead of its last block should the
allocator try to claim contiguously?  Interleaved appenders are the
stress case — two files growing in lockstep steal each other's next
block unless growth reserves ahead.  Expected shape: batch size 1
shreds both files into many runs; larger batches restore contiguity
(fewer cold-scan references) at no allocation-failure cost.
"""

from _helpers import build_file_server, contiguity_runs, pattern, print_table
from repro.common.units import BLOCK_SIZE
from repro.simdisk.geometry import DiskGeometry

N_APPENDS = 24  # per file, one block each, interleaved
BATCHES = [1, 2, 4, 8, 16]


def run_batch(batch: int):
    server = build_file_server(
        geometry=DiskGeometry.medium(), growth_batch_blocks=batch
    )
    file_a = server.create()
    file_b = server.create()
    for index in range(N_APPENDS):
        server.write(file_a, index * BLOCK_SIZE, pattern(BLOCK_SIZE, seed=index))
        server.write(file_b, index * BLOCK_SIZE, pattern(BLOCK_SIZE, seed=~index))
    server.flush()
    server.recover()
    runs = contiguity_runs(server, file_a) + contiguity_runs(server, file_b)
    before = server.metrics.get("disk.0.references")
    server.read(file_a, 0, N_APPENDS * BLOCK_SIZE)
    server.read(file_b, 0, N_APPENDS * BLOCK_SIZE)
    scan_refs = server.metrics.get("disk.0.references") - before
    return {"runs": runs, "scan_refs": scan_refs}


def run_all():
    return [(batch, run_batch(batch)) for batch in BATCHES]


def test_a3_growth_batch():
    results = run_all()
    print_table(
        f"A3  Two files, {N_APPENDS} interleaved one-block appends each",
        ["growth batch (blocks)", "contiguous runs (both files)", "cold-scan disk refs"],
        [
            (batch, row["runs"], row["scan_refs"])
            for batch, row in results
        ],
    )
    by_batch = dict(results)
    # Batch 1: every append lands after the *other* file's last block —
    # maximal shredding.
    assert by_batch[1]["runs"] >= N_APPENDS
    # Contiguity improves monotonically (weakly) with the batch size...
    runs = [row["runs"] for _, row in results]
    assert all(a >= b for a, b in zip(runs, runs[1:]))
    # ...and the default (8) already collapses the run count several-fold.
    assert by_batch[8]["runs"] * 3 <= by_batch[1]["runs"]
    # The payoff is visible where it matters: the cold scan.
    assert by_batch[8]["scan_refs"] < by_batch[1]["scan_refs"]
