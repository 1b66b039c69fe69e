"""Workload generators: determinism and distribution shape."""

import random

from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.workloads.access import AccessPattern, locality_reads, offsets, read_plan
from repro.workloads.files import (
    FileSizeDistribution,
    deterministic_payload,
    populate_files,
)
from tests.conftest import build_file_server


class TestFileSizes:
    def test_samples_within_bounds(self):
        distribution = FileSizeDistribution(
            median_bytes=8192, min_bytes=100, max_bytes=100_000
        )
        rng = random.Random(0)
        for _ in range(200):
            size = distribution.sample(rng)
            assert 100 <= size <= 100_000

    def test_mostly_small_long_tail(self):
        """The early-90s file-size shape: median near the median knob."""
        distribution = FileSizeDistribution(median_bytes=8192)
        rng = random.Random(1)
        samples = sorted(distribution.sample(rng) for _ in range(500))
        median = samples[len(samples) // 2]
        assert 2048 <= median <= 32768
        assert samples[-1] > 10 * median  # heavy tail

    def test_deterministic_payload(self):
        assert deterministic_payload(3, 100) == deterministic_payload(3, 100)
        assert deterministic_payload(3, 100) != deterministic_payload(4, 100)
        assert len(deterministic_payload(1, 777)) == 777
        assert deterministic_payload(1, 0) == b""
        for seed in (0, 1, 11, 255, 256, -7, 2**40 + 3):
            pattern = bytes(
                (seed * 2654435761 + index * 40503) % 256 for index in range(256)
            )
            assert deterministic_payload(seed, 600) == (pattern * 3)[:600]

    def test_populate_files(self):
        server = build_file_server(SimClock(), Metrics())
        names = populate_files(server, 10, seed=5)
        assert len(names) == 10
        sizes = [server.get_attribute(name).file_size for name in names]
        assert all(size > 0 for size in sizes)
        # Deterministic under the same seed.
        server2 = build_file_server(SimClock(), Metrics())
        names2 = populate_files(server2, 10, seed=5)
        sizes2 = [server2.get_attribute(name).file_size for name in names2]
        assert sizes == sizes2


class TestAccessPatterns:
    def test_sequential(self):
        plan = list(offsets(AccessPattern.SEQUENTIAL, 100, 10, 5))
        assert plan == [0, 10, 20, 30, 40]

    def test_sequential_wraps(self):
        plan = list(offsets(AccessPattern.SEQUENTIAL, 30, 10, 5))
        assert plan == [0, 10, 20, 0, 10]

    def test_strided(self):
        plan = list(offsets(AccessPattern.STRIDED, 100, 10, 4, stride=3))
        assert plan == [0, 30, 60, 90]

    def test_random_is_seeded(self):
        a = list(offsets(AccessPattern.RANDOM, 1000, 10, 20, seed=9))
        b = list(offsets(AccessPattern.RANDOM, 1000, 10, 20, seed=9))
        assert a == b

    def test_locality_reads_favour_hot_set(self):
        picks = locality_reads(
            range(100), 1000, hot_fraction=0.1, hot_probability=0.9, seed=2
        )
        hot_hits = sum(1 for pick in picks if pick < 10)
        assert hot_hits > 800

    def test_locality_empty_population(self):
        assert locality_reads([], 10) == []

    def test_read_plan_shape(self):
        plan = read_plan(10, 1000, 100, 50, seed=1)
        assert len(plan) == 50
        for file_index, offset in plan:
            assert 0 <= file_index < 10
            assert 0 <= offset < 1000
            assert offset % 100 == 0
