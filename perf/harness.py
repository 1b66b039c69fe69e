"""Run shape, metric arithmetic and the output oracle for one workload.

One *repeat* is: set-up (fresh cluster from the seed, populate, flush),
one warm-up unit, then ``FIXED_UNITS`` measured units.  A run makes at
least ``MIN_REPEATS`` of them.  The script is fixed by the seed, so the
simulated-clock metrics of every repeat are identical — a pure function
of (code, seed) — and each unit's host time is taken as the median over
the repeats.  See ``perf/README.md``.
"""

from __future__ import annotations

import gc
import os
import re
import resource
import statistics
import time
from typing import Dict, List, Optional

from repro.common.errors import RhodosError
from repro.common.units import FRAGMENT_SIZE, SECTOR_SIZE
from repro.verify.fsck import fsck_volume

from spans import LAYERS, SpanRecorder
from workloads import WORKLOADS, Meter, Workload

#: Measured units of one repeat: a fixed script, so simulated metrics
#: over it are exact.
FIXED_UNITS = 7
MIN_REPEATS = 3
MAX_REPEATS = 12
#: After each repeat a quick set-up is timed again, without units, until
#: this much set-up time (or this many set-ups) has been seen since the
#: repeat began: the median is then not three 5 ms samples, and the
#: samples are spread over the run rather than taken in one spell.
SETUP_BUDGET_S = 0.3
MAX_SETUPS = 10

_DATA_DISK = r"disk\.\d+(\.m\d+)?"
_STABLE_DISK = r"disk\.\d+\.stable_[ab]"
_DISK_ENTRY_POINTS = ("allocate", "free", "get", "put")


def percentile(samples: List[int], pct: int) -> float:
    """Nearest-rank percentile (the registry's own rule); 0 if empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-pct * len(ordered) // 100))
    return float(ordered[min(rank, len(ordered)) - 1])


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Region:
    """Registry activity between two instants: counter and sample deltas."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.metrics = cluster.metrics
        self.clock = cluster.clock
        self.disk_refs_before = cluster.total_disk_references()
        self.counters_before = self.metrics.snapshot()
        self.samples_before = {
            name: len(self.metrics.histogram_samples(name))
            for name in self.metrics.histogram_names()
        }
        self.sim_started_us = self.clock.now_us
        self.counters: Dict[str, int] = {}
        self.sim_us = 0
        self.disk_refs = 0

    def close(self) -> None:
        self.counters = self.metrics.diff(self.counters_before)
        self.sim_us = self.clock.now_us - self.sim_started_us
        self.disk_refs = self.cluster.total_disk_references() - self.disk_refs_before

    def each(self, pattern: str) -> List[int]:
        """Counter deltas whose full name matches ``pattern``."""
        matcher = re.compile(pattern)
        return [
            value for name, value in self.counters.items() if matcher.fullmatch(name)
        ]

    def total(self, pattern: str) -> int:
        return sum(self.each(pattern))

    def samples(self, pattern: str) -> List[int]:
        """Histogram samples recorded since the region began, names merged."""
        matcher = re.compile(pattern)
        merged: List[int] = []
        for name in self.metrics.histogram_names():
            if matcher.fullmatch(name):
                merged.extend(
                    self.metrics.histogram_samples(name)[
                        self.samples_before.get(name, 0):
                    ]
                )
        return merged


def registry_layer_metrics(region: Region, meter: Meter) -> Dict[str, float]:
    """Per-layer metrics read from the program's own registry (exact)."""
    total, samples, ops = region.total, region.samples, meter.ops
    out: Dict[str, float] = {}

    hits, misses = total(r"file_agent\.\w+\.cache\.hits"), total(r"file_agent\.\w+\.cache\.misses")
    out["agents.cache_hit_ratio"] = ratio(hits, hits + misses)
    out["agents.writebacks_per_op"] = ratio(total(r"file_agent\.\w+\.cache\.writebacks"), ops)

    shard_loads = region.each(r"naming_shard\.\d+\.ops")
    out["naming.shard_ops_per_op"] = ratio(sum(shard_loads), ops)
    out["naming.redirects_per_op"] = ratio(total(r"naming_shard\.redirects"), ops)
    out["naming.fan_outs_per_op"] = ratio(total(r"naming_shard\.fan_outs"), ops)
    out["naming.shard_load_max_over_mean"] = (
        ratio(max(shard_loads), statistics.fmean(shard_loads)) if shard_loads else 0.0
    )

    out["rpc.messages_per_op"] = ratio(total(r"rpc\.messages"), ops)
    out["rpc.retransmissions_per_op"] = ratio(total(r"rpc\.retransmissions"), ops)
    out["rpc.transmit_sim_us_p50"] = percentile(samples(r"rpc\.transmit_us"), 50)

    commits = total(r"transactions\.committed")
    commit_us = samples(r"transactions\.commit_us")
    applies_wal, applies_shadow = total(r"transactions\.wal_applies"), total(r"transactions\.shadow_applies")
    out["transactions.commit_sim_us_p50"] = percentile(commit_us, 50)
    out["transactions.commit_sim_us_p99"] = percentile(commit_us, 99)
    out["transactions.abort_share"] = ratio(total(r"transactions\.aborted"), total(r"transactions\.begun"))
    out["transactions.lock_waits_per_commit"] = ratio(total(r"lock_manager\.\d+\.waits"), commits)
    out["transactions.timeout_aborts_per_commit"] = ratio(total(r"lock_manager\.\d+\.timeout_aborts"), commits)
    out["transactions.wal_apply_share"] = ratio(applies_wal, applies_wal + applies_shadow)
    out["transactions.intentions_written_per_commit"] = ratio(total(r"transactions\.intentions_written"), commits)

    out["replication.replica_writes_per_write"] = ratio(total(r"replication\.replica_writes"), total(r"replication\.writes"))
    out["replication.failovers"] = float(total(r"replication\.failovers"))
    out["replication.transient_retries"] = float(total(r"replication\.transient_retries"))

    hits, misses = total(r"file_server\.\d+\.block_pool\.hits"), total(r"file_server\.\d+\.block_pool\.misses")
    out["file_service.block_pool_hit_ratio"] = ratio(hits, hits + misses)
    out["file_service.fit_loads_per_op"] = ratio(total(r"file_server\.\d+\.fit_loads"), ops)
    out["file_service.fit_stores_per_op"] = ratio(total(r"file_server\.\d+\.fit_stores"), ops)
    out["file_service.writebacks_per_op"] = ratio(total(r"file_server\.\d+\.block_pool\.writebacks"), ops)
    out["file_service.read_sim_us_p50"] = percentile(samples(r"file_server\.\d+\.read_us"), 50)
    out["file_service.write_sim_us_p50"] = percentile(samples(r"file_server\.\d+\.write_us"), 50)

    hits, misses = total(r"disk_cache\.\d+\.hits"), total(r"disk_cache\.\d+\.misses")
    queue_wait = samples(r"disk_service\.queue_wait_us")
    out["disk_service.track_cache_hit_ratio"] = ratio(hits, hits + misses)
    out["disk_service.allocations_per_op"] = ratio(total(r"disk_server\.\d+\.allocations"), ops)
    out["disk_service.frees_per_op"] = ratio(total(r"disk_server\.\d+\.frees"), ops)
    out["disk_service.gets_per_op"] = ratio(total(r"disk_server\.\d+\.gets"), ops)
    out["disk_service.puts_per_op"] = ratio(total(r"disk_server\.\d+\.puts"), ops)
    out["disk_service.table_refills_per_op"] = ratio(total(r"disk_server\.\d+\.table_refills"), ops)
    out["disk_service.queue_wait_sim_us_p50"] = percentile(queue_wait, 50)
    out["disk_service.queue_wait_sim_us_p99"] = percentile(queue_wait, 99)
    out["disk_service.get_sim_us_p50"] = percentile(samples(r"disk_server\.\d+\.get_us"), 50)
    out["disk_service.put_sim_us_p50"] = percentile(samples(r"disk_server\.\d+\.put_us"), 50)

    data_refs = total(_DATA_DISK + r"\.references")
    sectors_read = total(_DATA_DISK + r"\.sectors_read")
    readahead = total(_DATA_DISK + r"\.readahead_sectors")
    service_us = samples(_DATA_DISK + r"\.service_us")
    out["simdisk.data_refs_per_op"] = ratio(data_refs, ops)
    out["simdisk.stable_refs_per_op"] = ratio(total(_STABLE_DISK + r"\.references"), ops)
    out["simdisk.sectors_per_ref"] = ratio(sectors_read + total(_DATA_DISK + r"\.sectors_written"), data_refs)
    out["simdisk.service_sim_us_p50"] = percentile(service_us, 50)
    out["simdisk.service_sim_us_p99"] = percentile(service_us, 99)
    out["simdisk.utilization_max"] = ratio(max(region.each(_DATA_DISK + r"\.busy_us"), default=0), region.sim_us)
    out["simdisk.readahead_sector_share"] = ratio(readahead, readahead + sectors_read)
    out["simdisk.raid_parity_writes_per_write"] = ratio(total(r"raid\.\d+\.parity_writes"), total(r"raid\.\d+\.writes"))
    out["simdisk.raid_member_refs_per_op"] = ratio(total(r"disk\.\d+\.m\d+\.references"), ops)

    out["cluster.op_sim_p50_us"] = percentile(meter.sim_us, 50)
    by_class = meter.sim_us_by_class
    for label in ("metadata", "data"):
        for pct in (50, 99):
            out[f"cluster.{label}_op_sim_p{pct}_us"] = percentile(by_class.get(label, []), pct)
    return out


def span_layer_metrics(recorder: SpanRecorder, ops: int) -> Dict[str, float]:
    """Per-layer host-time metrics from the traced units."""
    out: Dict[str, float] = {}
    for layer, (calls, self_ns) in recorder.by_layer().items():
        out[f"{layer}.calls_per_op"] = ratio(calls, ops)
        out[f"{layer}.host_self_us_per_op"] = ratio(self_ns / 1000.0, ops)
        out[f"{layer}.host_self_share"] = ratio(self_ns, recorder.root_ns)
    for op in _DISK_ENTRY_POINTS:
        calls, self_ns, _total_ns = recorder.entry(f"DiskServer.{op}")
        out[f"disk_service.{op}_host_us_per_call"] = ratio(self_ns / 1000.0, calls)
    out["simkernel.events_per_op"] = ratio(recorder.entry("EventLoop.call_at")[0], ops)
    return out


def sim_metrics(workload: Workload, region: Region, meter: Meter) -> Dict[str, float]:
    """The simulated-clock end-to-end metrics over the fixed units."""
    cluster = workload.cluster
    sectors_written = region.total(r"disk\..*\.sectors_written")
    allocated = sum(
        server.n_fragments - server.free_fragments
        for server in cluster.disk_servers.values()
    )
    return {
        "sim_ops_per_s": ratio(meter.ops * 1_000_000, region.sim_us),
        "sim_op_mean_us": statistics.fmean(meter.sim_us),
        "sim_op_p99_us": percentile(meter.sim_us, 99),
        "disk_refs_per_op": ratio(region.disk_refs, meter.ops),
        "write_amp": ratio(sectors_written * SECTOR_SIZE, meter.user_bytes_written),
        "space_amp": ratio(allocated * FRAGMENT_SIZE, workload.live_bytes()),
    }


class Repeat:
    """One set-up plus warm-up plus the fixed units, and what it measured."""

    def __init__(self) -> None:
        self.workload: Optional[Workload] = None
        self.setup_s = 0.0
        self.unit_host_s: List[float] = []
        self.unit_ops: List[int] = []
        self.meter = Meter()
        self.sim: Dict[str, float] = {}
        self.registry_layers: Dict[str, float] = {}
        self.cpu_over_wall = 0.0

    @property
    def host_s(self) -> float:
        return sum(self.unit_host_s)


def timed_setup(name: str, seed: int, smoke: bool, recorder=None):
    """(workload on a fresh, populated, flushed cluster, host seconds it took)."""
    started = time.perf_counter()
    workload = WORKLOADS[name](seed, smoke=smoke, spans=recorder)
    workload.setup()
    return workload, time.perf_counter() - started


def run_repeat(
    name: str,
    seed: int,
    *,
    smoke: bool,
    recorder: Optional[SpanRecorder] = None,
    spans_path: Optional[str] = None,
) -> Repeat:
    """Set up a fresh cluster from the seed, warm up, run the fixed units."""
    repeat = Repeat()
    workload, repeat.setup_s = timed_setup(name, seed, smoke, recorder)
    repeat.workload = workload
    cluster = workload.cluster

    # Garbage from set-up must not be traversed (or collected) inside a
    # unit; collections the units themselves trigger stay on.
    gc.collect()
    gc.freeze()

    def run_unit(index: int, meter: Meter) -> float:
        plan = workload.plan_unit(index)
        started = time.perf_counter()
        workload.run_unit(plan, meter)
        cluster.flush_all()
        return time.perf_counter() - started

    run_unit(0, Meter())  # warm-up: fills caches, excluded from every metric
    meter = repeat.meter
    region = Region(cluster)
    cpu_started, wall_started = time.process_time(), time.perf_counter()
    for index in range(1, FIXED_UNITS + 1):
        if recorder is not None:
            recorder.enabled = True
            recorder.raw = [] if index == 1 else None
        ops_before = meter.ops
        repeat.unit_host_s.append(run_unit(index, meter))
        repeat.unit_ops.append(meter.ops - ops_before)
        if recorder is not None:
            recorder.enabled = False
            if index == 1 and spans_path is not None:
                recorder.write_raw(spans_path)
    wall = time.perf_counter() - wall_started
    repeat.cpu_over_wall = ratio(time.process_time() - cpu_started, wall)
    region.close()
    repeat.sim = sim_metrics(workload, region, meter)
    repeat.registry_layers = registry_layer_metrics(region, meter)
    gc.unfreeze()
    return repeat


def host_ops_per_s(repeats: List[Repeat]) -> float:
    """Ops per host second, each unit timed as its median over the repeats.

    Every repeat runs the same script from the same state, so unit k is
    the same work each time; the median across repeats discards a slow
    (or unusually fast) spell of the machine without favouring either.
    """
    seconds = sum(
        statistics.median(repeat.unit_host_s[k] for repeat in repeats)
        for k in range(FIXED_UNITS)
    )
    return ratio(sum(repeats[0].unit_ops), seconds)


def unit_host_iqr_share(repeats: List[Repeat]) -> float:
    """IQR over median of the per-unit throughputs of every unit run."""
    rates = [
        ops / seconds
        for repeat in repeats
        for ops, seconds in zip(repeat.unit_ops, repeat.unit_host_s)
    ]
    q1, _q2, q3 = statistics.quantiles(rates, n=4)
    return (q3 - q1) / statistics.median(rates)


def run_oracle(workload: Workload, *, fsck: bool) -> Dict[str, float]:
    """Read back, fsck, and (where the workload says so) crash-restart."""
    cluster = workload.cluster
    out = {
        "mismatches": float(workload.verify()),
        "fsck_errors": 0.0,
        "recovery.recover_sim_us": 0.0,
        "recovery.recover_host_ms": 0.0,
        "recovery.acked_lost": 0.0,
    }

    def fsck_all() -> int:
        return sum(
            len(fsck_volume(server).errors) for server in cluster.file_servers.values()
        )

    if fsck:
        out["fsck_errors"] += fsck_all()
    if workload.recovers:
        # Everything acknowledged was flushed at the last unit boundary,
        # so all of it must survive losing every server's volatile state.
        for volume_id in cluster.file_servers:
            cluster.fail_volume(volume_id)
        sim_started, started = cluster.clock.now_us, time.perf_counter()
        for volume_id in cluster.file_servers:
            cluster.restart_volume(volume_id)
        out["recovery.recover_host_ms"] = (time.perf_counter() - started) * 1000.0
        out["recovery.recover_sim_us"] = float(cluster.clock.now_us - sim_started)
        try:
            out["recovery.acked_lost"] = float(workload.verify())
        except RhodosError:
            out["recovery.acked_lost"] = float("inf")
        if fsck:
            out["fsck_errors"] += fsck_all()
    return out


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_untraced(name: str, seed: int, seconds: float, smoke: bool):
    """(repeats, set-up times, peak RSS) of an end-to-end run.

    At least MIN_REPEATS, then more until the budget of measured host
    time is spent: after a speed-up the same budget buys more repeats,
    which is what keeps the host numbers steady.
    """
    repeats: List[Repeat] = []
    setup_s: List[float] = []
    rss_mb = 0.0
    while len(repeats) < MIN_REPEATS or (
        sum(repeat.host_s for repeat in repeats) < seconds
        and len(repeats) < MAX_REPEATS
    ):
        if repeats:
            repeats[-1].workload = None  # free the cluster before the next
        repeats.append(run_repeat(name, seed, smoke=smoke))
        samples = [repeats[-1].setup_s]
        while sum(samples) < SETUP_BUDGET_S and len(samples) < MAX_SETUPS:
            samples.append(timed_setup(name, seed, smoke)[1])
        setup_s.extend(samples)
        if len(repeats) == MIN_REPEATS:
            # Read before extra repeats and the oracle (fsck builds
            # multi-megabyte lists) can raise the peak.
            rss_mb = peak_rss_mb()
    return repeats, setup_s, rss_mb


def measure_traced(name: str, seed: int, smoke: bool, out_dir: str):
    """(untraced reference repeat, traced repeat, recorder).

    The reference comes first, before any wrapper exists; then the same
    script again on a fresh cluster with the wrappers installed.
    """
    reference = run_repeat(name, seed, smoke=smoke)
    reference.workload = None
    recorder = SpanRecorder()
    recorder.install()
    os.makedirs(out_dir, exist_ok=True)
    try:
        traced = run_repeat(
            name, seed, smoke=smoke, recorder=recorder,
            spans_path=os.path.join(out_dir, f"spans_{name}.jsonl"),
        )
    finally:
        recorder.uninstall()
    return reference, traced, recorder


def run_workload(
    name: str, seed: int, *, seconds: float, trace: bool, smoke: bool, out_dir: str
) -> dict:
    """One benchmark run of one workload; returns the full result record."""
    recorder = None
    if trace:
        reference, last, recorder = measure_traced(name, seed, smoke, out_dir)
        untraced, repeats = [reference], [reference, last]
        setup_s = [repeat.setup_s for repeat in repeats]
        rss_mb = peak_rss_mb()
    else:
        repeats, setup_s, rss_mb = measure_untraced(name, seed, seconds, smoke)
        untraced, last = repeats, repeats[-1]

    # The traced pass replays a script whose simulated state the
    # untraced run already put through fsck; it skips that cost.
    oracle = run_oracle(last.workload, fsck=last.workload.fsck and not trace)
    attempted = last.meter.ops
    failed = last.meter.failed + int(
        oracle["mismatches"] + oracle["fsck_errors"] + oracle["recovery.acked_lost"]
    )
    last.workload = None

    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "host_peak_rss_mb": rss_mb,
        **last.sim,
    }
    per_layer = dict(last.registry_layers)
    per_layer["bench.host_ops_per_s"] = host_ops_per_s(untraced)
    per_layer.update(
        (key, value) for key, value in oracle.items() if key.startswith("recovery.")
    )
    per_layer["bench.units_run"] = float(FIXED_UNITS * len(untraced))
    per_layer["bench.unit_host_iqr_share"] = unit_host_iqr_share(untraced)
    per_layer["bench.cpu_over_wall"] = statistics.median(
        repeat.cpu_over_wall for repeat in untraced
    )
    stamps = untraced[0].meter.stamps
    per_layer["bench.host_op_p99_us"] = percentile(
        [later - earlier for earlier, later in zip(stamps, stamps[1:])], 99
    ) / 1000.0
    per_layer["bench.trace_overhead_share"] = 0.0
    top_layers: List[List] = []
    if trace:
        per_layer.update(span_layer_metrics(recorder, last.meter.ops))
        per_layer["bench.trace_overhead_share"] = (
            ratio(last.host_s, untraced[0].host_s) - 1.0
        )
        shares = sorted(
            ((per_layer[f"{layer}.host_self_share"], layer) for layer in LAYERS),
            reverse=True,
        )
        top_layers = [[layer, share] for share, layer in shares[:3]]

    problems = []
    if any(
        (repeat.sim, repeat.registry_layers) != (last.sim, last.registry_layers)
        for repeat in repeats
    ):
        problems.append(
            "tracing changed simulated metrics" if trace
            else "repeats from one seed gave different simulated metrics"
        )
    if failed:
        problems.append(f"{failed} failed operations or oracle mismatches")
    # Smoke populations fit in the caches, so simulated latencies can be 0.
    if not smoke and any(value == 0 for value in end_to_end.values()):
        problems.append("an end-to-end metric is zero")
    noisy = (
        per_layer["bench.unit_host_iqr_share"] > 0.10
        or per_layer["bench.cpu_over_wall"] < 0.9
    )
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_op_share": ratio(failed, attempted),
        "noisy": noisy,
        "samples": {
            "sim_ops": len(last.meter.sim_us),
            "repeats": len(repeats),
            "setups": len(setup_s),
        },
        "unit_host_ops_per_s": [
            [ops / s for ops, s in zip(repeat.unit_ops, repeat.unit_host_s)]
            for repeat in repeats
        ],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "top_layers": top_layers,
        "oracle": oracle,
    }
