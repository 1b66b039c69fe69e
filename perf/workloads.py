"""The five benchmark workloads.

Each workload is a closed-loop generator over the *public* API of an
assembled :class:`~repro.cluster.system.RhodosCluster`.  One instance is
one set-up: ``setup()`` builds a fresh cluster from the seed and
populates it; ``plan_unit(k)`` draws unit ``k``'s op script from the
seed (outside the timed region); ``run_unit(plan, meter)`` issues it.

Every workload keeps a shadow model of what it wrote.  Reads are
compared with it as they happen and ``verify()`` reads everything back
afterwards, so a wrong byte is a failed operation, not a silent one.

Why these five, and what each is expected to move, is in
``perf/README.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
from statistics import NormalDist
from time import perf_counter_ns
from typing import Dict, List, Optional

from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.common.errors import RhodosError
from repro.file_service.attributes import LockingLevel
from repro.naming.attributed import AttributedName
from repro.rpc.bus import FaultProfile
from repro.simdisk.geometry import DiskGeometry
from repro.simkernel.runner import InterleavedRunner
from repro.transactions.lock_manager import TimeoutPolicy
from repro.workloads.files import FileSizeDistribution, deterministic_payload

KIB = 1024
#: Source of write payloads: ops write slices of one seeded random pool,
#: so payload generation costs nothing inside the timed region.
POOL_BYTES = 256 * KIB


class Meter:
    """What the measured units of one pass produced."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.user_bytes_written = 0
        #: simulated latency of every op (per transaction in txn_bank)
        self.sim_us: List[int] = []
        #: the same latencies by class, for workloads that label ops
        self.sim_us_by_class: Dict[str, List[int]] = {}
        #: host clock (ns) at the issue of every call the generator made;
        #: bench.host_op_p99_us is the p99 gap between consecutive ones
        self.stamps: List[int] = []


class _NoSpans:
    """Stands in for a SpanRecorder when tracing is off."""

    request = -1


class Workload:
    """Base: seed handling and the pieces every workload shares."""

    name = ""
    #: whether the oracle also crashes and restarts every volume
    recovers = False
    #: whether the oracle runs fsck at full size.  fsck_volume costs
    #: ~0.15 s of host time per file found (it expands every empty
    #: double-indirect slot), so workloads with many files only run it
    #: under --smoke, where populations are small.
    fsck_full_size = True

    def __init__(self, seed: int, *, smoke: bool = False, spans=None) -> None:
        self.seed = seed
        self.smoke = smoke
        self.spans = spans if spans is not None else _NoSpans()
        self.cluster: Optional[RhodosCluster] = None
        self.ops_issued = 0
        self.fsck = smoke or self.fsck_full_size
        #: data-disk geometry: 1 GB, or 64 MB so that a smoke fsck is quick
        self.geometry = DiskGeometry.small() if smoke else DiskGeometry.medium()
        self.pool = self.rng("pool").randbytes(POOL_BYTES)

    def rng(self, purpose) -> random.Random:
        # A str seed is hashed with SHA-512, independent of PYTHONHASHSEED.
        return random.Random(f"{self.name}/{self.seed}/{purpose}")

    def payload(self, rng: random.Random, n_bytes: int) -> int:
        """Offset of an ``n_bytes`` slice of the pool."""
        return rng.randrange(POOL_BYTES - n_bytes)

    # -- interface
    def config(self) -> ClusterConfig:
        raise NotImplementedError

    def populate(self) -> None:
        raise NotImplementedError

    def plan_unit(self, index: int):
        raise NotImplementedError

    def run_unit(self, plan, meter: Meter) -> None:
        raise NotImplementedError

    def verify(self) -> int:
        """Read everything back; returns how many items mismatch."""
        raise NotImplementedError

    def live_bytes(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        self.cluster = RhodosCluster(self.config())
        self.populate()
        self.cluster.flush_all()


# ---------------------------------------------------------------- steady_rw


class SteadyRW(Workload):
    """4 clients, 70% 8 KiB pread / 30% 4 KiB pwrite, 80/20 skew."""

    name = "steady_rw"
    CLIENTS = 4
    FILES = 16
    FILE_BYTES = 640 * KIB
    READ_BYTES = 8 * KIB
    WRITE_BYTES = 4 * KIB
    CLIENT_CACHE_BLOCKS = 64
    SERVER_CACHE_BLOCKS = 32
    DISK_CACHE_TRACKS = 8

    def __init__(self, seed, **kwargs) -> None:
        super().__init__(seed, **kwargs)
        self.ops_per_client = 100 if self.smoke else 1200
        self.files = 4 if self.smoke else self.FILES
        self.file_bytes = 64 * KIB if self.smoke else self.FILE_BYTES

    def config(self) -> ClusterConfig:
        return ClusterConfig(
            n_disks=4,
            geometry=self.geometry,
            placement_policy="round_robin",
            client_cache_blocks=self.CLIENT_CACHE_BLOCKS,
            server_cache_blocks=self.SERVER_CACHE_BLOCKS,
            disk_cache_tracks=self.DISK_CACHE_TRACKS,
            fault_profile=FaultProfile.reliable(),
            seed=self.seed,
        )

    def populate(self) -> None:
        agent = self.cluster.machine.file_agent
        rng = self.rng("setup")
        self.shadow = [
            bytearray(rng.randbytes(self.file_bytes)) for _ in range(self.files)
        ]
        self.descriptors = []
        for index, content in enumerate(self.shadow):
            descriptor = agent.create(AttributedName.file(f"/steady/f{index}"))
            agent.pwrite(descriptor, bytes(content), 0)
            self.descriptors.append(descriptor)

    def _skewed_slot(self, rng: random.Random, n_slots: int) -> int:
        """80% of accesses go to the first 20% of a file's slots."""
        n_hot = max(1, n_slots // 5)
        if rng.random() < 0.8:
            return rng.randrange(n_hot)
        return n_hot + rng.randrange(n_slots - n_hot)

    def plan_unit(self, index: int):
        rng = self.rng(index)
        plan = []
        for _client in range(self.CLIENTS):
            script = []
            for _ in range(self.ops_per_client):
                file_index = rng.randrange(self.files)
                if rng.random() < 0.3:
                    slot = self._skewed_slot(rng, self.file_bytes // self.WRITE_BYTES)
                    script.append(
                        (file_index, slot * self.WRITE_BYTES,
                         self.payload(rng, self.WRITE_BYTES))
                    )
                else:
                    slot = self._skewed_slot(rng, self.file_bytes // self.READ_BYTES)
                    script.append((file_index, slot * self.READ_BYTES, -1))
            plan.append(script)
        return plan

    def run_unit(self, plan, meter: Meter) -> None:
        agent = self.cluster.machine.file_agent
        spans, pool, shadow, descriptors = (
            self.spans, self.pool, self.shadow, self.descriptors
        )
        base, per_client = self.ops_issued, self.ops_per_client
        read_bytes, write_bytes = self.READ_BYTES, self.WRITE_BYTES
        stamps = meter.stamps

        def client_op(_cluster, client, op_index):
            file_index, offset, source = plan[client][op_index]
            spans.request = base + client * per_client + op_index
            stamps.append(perf_counter_ns())
            try:
                if source >= 0:
                    data = pool[source:source + write_bytes]
                    agent.pwrite(descriptors[file_index], data, offset)
                    shadow[file_index][offset:offset + write_bytes] = data
                    meter.user_bytes_written += write_bytes
                else:
                    data = agent.pread(descriptors[file_index], read_bytes, offset)
                    if data != shadow[file_index][offset:offset + read_bytes]:
                        meter.failed += 1
            except RhodosError:
                meter.failed += 1
            return "data"

        report = self.cluster.run_concurrent(
            client_op, n_clients=self.CLIENTS, ops_per_client=per_client
        )
        meter.ops += report.ops_completed
        meter.sim_us.extend(report.op_latencies_us)
        self.ops_issued += self.CLIENTS * per_client

    def verify(self) -> int:
        agent = self.cluster.machine.file_agent
        return sum(
            agent.pread(descriptor, len(content), 0) != content
            for descriptor, content in zip(self.descriptors, self.shadow)
        )

    def live_bytes(self) -> int:
        return sum(len(content) for content in self.shadow)


# -------------------------------------------------------------------- churn


def stratified_sizes(
    distribution: FileSizeDistribution, rng: random.Random, count: int
) -> List[int]:
    """``count`` sizes, one from each equal-probability stratum, shuffled.

    The log-normal's mean is carried by its rare large files, so plain
    sampling makes the bytes a unit writes swing by tens of percent from
    seed to seed.  Stratifying keeps the seed's say over order and
    placement while every seed writes nearly the same volume.
    """
    normal = NormalDist(math.log(distribution.median_bytes), distribution.sigma)
    strata = list(range(count))
    rng.shuffle(strata)
    return [
        max(
            distribution.min_bytes,
            min(
                distribution.max_bytes,
                int(math.exp(normal.inv_cdf((stratum + rng.random()) / count))),
            ),
        )
        for stratum in strata
    ]


class Churn(Workload):
    """One client creating, appending, reading and deleting files."""

    name = "churn"
    recovers = True
    fsck_full_size = False  # 300 files: ~45 s per fsck pass
    SIZES = FileSizeDistribution(max_bytes=512 * KIB)
    APPENDS = FileSizeDistribution(median_bytes=4 * KIB, sigma=1.0, max_bytes=64 * KIB)

    def __init__(self, seed, **kwargs) -> None:
        super().__init__(seed, **kwargs)
        self.population = 6 if self.smoke else 300
        self.ops_per_unit = 25 if self.smoke else 400

    def config(self) -> ClusterConfig:
        return ClusterConfig(
            n_disks=2,
            placement_policy="round_robin",
            geometry=self.geometry,
            seed=self.seed,
        )

    def populate(self) -> None:
        self.agent = self.cluster.machine.file_agent
        self.shadow: Dict[int, bytes] = {}
        self.live: List[int] = []  # ids, for O(1) seeded picks
        self.slot_of: Dict[int, int] = {}
        self.next_id = 0
        for size in stratified_sizes(self.SIZES, self.rng("setup"), self.population):
            self._create(size)

    @staticmethod
    def _name(file_id: int) -> AttributedName:
        return AttributedName.file(f"/churn/f{file_id}")

    def _create(self, size: int) -> int:
        file_id = self.next_id
        self.next_id += 1
        content = deterministic_payload(self.seed + file_id, size)
        descriptor = self.agent.create(self._name(file_id))
        self.agent.write(descriptor, content)
        self.agent.close(descriptor)
        self.shadow[file_id] = content
        self.slot_of[file_id] = len(self.live)
        self.live.append(file_id)
        return size

    def _delete(self, file_id: int) -> None:
        self.agent.delete(self._name(file_id))
        del self.shadow[file_id]
        slot = self.slot_of.pop(file_id)
        last = self.live.pop()
        if last != file_id:
            self.live[slot] = last
            self.slot_of[last] = slot

    def plan_unit(self, index: int):
        """(kind and pick rolls per op, sizes for creates, sizes for appends).

        A quarter of the ops are creates and a quarter appends; each kind
        takes its sizes in turn from its own stratified list (cycled, if
        the population rule turns more ops into creates than expected).
        """
        rng = self.rng(index)
        rolls = [(rng.random(), rng.random()) for _ in range(self.ops_per_unit)]
        per_kind = max(1, self.ops_per_unit // 4)
        return (
            rolls,
            stratified_sizes(self.SIZES, rng, per_kind),
            stratified_sizes(self.APPENDS, rng, per_kind),
        )

    def run_unit(self, plan, meter: Meter) -> None:
        agent, clock, spans = self.agent, self.cluster.clock, self.spans
        band = max(2, self.population // 30)
        rolls, create_sizes, append_sizes = plan
        create_sizes = itertools.cycle(create_sizes)
        append_sizes = itertools.cycle(append_sizes)
        for kind_roll, pick_roll in rolls:
            kind = int(kind_roll * 4)  # create, append, read-all, delete
            # Hold the population near its target so the run can be
            # extended without filling the disk or emptying the set.
            if kind == 0 and len(self.live) >= self.population + band:
                kind = 3
            elif kind == 3 and len(self.live) <= self.population - band:
                kind = 0
            file_id = self.live[int(pick_roll * len(self.live))]
            spans.request = self.ops_issued
            self.ops_issued += 1
            sim_started = clock.now_us
            meter.stamps.append(perf_counter_ns())
            try:
                if kind == 0:
                    meter.user_bytes_written += self._create(next(create_sizes))
                elif kind == 1:
                    append_size = next(append_sizes)
                    old = self.shadow[file_id]
                    extra = deterministic_payload(
                        self.seed + file_id + len(old), append_size
                    )
                    descriptor = agent.open(self._name(file_id))
                    agent.pwrite(descriptor, extra, len(old))
                    agent.close(descriptor)
                    self.shadow[file_id] = old + extra
                    meter.user_bytes_written += append_size
                elif kind == 2:
                    expected = self.shadow[file_id]
                    descriptor = agent.open(self._name(file_id))
                    data = agent.read(descriptor, len(expected))
                    agent.close(descriptor)
                    if data != expected:
                        meter.failed += 1
                else:
                    self._delete(file_id)
            except RhodosError:
                meter.failed += 1
            meter.sim_us.append(clock.now_us - sim_started)
            meter.ops += 1

    def verify(self) -> int:
        bad = 0
        for file_id in self.live:
            expected = self.shadow[file_id]
            descriptor = self.agent.open(self._name(file_id))
            bad += self.agent.read(descriptor, len(expected) + 1) != expected
            self.agent.close(descriptor)
        return bad

    def live_bytes(self) -> int:
        return sum(len(content) for content in self.shadow.values())


# --------------------------------------------------------------- meta_storm


class MetaStorm(Workload):
    """64 clients: 70% resolve, 5% bind+unbind, 25% 1 KiB pwrite."""

    name = "meta_storm"
    CLIENTS = 64
    SHARDS = 8
    SHARD_SERVICE_US = 350
    TTYS = 256
    FILES = 32
    WRITE_BYTES = 1 * KIB
    FILE_BYTES = 16 * KIB

    def __init__(self, seed, **kwargs) -> None:
        super().__init__(seed, **kwargs)
        self.ops_per_client = 20 if self.smoke else 256
        self.files = 4 if self.smoke else self.FILES

    def config(self) -> ClusterConfig:
        return ClusterConfig(
            n_disks=4,
            geometry=self.geometry,
            n_shards=self.SHARDS,
            shard_service_us=self.SHARD_SERVICE_US,
            placement_policy="round_robin",
            # As in E20: no client cache, so every data op crosses the bus.
            client_cache_blocks=0,
            fault_profile=FaultProfile.reliable(),
            seed=self.seed,
        )

    def populate(self) -> None:
        agent = self.cluster.machine.file_agent
        naming = self.cluster.naming
        rng = self.rng("setup")
        # Names carry ``path`` — the attribute the router hashes — so a
        # resolve goes to one shard instead of fanning out to all.
        self.ttys = [
            AttributedName.tty(f"dev{index}", path=f"/dev/tty{index}", room=f"r{index % 8}")
            for index in range(self.TTYS)
        ]
        self.targets = [f"host{index % 4}:/dev/tty{index}" for index in range(self.TTYS)]
        for name, target in zip(self.ttys, self.targets):
            naming.bind(name, target)
        self.shadow = [
            bytearray(rng.randbytes(self.FILE_BYTES)) for _ in range(self.files)
        ]
        self.descriptors = []
        for index, content in enumerate(self.shadow):
            descriptor = agent.create(AttributedName.file(f"/storm/f{index}"))
            agent.pwrite(descriptor, bytes(content), 0)
            self.descriptors.append(descriptor)
        self.names_bound = len(naming)

    def plan_unit(self, index: int):
        rng = self.rng(index)
        plan = []
        for _client in range(self.CLIENTS):
            script = []
            for _ in range(self.ops_per_client):
                roll = rng.random()
                if roll < 0.70:
                    script.append((0, rng.randrange(self.TTYS), 0))
                elif roll < 0.75:
                    script.append((1, rng.randrange(1 << 30), 0))
                else:
                    script.append(
                        (2, rng.randrange(self.files), self.payload(rng, self.WRITE_BYTES))
                    )
            plan.append(script)
        return plan

    def run_unit(self, plan, meter: Meter) -> None:
        agent, naming = self.cluster.machine.file_agent, self.cluster.naming
        spans, pool, shadow = self.spans, self.pool, self.shadow
        base, per_client = self.ops_issued, self.ops_per_client
        write_bytes = self.WRITE_BYTES
        stamps = meter.stamps

        def client_op(_cluster, client, op_index):
            kind, pick, source = plan[client][op_index]
            spans.request = base + client * per_client + op_index
            stamps.append(perf_counter_ns())
            label = "metadata"
            try:
                if kind == 0:
                    if naming.resolve(self.ttys[pick]) != self.targets[pick]:
                        meter.failed += 1
                elif kind == 1:
                    name = AttributedName.tty(
                        f"tmp{client}", path=f"/tmp/c{client}/{pick}"
                    )
                    target = f"host{client}:/tmp/{pick}"
                    naming.bind(name, target)
                    if naming.unbind(name) != target:
                        meter.failed += 1
                else:
                    label = "data"
                    offset = (client % 16) * write_bytes
                    data = pool[source:source + write_bytes]
                    agent.pwrite(self.descriptors[pick], data, offset)
                    shadow[pick][offset:offset + write_bytes] = data
                    meter.user_bytes_written += write_bytes
            except RhodosError:
                meter.failed += 1
            return label

        report = self.cluster.run_concurrent(
            client_op, n_clients=self.CLIENTS, ops_per_client=per_client
        )
        meter.ops += report.ops_completed
        meter.sim_us.extend(report.op_latencies_us)
        for label, latencies in report.latencies_by_class.items():
            meter.sim_us_by_class.setdefault(label, []).extend(latencies)
        self.ops_issued += self.CLIENTS * per_client

    def verify(self) -> int:
        agent, naming = self.cluster.machine.file_agent, self.cluster.naming
        bad = sum(
            agent.pread(descriptor, len(content), 0) != content
            for descriptor, content in zip(self.descriptors, self.shadow)
        )
        bad += sum(
            naming.resolve(name) != target
            for name, target in zip(self.ttys, self.targets)
        )
        # Every temporary name was unbound again.
        bad += len(naming) != self.names_bound
        return bad

    def live_bytes(self) -> int:
        return sum(len(content) for content in self.shadow)


# ----------------------------------------------------------------- txn_bank

_BALANCE = struct.Struct("<q")


class TxnBank(Workload):
    """8 interleaved clients doing two-account transfers."""

    name = "txn_bank"
    recovers = True
    CLIENTS = 8
    ACCOUNTS = 4096
    HOT_ACCOUNTS = 64
    HOT_SHARE = 0.5
    INITIAL_BALANCE = 1000
    BANK = AttributedName.file("/bank")

    def __init__(self, seed, **kwargs) -> None:
        super().__init__(seed, **kwargs)
        self.transfers_per_client = 4 if self.smoke else 32

    def config(self) -> ClusterConfig:
        return ClusterConfig(
            # The 32 KiB accounts file needs no more; on the 1 GB default
            # one commit costs ~20 ms of host time in the bitmap walk and
            # the 1,000 commits p99 needs would not fit the run budget.
            geometry=DiskGeometry.small(),
            timeout_policy=TimeoutPolicy(lt_us=500_000, max_renewals=3),
            seed=self.seed,
        )

    def populate(self) -> None:
        self.host = self.cluster.machine.transactions
        self.shadow = [self.INITIAL_BALANCE] * self.ACCOUNTS
        tid = self.host.tbegin()
        descriptor = self.host.tcreate(
            tid, self.BANK, locking_level=LockingLevel.RECORD
        )
        self.host.twrite(
            tid, descriptor, _BALANCE.pack(self.INITIAL_BALANCE) * self.ACCOUNTS
        )
        self.host.tend(tid)

    def plan_unit(self, index: int):
        rng = self.rng(index)
        plan = []
        for _client in range(self.CLIENTS):
            pairs = []
            for _ in range(self.transfers_per_client):
                pool = (
                    self.HOT_ACCOUNTS if rng.random() < self.HOT_SHARE else self.ACCOUNTS
                )
                source = rng.randrange(pool)
                target = rng.randrange(pool)
                while target == source:
                    target = rng.randrange(pool)
                pairs.append((source, target))
            plan.append(pairs)
        return plan

    def _runner(self) -> InterleavedRunner:
        """Wired to the lock-timeout machinery as benchmarks/_helpers does."""
        coordinator, clock = self.cluster.coordinator, self.cluster.clock

        def on_stall(_now):
            next_expiry = coordinator.next_expiry_us()
            if next_expiry is None:
                return False
            clock.advance_to(next_expiry)
            coordinator.expire_locks(clock.now_us)
            return True

        return InterleavedRunner(
            clock,
            think_time_us=100,
            on_stall=on_stall,
            on_step=coordinator.expire_locks,
        )

    def _client(self, pairs, first_request: int, meter: Meter):
        """A script the runner restarts after an abort; one run = one transfer."""
        host, clock, spans, shadow = self.host, self.cluster.clock, self.spans, self.shadow
        size = _BALANCE.size
        state = {"done": 0, "started_us": None}

        def step(request, call):
            def thunk():
                spans.request = request
                meter.stamps.append(perf_counter_ns())
                return call()
            return thunk

        def script():
            source, target = pairs[state["done"]]
            request = first_request + state["done"]
            if state["started_us"] is None:
                state["started_us"] = clock.now_us
            tid = yield step(request, host.tbegin)
            descriptor = yield step(request, lambda: host.topen(tid, self.BANK))
            # (source, target) order, not ascending: opposing transfers
            # can deadlock, which the timeout policy must resolve.
            raw_source = yield step(request, lambda: host.tpread(
                tid, descriptor, size, source * size, for_update=True))
            raw_target = yield step(request, lambda: host.tpread(
                tid, descriptor, size, target * size, for_update=True))
            new_source = _BALANCE.unpack(raw_source)[0] - 1
            new_target = _BALANCE.unpack(raw_target)[0] + 1
            yield step(request, lambda: host.tpwrite(
                tid, descriptor, _BALANCE.pack(new_source), source * size))
            yield step(request, lambda: host.tpwrite(
                tid, descriptor, _BALANCE.pack(new_target), target * size))
            yield step(request, lambda: host.tend(tid))
            if (new_source, new_target) != (shadow[source] - 1, shadow[target] + 1):
                meter.failed += 1
            shadow[source] -= 1
            shadow[target] += 1
            meter.sim_us.append(clock.now_us - state["started_us"])
            meter.user_bytes_written += 2 * size
            state["started_us"] = None
            state["done"] += 1

        return script

    def run_unit(self, plan, meter: Meter) -> None:
        runner = self._runner()
        for client, pairs in enumerate(plan):
            runner.add_client(
                self._client(
                    pairs, self.ops_issued + client * len(pairs), meter
                ),
                repeats=len(pairs),
            )
        expected = sum(len(pairs) for pairs in plan)
        committed = len(meter.sim_us)
        runner.run()
        committed = len(meter.sim_us) - committed
        meter.ops += expected
        meter.failed += expected - committed  # a client gave up restarting
        self.ops_issued += expected

    def verify(self) -> int:
        host = self.host
        tid = host.tbegin()
        descriptor = host.topen(tid, self.BANK)
        raw = host.tpread(tid, descriptor, self.ACCOUNTS * _BALANCE.size, 0)
        host.tend(tid)
        balances = [value for (value,) in _BALANCE.iter_unpack(raw)]
        bad = sum(got != want for got, want in zip(balances, self.shadow))
        bad += len(balances) != self.ACCOUNTS
        bad += sum(balances) != self.ACCOUNTS * self.INITIAL_BALANCE  # conservation
        return bad

    def live_bytes(self) -> int:
        return self.ACCOUNTS * _BALANCE.size


# ---------------------------------------------------------------- repl_raid


class ReplRaid(Workload):
    """One client on degree-2 replicated files over raid5 volumes."""

    name = "repl_raid"
    fsck_full_size = False  # 80 replica files on 1.5M-fragment arrays
    FILES = 40
    READ_BYTES = 8 * KIB
    WRITE_BYTES = 4 * KIB
    SERVER_CACHE_BLOCKS = 64
    DISK_CACHE_TRACKS = 16

    def __init__(self, seed, **kwargs) -> None:
        super().__init__(seed, **kwargs)
        self.ops_per_unit = 60 if self.smoke else 1300
        self.files = 4 if self.smoke else self.FILES
        self.file_bytes = 32 * KIB if self.smoke else 128 * KIB

    def config(self) -> ClusterConfig:
        return ClusterConfig(
            n_disks=3,
            raid_level="raid5",
            raid_members=4,
            replication_degree=2,
            geometry=self.geometry,
            server_cache_blocks=self.SERVER_CACHE_BLOCKS,
            disk_cache_tracks=self.DISK_CACHE_TRACKS,
            seed=self.seed,
        )

    def populate(self) -> None:
        replication = self.cluster.replication
        rng = self.rng("setup")
        self.names = [
            AttributedName.file(f"/repl/f{index}") for index in range(self.files)
        ]
        self.shadow = [
            bytearray(rng.randbytes(self.file_bytes)) for _ in range(self.files)
        ]
        for name, content in zip(self.names, self.shadow):
            replication.create(name)
            replication.write(name, 0, bytes(content))

    def plan_unit(self, index: int):
        rng = self.rng(index)
        plan = []
        for _ in range(self.ops_per_unit):
            file_index = rng.randrange(self.files)
            if rng.random() < 0.5:
                slot = rng.randrange(self.file_bytes // self.WRITE_BYTES)
                plan.append(
                    (file_index, slot * self.WRITE_BYTES,
                     self.payload(rng, self.WRITE_BYTES))
                )
            else:
                slot = rng.randrange(self.file_bytes // self.READ_BYTES)
                plan.append((file_index, slot * self.READ_BYTES, -1))
        return plan

    def run_unit(self, plan, meter: Meter) -> None:
        replication, clock, spans = self.cluster.replication, self.cluster.clock, self.spans
        pool, shadow, names = self.pool, self.shadow, self.names
        read_bytes, write_bytes = self.READ_BYTES, self.WRITE_BYTES
        for file_index, offset, source in plan:
            spans.request = self.ops_issued
            self.ops_issued += 1
            sim_started = clock.now_us
            meter.stamps.append(perf_counter_ns())
            try:
                if source >= 0:
                    data = pool[source:source + write_bytes]
                    replication.write(names[file_index], offset, data)
                    shadow[file_index][offset:offset + write_bytes] = data
                    meter.user_bytes_written += write_bytes
                else:
                    data = replication.read(names[file_index], offset, read_bytes)
                    if data != shadow[file_index][offset:offset + read_bytes]:
                        meter.failed += 1
            except RhodosError:
                meter.failed += 1
            meter.sim_us.append(clock.now_us - sim_started)
            meter.ops += 1

    def verify(self) -> int:
        replication, servers = self.cluster.replication, self.cluster.file_servers
        bad = 0
        for name, content in zip(self.names, self.shadow):
            bad += replication.read(name, 0, len(content)) != content
            # Read-one would hide a diverged copy: check every replica.
            for replica in replication.lookup(name).replicas:
                data = servers[replica.volume_id].read(replica, 0, len(content))
                bad += data != content
        return bad

    def live_bytes(self) -> int:
        return sum(len(content) for content in self.shadow)


WORKLOADS = {
    cls.name: cls for cls in (SteadyRW, Churn, MetaStorm, TxnBank, ReplRaid)
}
