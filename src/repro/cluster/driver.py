"""Closed-loop multi-client driver over the assembled cluster.

The paper measures its facility under *contention*: many client
machines issuing operations at once, each starting its next operation
the moment the previous one completes (a closed loop).

The repository has two multi-client drivers.  This one runs
``RhodosCluster.run_concurrent`` (E16, E20 and three of the benchmark's
workloads).  :class:`repro.simkernel.runner.InterleavedRunner`
round-robins transaction scripts on the one blocking clock, where every
charge advances global time, so its N clients are one client in time
(E7, E8, A2 and the ``txn_bank`` workload).  ROADMAP item 3 merges them.

:class:`ConcurrentDriver` is the overlapping one.  Each operation runs
inside a deferred-time :func:`~repro.common.frames.service_frame`:
the data plane executes synchronously (all caches, bitmaps, and file
state mutate immediately, in issue order), while the time plane accrues
on the frame cursor as each touched disk charges its own timeline.  The
operation's completion time is the frame cursor; the client's next
operation is scheduled on the shared event loop at that time.  Two
clients whose operations land on *different* disks therefore overlap —
aggregate time is the max of the disks' busy periods, not the sum —
while operations queueing on the *same* disk serialize through that
disk's ``busy_until``, exactly as a real drive would arbitrate them.

Determinism: clients are issued in index order at equal times (the
loop breaks ties by scheduling sequence), operations never consult wall
clock, and all latency accounting uses the simulated clock, so a run is
a pure function of (config, workload, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.common.frames import service_frame

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a module cycle
    from repro.cluster.system import RhodosCluster

#: One client operation: ``op(cluster, client_index, op_index)``.  Runs
#: synchronously inside a service frame; its disk charges are deferred.
#: It may return an operation-class label (e.g. ``"metadata"`` or
#: ``"data"``, lower-case ``[a-z0-9_]``) to have its latency recorded
#: per class as well as in the aggregate.
ClientOp = Callable[["RhodosCluster", int, int], Optional[str]]


@dataclass(slots=True)
class DriverReport:
    """What one closed-loop run measured (all times simulated).

    Attributes:
        n_clients: concurrent closed-loop clients.
        ops_completed: operations finished across all clients.
        elapsed_us: simulated span from first issue to last completion.
        op_latencies_us: per-operation latencies in completion order.
        latencies_by_class: the same latencies keyed by the class label
            the operation returned (operations returning None appear in
            the aggregate only) — how E20 prices name-resolution cost
            separately from data traffic.
    """

    n_clients: int
    ops_completed: int
    elapsed_us: int
    op_latencies_us: List[int]
    latencies_by_class: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def throughput_ops_per_s(self) -> float:
        """Aggregate completed operations per simulated second."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.ops_completed * 1_000_000 / self.elapsed_us

    @property
    def mean_latency_us(self) -> float:
        if not self.op_latencies_us:
            return 0.0
        return sum(self.op_latencies_us) / len(self.op_latencies_us)

    def class_ops(self, label: str) -> int:
        return len(self.latencies_by_class.get(label, []))

    def class_mean_latency_us(self, label: str) -> float:
        latencies = self.latencies_by_class.get(label)
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    def class_throughput_ops_per_s(self, label: str) -> float:
        """One class's completions per simulated second of the whole run."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.class_ops(label) * 1_000_000 / self.elapsed_us


class ConcurrentDriver:
    """Run ``n_clients`` closed loops of ``ops_per_client`` operations.

    Args:
        cluster: the assembled system under test.
        op: the operation body each client repeats.
        n_clients: concurrent clients (each a closed loop).
        ops_per_client: operations each client issues in sequence.
    """

    def __init__(
        self,
        cluster: "RhodosCluster",
        op: ClientOp,
        *,
        n_clients: int,
        ops_per_client: int,
    ) -> None:
        if n_clients < 1:
            raise ValueError("need at least one client")
        if ops_per_client < 1:
            raise ValueError("each client must issue at least one operation")
        self.cluster = cluster
        self.op = op
        self.n_clients = n_clients
        self.ops_per_client = ops_per_client
        self._latencies: List[int] = []
        self._by_class: Dict[str, List[int]] = {}

    def run(self) -> DriverReport:
        """Issue every client's loop and run the event loop to idle."""
        clock = self.cluster.clock
        loop = self.cluster.loop
        start_us = clock.now_us
        self._latencies = []
        self._by_class = {}
        for client in range(self.n_clients):
            self._schedule(client, 0, at_us=start_us)
        loop.run_until_idle()
        return DriverReport(
            n_clients=self.n_clients,
            ops_completed=len(self._latencies),
            elapsed_us=clock.now_us - start_us,
            op_latencies_us=self._latencies,
            latencies_by_class=self._by_class,
        )

    # ------------------------------------------------------- internal

    def _schedule(self, client: int, op_index: int, *, at_us: int) -> None:
        self.cluster.loop.call_at(
            at_us, lambda: self._issue(client, op_index)
        )

    def _issue(self, client: int, op_index: int) -> None:
        clock = self.cluster.clock
        begin_us = clock.now_us
        with service_frame(clock) as frame:
            label = self.op(self.cluster, client, op_index)
            end_us = max(frame.cursor_us, begin_us)
        latency_us = end_us - begin_us
        self._latencies.append(latency_us)
        self.cluster.metrics.observe("cluster.op_us", latency_us)
        self.cluster.metrics.add("cluster.ops_completed")
        if label is not None:
            self._by_class.setdefault(label, []).append(latency_us)
            self.cluster.metrics.observe(f"cluster.{label}_op_us", latency_us)
        if op_index + 1 < self.ops_per_client:
            # The closed loop: the next operation issues the instant
            # this one's modelled service completes.
            self._schedule(client, op_index + 1, at_us=end_us)

    def __repr__(self) -> str:
        return (
            f"ConcurrentDriver(clients={self.n_clients}, "
            f"ops_per_client={self.ops_per_client})"
        )
