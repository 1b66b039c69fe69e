"""E12 — idempotent operations under message faults (section 3).

Paper claim: "Certain errors caused by computer failures and
communication delays may lead to repeated execution of some operations.
However, their repetition in RHODOS does not produce any uncertain
effect" — because every exchanged operation is idempotent and the file
agent tracks per-request state, leaving the file service "nearly"
stateless.

The same write/read workload runs over fault-free and increasingly
lossy/duplicating/**reordering** message buses.  Reordered requests are
parked in a delayed-delivery queue and execute only after later
operations' handlers — true out-of-order execution, the strongest case
the positional-idempotency argument must absorb.  Expected shape:
byte-identical final file state at every fault rate, with overhead
(retransmissions, duplicate and reordered executions) growing with the
rate.
"""

from _helpers import print_table
from repro.cluster.config import ClusterConfig
from repro.cluster.system import RhodosCluster
from repro.naming.attributed import AttributedName
from repro.rpc.bus import FaultProfile
from repro.simdisk.geometry import DiskGeometry

RATES = [0.0, 0.05, 0.15, 0.30]
N_WRITES = 30


def run_rate(rate: float, seed: int = 1):
    cluster = RhodosCluster(
        ClusterConfig(
            geometry=DiskGeometry.small(),
            fault_profile=FaultProfile(
                request_loss=rate, reply_loss=rate, duplication=rate,
                reorder=rate / 2,
            ),
            seed=seed,
            client_cache_blocks=0,  # every operation really crosses the bus
        )
    )
    agent = cluster.machine.file_agent
    descriptor = agent.create(AttributedName.file("/target"))
    for index in range(N_WRITES):
        agent.pwrite(descriptor, bytes([index + 1]) * 211, index * 307)
    agent.close(descriptor)
    cluster.bus.drain_delayed()  # no write may stay parked forever
    descriptor = agent.open(AttributedName.file("/target"))
    state = agent.read(descriptor, N_WRITES * 307 + 211)
    agent.close(descriptor)
    return {
        "state": state,
        "messages": cluster.metrics.get("rpc.messages"),
        "retransmissions": cluster.metrics.get("rpc.retransmissions"),
        "duplicates": cluster.metrics.get("rpc.duplicated_executions"),
        "reordered": cluster.metrics.get("rpc.reordered_executions"),
        "sim_ms": cluster.clock.now_ms,
    }


def run_all():
    return [(rate, run_rate(rate)) for rate in RATES]


def test_e12_idempotency():
    results = run_all()
    reference_state = results[0][1]["state"]
    print_table(
        f"E12  {N_WRITES}-write workload under loss + duplication + reordering",
        [
            "fault rate",
            "messages",
            "retransmissions",
            "duplicate executions",
            "reordered executions",
            "sim time (ms)",
            "final state",
        ],
        [
            (
                f"{rate:.0%}",
                row["messages"],
                row["retransmissions"],
                row["duplicates"],
                row["reordered"],
                f"{row['sim_ms']:.0f}",
                "identical" if row["state"] == reference_state else "DIVERGED",
            )
            for rate, row in results
        ],
    )
    # The claim: repetition never produces an uncertain effect.
    for rate, row in results:
        assert row["state"] == reference_state, f"state diverged at {rate:.0%}"
    # Overhead grows with the fault rate; the faulty runs really did
    # retransmit and re-execute.
    retransmissions = [row["retransmissions"] for _, row in results]
    assert retransmissions[0] == 0
    assert retransmissions[-1] > retransmissions[1] > 0
    assert results[-1][1]["duplicates"] > 0
    # Reordered (delayed, then re-executed out of program order)
    # requests really happened — and still left the state identical.
    assert results[0][1]["reordered"] == 0
    assert results[-1][1]["reordered"] > 0
