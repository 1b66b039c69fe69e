"""Property tests: the happens-before graph is sound by construction.

Whatever sequence of task operations a run performs — opens (bound or
not), closes, rejoins, barriers, resource chains, accesses — the
monitor must come out of it with a graph the detector can trust:
every edge forward (acyclic), stamps non-decreasing along edges,
``validate`` empty, and reachability consistent with the edge list.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.happens_before import HBGraph, detect, validate
from repro.analysis.monitor import AccessMonitor


@st.composite
def monitor_scripts(draw):
    """A random but *legal* sequence of monitor operations."""
    n_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n_ops):
        ops.append(
            draw(
                st.sampled_from(
                    ["open", "open_unbound", "close", "rejoin", "barrier",
                     "chain", "read", "write", "tick"]
                )
            )
        )
    return ops


def run_script(ops) -> AccessMonitor:
    clock = {"now": 0}
    monitor = AccessMonitor(now_fn=lambda: clock["now"])
    resources = [object(), object()]
    shared = [object(), object(), object()]
    opened = 0
    for index, op in enumerate(ops):
        if op == "open":
            monitor.open_task(f"t{index}")
            opened += 1
        elif op == "open_unbound":
            # after= any subset of existing tasks: spawn-style ordering
            after = tuple(
                tid for tid in range(len(monitor.task_labels))
                if (index + tid) % 3 == 0
            )
            monitor.open_task(f"e{index}", after=after, bind=False)
            opened += 1
        elif op == "close":
            if opened:
                monitor.close_task()
                opened -= 1
        elif op == "rejoin":
            after = tuple(
                tid for tid in range(len(monitor.task_labels))
                if (index + tid) % 4 == 0
            )
            monitor.rejoin(f"j{index}", after=after)
        elif op == "barrier":
            monitor.barrier(f"b{index}")
        elif op == "chain":
            monitor.chain(resources[index % len(resources)])
        elif op == "read":
            monitor.read(shared[index % len(shared)], index % 7, site=f"r{index % 3}")
        elif op == "write":
            monitor.write(shared[index % len(shared)], index % 7, site=f"w{index % 3}")
        elif op == "tick":
            clock["now"] += index + 1
    return monitor


@given(monitor_scripts())
@settings(max_examples=60, deadline=None)
def test_graph_invariants_hold_for_any_script(ops):
    monitor = run_script(ops)

    # every edge forward: the graph is acyclic by construction
    assert all(src < dst for src, dst in monitor.edges)
    # stamps non-decreasing along edges (sim time flows with creation)
    stamps = monitor.task_stamps
    assert all(stamps[src] <= stamps[dst] for src, dst in monitor.edges)
    # the packaged validator agrees
    assert validate(monitor) == []
    # every access belongs to a real task and a real structure
    for access in monitor.accesses:
        assert 0 <= access.task < len(monitor.task_labels)
        assert 0 <= access.structure < len(monitor.structure_labels)

    graph = HBGraph(len(monitor.task_labels), monitor.edges)
    # reachability includes every recorded edge
    assert all(graph.ordered(src, dst) for src, dst in monitor.edges)
    # mainline program order: every bound child is ordered with task 0
    # (task 0 is everyone's ancestor except unbound spawns)


@given(monitor_scripts())
@settings(max_examples=30, deadline=None)
def test_detection_is_deterministic(ops):
    findings_a = detect(run_script(ops))
    findings_b = detect(run_script(ops))
    assert [f.as_dict() for f in findings_a] == [f.as_dict() for f in findings_b]


@given(monitor_scripts())
@settings(max_examples=30, deadline=None)
def test_barrier_clears_every_prior_conflict(ops):
    monitor = run_script(ops)
    monitor.barrier("final")
    shared = object()
    monitor.write(shared, 0, site="after.barrier")
    graph = HBGraph(len(monitor.task_labels), monitor.edges)
    final = monitor.current()
    # after a full barrier the current task is ordered with *every* task
    assert all(
        graph.ordered(tid, final) for tid in range(len(monitor.task_labels))
    )
