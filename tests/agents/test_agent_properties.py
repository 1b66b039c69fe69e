"""Property test: the file agent's client cache against an oracle.

Random sequences of pwrite/pread/flush/close/reopen through the agent
must behave exactly like a plain bytearray, regardless of cache size
(including pathological capacities that force constant eviction).
"""

from hypothesis import given, settings, strategies as st

from repro.agents.file_agent import FileAgent
from repro.common.clock import SimClock
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from tests.conftest import build_direct_router, build_file_server

SPAN = 3 * BLOCK_SIZE  # the byte range ops play within


@st.composite
def agent_ops(draw):
    n_ops = draw(st.integers(min_value=1, max_value=25))
    ops = []
    for _ in range(n_ops):
        kind = draw(
            st.sampled_from(["write", "write", "read", "flush", "reopen"])
        )
        offset = draw(st.integers(min_value=0, max_value=SPAN))
        length = draw(st.integers(min_value=1, max_value=BLOCK_SIZE))
        fill = draw(st.integers(min_value=1, max_value=255))
        ops.append((kind, offset, length, fill))
    return ops


def run_against_oracle(ops, cache_blocks):
    clock, metrics = SimClock(), Metrics()
    server = build_file_server(clock, metrics)
    naming = NamingService(metrics)
    agent = FileAgent(
        "m0",
        naming,
        build_direct_router({0: server}),
        clock,
        metrics,
        cache_blocks=cache_blocks,
    )
    name = AttributedName.file("/oracle")
    descriptor = agent.create(name)
    oracle = bytearray()
    for kind, offset, length, fill in ops:
        if kind == "write":
            payload = bytes([fill]) * length
            agent.pwrite(descriptor, payload, offset)
            if len(oracle) < offset + length:
                oracle.extend(bytes(offset + length - len(oracle)))
            oracle[offset : offset + length] = payload
        elif kind == "read":
            got = agent.pread(descriptor, length, offset)
            expected = bytes(oracle[offset : offset + length])
            assert got == expected, (
                f"read({offset},{length}) -> {got[:20]!r} != {expected[:20]!r}"
            )
        elif kind == "flush":
            agent.flush()
        elif kind == "reopen":
            agent.close(descriptor)
            descriptor = agent.open(name)
    # Final state: everything readable and correct.
    agent.close(descriptor)
    descriptor = agent.open(name)
    assert agent.pread(descriptor, len(oracle) + 64, 0) == bytes(oracle)
    agent.close(descriptor)


class TestFileAgentOracle:
    @given(agent_ops())
    @settings(max_examples=30, deadline=None)
    def test_normal_cache(self, ops):
        run_against_oracle(ops, cache_blocks=64)

    @given(agent_ops())
    @settings(max_examples=30, deadline=None)
    def test_tiny_cache_thrashes_but_stays_correct(self, ops):
        run_against_oracle(ops, cache_blocks=1)

    @given(agent_ops())
    @settings(max_examples=20, deadline=None)
    def test_no_cache(self, ops):
        run_against_oracle(ops, cache_blocks=0)
