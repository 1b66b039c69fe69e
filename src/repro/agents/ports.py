"""Communication ports: inter-machine byte pipes as devices.

Paper section 3: the device agent "facilitates I/O on devices such as
**communication ports**, keyboards, and monitors."  A communication
port is a unidirectional byte channel between two machines; a pair of
ports gives a full-duplex link.  Ports are ordinary TTY-class devices:
opened through the device agent by attributed name, read and written
through object descriptors below 100 000, so redirection and
``process_twin`` inheritance work on them unchanged.

The channel charges the shared clock :data:`BYTE_TIME_US` per byte,
modelling a serial line.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.agents.devices import DeviceAgent, SimTTY
from repro.common.clock import SimClock
from repro.common.frames import charge_elapsed
from repro.common.metrics import Metrics
from repro.naming.attributed import AttributedName

#: Simulated cost of moving one byte across a port: a ~115200 baud
#: serial line.
BYTE_TIME_US = 8.7


class _Channel:
    """The shared byte queue between two port endpoints."""

    __slots__ = ("buffer", "capacity", "clock", "metrics", "name")

    def __init__(
        self, name: str, clock: SimClock, metrics: Metrics, *, capacity: int
    ) -> None:
        self.name = name
        self.clock = clock
        self.metrics = metrics
        self.capacity = capacity
        self.buffer: Deque[int] = deque()

    def send(self, data: bytes) -> int:
        """Queue bytes up to the channel capacity; returns bytes accepted."""
        room = self.capacity - len(self.buffer)
        accepted = data[: max(0, room)]
        self.buffer.extend(accepted)
        charge_elapsed(self.clock, BYTE_TIME_US * len(accepted))
        self.metrics.add(f"port.{self.name}.bytes_sent", len(accepted))
        return len(accepted)

    def receive(self, n_bytes: int) -> bytes:
        taken = bytearray()
        while self.buffer and len(taken) < n_bytes:
            taken.append(self.buffer.popleft())
        self.metrics.add(f"port.{self.name}.bytes_received", len(taken))
        return bytes(taken)


class PortEndpoint(SimTTY):
    """One end of a full-duplex link: writes go out, reads come in."""

    def __init__(self, system_name: str, outbound: _Channel, inbound: _Channel) -> None:
        super().__init__(system_name)
        self._outbound = outbound
        self._inbound = inbound

    def write(self, data: bytes) -> int:  # noqa: D102 - SimTTY contract
        return self._outbound.send(data)

    def read(self, n_bytes: int) -> bytes:  # noqa: D102 - SimTTY contract
        return self._inbound.receive(n_bytes)

    @property
    def pending_in(self) -> int:
        return len(self._inbound.buffer)


def connect_machines(
    name: str,
    agent_a: DeviceAgent,
    agent_b: DeviceAgent,
    clock: SimClock,
    metrics: Metrics,
    *,
    capacity: int = 64 * 1024,
) -> Tuple[int, int]:
    """Create a full-duplex port pair between two machines.

    Registers one endpoint per device agent under the attributed name
    ``TTY{port=<name>}`` and opens both, returning the two object
    descriptors — machine A's and machine B's ends.
    """
    a_to_b = _Channel(f"{name}.a2b", clock, metrics, capacity=capacity)
    b_to_a = _Channel(f"{name}.b2a", clock, metrics, capacity=capacity)
    endpoint_a = PortEndpoint(
        f"{agent_a.machine_id}:port:{name}", outbound=a_to_b, inbound=b_to_a
    )
    endpoint_b = PortEndpoint(
        f"{agent_b.machine_id}:port:{name}", outbound=b_to_a, inbound=a_to_b
    )
    agent_a.register_device(
        endpoint_a, AttributedName.tty(port=name, machine=agent_a.machine_id)
    )
    agent_b.register_device(
        endpoint_b, AttributedName.tty(port=name, machine=agent_b.machine_id)
    )
    descriptor_a = agent_a.open(
        AttributedName.tty(port=name, machine=agent_a.machine_id)
    )
    descriptor_b = agent_b.open(
        AttributedName.tty(port=name, machine=agent_b.machine_id)
    )
    return descriptor_a, descriptor_b
