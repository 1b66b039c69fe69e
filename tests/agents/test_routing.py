"""The file-service router over both transports: same surface, same refusals."""

import pytest

from repro.agents.routing import FILE_SERVER_OPS, FileServiceRouter
from repro.common.clock import SimClock
from repro.common.errors import FileNotFoundError_, FileServiceError, RpcError
from repro.common.ids import SystemName
from repro.common.metrics import Metrics
from repro.naming.shard import NAMING_SHARD_OPS, NamingShard
from repro.rpc.bus import MessageBus
from repro.rpc.endpoint import (
    RpcClient,
    RpcServer,
    direct_caller,
    expose,
    rpc_caller,
)
from tests.conftest import build_direct_router, build_file_server


def build_direct(n_volumes=2):
    clock, metrics = SimClock(), Metrics()
    servers = {
        volume: build_file_server(clock, metrics, volume_id=volume)
        for volume in range(n_volumes)
    }
    return build_direct_router(servers), servers, clock, metrics


def build_rpc(n_volumes=2):
    clock, metrics = SimClock(), Metrics()
    bus = MessageBus(clock, metrics)
    client = RpcClient(bus)
    servers = {}
    callers = {}
    for volume in range(n_volumes):
        server = build_file_server(clock, metrics, volume_id=volume)
        address = f"fs.{volume}"
        expose(RpcServer(bus, address), server, FILE_SERVER_OPS)
        servers[volume] = server
        callers[volume] = rpc_caller(client, address)
    return FileServiceRouter(callers), servers, clock, metrics


@pytest.mark.parametrize("builder", [build_direct, build_rpc])
class TestRouterSurface:
    def test_create_routes_to_volume(self, builder):
        router, servers, _, _ = builder()
        name = router.create(1)
        assert name.volume_id == 1
        assert servers[1].exists(name)

    def test_read_write_round_trip(self, builder):
        router, _, _, _ = builder()
        name = router.create(0)
        router.open(name)
        assert router.write(name, 0, b"via router") == 10
        assert router.read(name, 0, 10) == b"via router"
        assert router.get_attribute(name).file_size == 10
        router.close(name)

    def test_delete(self, builder):
        router, servers, _, _ = builder()
        name = router.create(0)
        router.delete(name)
        assert not servers[0].exists(name)

    def test_volume_ids(self, builder):
        router, _, _, _ = builder()
        assert router.volume_ids() == [0, 1]

    def test_unknown_volume(self, builder):
        router, _, _, _ = builder()
        with pytest.raises(FileServiceError):
            router.read(SystemName(9, 0, 1), 0, 1)

    def test_unknown_volume_is_loud_on_volume_keyed_ops(self, builder):
        """Regression: the direct router's ``flush_volume`` used to
        return None for a volume it did not know while the RPC router
        raised; one ``_call`` makes every method refuse alike."""
        router, _, _, _ = builder()
        with pytest.raises(FileServiceError, match="no file server for volume 9"):
            router.flush_volume(9)
        with pytest.raises(FileServiceError, match="no file server for volume 9"):
            router.create(9)

    def test_remote_errors_propagate(self, builder):
        router, _, _, _ = builder()
        stale = SystemName(0, 0, 999_999)
        with pytest.raises(FileNotFoundError_):
            router.open(stale)

    def test_flush_volume(self, builder):
        router, servers, _, metrics = builder()
        name = router.create(0)
        router.write(name, 0, b"x")
        router.flush_volume(0)
        assert metrics.get("file_server.0.flushes") >= 1


def _file_server():
    server = build_file_server(SimClock(), Metrics())
    return server, FILE_SERVER_OPS, lambda: server.disk.disk.crashed


def _naming_shard():
    shard = NamingShard(0, SimClock(), Metrics())
    return shard, NAMING_SHARD_OPS, lambda: shard.crashed


def _rpc(server, ops):
    bus = MessageBus(SimClock(), Metrics())
    expose(RpcServer(bus, "srv"), server, ops)
    return rpc_caller(RpcClient(bus), "srv")


@pytest.mark.parametrize("transport", [direct_caller, _rpc])
@pytest.mark.parametrize("build", [_file_server, _naming_shard])
def test_op_outside_the_table_is_refused(build, transport):
    """Regression: in-process, any attribute used to be callable (asking
    the direct shard transport for ``crash`` crashed the shard) while the
    endpoint answered ``unknown op``; both transports now refuse an op
    outside the table with the same error."""
    server, ops, crashed = build()
    assert "crash" not in ops and hasattr(server, "crash")
    with pytest.raises(RpcError, match="unknown op 'crash'"):
        transport(server, ops)("crash")
    assert not crashed()


class TestRpcSpecifics:
    def test_calls_cross_the_bus(self):
        router, _, _, metrics = build_rpc()
        name = router.create(0)
        router.write(name, 0, b"x")
        assert metrics.get("rpc.messages") >= 2

    def test_ops_table_complete(self):
        """Every op the router sends must be in the exposure table."""
        sent = []
        router = FileServiceRouter({0: lambda op, *a, **kw: sent.append(op)})
        name = SystemName(0, 0, 1)
        router.create(0)
        for method in ("open", "close", "delete", "get_attribute"):
            getattr(router, method)(name)
        router.read(name, 0, 1)
        router.write(name, 0, b"x")
        router.flush_volume(0)
        assert sorted(sent) == sorted(FILE_SERVER_OPS)
