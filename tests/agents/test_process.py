"""The process model: environment, redirection, process_twin."""

import pytest

from repro.agents.devices import DeviceAgent
from repro.agents.file_agent import FileAgent
from repro.agents.process import Process
from repro.common.clock import SimClock
from repro.common.errors import BadDescriptorError, ProcessError
from repro.common.ids import (
    REDIRECTED_STDERR,
    REDIRECTED_STDIN,
    REDIRECTED_STDOUT,
)
from repro.common.metrics import Metrics
from repro.naming.attributed import AttributedName
from repro.naming.service import NamingService
from tests.conftest import build_direct_router, build_file_server


@pytest.fixture
def setup():
    clock, metrics = SimClock(), Metrics()
    server = build_file_server(clock, metrics)
    naming = NamingService(metrics)
    device_agent = DeviceAgent("m0", naming, metrics)
    file_agent = FileAgent(
        "m0", naming, build_direct_router({0: server}), clock, metrics
    )
    return Process(device_agent, file_agent), device_agent, file_agent, server


class TestEnvironment:
    def test_default_env(self, setup):
        process, *_ = setup
        assert process.env == {"stdin": 0, "stdout": 1, "stderr": 2}

    def test_stdio_to_console(self, setup):
        process, device_agent, *_ = setup
        process.stdout_write(b"to console")
        assert bytes(device_agent.console.output) == b"to console"

    def test_stdin_from_console(self, setup):
        process, device_agent, *_ = setup
        device_agent.console.feed_input(b"keys")
        assert process.stdin_read(4) == b"keys"


class TestRedirection:
    def test_stdout_redirect_sets_100001(self, setup):
        """Paper section 3, verbatim descriptor values."""
        process, _, file_agent, server = setup
        fd = process.create(AttributedName.file("/log"))
        process.redirect_stdout(fd)
        assert process.env["stdout"] == REDIRECTED_STDOUT == 100_001
        process.stdout_write(b"logged")
        file_agent.flush()
        assert server.read(file_agent.system_name(fd), 0, 6) == b"logged"

    def test_stdin_redirect_sets_100002(self, setup):
        process, _, file_agent, server = setup
        fd = process.create(AttributedName.file("/input"))
        process.write(fd, b"scripted input")
        file_agent.lseek(fd, 0)
        process.redirect_stdin(fd)
        assert process.env["stdin"] == REDIRECTED_STDIN == 100_002
        assert process.stdin_read(8) == b"scripted"

    def test_stderr_redirect_sets_100003(self, setup):
        process, _, file_agent, server = setup
        fd = process.create(AttributedName.file("/errors"))
        process.redirect_stderr(fd)
        assert process.env["stderr"] == REDIRECTED_STDERR == 100_003
        assert process.stderr_write(b"failed") == 6
        file_agent.flush()
        assert server.read(file_agent.system_name(fd), 0, 6) == b"failed"

    def test_redirect_to_device_rejected(self, setup):
        process, *_ = setup
        with pytest.raises(BadDescriptorError):
            process.redirect_stdout(1)


class TestProcessTwin:
    def test_child_inherits_descriptors(self, setup):
        """Mediumweight children inherit the parent's object descriptors."""
        process, _, file_agent, _ = setup
        fd = process.create(AttributedName.file("/shared"))
        process.write(fd, b"parent wrote")
        child = process.process_twin()
        file_agent.lseek(fd, 0)
        assert child.read(fd, 12) == b"parent wrote"

    def test_child_shares_descriptor_table(self, setup):
        process, *_ = setup
        child = process.process_twin()
        fd = child.create(AttributedName.file("/from-child"))
        assert fd in process._owned_descriptors  # shared data space

    def test_child_gets_fresh_pid(self, setup):
        process, *_ = setup
        child = process.process_twin()
        assert child.pid != process.pid
        assert child.parent is process

    def test_twin_forbidden_with_live_transactions(self, setup):
        """Paper section 3: inheritance of transaction descriptors
        threatens serializability, so only basic-file processes may
        invoke process-twin."""
        process, *_ = setup
        process.note_transaction_started(42)
        with pytest.raises(ProcessError):
            process.process_twin()
        process.note_transaction_finished(42)
        process.process_twin()  # allowed again

    def test_twin_sees_parents_env_at_fork(self, setup):
        process, *_ = setup
        fd = process.create(AttributedName.file("/out"))
        process.redirect_stdout(fd)
        child = process.process_twin()
        assert child.env["stdout"] == REDIRECTED_STDOUT

    def test_grandchildren(self, setup):
        process, *_ = setup
        child = process.process_twin()
        grandchild = child.process_twin()
        assert grandchild.pid not in (process.pid, child.pid)
