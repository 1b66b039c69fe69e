"""The process model: environment variables, redirection, process_twin.

Paper section 3: every process is created with three global environment
variables — stdin, stdout, stderr — defaulting to 0, 1 and 2.  A
process that redirects its standard output gets stdout = 100001;
standard input, stdin = 100002; standard error, stderr = 100003 (all
above the 100 000 device/file descriptor boundary, so redirected
streams transparently go to files).

A **mediumweight process** shares text and data with its parent but
has its own stack; a child created with ``process_twin`` "will inherit
all the object descriptors of the devices and files opened by the
parent process and also the transaction descriptors of all the
transactions initiated by the parent process.  However, inheritance of
the transaction descriptors ... poses a serious threat to the
serializability property of a transaction.  Therefore, processes which
perform I/O on devices and files using the semantics of the basic file
service can only invoke the process-twin operation."
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import BadDescriptorError, ProcessError
from repro.common.ids import (
    REDIRECTED_STDERR,
    REDIRECTED_STDIN,
    REDIRECTED_STDOUT,
    descriptor_is_device,
    monotonic_id_factory,
)
from repro.agents.devices import DeviceAgent
from repro.agents.file_agent import FileAgent

_next_pid = monotonic_id_factory()


class Process:
    """A client process bound to its machine's device and file agents.

    The descriptor *tables* live in the agents; the process holds its
    environment variables and — for mediumweight families — a shared
    view of which descriptors the family owns.
    """

    def __init__(
        self,
        device_agent: DeviceAgent,
        file_agent: FileAgent,
        *,
        parent: Optional["Process"] = None,
    ) -> None:
        self.pid = _next_pid()
        self.device_agent = device_agent
        self.file_agent = file_agent
        self.parent = parent
        if parent is None:
            self.env: Dict[str, int] = {"stdin": 0, "stdout": 1, "stderr": 2}
            self._owned_descriptors: List[int] = []
            self._redirections: Dict[int, int] = {}
            self._transaction_descriptors: List[int] = []
        else:
            # Mediumweight: shares data space, hence the *same* tables.
            self.env = dict(parent.env)
            self._owned_descriptors = parent._owned_descriptors
            self._redirections = parent._redirections
            self._transaction_descriptors = parent._transaction_descriptors

    # ----------------------------------------------------- file I/O

    def open(self, name) -> int:
        descriptor = self.file_agent.open(name)
        self._owned_descriptors.append(descriptor)
        return descriptor

    def create(self, name, **kwargs) -> int:
        descriptor = self.file_agent.create(name, **kwargs)
        self._owned_descriptors.append(descriptor)
        return descriptor

    def close(self, descriptor: int) -> None:
        if descriptor_is_device(descriptor):
            self.device_agent.close(descriptor)
        else:
            self.file_agent.close(descriptor)
        if descriptor in self._owned_descriptors:
            self._owned_descriptors.remove(descriptor)

    def read(self, descriptor: int, n_bytes: int) -> bytes:
        descriptor = self._redirections.get(descriptor, descriptor)
        if descriptor_is_device(descriptor):
            return self.device_agent.read(descriptor, n_bytes)
        return self.file_agent.read(descriptor, n_bytes)

    def write(self, descriptor: int, data: bytes) -> int:
        descriptor = self._redirections.get(descriptor, descriptor)
        if descriptor_is_device(descriptor):
            return self.device_agent.write(descriptor, data)
        return self.file_agent.write(descriptor, data)

    # -------------------------------------------------- std streams

    def stdin_read(self, n_bytes: int) -> bytes:
        return self.read(self.env["stdin"], n_bytes)

    def stdout_write(self, data: bytes) -> int:
        return self.write(self.env["stdout"], data)

    def stderr_write(self, data: bytes) -> int:
        return self.write(self.env["stderr"], data)

    def redirect_stdout(self, file_descriptor: int) -> None:
        """Send standard output to an open file (stdout := 100001)."""
        self._check_file_descriptor(file_descriptor)
        self.env["stdout"] = REDIRECTED_STDOUT
        self._redirections[REDIRECTED_STDOUT] = file_descriptor

    def redirect_stdin(self, file_descriptor: int) -> None:
        """Take standard input from an open file (stdin := 100002)."""
        self._check_file_descriptor(file_descriptor)
        self.env["stdin"] = REDIRECTED_STDIN
        self._redirections[REDIRECTED_STDIN] = file_descriptor

    def redirect_stderr(self, file_descriptor: int) -> None:
        """Send standard error to an open file (stderr := 100003)."""
        self._check_file_descriptor(file_descriptor)
        self.env["stderr"] = REDIRECTED_STDERR
        self._redirections[REDIRECTED_STDERR] = file_descriptor

    # ------------------------------------------------- transactions

    def note_transaction_started(self, transaction_descriptor: int) -> None:
        """Record a live transaction (set by the transaction agent)."""
        self._transaction_descriptors.append(transaction_descriptor)

    def note_transaction_finished(self, transaction_descriptor: int) -> None:
        if transaction_descriptor in self._transaction_descriptors:
            self._transaction_descriptors.remove(transaction_descriptor)

    # --------------------------------------------------------- twin

    def process_twin(self) -> "Process":
        """Create a mediumweight child inheriting all descriptors.

        Forbidden while any transaction initiated by this process (or
        its mediumweight family) is live, because the child would
        inherit the transaction descriptors and break serializability.
        """
        if self._transaction_descriptors:
            raise ProcessError(
                f"process {self.pid} has live transactions "
                f"{self._transaction_descriptors}; only processes using "
                f"basic file semantics may invoke process_twin"
            )
        return Process(self.device_agent, self.file_agent, parent=self)

    # ------------------------------------------------------ internal

    @staticmethod
    def _check_file_descriptor(descriptor: int) -> None:
        if descriptor_is_device(descriptor):
            raise BadDescriptorError(
                f"redirection target {descriptor} is a device descriptor; "
                f"redirection targets must be files (> 100000)"
            )

    def __repr__(self) -> str:
        return f"Process(pid={self.pid}, env={self.env})"
