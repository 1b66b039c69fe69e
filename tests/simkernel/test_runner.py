"""The interleaved script runner: parking, retry, abort-restart."""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import TransactionAbortedError
from repro.simkernel.runner import (
    InterleavedRunner,
    LockWaitPending,
    lock_timeout_runner,
)


def make_runner(**kwargs):
    return InterleavedRunner(SimClock(), think_time_us=10, **kwargs)


class TestBasicExecution:
    def test_single_script_runs_to_completion(self):
        log = []

        def script():
            yield lambda: log.append("a")
            yield lambda: log.append("b")

        runner = make_runner()
        runner.add_client(script)
        report = runner.run()
        assert log == ["a", "b"]
        assert report.total_commits == 1
        assert report.total_ops == 2

    def test_thunk_results_flow_back(self):
        got = []

        def script():
            value = yield lambda: 42
            got.append(value)

        runner = make_runner()
        runner.add_client(script)
        runner.run()
        assert got == [42]

    def test_round_robin_interleaving(self):
        log = []

        def script(tag):
            def gen():
                yield lambda: log.append(f"{tag}1")
                yield lambda: log.append(f"{tag}2")

            return gen

        runner = make_runner()
        runner.add_client(script("a"))
        runner.add_client(script("b"))
        runner.run()
        assert log == ["a1", "b1", "a2", "b2"]

    def test_repeats(self):
        count = []

        def script():
            yield lambda: count.append(1)

        runner = make_runner()
        runner.add_client(script, repeats=5)
        report = runner.run()
        assert len(count) == 5
        assert report.clients[0].commits == 5

    def test_think_time_charged(self):
        def script():
            yield lambda: None
            yield lambda: None

        runner = make_runner()
        runner.add_client(script)
        report = runner.run()
        assert report.elapsed_us == 20


class TestLockWaits:
    def test_waiting_client_parks_and_retries_same_thunk(self):
        gate = {"open": False}
        attempts = []

        def blocked():
            def op():
                attempts.append("try")
                if not gate["open"]:
                    raise LockWaitPending("item", lambda: gate["open"])
                return "done"

            result = yield op
            attempts.append(result)

        def opener():
            yield lambda: None
            yield lambda: gate.update(open=True)

        runner = make_runner()
        runner.add_client(blocked)
        runner.add_client(opener)
        report = runner.run()
        assert attempts[-1] == "done"
        assert attempts.count("try") == 2  # once blocked, once after grant
        assert report.clients[0].lock_waits == 1

    def test_all_parked_calls_on_stall(self):
        gate = {"open": False}
        stalls = []

        def blocked():
            def op():
                if not gate["open"]:
                    raise LockWaitPending("item", lambda: gate["open"])

            yield op

        def on_stall(now):
            stalls.append(now)
            gate["open"] = True
            return True

        runner = make_runner(on_stall=on_stall)
        runner.add_client(blocked)
        runner.run()
        assert len(stalls) == 1

    def test_wedged_without_stall_handler_raises(self):
        def blocked():
            yield lambda: (_ for _ in ()).throw(
                LockWaitPending("item", lambda: False)
            )

        runner = make_runner()
        runner.add_client(blocked)
        with pytest.raises(RuntimeError, match="wedged"):
            runner.run()


class _OneExpiry:
    """The duck type ``lock_timeout_runner`` drives: one lock, one expiry."""

    def __init__(self, expiry_us):
        self.expiry_us = expiry_us
        self.calls = []

    def next_expiry_us(self):
        return self.expiry_us

    def expire_locks(self, now_us):
        self.calls.append(now_us)
        if self.expiry_us is not None and now_us >= self.expiry_us:
            self.expiry_us = None  # the holder is aborted, the waiter freed


class TestLockTimeoutRunner:
    def test_stall_jumps_to_the_expiry_and_runs_the_policy(self):
        timeouts = _OneExpiry(5_000)

        def blocked():
            def op():
                if timeouts.expiry_us is not None:
                    raise LockWaitPending(
                        "item", lambda: timeouts.expiry_us is None
                    )

            yield op

        clock = SimClock()
        runner = lock_timeout_runner(clock, timeouts, think_time_us=10)
        runner.add_client(blocked)
        runner.run()
        # After the parked step, at the stall's jump, after the retry.
        assert timeouts.calls == [10, 5_000, 5_010]
        assert clock.now_us == 5_010

    def test_stall_with_nothing_granted_is_a_wedge(self):
        def blocked():
            yield lambda: (_ for _ in ()).throw(
                LockWaitPending("item", lambda: False)
            )

        runner = lock_timeout_runner(SimClock(), _OneExpiry(None))
        runner.add_client(blocked)
        with pytest.raises(RuntimeError, match="wedged"):
            runner.run()


class TestAbortRestart:
    def test_abort_restarts_script_from_scratch(self):
        state = {"failed": False}
        log = []

        def script():
            yield lambda: log.append("start")

            def op():
                if not state["failed"]:
                    state["failed"] = True
                    raise TransactionAbortedError("deadlock victim")
                return "ok"

            yield op
            yield lambda: log.append("end")

        runner = make_runner()
        runner.add_client(script)
        report = runner.run()
        assert log == ["start", "start", "end"]
        assert report.clients[0].aborts == 1
        assert report.clients[0].commits == 1

    def test_max_restarts_gives_up(self):
        def script():
            yield lambda: (_ for _ in ()).throw(TransactionAbortedError("always"))

        runner = make_runner(max_restarts=3)
        runner.add_client(script)
        report = runner.run()
        assert report.clients[0].commits == 0
        assert report.clients[0].restarts == 4

    def test_on_step_called_per_operation(self):
        steps = []

        def script():
            yield lambda: None
            yield lambda: None

        runner = make_runner(on_step=steps.append)
        runner.add_client(script)
        runner.run()
        assert len(steps) == 2
