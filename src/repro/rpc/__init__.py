"""Client-server message substrate.

RHODOS is message-passing; the paper leans on one property of that
substrate (section 3): "Certain errors caused by computer failures and
communication delays may lead to repeated execution of some
operations.  However, their repetition in RHODOS does not produce any
uncertain effect.  This is because the semantics of the messages
exchanged among the file agent, transaction agent, file service, and
naming service constitute idempotent operations."

This package provides an in-process :class:`MessageBus` with simulated
latency and seeded fault injection — message **loss** (client times out
and retransmits), **duplication** (the server executes the request
twice), and **reordering** (a request is delivered late, after
operations issued after it; see :meth:`MessageBus.drain_delayed`) —
plus request/reply endpoints.  Servers deliberately keep *no* reply
cache: duplicated and reordered requests really are re-executed, and
the experiments show the final state is unaffected because every file
operation is positional, hence idempotent.

On the caller side, :mod:`repro.rpc.retry` adds the retry discipline a
failure-aware deployment needs: seeded exponential backoff between
retransmissions and a per-destination :class:`CircuitBreaker` that
fails fast (:class:`~repro.common.errors.CircuitOpenError`) instead of
hammering a dead server, feeding its open/close transitions to the
failure detector.
"""
