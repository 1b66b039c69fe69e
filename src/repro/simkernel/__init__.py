"""Deterministic execution kernel for simulated concurrency.

RHODOS ran real concurrent processes on real machines; this
reproduction interleaves *client scripts* deterministically instead,
so that two-phase-locking contention, blocking and timeout-deadlock
behaviour (paper sections 6.1–6.5) are exactly reproducible.

The model: a client script is a generator that ``yield``s zero-argument
*thunks* (operations against an agent).  The :class:`InterleavedRunner`
round-robins the scripts, executing one thunk at a time.  A thunk that
must block on a lock raises :class:`LockWaitPending`; the runner parks
the client and retries the same thunk once the wait is over.  A thunk
that raises ``TransactionAbortedError`` causes the whole script to be
restarted from the beginning (the standard abort-and-retry discipline),
which is what lets the timeout-based deadlock resolution of the paper
make progress.
"""
