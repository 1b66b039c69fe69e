"""Client-side agents.

"On each machine, all client processes acquire the services of the
distributed file facility through special processes known as a file
agent and a transaction agent ... Also on each machine, there is one
process called a device agent which facilitates I/O on devices"
(paper section 3).

* :class:`DeviceAgent` — TTY objects, object descriptors **below**
  100 000, the three standard streams, and stdio redirection (a
  redirected stdout/stdin/stderr becomes descriptor 100001/100002/
  100003 respectively).
* :class:`FileAgent` — FILE objects, object descriptors **above**
  100 000, attributed-name resolution through the naming service, a
  client block cache with the delayed-write policy, per-descriptor
  file positions (which is what makes ``read``/``write`` vs
  ``pread``/``pwrite`` and ``lseek`` client-side concepts and keeps
  the file service nearly stateless), and idempotent retransmitted
  requests.
* :class:`Process` — the process model, including mediumweight
  children created with ``process_twin`` that inherit the parent's
  object descriptors but are forbidden while transactions are live.
"""
