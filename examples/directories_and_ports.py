#!/usr/bin/env python
"""The directory service and inter-machine communication ports.

Figure 1's top layer is "NAMING / DIRECTORY SERVICE": this example
builds a directory tree whose directories are themselves RHODOS files
(so the hierarchy survives a disk crash via the facility's own
recovery), then wires a serial-style communication port between two
machines — the other device class section 3 mentions — and ships a
file's contents across it.

Run:  python examples/directories_and_ports.py
"""

from repro import AttributedName, ClusterConfig, RhodosCluster
from repro.agents.ports import connect_machines


def main() -> None:
    cluster = RhodosCluster(ClusterConfig(n_machines=2, n_disks=2))
    directories = cluster.directories

    # --- a directory tree, stored in files ---------------------------
    directories.mkdir("/home")
    directories.mkdir("/home/raj")
    directories.mkdir("/etc")
    paper = directories.create_file("/home/raj/icdcs94.tex")
    cluster.file_servers[paper.volume_id].write(
        paper, 0, b"\\title{A High Performance and Reliable DFF}\n"
    )
    directories.create_file("/etc/rhodos.conf", volume_id=1)
    print("directory tree:")
    for path, entries in directories.walk("/"):
        for entry in entries:
            marker = "/" if entry.is_directory else ""
            print(f"  {path.rstrip('/')}/{entry.name}{marker}"
                  f"   (volume {entry.target.volume_id})")

    # Crash volume 0 — the tree lives in files, so it recovers.
    cluster.flush_all()
    cluster.fail_volume(0)
    cluster.restart_volume(0)
    resolved = directories.resolve("/home/raj/icdcs94.tex")
    line = cluster.file_servers[resolved.volume_id].read(resolved, 0, 7)
    print(f"\nafter crash + recovery, /home/raj/icdcs94.tex starts: {line!r}")

    # --- a communication port between the machines -------------------
    fd_a, fd_b = connect_machines(
        "serial0",
        cluster.machines[0].device_agent,
        cluster.machines[1].device_agent,
        cluster.clock,
        cluster.metrics,
    )
    print(f"\nport descriptors: m0 -> {fd_a}, m1 -> {fd_b} (devices: < 100000)")

    # Machine 0 reads the paper and streams it to machine 1.
    content = cluster.file_servers[resolved.volume_id].read(resolved, 0, 4096)
    sender = cluster.machines[0].device_agent
    receiver = cluster.machines[1].device_agent
    before_us = cluster.clock.now_us
    sender.write(fd_a, content)
    received = receiver.read(fd_b, 4096)
    elapsed_ms = (cluster.clock.now_us - before_us) / 1000
    print(
        f"streamed {len(received)} bytes over the serial port in "
        f"{elapsed_ms:.2f} simulated ms "
        f"(intact: {received == content})"
    )


if __name__ == "__main__":
    main()
