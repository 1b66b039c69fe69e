"""Crash sweep over a file that needs an indirect (tree) block.

No sweep workload of the crash CLI maps more than the 64 direct
descriptors of a FIT, so none of them stores a tree block.  This one
writes and closes a 70-block file (the FIT and one indirect block),
then extends it twice by 4 blocks, closing each time and never
flushing.  A close stores the file's dirty blocks, then its dirty tree
blocks, then its FIT.  Every physical write is crashed once; the
recovered file must be one of the outcomes the script admits at that
instant, and fsck must be clean.
"""

from typing import List, Optional

from repro.chaos.scheduler import CrashScheduler
from repro.chaos.workloads import ChaosWorkload
from repro.common.metrics import Metrics
from repro.common.units import BLOCK_SIZE
from repro.file_service.fit import DIRECT_DESCRIPTORS


class TreeBlockWorkload(ChaosWorkload):
    """Write and close a file past its direct descriptors, then extend
    and close it twice.  Until its first close the file does not
    survive a crash; during a close it recovers as the contents before
    the close or after it."""

    name = "tree-blocks"

    #: Blocks of each close's contents, in order.
    SIZES = (70, 74, 78)

    def build(self) -> None:
        self.volume = self.add_volume(0)
        #: Admissible recovered contents (None: no file), or None while
        #: the file does not exist yet.
        self.admissible: Optional[List[Optional[bytes]]] = None

    def run(self) -> None:
        server = self.volume.file_server
        self.file = server.create()
        durable: Optional[bytes] = None
        self.admissible = [durable]
        content = b""
        for step, n_blocks in enumerate(self.SIZES):
            fill = bytes([ord("a") + step])
            grown = content + fill * (n_blocks * BLOCK_SIZE - len(content))
            server.write(self.file, len(content), grown[len(content) :])
            content = grown
            self.admissible = [durable, content]
            server.close(self.file)
            durable = content
            self.admissible = [durable]

    def check_content(self) -> List[str]:
        if self.admissible is None:
            return []
        server = self.volume.file_server
        content = (
            server.read(self.file, 0, (self.SIZES[-1] + 1) * BLOCK_SIZE)
            if server.exists(self.file)
            else None
        )
        if content in self.admissible:
            return []

        def show(option: Optional[bytes]) -> str:
            if option is None:
                return "no file"
            return f"{len(option) // BLOCK_SIZE} blocks"

        return [
            f"file recovered as {show(content)}, admissible: "
            + ", ".join(show(option) for option in self.admissible)
        ]


class TestTheWorkload:
    def test_the_first_two_closes_store_the_tree_block(self):
        """The third extension's blocks were reserved, and mapped, by
        the second: its close stores data and the FIT alone."""
        assert TreeBlockWorkload.SIZES[0] > DIRECT_DESCRIPTORS
        workload = TreeBlockWorkload()
        stores = []
        server = workload.volume.file_server
        close = server.close

        def counted_close(name):
            close(name)
            stores.append(server.metrics.get(f"{server.name}.indirect_stores"))

        server.close = counted_close
        workload.run()
        assert stores == [1, 2, 2]
        assert server.read(workload.file, 0, BLOCK_SIZE) == b"a" * BLOCK_SIZE
        last = (TreeBlockWorkload.SIZES[-1] - 1) * BLOCK_SIZE
        assert server.read(workload.file, last, BLOCK_SIZE) == b"c" * BLOCK_SIZE


class TestExhaustiveSweep:
    def test_every_crash_point_recovers_an_admissible_file(self):
        metrics = Metrics()
        report = CrashScheduler(TreeBlockWorkload, metrics=metrics).sweep()
        assert report.points_run == report.total_points == 23
        assert report.violations == []
        assert metrics.get("chaos.sweep.tree-blocks.violations") == 0
