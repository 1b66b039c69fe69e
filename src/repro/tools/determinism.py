"""Determinism check: ``python -m repro.tools.determinism NAME -- CMD…``.

Runs ``CMD… --out NAME.json`` and then ``CMD… --out NAME_2.json`` and
compares the two reports byte for byte.  Every reporting tool in this
repo (bench, availability, racecheck) promises byte-identical output on
a second run — everything is keyed off the simulated clock — and CI
holds each of them to it through this one command.

Exit status: the command's own when a run fails its assertions, 1 when
both runs pass but the reports differ, 2 on bad usage, else 0.
"""

import filecmp
import subprocess
import sys
from typing import List


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        usage = "usage: python -m repro.tools.determinism NAME -- CMD…"
        print(usage, file=sys.stderr)
        return 2
    name, command = argv[0], argv[2:]
    reports = (f"{name}.json", f"{name}_2.json")
    for report in reports:
        status = subprocess.call([*command, "--out", report])
        if status != 0:
            return status
    if not filecmp.cmp(*reports, shallow=False):
        print(f"{name}: {reports[0]} and {reports[1]} differ", file=sys.stderr)
        return 1
    print(f"{name}: two runs, byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
