"""The resource bounds of the CLI: each row of ROWS is one run in a child
`python` that caps its own address space at 200 MiB before it imports the
package, within a time limit; the run must end with its exit code and show
its stderr line or summary field.  The cap and the time limit act on that
child only.  On other systems than Linux RLIMIT_AS does not bound memory, so
the rows are skipped there."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CAP = 200 << 20  # bytes of address space

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="RLIMIT_AS bounds memory only on Linux")

# Caps the child's address space at CAP, then runs the CLI on its argv
_CAPPED = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({CAP}, {CAP}))
from collatz_strings.cli import main
raise SystemExit(main(sys.argv[1:]))
"""

REPORT = "REPORT"  # the argv word replaced by a temporary report file

# name: (argv, time limit in seconds, exit code, the stderr line or the
# summary (field, value) that shows the bound held)
ROWS = {
    # 7.5 million p=5 rule instances at 10 depths, 75 000 010 checks: each
    # rule is proved once per depth on its residue class, so the run takes
    # well under a second, where stepping every instance took about 80 s
    "case-audit": ("family-audit -p 5 --value-limit 10000000 --n-limit 9 --output REPORT",
                   20, 0, ("checked", 75_000_010)),
    # 750 million instances, 7 500 000 010 checks: the cap counts only the
    # checks of rules that fail their proof, here none, so the run is
    # accepted and takes as long as the one above
    "case-audit-1e9": ("family-audit -p 5 --value-limit 1000000000 --n-limit 9 --output REPORT",
                       20, 0, ("checked", 7_500_000_010)),
    # 2^18 parts in both formats, and 2^20 parts within 30 s: the walk holds
    # no children of the parts it writes, since their audit is proved once
    # per walk; each exits 0, not MemoryError
    "evolve-backward-18-csv": ("evolve --direction backward -k 18 --format csv "
                               "--output /dev/null", 30, 0, None),
    "evolve-forward-18": ("evolve --direction forward -k 18 --output /dev/null", 30, 0, None),
    "evolve-forward-20": ("evolve --direction forward -k 20 --output /dev/null", 30, 0, None),
    # The largest windows the 10^8-position cap allows, 3^16 forward and 4^13
    # backward: one byte per position and one generation's parts at a time,
    # 2^15 at most, made from the one before; both exit 0, not MemoryError
    "coverage-forward-16": ("coverage --direction forward -m 16 --output /dev/null",
                            30, 0, None),
    "coverage-backward-13": ("coverage --direction backward -m 13 --output /dev/null",
                             30, 0, None),
    # 10^8 positions: the class walk holds no slot per position
    "strings-1e8": ("strings --limit 100000000 --output /dev/null", 30, 0, None),
    # 10^10 images: the class count holds no slot per position
    "audit-3n3-1e10": ("audit-3n3 --limit 10000000000 --output /dev/null", 30, 0, None),
    # x = 1 is a fixed point of lower_step, so 20 steps from x <= 2 recur up
    # to 4^20 positions on: each case walks x's residue class in O(steps),
    # where a scan of every candidate would take days; 602 cases, exit 0
    "recurrence-n20": ("proportionality --x-max 2 --n-max 20 --cases 300 --output REPORT",
                       10, 0, ("failures", 0)),
    # Work refused before it starts, each with exit 2 and the cap message at
    # once: a passage window of 10^30 positions would need about 1.7e21
    # class-tree nodes, 10^12 proportionality cases 10^4 times the
    # recurrence class walks the cap allows, 2*10^7 cases of up to 6 steps a
    # direction 2.4e8 class-walk steps, a backward coverage window of 4^16
    # positions a 4 GiB table, 3*10^7 windows of -m 1 about 7 minutes of
    # window set-ups, and a backward scan of p = 10^8 + 1 a table of its
    # 12 500 000 exceptional positions
    "refused-passage": ("passage --lo 2 --hi 1000000000000000000000000000000", 10, 2,
                        "class-tree nodes, above the cap of 1e+08"),
    "refused-cases": ("proportionality --cases 1000000000000", 10, 2,
                      "cases 1000000000000 is above the cap of 1e+08"),
    "refused-case-steps": ("proportionality --cases 20000000", 10, 2,
                           "need up to 240000012 class-walk steps, above the cap of 1e+08"),
    "refused-coverage-window": ("coverage --direction backward -m 16", 10, 2,
                                "marks 4294967296 window positions, 4294967298 with 2 for "
                                "each window's set-up, above the cap of 1e+08"),
    "refused-coverage-windows": ("coverage --direction forward -m 1 --random-starts 30000000",
                                 10, 2, "marks 90000003 window positions, 150000005 with 2 "
                                 "for each window's set-up, above the cap of 1e+08"),
    "refused-scan": ("scan -p 100000001 --limit 10", 10, 2,
                     "p 100000001 has 12500000 exceptional positions, above the backward "
                     "scan's cap of 1e+06"),
}


@pytest.mark.parametrize("argv, seconds, code, shown", ROWS.values(), ids=ROWS)
def test_a_run_stays_within_its_memory_and_time(tmp_path, argv, seconds, code, shown):
    report = str(tmp_path / "report.jsonl")
    argv = [report if word == REPORT else word for word in argv.split()]
    run = subprocess.run([sys.executable, "-c", _CAPPED, *argv],
                         capture_output=True, text=True, timeout=seconds,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert run.returncode == code, run.stderr
    if isinstance(shown, str):
        assert shown in run.stderr
    elif shown is not None:
        with open(report, encoding="utf-8") as fh:
            summary = json.loads(fh.read().splitlines()[-1])
        assert summary["record"] == "summary" and summary[shown[0]] == shown[1]
