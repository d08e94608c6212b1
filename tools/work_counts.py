"""Print the traced work counts of every benchmark workload, one line per metric.

Usage (from any directory, no options)::

    python3 tools/work_counts.py > counts.txt

For each workload of ``perfbench/workloads.py`` at seed 1 and the holdout
90017, the tool runs this checkout's ``perfbench/run.py --trace 1 --seconds
1`` and prints every metric whose unit is ``count`` or ``B`` as
``workload/seed metric value``: 216 lines in all.  These counts do not depend
on the machine (the benchmark itself checks that they repeat from pass to
pass), so comparing the work of a change with its parent's is a ``diff`` of
two outputs, as ``report_digests.py`` is for report bytes.  Each run's detail
line goes to standard error.  The exit status is 1 unless every run is
``correct``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # read perfbench/ without writing into it

import workloads  # noqa: E402

SEEDS = (1, 90017)
UNITS = ("count", "B")


def main():
    failed = 0
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            done = subprocess.run(
                [sys.executable, "-B", str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", "1", "--trace", "1"],
                capture_output=True, text=True, check=False)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or len(lines) < 2:
                failed += 1
                print(f"{name}/{seed}: exit {done.returncode}: {done.stderr.strip()}",
                      file=sys.stderr)
                continue
            print(lines[-2], file=sys.stderr)
            summary = json.loads(lines[-1])
            if not summary["correct"]:
                failed += 1
                print(f"{name}/{seed}: not correct", file=sys.stderr)
            for metric, entry in summary["metrics"].items():
                if entry["unit"] in UNITS:
                    print(f"{name}/{seed} {metric} {entry['value']}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
