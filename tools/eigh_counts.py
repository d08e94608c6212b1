"""Print how many dense eigensolves each benchmark job list makes.

Usage (from any directory, no options)::

    python3 tools/eigh_counts.py > eigh.txt

For each workload of ``perfbench/workloads.py`` at seed 1 and the holdout
90017, the tool writes the workload's matrices to a temporary directory and
runs every job once, in-process, through ``colsel.cli.main`` from this
checkout's ``src``, with ``numpy.linalg.eigh`` wrapped.  Each line reads
``workload/seed eigh_calls N sum_n3 M``, where ``N`` counts the calls and
``M`` sums ``n^3`` over the order ``n`` of each matrix solved: 8 lines in
all.  The wrapper sees every solve, the private eigen kernel's included,
which the benchmark's traced ``linalg.eig_*`` metrics (spans around the
public ``max_eig_pair``) do not, so comparing the eigensolves of a change
with its parent's is a ``diff`` of two outputs.  The counts do not depend on
the machine.  The exit status is 1 if any job exits nonzero.
"""

import os

# Pin every BLAS pool to one thread before numpy is imported, as the
# benchmark does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # read perfbench/ without writing into it

import workloads  # noqa: E402

from colsel import cli  # noqa: E402

SEEDS = (1, 90017)


def main():
    calls = []
    eigh = np.linalg.eigh

    def counted(h, *args, **kwargs):
        calls.append(h.shape[-1])
        return eigh(h, *args, **kwargs)

    np.linalg.eigh = counted
    failed = 0
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name in workloads.WORKLOADS:
                for seed in SEEDS:
                    workload = workloads.build(name, seed)
                    directory = Path(tmp) / f"{name}-{seed}"
                    directory.mkdir()
                    for matrix_name, matrix in workload.matrices.items():
                        workloads.write_csv(directory / matrix_name, matrix)
                    calls.clear()
                    for index, job in enumerate(workload.jobs):
                        argv = job.argv[:-1] + [str(directory / job.argv[-1])]
                        err = io.StringIO()
                        with contextlib.redirect_stdout(io.StringIO()), \
                                contextlib.redirect_stderr(err):
                            code = cli.main(argv)
                        if code != 0:
                            failed += 1
                            print(f"{name}/{seed}/{index}: exit {code}: "
                                  f"{err.getvalue().strip()}", file=sys.stderr)
                    print(f"{name}/{seed} eigh_calls {len(calls)} "
                          f"sum_n3 {sum(n**3 for n in calls)}", flush=True)
    finally:
        np.linalg.eigh = eigh
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
