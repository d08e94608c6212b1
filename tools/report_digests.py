"""Print the SHA-256 of every seeded benchmark report, one line per job,
and the dense eigensolves and Cholesky factorizations of each job list.

Usage (from any directory, no options)::

    python3 tools/report_digests.py > digests.txt

For each workload of ``perfbench/workloads.py`` and each seed 1-10 and the
holdout 90017, the tool writes the workload's matrices to a temporary
directory and runs every job in-process through ``colsel.cli.main`` from
this checkout's ``src``, with ``numpy.linalg.eigh`` and
``numpy.linalg.cholesky`` wrapped.  Each job prints a line ``workload/seed/job
sha256``, where ``job`` is the job's index in the workload's list; after the
jobs of a workload and seed comes a line ``workload/seed eigh_calls N sum_n3 M
cholesky_calls C``, where ``N`` counts the eigensolves, ``M`` sums ``n^3``
over the order ``n`` of each matrix solved and ``C`` counts the Cholesky
factorizations (the proofs of the Krylov eigen kernel): 451 + 44 = 495 lines
in all.  The eigensolves include the small tridiagonal ones of the Krylov
kernel's Lanczos runs.  Two checkouts print the same digest lines exactly
when every report, ``config`` included, is byte-identical, and the same
count lines when they make the same eigensolves and factorizations; the
wrappers see every solve, the private eigen kernels' included, which the
benchmark's traced ``linalg.eig_*`` metrics (spans around the public
``max_eig_pair``) do not.
So comparing a change with its parent is a ``diff`` of two outputs.
Digests are not committed: BLAS builds differ in the last bits; the counts
do not depend on the machine, unless such a bit moves a Lanczos convergence
test across its threshold.  Each report must also read back to
its own text (``dumps_report(json.loads(text)) == text``).  The exit status
is 1 if any job exits nonzero or any report fails that check.
"""

import os

# Pin every BLAS pool to one thread before numpy is imported, as the
# benchmark does: the thread count can change the last bits of a report.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # read perfbench/ without writing into it

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from colsel import cli, dumps_report  # noqa: E402

SEEDS = (*range(1, 11), 90017)


def main():
    calls, factorizations = [], []
    eigh, cholesky = np.linalg.eigh, np.linalg.cholesky

    def counted(h, *args, **kwargs):
        calls.append(h.shape[-1])
        return eigh(h, *args, **kwargs)

    def counted_cholesky(m, *args, **kwargs):
        factorizations.append(m.shape[-1])
        return cholesky(m, *args, **kwargs)

    # Left in place: the process ends after the jobs.
    np.linalg.eigh, np.linalg.cholesky = counted, counted_cholesky
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                workload = workloads.build(name, seed)
                directory = Path(tmp) / f"{name}-{seed}"
                directory.mkdir()
                for matrix_name, matrix in workload.matrices.items():
                    workloads.write_csv(directory / matrix_name, matrix)
                calls.clear()
                factorizations.clear()
                for index, job in enumerate(workload.jobs):
                    argv = job.argv[:-1] + [str(directory / job.argv[-1])]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    text = out.getvalue()
                    if code != 0:
                        failed += 1
                        print(f"{name}/{seed}/{index}: exit {code}: {err.getvalue().strip()}",
                              file=sys.stderr)
                    elif dumps_report(json.loads(text)) != text:
                        failed += 1
                        print(f"{name}/{seed}/{index}: the report does not read back to "
                              "its own text", file=sys.stderr)
                    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                    print(f"{name}/{seed}/{index} {digest}", flush=True)
                print(f"{name}/{seed} eigh_calls {len(calls)} "
                      f"sum_n3 {sum(n**3 for n in calls)} "
                      f"cholesky_calls {len(factorizations)}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
