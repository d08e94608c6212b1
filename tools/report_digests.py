"""Print the SHA-256 of every seeded benchmark report, one line per job,
and the dense eigensolves and Cholesky factorizations of each job list.

Usage (from any directory, no options)::

    python3 tools/report_digests.py > digests.txt

For each workload of ``perfbench/workloads.py`` and each seed 1-10 and the
holdout 90017, the tool writes the workload's matrices to a temporary
directory and runs every job in-process through ``colsel.cli.main`` from
this checkout's ``src``, with ``numpy.linalg.eigh`` and
``numpy.linalg.cholesky`` wrapped; each job keeps its Gram memo for itself
(``colsel.cli`` runs a job in one scope of ``colsel.linalg``), so no count
depends on the job before.  Each job prints a line ``workload/seed/job
sha256``, where ``job`` is the job's index in the workload's list; after the
jobs of a workload and seed comes a line ``workload/seed eigh_calls N sum_n3 M
cholesky_calls C``, where ``N`` counts the eigensolves, ``M`` sums ``n^3``
over the order ``n`` of each matrix solved and ``C`` counts the Cholesky
factorizations (the proofs of the Krylov eigen kernel): 451 + 44 = 495 lines.
Then the same for one more job list, ``uncovered/0``, on paths that no
workload runs (see :func:`uncovered`): 5 + 1 lines, 501 in all.  The
eigensolves include the small tridiagonal ones of the Krylov kernel's
Lanczos runs.  Two checkouts print the same digest lines exactly
when every report, ``config`` included, is byte-identical, and the same
count lines when they make the same eigensolves and factorizations; the
wrappers see every solve, the private eigen kernels' included, which the
benchmark's traced ``linalg.eig_*`` metrics (spans around the public
``max_eig_pair``, which a Gram memo hit skips) do not.
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

from colsel import cli, dumps_report, hollow_gram, standardize  # noqa: E402

SEEDS = (*range(1, 11), 90017)


def uncovered():
    """The extra job list, ``uncovered/0`` (its Gaussian's seed): its
    matrices (name -> array) and each job's argv, the matrix file last.  A
    Pietsch solve whose Krylov attempt is refused (a Gaussian's slow gap)
    before it goes dense, Grothendieck shifted solves of order 256, and one
    bracket probe of each program, on ``diag(4, 3, 1, ..., 1)``, whose
    uniform factorization does not certify its bracket, and a ``kt`` run
    whose answer rests on pruning: on a standardized 64x1024 Gaussian (seed
    7) whose first 512 columns are one random column plus 0.3 times noise,
    the s = 256 round prunes the planted columns and keeps 227."""
    rng = np.random.default_rng(0)
    b = standardize(rng.standard_normal((64, 256)))
    rng = np.random.default_rng(7)
    planted = rng.standard_normal((64, 1024))
    center = rng.standard_normal(64)
    planted[:, :512] = center[:, None] + 0.3 * rng.standard_normal((64, 512))
    matrices = {"b64x256.csv": b, "g256.csv": hollow_gram(b),
                "diag8.csv": np.diag([4.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
                "planted64x1024.csv": standardize(planted)}
    jobs = [["pietsch", "--iters", "25", "--alpha", "32", "b64x256.csv"],
            ["grothendieck", "--alpha", "64", "g256.csv"],
            ["norm", "--kind", "inf2", "diag8.csv"],
            ["norm", "--kind", "inf1", "diag8.csv"],
            ["kt", "planted64x1024.csv"]]
    return matrices, jobs


def main():
    calls, factorizations = [], []
    eigh, cholesky = np.linalg.eigh, np.linalg.cholesky

    def counted(h, *args, **kwargs):
        calls.append(h.shape[-1])
        return eigh(h, *args, **kwargs)

    def counted_cholesky(m, *args, **kwargs):
        factorizations.append(m.shape[-1])
        return cholesky(m, *args, **kwargs)

    def run_list(directory, label, matrices, jobs):
        """Print a digest line per job and the list's count line; the number
        of jobs that failed."""
        directory.mkdir()
        for matrix_name, matrix in matrices.items():
            workloads.write_csv(directory / matrix_name, matrix)
        calls.clear()
        factorizations.clear()
        failed = 0
        for index, job in enumerate(jobs):
            argv = job[:-1] + [str(directory / job[-1])]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            text = out.getvalue()
            if code != 0:
                failed += 1
                print(f"{label}/{index}: exit {code}: {err.getvalue().strip()}",
                      file=sys.stderr)
            elif dumps_report(json.loads(text)) != text:
                failed += 1
                print(f"{label}/{index}: the report does not read back to "
                      "its own text", file=sys.stderr)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            print(f"{label}/{index} {digest}", flush=True)
        print(f"{label} eigh_calls {len(calls)} "
              f"sum_n3 {sum(n**3 for n in calls)} "
              f"cholesky_calls {len(factorizations)}", flush=True)
        return failed

    # Left in place: the process ends after the jobs.
    np.linalg.eigh, np.linalg.cholesky = counted, counted_cholesky
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                workload = workloads.build(name, seed)
                failed += run_list(Path(tmp) / f"{name}-{seed}", f"{name}/{seed}",
                                   workload.matrices, [job.argv for job in workload.jobs])
        failed += run_list(Path(tmp) / "uncovered", "uncovered/0", *uncovered())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
