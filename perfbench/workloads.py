"""Seeded inputs and job lists for the four benchmark workloads.

A workload is a list of distinct CLI jobs over matrix files generated from
the workload seed.  Each job is the argument list a user would pass to
``colsel`` plus what the independent checks need to know about it.  The
timed loop runs the whole list, in order, round after round; each list is
short enough for several rounds in a 30-second run on a 2-vCPU host.

Why each workload exists (the layer predictions are in README.md):

* ``bt-criterion5``: the acceptance criterion-5 families (standardized
  Gaussian 16x48 and the doubled identity ``[I8 I8]``).  Thousands of
  eigensolves of order 8 or less per job, inside Grothendieck mirror-descent
  solves that end by ``patience``: per-call overhead and iteration count.
* ``kt-wide``: standardized Gaussian inputs with many more columns than
  rows.  Every Pietsch solve is feasible at iteration 1, so time sits in a
  few large eigensolves and in CSV parsing: the bypass for any change to
  iteration count or per-call overhead.
* ``kt-coherent``: columns from one or two tight clusters, sized so that the
  last round's Pietsch solve is infeasible: mirror descent runs hundreds of
  evaluations on eigensolves of order 128-256 and the blended (``eta > 0``)
  factorization is built.
* ``norm-certify``: certified brackets with and without an exact oracle,
  exact enumeration and Monte Carlo experiments; no selection.
"""

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("bt-criterion5", "kt-wide", "kt-coherent", "norm-certify")

# Cluster spread for kt-coherent: tight enough that the last round (s = n)
# is infeasible at alpha = 8 K_P sqrt(s) for every seed.
CLUSTER_EPS = 0.03


@dataclass
class Job:
    """One CLI invocation and the facts its independent check needs."""

    argv: list
    kind: str  # "kt", "bt", "norm", "oracle" or "experiment"
    matrix: str  # file name inside the work directory
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    """Generated matrices (name -> array) and the job list over them."""

    name: str
    matrices: dict
    jobs: list
    # Jobs [0, trace_pass) form the fixed pass that the traced run repeats.
    trace_pass: int


def _standardize(a):
    return a / np.sqrt(np.sum(a * a, axis=0))


def _gaussian(rng, m, n):
    return _standardize(rng.standard_normal((m, n)))


def _clusters(rng, m, n, k):
    # Orthonormal centers: with random ones the cost of a two-cluster job
    # follows the angle between them (2.8 s to 5.7 s on the same shape),
    # which would make runs on different seeds incomparable.
    centers, _ = np.linalg.qr(rng.standard_normal((m, k)))
    a = centers[:, np.arange(n) % k] + CLUSTER_EPS * rng.standard_normal((m, n))
    return _standardize(a)


def _hollow_gram(b):
    g = b.T @ b
    np.fill_diagonal(g, 0.0)
    return g


def _doubled_identity():
    return np.hstack([np.eye(8), np.eye(8)])


def _cli_seed(rng):
    return str(int(rng.integers(0, 2**31)))


def bt_criterion5(seed):
    rng = np.random.default_rng([seed, 5])
    matrices = {"dblid.csv": _doubled_identity()}
    jobs = []
    for i in range(8):
        if i % 4 == 0:
            # The doubled identity is one fixed matrix; as in criterion 5,
            # its runs take the selection seeds 0, 1, ...  Their cost ranges
            # over two orders of magnitude, so drawing them from the workload
            # seed would make runs on different seeds incomparable.
            jobs.append(Job(["bt", "--seed", str(i // 4), "dblid.csv"], "bt", "dblid.csv",
                            {"doubled_identity": True}))
        else:
            name = f"gauss16x48_{i:02d}.csv"
            matrices[name] = _gaussian(rng, 16, 48)
            jobs.append(Job(["bt", "--seed", _cli_seed(rng), name], "bt", name))
    return Workload("bt-criterion5", matrices, jobs, trace_pass=4)


def kt_wide(seed):
    rng = np.random.default_rng([seed, 1])
    shapes = [(64, 512), (64, 512), (128, 1024), (64, 512)]
    matrices = {}
    jobs = []
    for i, (m, n) in enumerate(shapes):
        name = f"wide{m}x{n}_{i}.csv"
        matrices[name] = _gaussian(rng, m, n)
        jobs.append(Job(["kt", "--seed", _cli_seed(rng), name], "kt", name))
    return Workload("kt-wide", matrices, jobs, trace_pass=4)


def kt_coherent(seed):
    rng = np.random.default_rng([seed, 2])
    matrices = {}
    jobs = []
    # One two-cluster job in eight: it costs several times a one-cluster job.
    for i in range(8):
        m, n, k = (64, 256, 2) if i == 3 else (64, 128, 1)
        name = f"coherent{m}x{n}k{k}_{i:02d}.csv"
        matrices[name] = _clusters(rng, m, n, k)
        jobs.append(Job(["kt", "--seed", _cli_seed(rng), name], "kt", name))
    return Workload("kt-coherent", matrices, jobs, trace_pass=4)


def norm_certify(seed):
    rng = np.random.default_rng([seed, 3])
    matrices = {}
    jobs = []
    for s in (12, 16, 20):
        b, g = f"b16x{s}.csv", f"g{s}.csv"
        matrices[b] = _gaussian(rng, 16, s)
        matrices[g] = _hollow_gram(matrices[b])
        for kind, name in (("inf2", b), ("inf1", g)):
            jobs.append(Job(["norm", "--kind", kind, name], "norm", name, {"kind": kind}))
            jobs.append(Job(["oracle", "--kind", kind, name], "oracle", name, {"kind": kind}))
    for s in (128, 256):
        b, g = f"b64x{s}.csv", f"g{s}.csv"
        matrices[b] = _gaussian(rng, 64, s)
        matrices[g] = _hollow_gram(matrices[b])
        for kind, name in (("inf2", b), ("inf1", g)):
            jobs.append(Job(["norm", "--kind", kind, name], "norm", name, {"kind": kind}))
    # Criterion-7 style experiments: inf2 on a random 12x16 and on the
    # doubled identity, inf1 in the small-sample regime.
    matrices["a12x16.csv"] = _gaussian(rng, 12, 16)
    matrices["dblid.csv"] = _doubled_identity()
    matrices["eye16.csv"] = np.eye(16)
    experiments = [
        ("inf2", "0.25", "a12x16.csv", False),
        ("inf2", "0.5", "a12x16.csv", False),
        ("inf2", "0.5", "dblid.csv", False),
        ("inf1", "0.125", "dblid.csv", True),
        ("inf1", "0.25", "eye16.csv", True),
    ]
    for kind, delta, name, regime in experiments:
        argv = ["experiment", "--kind", kind, "--delta", delta, "--trials", "500",
                "--seed", _cli_seed(rng), name]
        if regime:
            argv.insert(-1, "--regime")
        # inf2 rows and regime inf1 rows are judged against a proven bound;
        # other inf1 rows are informational and always pass.
        meta = {"kind": kind, "judged": kind == "inf2" or regime}
        jobs.append(Job(argv, "experiment", name, meta))
    return Workload("norm-certify", matrices, jobs, trace_pass=len(jobs))


BUILDERS = {
    "bt-criterion5": bt_criterion5,
    "kt-wide": kt_wide,
    "kt-coherent": kt_coherent,
    "norm-certify": norm_certify,
}


def build(name, seed):
    return BUILDERS[name](seed)


def write_csv(path, a):
    """Write ``a`` as CSV with round-trip exact 17-digit decimals."""
    lines = [",".join(format(float(v), ".17g") for v in row) for row in a]
    path.write_text("\n".join(lines) + "\n")
