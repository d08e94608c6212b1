"""Independent checks of CLI reports, using numpy only.

Nothing here calls into ``colsel``: spectral quantities are re-measured with
numpy's SVD and the (inf->2) and (inf->1) norms of small inputs are found by
enumerating sign vectors.  Each check returns a list of failure messages;
an empty list means the report passed.
"""

import math

import numpy as np

K_P = math.sqrt(math.pi / 2.0)
K_G = 1.783
BRACKET_SLACK = 1.05  # the CLI's default rel-tol
KAPPA_SLACK = 1e-10  # bt accepts kappa <= threshold * (1 + KAPPA_SLACK)
# The jobs run with the CLI's default thresholds; a report's own config is
# not trusted for the check.
KT_NORM_LIMIT = 15.0
BT_KAPPA_LIMIT = math.sqrt(3.0) * (1.0 + KAPPA_SLACK)
ORACLE_MAX_COLUMNS = 20
REL = 1e-9


def exact_norm(mat, kind):
    """``max ||mat x||`` over sign vectors, 2-norm for inf2, 1-norm for inf1."""
    s = mat.shape[1]
    best = 0.0
    total = 1 << (s - 1)
    block = 1 << 14
    shifts = np.arange(s - 1, dtype=np.int64)
    for start in range(0, total, block):
        codes = np.arange(start, min(start + block, total), dtype=np.int64)
        signs = np.ones((codes.size, s))
        signs[:, 1:] -= 2.0 * ((codes[:, None] >> shifts) & 1)
        images = mat @ signs.T
        if kind == "inf2":
            scores = np.sqrt(np.einsum("ij,ij->j", images, images))
        else:
            scores = np.abs(images).sum(axis=0)
        best = max(best, float(scores.max()))
    return best


def stable_rank(a):
    """``||A||_F^2 / ||A||_2^2``."""
    return float(np.sum(a * a)) / float(np.linalg.norm(a, 2)) ** 2


def doubled_identity_pairs(tau):
    """Pairs ``{j, j + 8}`` of duplicate columns both present in ``tau``."""
    present = set(int(t) for t in tau)
    return [(j, j + 8) for j in range(8) if j in present and j + 8 in present]


def _attained(mat, x, kind):
    y = mat @ np.asarray(x, dtype=float)
    return float(np.linalg.norm(y)) if kind == "inf2" else float(np.abs(y).sum())


def _is_sign_vector(x, s):
    x = np.asarray(x, dtype=float)
    return x.shape == (s,) and bool(np.all(np.abs(x) == 1.0))


class Checker:
    """Checks reports against the matrices they were computed from.

    Exact norms are cached per (matrix, kind), since several jobs share an
    input.
    """

    def __init__(self, matrices):
        self.matrices = matrices
        self._exact = {}

    def exact(self, name, kind):
        key = (name, kind)
        if key not in self._exact:
            self._exact[key] = exact_norm(self.matrices[name], kind)
        return self._exact[key]

    def check(self, job, report):
        try:
            result = report["result"]
            return getattr(self, "_" + job.kind)(job, result, report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed report: {exc!r}"]

    def _selection(self, job, result, metric, limit):
        a = self.matrices[job.matrix]
        tau = np.asarray(result["tau"], dtype=np.int64)
        errors = []
        if tau.size == 0 or np.any(np.diff(tau) <= 0) or tau[0] < 0 or tau[-1] >= a.shape[1]:
            return [f"tau is not a sorted subset of range({a.shape[1]})"]
        if result["cardinality"] != tau.size:
            errors.append("cardinality does not match tau")
        sv = np.linalg.svd(a[:, tau], compute_uv=False)
        if metric == "norm_of_tau":
            measured = float(sv[0])
        else:
            measured = float(sv[0] / sv[-1]) if tau.size <= a.shape[0] else math.inf
        reported = result[metric]
        if measured > limit:
            errors.append(f"{metric} re-measured {measured!r} exceeds {limit!r}")
        if not math.isclose(measured, reported, rel_tol=1e-8):
            errors.append(f"{metric} reported {reported!r}, re-measured {measured!r}")
        sr = stable_rank(a)
        if not math.isclose(sr, result["stable_rank"], rel_tol=1e-8):
            errors.append(f"stable rank reported {result['stable_rank']!r}, re-measured {sr!r}")
        if result["attempts"] != len(result["per_round_log"]):
            errors.append("attempts does not match per_round_log")
        return errors

    def _kt(self, job, result, report):
        return self._selection(job, result, "norm_of_tau", KT_NORM_LIMIT)

    def _bt(self, job, result, report):
        errors = self._selection(job, result, "kappa_of_tau", BT_KAPPA_LIMIT)
        if job.meta.get("doubled_identity"):
            pairs = doubled_identity_pairs(result["tau"])
            if pairs:
                errors.append(f"duplicate columns selected together: {pairs}")
        return errors

    def _norm(self, job, result, report):
        kind = job.meta["kind"]
        mat = self.matrices[job.matrix]
        lower, upper = result["lower"], result["upper"]
        errors = []
        if not 0.0 < lower <= upper:
            errors.append(f"bracket [{lower!r}, {upper!r}] is not ordered")
        if not _is_sign_vector(result["witness"], mat.shape[1]):
            errors.append("witness is not a sign vector")
        elif lower > _attained(mat, result["witness"], kind) * (1.0 + REL):
            errors.append("witness does not attain the lower end")
        if not math.isclose(result["ratio"], upper / lower, rel_tol=1e-12):
            errors.append("ratio is not upper / lower")
        if mat.shape[1] <= ORACLE_MAX_COLUMNS:
            truth = self.exact(job.matrix, kind)
            constant = K_P if kind == "inf2" else K_G
            if not lower <= truth * (1.0 + REL) or not truth <= upper * (1.0 + REL):
                errors.append(f"exact norm {truth!r} outside [{lower!r}, {upper!r}]")
            if upper / truth > constant * BRACKET_SLACK:
                errors.append(f"upper / exact = {upper / truth!r} exceeds {constant} * 1.05")
        return errors

    def _oracle(self, job, result, report):
        kind = job.meta["kind"]
        mat = self.matrices[job.matrix]
        truth = self.exact(job.matrix, kind)
        errors = []
        if not math.isclose(result["value"], truth, rel_tol=REL):
            errors.append(f"oracle value {result['value']!r}, enumeration gives {truth!r}")
        if not _is_sign_vector(result["witness"], mat.shape[1]):
            errors.append("witness is not a sign vector")
        elif not math.isclose(_attained(mat, result["witness"], kind), truth, rel_tol=REL):
            errors.append("witness does not attain the oracle value")
        return errors

    def _experiment(self, job, result, report):
        errors = []
        rows = result["results"]
        for row in rows:
            bound = row["theoretical_bound"] + 3.0 * row["std_error"]
            if not row["passed"]:
                errors.append(f"{row['model']} row failed its bound")
            elif job.meta["judged"] and row["empirical_mean"] > bound * (1.0 + 1e-9):
                errors.append(f"{row['model']} mean exceeds bound + 3 se but passed")
        if job.meta["kind"] == "inf2":
            poisson = result["poissonization"]
            p_rows = [row for row in rows if row["model"] == "P_delta"]
            if len(rows) != 2 or not p_rows:
                errors.append("inf2 experiment must report both models")
            elif not poisson["ok"] or poisson["lhs"] > poisson["rhs"]:
                errors.append("Poissonization check failed")
            elif poisson["lhs"] != p_rows[0]["empirical_mean"]:
                errors.append("Poissonization lhs is not the P_delta mean")
        return errors
