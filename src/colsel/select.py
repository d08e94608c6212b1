"""Randomized well-conditioned column selection.

Two pipelines share one skeleton: sample ``s`` columns uniformly, factor the
sampled submatrix, keep the columns whose squared diagonal weight is at most
``2/s`` (Markov: at least half survive), and accept the candidate if it
passes a spectral check that is re-verified independently of the solver:
the check slices ``A_tau`` from ``A`` and forms its Gram itself; within the
search's Gram scope it reuses only the solve of a Gram with the bits of the
factorization's last, as for a sample kept whole (:mod:`colsel.linalg`).
The outer loop doubles ``s`` starting from 4, giving each size
``ceil(8 log2 s)`` attempts, and stops after the first size whose accepted
set no longer keeps pace with ``s``.  A size that samples every column
(``s = n``, which covers ``n < 4``) gets one attempt: each further one would
factor the same matrix and measure the same candidate.

``kt_select`` controls the spectral norm (threshold 15); ``bt_select``
controls the condition number (threshold ``sqrt(3)``) by driving down the
(inf->1) norm of the hollow Gram matrix.  Reports are deterministic functions
of the matrix, the seed, the threshold and the mirror-descent budget: every
sampling attempt draws from its own stream spawned as
``SeedSequence(seed, spawn_key=(round, attempt))``, so attempts are
independent and could run in parallel without changing the result.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .emd import EMD_BUDGET
from .errors import DomainError, SolverError, _require_seed, _stream
from .grothendieck import groth_factorize
from .linalg import (
    _gram_scope,
    _require_standardized,
    as_matrix,
    condition_number,
    hollow_gram,
    spectral_norm,
)
from .pietsch import PIETSCH_CONSTANT, pietsch_factorize

KT_NORM_THRESHOLD = 15.0
BT_KAPPA_THRESHOLD = math.sqrt(3.0)
PRUNE_RATIO = 2.0  # keep columns with d_jj^2 <= PRUNE_RATIO / s
_KAPPA_SLACK = 1e-10


@dataclass
class SelectionReport:
    """Outcome of one selection run."""

    tau: np.ndarray
    accepted_metric: float
    attempts: int
    per_round_log: list = field(repr=False)
    seed: int


def random_subset(n, s, rng):
    """Uniformly random ``s``-subset of ``range(n)``, sorted."""
    if not 1 <= s <= n:
        raise DomainError(f"need 1 <= s <= n, got s={s}, n={n}")
    idx = rng.choice(n, size=s, replace=False)
    return np.sort(idx.astype(np.int64))


def _reduce(a, s, rng, factor):
    """One sampling + factorization + pruning pass: draws ``s`` columns,
    factors them with ``factor``, and returns the surviving original column
    indices, or ``None`` when the inner solve fails (:class:`SolverError`)."""
    a = as_matrix(a, "A")
    sample = random_subset(a.shape[1], s, rng)
    try:
        fact = factor(a[:, sample])
    except SolverError:
        return None
    return sample[fact.d**2 <= PRUNE_RATIO / s]


def norm_reduce(a, s, rng, emd_iterations=EMD_BUDGET):
    """The pass of the norm pipeline: Pietsch at level ``alpha = 8 K_P sqrt(s)``."""
    return _reduce(a, s, rng, lambda b: pietsch_factorize(
        b, 8.0 * PIETSCH_CONSTANT * math.sqrt(s), emd_iterations))


def cond_reduce(a, s, rng, emd_iterations=EMD_BUDGET):
    """The pass of the conditioning pipeline: Grothendieck on the hollow Gram
    matrix of the sample at level ``alpha = s / 4``."""
    return _reduce(a, s, rng, lambda b: groth_factorize(
        hollow_gram(b), s / 4.0, emd_iterations))


def _size_schedule(n):
    if n < 4:
        return [n]
    sizes = []
    s = 4
    while s < n:
        sizes.append(s)
        s *= 2
    sizes.append(n)
    return sizes


@_gram_scope()
def _doubling_search(a, seed, emd_iterations, reduce_step, metric, threshold, slack=1.0):
    """Accepts a candidate whose re-measured ``metric`` is at most
    ``threshold * slack``; the threshold must be finite and positive."""
    if not 0.0 < threshold < math.inf:  # written so that a NaN threshold is refused too
        raise DomainError(f"threshold must be finite and positive, got {threshold!r}")
    limit = min(threshold * slack, sys.float_info.max)  # the slack must not reach inf
    seed = _require_seed(seed)
    a = _require_standardized(a)
    n = a.shape[1]
    if n == 0:
        raise DomainError("A must have at least one column")
    tau_star = np.array([0], dtype=np.int64)
    best_metric = metric(a[:, tau_star])
    log = []

    for round_index, s in enumerate(_size_schedule(n)):
        tries = math.ceil(8.0 * math.log2(s)) if 1 < s < n else 1
        for k in range(1, tries + 1):
            rng = _stream(seed, round_index, k)
            candidate = reduce_step(a, s, rng, emd_iterations)
            if candidate is None:
                log.append((s, k, 0, None))
                continue
            value = metric(a[:, candidate])
            log.append((s, k, int(candidate.size), value))
            if value <= limit:
                tau_star = candidate
                best_metric = value
                break
        if tau_star.size < s:
            break

    return SelectionReport(
        tau=tau_star,
        accepted_metric=best_metric,
        attempts=len(log),
        per_round_log=log,
        seed=seed,
    )


def kt_select(
    a, seed=0, *, threshold=KT_NORM_THRESHOLD, emd_iterations=EMD_BUDGET
) -> SelectionReport:
    """Select columns with ``||A_tau|| <= threshold`` and size about the stable rank.

    Doubling search over sample sizes with :func:`norm_reduce` inside; a
    candidate is accepted only after its spectral norm is re-measured from
    its own Gram and passes the threshold.  Always returns at least column 0.
    """
    return _doubling_search(a, seed, emd_iterations, norm_reduce, spectral_norm, threshold)


def bt_select(
    a, seed=0, *, threshold=BT_KAPPA_THRESHOLD, emd_iterations=EMD_BUDGET
) -> SelectionReport:
    """Select columns with ``kappa(A_tau) <= threshold``.

    Doubling search with :func:`cond_reduce` inside; candidates are accepted
    on a re-measured condition number.  Always returns at least column 0.
    """
    return _doubling_search(a, seed, emd_iterations, cond_reduce, condition_number,
                            threshold, 1.0 + _KAPPA_SLACK)
