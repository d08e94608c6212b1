"""Randomized well-conditioned column selection.

Two pipelines share one skeleton: sample ``s`` columns uniformly, factor the
sampled submatrix, keep the columns whose squared diagonal weight is at most
``2/s`` (Markov: at least half survive), and accept the candidate if it
passes a spectral check that is re-verified independently of the solver.
The outer loop doubles ``s`` starting from 4, giving each size
``ceil(8 log2 s)`` attempts, and stops after the first size whose accepted
set no longer keeps pace with ``s``.

``kt_select`` controls the spectral norm (threshold 15); ``bt_select``
controls the condition number (threshold ``sqrt(3)``) by driving down the
(inf->1) norm of the hollow Gram matrix.  Reports are deterministic functions
of (matrix, seed, config): every sampling attempt draws from its own stream
spawned as ``SeedSequence(seed, spawn_key=(round, attempt))``, so attempts
are independent and could run in parallel without changing the result.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, InfeasibleFactorization, SolverError
from .grothendieck import groth_factorize
from .linalg import (
    as_matrix,
    condition_number,
    hollow_gram,
    is_standardized,
    spectral_norm,
)
from .pietsch import PIETSCH_CONSTANT, pietsch_factorize

KT_NORM_THRESHOLD = 15.0
BT_KAPPA_THRESHOLD = math.sqrt(3.0)
PRUNE_RATIO = 2.0  # keep columns with d_jj^2 <= PRUNE_RATIO / s
_KAPPA_SLACK = 1e-10


@dataclass
class SelectConfig:
    """Tunables for the selection pipelines.

    ``emd_iterations`` is the evaluation budget of each inner solve.
    """

    emd_iterations: int = 5000
    norm_threshold: float = KT_NORM_THRESHOLD
    kappa_threshold: float = BT_KAPPA_THRESHOLD


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


def _attempt_rng(seed, round_index, attempt_index):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(round_index, attempt_index))
    return np.random.Generator(np.random.PCG64(ss))


def _prune(sample, weights_sq, s):
    keep = weights_sq <= PRUNE_RATIO / s
    return sample[keep]


def norm_reduce(a, s, rng, config: Optional[SelectConfig] = None):
    """One sampling + factorization + pruning pass for the norm pipeline.

    Draws ``s`` columns, factors them at level ``alpha = 8 K_P sqrt(s)``,
    and returns the surviving original column indices.  Returns ``None``
    when the inner solve signals no usable candidate.
    """
    config = config or SelectConfig()
    a = as_matrix(a, "A")
    sample = random_subset(a.shape[1], s, rng)
    alpha = 8.0 * PIETSCH_CONSTANT * math.sqrt(s)
    try:
        fact = pietsch_factorize(a[:, sample], alpha, config.emd_iterations)
    except (InfeasibleFactorization, SolverError):
        return None
    return _prune(sample, fact.d**2, s)


def cond_reduce(a, s, rng, config: Optional[SelectConfig] = None):
    """One sampling + factorization + pruning pass for the conditioning pipeline.

    Forms the hollow Gram matrix of the sampled columns, factors it at level
    ``alpha = s / 4``, and returns the surviving original column indices.
    """
    config = config or SelectConfig()
    a = as_matrix(a, "A")
    sample = random_subset(a.shape[1], s, rng)
    g = hollow_gram(a[:, sample])
    try:
        fact = groth_factorize(g, s / 4.0, config.emd_iterations)
    except (InfeasibleFactorization, SolverError):
        return None
    return _prune(sample, fact.d**2, s)


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


def _doubling_search(a, seed, config, reduce_step, metric, accepts):
    n = a.shape[1]
    tau_star = np.array([0], dtype=np.int64)
    best_metric = metric(a[:, tau_star])
    log = []
    attempts = 0

    for round_index, s in enumerate(_size_schedule(n)):
        tries = max(1, math.ceil(8.0 * math.log2(s))) if s > 1 else 1
        for k in range(1, tries + 1):
            rng = _attempt_rng(seed, round_index, k)
            candidate = reduce_step(a, s, rng, config)
            attempts += 1
            if candidate is None:
                log.append((s, k, 0, None))
                continue
            value = metric(a[:, candidate])
            log.append((s, k, int(candidate.size), value))
            if accepts(value):
                tau_star = candidate
                best_metric = value
                break
        if tau_star.size < s:
            break

    return SelectionReport(
        tau=tau_star,
        accepted_metric=best_metric,
        attempts=attempts,
        per_round_log=log,
        seed=seed,
    )


def _require_standardized(a):
    a = as_matrix(a, "A")
    if a.shape[1] == 0:
        raise DomainError("A must have at least one column")
    if not is_standardized(a):
        raise DomainError(
            "A must have unit-norm columns; standardize it first"
        )
    return a


def kt_select(a, seed=0, config: Optional[SelectConfig] = None) -> SelectionReport:
    """Select columns with ``||A_tau|| <= 15`` and size about the stable rank.

    Doubling search over sample sizes with :func:`norm_reduce` inside; a
    candidate is accepted only after its spectral norm is re-measured and
    passes the threshold.  Always returns at least column 0.
    """
    config = config or SelectConfig()
    a = _require_standardized(a)
    return _doubling_search(
        a,
        int(seed),
        config,
        norm_reduce,
        lambda sub: spectral_norm(sub),
        lambda value: value <= config.norm_threshold,
    )


def bt_select(a, seed=0, config: Optional[SelectConfig] = None) -> SelectionReport:
    """Select columns with ``kappa(A_tau) <= sqrt(3)``.

    Doubling search with :func:`cond_reduce` inside; candidates are accepted
    on a re-measured condition number.  Always returns at least column 0.
    """
    config = config or SelectConfig()
    a = _require_standardized(a)
    return _doubling_search(
        a,
        int(seed),
        config,
        cond_reduce,
        condition_number,
        lambda value: value <= config.kappa_threshold * (1.0 + _KAPPA_SLACK),
    )
