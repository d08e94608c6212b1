"""Monte Carlo checks of expected-norm bounds for random submatrices.

Two sampling models: ``P_delta`` keeps exactly ``floor(delta n)`` uniformly
chosen coordinates, ``R_delta`` keeps each coordinate independently with
probability ``delta``.  For monotonic norms the fixed-cardinality
expectation is at most twice the independent one ("Poissonization"), which
these experiments verify empirically alongside the direct expectation
bounds:

* ``E ||A R_delta||_{inf->2} <= sqrt(2 delta (1-delta)) ||A||_F
  + delta ||A||_{inf->2}``
* for standardized ``A`` and ``s = floor(delta n) <= ceil(2 st.rank)``:
  ``E ||A P_delta||_{inf->2} <= 7 sqrt(s)``
* for the hollow Gram matrix ``H`` and ``s`` at most a small multiple of
  the stable rank: ``E ||P_delta H P_delta||_{inf->1} <= s / 9``

Norms are evaluated by exact enumeration, so the matrix is capped at
``exact.ENUMERATION_CAP`` columns; the full-matrix oracle call refuses a
wider input before any trial is drawn.  Each model of an experiment draws
from one stream (``SeedSequence(seed, spawn_key=(stream,))``), making every
experiment deterministic in the seed.  Trials are drawn ``_TRIAL_CHUNK`` at a
time as one uniform block, and consecutive blocks of a stream equal one
large block, so results do not depend on the chunk size.  The submatrices
of a block are scored in stacks of one shape by the path the single-matrix
oracles take (``exact._batched_norms``), with the same bits.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, _require_count, _require_seed, _stream
from .exact import _batched_norms, norm_inf1_exact, norm_inf2_exact
from .linalg import as_matrix, frobenius_norm, hollow_gram, is_standardized, stable_rank

MIN_TRIALS = 100
# keeps the trial-values array within the 80 MB that io.MAX_ENTRIES allows an input
MAX_TRIALS = 10**7
# trials drawn before each batched scoring; bounds the memory of the draws
_TRIAL_CHUNK = 1024
# absorbs summation rounding when the estimate sits exactly on its bound
_PASS_ULP_SLACK = 1e-12


@dataclass
class ExperimentResult:
    """Summary of one Monte Carlo estimate against a theoretical bound.

    ``passed`` applies the three-standard-error cushion
    ``mean <= bound + 3 se``; rows whose bound is informational (no proven
    constant) set it true and record ``fitted_constant`` instead.
    """

    trials: int
    empirical_mean: float
    theoretical_bound: float
    std_error: float
    passed: bool
    model: str
    delta: float
    fitted_constant: Optional[float] = None


def _trial_values(kind, take, model, n, delta, seed, stream, trials):
    """Exact ``kind`` norms of ``take(idx)`` over the trials' draws.

    Draws ``_TRIAL_CHUNK`` trials at a time from the model's one stream,
    then scores them in batches.
    """
    rng = _stream(seed, stream)
    values = np.empty(trials)
    for start in range(0, trials, _TRIAL_CHUNK):
        stop = min(start + _TRIAL_CHUNK, trials)
        mats = [take(idx) for idx in _draws(model, n, delta, rng, stop - start)]
        values[start:stop] = _batched_norms(mats, kind)
    return values


def _require_delta(delta):
    if not 0.0 <= delta <= 1.0:
        raise DomainError("delta must lie in [0, 1]")


def _draws(model, n, delta, rng, count):
    """Sorted indices kept by ``count`` draws of the coordinate projector.

    One ``(count, n)`` uniform block: ``R_delta`` keeps ``u < delta`` in each
    row; ``P_delta`` keeps the first ``floor(delta n)`` entries of each row's
    ``argsort``, a uniform subset of that size.
    """
    if model not in ("P", "R"):
        raise DomainError(f"unknown sampling model {model!r}")
    u = rng.random((count, n))
    if model == "R":
        return [np.flatnonzero(row) for row in u < delta]
    s = math.floor(delta * n)
    return list(np.sort(np.argsort(u, axis=1)[:, :s], axis=1))


def sample_projector(model, n, delta, rng):
    """Sorted indices kept by one draw of the coordinate projector."""
    _require_delta(delta)
    return _draws(model, _require_count(n, "n", 0), delta, rng, 1)[0]


def _passes(mean, bound, se):
    return mean <= bound + 3.0 * se + _PASS_ULP_SLACK * max(1.0, abs(bound))


def _result(values, bound, model, delta, fitted_constant=None, *, judged=True):
    """The row of trial ``values`` against ``bound``: their mean and standard
    error, and ``passed`` by :func:`_passes` (always, for a row not ``judged``)."""
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    return ExperimentResult(
        trials=values.size,
        empirical_mean=mean,
        theoretical_bound=bound,
        std_error=se,
        passed=not judged or _passes(mean, bound, se),
        model=model,
        delta=float(delta),
        fitted_constant=fitted_constant,
    )


def _check_experiment(a, delta, trials, seed):
    """The checked ``(a, trials, seed)`` of an experiment."""
    _require_delta(delta)
    return (as_matrix(a, "A"), _require_count(trials, "trials", MIN_TRIALS, MAX_TRIALS),
            _require_seed(seed))


def check_inf2_reduction(a, delta, trials, seed=0):
    """Estimate ``E ||A P|| _{inf->2}`` under both models and compare to theory.

    Returns ``(r_result, p_result)``.  The independent-selector bound is the
    direct expectation estimate; the fixed-cardinality bound is ``7 sqrt(s)``
    when the standardized small-sample regime holds and twice the
    independent-selector bound otherwise (via Poissonization).
    """
    a, trials, seed = _check_experiment(a, delta, trials, seed)
    n = a.shape[1]
    inf2_full, _ = norm_inf2_exact(a)
    r_bound = math.sqrt(2.0 * delta * (1.0 - delta)) * frobenius_norm(a) + delta * inf2_full

    def columns(idx):
        return a[:, idx]

    r_values = _trial_values("inf2", columns, "R", n, delta, seed, 0, trials)
    p_values = _trial_values("inf2", columns, "P", n, delta, seed, 1, trials)

    s = int(math.floor(delta * n))
    in_regime = (
        s > 0
        and is_standardized(a)
        and s <= math.ceil(2.0 * stable_rank(a))
    )
    p_bound = 7.0 * math.sqrt(s) if in_regime else 2.0 * r_bound

    r_result = _result(r_values, r_bound, "R_delta", delta)
    p_result = _result(p_values, p_bound, "P_delta", delta)
    return r_result, p_result


def poissonization_check(p_result, r_result):
    """``E_P <= 2 E_R`` with a three-standard-error cushion on both sides."""
    combined = math.sqrt(p_result.std_error**2 + (2.0 * r_result.std_error) ** 2)
    lhs = p_result.empirical_mean
    rhs = 2.0 * r_result.empirical_mean + 3.0 * combined
    return lhs <= rhs, lhs, rhs


def check_inf1_reduction(a, delta, trials, seed=0, *, regime=False):
    """Estimate ``E ||P H P||_{inf->1}`` for the hollow Gram matrix ``H``.

    With ``regime=True`` the caller asserts ``s = floor(delta n)`` is within
    the small multiple of the stable rank where the ``s / 9`` expectation
    bound applies, and the result is judged against it.  Otherwise the row is
    informational: the bound column records the structural estimate
    ``delta^2 ||H||_{inf->1} + delta^{3/2} (||H||_col + ||H^T||_col)``
    (hollow matrices have no diagonal term) and ``fitted_constant`` is the
    ratio of the empirical mean to it.
    """
    a, trials, seed = _check_experiment(a, delta, trials, seed)
    n = a.shape[1]
    h = hollow_gram(a)
    inf1_full, _ = norm_inf1_exact(h)
    s = int(math.floor(delta * n))

    def principal(idx):
        return h[np.ix_(idx, idx)]

    values = _trial_values("inf1", principal, "P", n, delta, seed, 2, trials)
    mean = float(values.mean())

    col_norms = float(np.sqrt(np.sum(h * h, axis=0)).sum())
    bracket = delta**2 * inf1_full + delta**1.5 * 2.0 * col_norms
    fitted = mean / bracket if bracket > 0 else None
    bound = s / 9.0 if regime else bracket
    return _result(values, bound, "P_delta", delta, fitted, judged=regime)
