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
large block, so results do not depend on the chunk size.  A block's rows
that keep ``k`` coordinates gather their submatrices as one stack, scored by
the path the single-matrix oracles take (``exact._stack_values``), with the
same bits; statistics and bounds are taken at unit scale, so they scale
exactly, and a bound beyond the float range is refused with ``DomainError``.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, _require_count, _require_seed, _stream
from .exact import _stack_values, norm_inf1_exact, norm_inf2_exact
from .linalg import (_ldexp, _scaled_back, _unit_scaled, as_matrix, frobenius_norm,
                     hollow_gram, is_standardized, stable_rank)

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
    """Exact ``kind`` norms of the stacks ``take(idx)`` over the trials' draws.

    Draws ``_TRIAL_CHUNK`` trials at a time from the model's one stream; the
    rows of a chunk that keep ``k`` coordinates give one ``(rows, k)`` array
    of sorted indices, whose submatrices ``take`` gathers as one stack.
    """
    rng = _stream(seed, stream)
    values = np.empty(trials)
    for start in range(0, trials, _TRIAL_CHUNK):
        keep = _draws(model, n, delta, rng, min(_TRIAL_CHUNK, trials - start))
        sizes = keep.sum(axis=1)
        for k in np.unique(sizes):
            rows = np.flatnonzero(sizes == k)
            idx = np.nonzero(keep[rows])[1].reshape(rows.size, k)
            values[start + rows] = _stack_values(take(idx), kind)
    return values


def _require_delta(delta):
    if not 0.0 <= delta <= 1.0:
        raise DomainError("delta must lie in [0, 1]")


def _draws(model, n, delta, rng, count):
    """The ``(count, n)`` keep mask of ``count`` draws of the coordinate projector.

    One ``(count, n)`` uniform block: ``R_delta`` keeps ``u < delta`` in each
    row; ``P_delta`` keeps the entries whose rank in their row is below
    ``floor(delta n)``, a uniform subset of that size.
    """
    if model not in ("P", "R"):
        raise DomainError(f"unknown sampling model {model!r}")
    u = rng.random((count, n))
    if model == "R":
        return u < delta
    return np.argsort(np.argsort(u, axis=1), axis=1) < math.floor(delta * n)


def sample_projector(model, n, delta, rng):
    """Sorted indices kept by one draw of the coordinate projector."""
    _require_delta(delta)
    return np.flatnonzero(_draws(model, _require_count(n, "n", 0), delta, rng, 1)[0])


def _passes(mean, bound, se):
    return mean <= bound + 3.0 * se + _PASS_ULP_SLACK * max(1.0, abs(bound))


def _result(values, bound, model, delta, fitted_constant=None, *, judged=True):
    """The row of trial ``values`` against ``bound``: their mean and standard
    error (at unit scale), and ``passed`` by :func:`_passes` (always, if not ``judged``)."""
    unit, e = _unit_scaled(values[None])
    mean = _ldexp(float(unit.mean()), e)
    se = _ldexp(float(unit.std(ddof=1) / math.sqrt(values.size)), e)
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
    # The bounds are taken at unit scale and refused beyond the float range.
    unit, e = _unit_scaled(a)
    inf2, _ = norm_inf2_exact(unit)
    _scaled_back(inf2, e, "A's (inf->2) norm")  # no trial value passes it
    r_unit = math.sqrt(2.0 * delta * (1.0 - delta)) * frobenius_norm(unit) + delta * inf2
    r_bound = _scaled_back(r_unit, e, "the R_delta bound")
    s = int(math.floor(delta * n))
    in_regime = (
        s > 0
        and is_standardized(a)
        and s <= math.ceil(2.0 * stable_rank(a))
    )
    if in_regime:
        p_bound = 7.0 * math.sqrt(s)
    else:
        p_bound = _scaled_back(2.0 * r_unit, e, "the P_delta bound")

    def columns(idx):  # each member laid out as a[:, idx]
        return a.T[idx].transpose(0, 2, 1)

    r_values = _trial_values("inf2", columns, "R", n, delta, seed, 0, trials)
    p_values = _trial_values("inf2", columns, "P", n, delta, seed, 1, trials)

    r_result = _result(r_values, r_bound, "R_delta", delta)
    p_result = _result(p_values, p_bound, "P_delta", delta)
    return r_result, p_result


def poissonization_check(p_result, r_result):
    """``E_P <= 2 E_R`` with a three-standard-error cushion on both sides."""
    unit, e = _unit_scaled(np.array([[r_result.empirical_mean, p_result.std_error,
                                      2.0 * r_result.std_error]]))
    errors = unit[0, 1:]
    rhs = 2.0 * float(unit[0, 0]) + 3.0 * math.sqrt(float(np.sum(errors * errors)))
    rhs = _scaled_back(rhs, e, "the Poissonization bound")
    lhs = p_result.empirical_mean
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
        return h[idx[:, :, None], idx[:, None, :]]

    values = _trial_values("inf1", principal, "P", n, delta, seed, 2, trials)
    mean = float(values.mean())

    col_norms = float(np.sqrt(np.sum(h * h, axis=0)).sum())
    bracket = delta**2 * inf1_full + delta**1.5 * 2.0 * col_norms
    fitted = mean / bracket if bracket > 0 else None
    bound = s / 9.0 if regime else bracket
    return _result(values, bound, "P_delta", delta, fitted, judged=regime)
