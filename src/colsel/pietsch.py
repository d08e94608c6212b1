"""Pietsch factorization ``B = T D`` by eigenvalue minimization.

For a nonnegative diagonal ``D`` with ``trace(D^2) = 1``, a factorization
with ``||T|| <= alpha`` exists iff ``lambda_max(B^T B - alpha^2 D^2) <= 0``.
:class:`PietschObjective` is that program (``p = 2``) for the factorization
core :mod:`colsel.factor`, whose bracket for the NP-hard ``||B||_{inf->2}``
is within the constant ``K_P = sqrt(pi/2)`` for the real field.
"""

import functools
import math

import numpy as np

from .emd import EMD_BUDGET
from .factor import (
    REL_TOL,
    EigenProgram,
    Factorization,
    NormBracket,
    _bracket,
    _evaluate,
    _factorize,
    _start_signs,
)
from .linalg import (EigPair, _gram_top_pair, _ldexp, _require_residual, _unit_scaled,
                     as_matrix)

PIETSCH_CONSTANT = math.sqrt(math.pi / 2.0)

PietschFactorization = Factorization


class PietschObjective(EigenProgram):
    """Evaluator for ``lambda_max(B^T B - alpha^2 diag(f))``, one branch.

    Its branch is ``B^T B``, formed on first use.  Its level-free pair is
    solved on ``B^T B`` or, for an ``m x s`` matrix with ``m < s``, on the
    ``m x m`` Gram ``B B^T``, whose top vector ``v`` gives ``u = B^T v /
    ||B^T v||``, so a wide solve feasible at the start never forms ``B^T B``.
    Either Gram goes through the Gram memo, so within a Gram scope
    (:func:`colsel.linalg._gram_scope`) a spectral norm of ``B`` taken next,
    such as the selection's check of a sample that pruning kept whole, reuses
    its pair.  Its shifted solves try Lanczos first.  It is the
    Pietsch program of :mod:`colsel.factor`; ``B`` and ``alpha`` are trusted,
    outside input goes through :func:`pietsch_objective`.
    """

    power = 2
    constant = PIETSCH_CONSTANT
    name = "B"
    _krylov = True

    def __init__(self, b, alpha):
        self.b = b
        self.level = alpha**2

    @functools.cached_property
    def _branches(self):
        return (self.b.T @ self.b,)

    def _level_free(self):  # from the smaller Gram, through the Gram memo
        m, s = self.b.shape
        return [_gram_top_pair(self._branches[0]) if m >= s else _short_side_pair(self.b)]

    def improve(self, x):
        return improve_sign_witness_inf2(self.b, x)

    def split(self, d):
        """``T = B pinv(D)``."""
        t = np.zeros_like(self.b)
        np.divide(self.b, d, out=t, where=d > 0.0)
        return t

    def join(self, t, d):
        """``T D``."""
        return t * d


def _short_side_pair(b):
    """The top pair of ``B^T B`` for a wide ``B``, from the ``m x m`` Gram ``B B^T``."""
    k = b @ b.T
    top = _gram_top_pair(k)
    w = b.T @ top.vector
    norm_w = math.sqrt(float(w @ w))
    if norm_w > 0.0:
        u = w / norm_w
    else:  # B B^T vanished: take e_0 and let the residual judge it
        u = np.zeros(b.shape[1])
        u[0] = 1.0
    r = b.T @ (b @ u) - top.value * u
    resid = math.sqrt(float(r @ r))
    _require_residual(resid, lambda: math.sqrt(float(np.sum(k * k))))
    return EigPair(top.value, u, resid)


def pietsch_objective(b, alpha, f):
    """Value and subgradient of the factorization program at weights ``f``."""
    return _evaluate(PietschObjective, as_matrix(b, "B"), alpha, f)


def pietsch_factorize(b, alpha, emd_budget=EMD_BUDGET) -> PietschFactorization:
    """Factor ``B = T D`` with ``||T|| <= alpha_effective``.

    Runs mirror descent on the eigenvalue objective with an early exit at
    zero.  If the certified best value ``eta`` is nonpositive the weights are
    used as-is and ``alpha_effective = alpha``; otherwise the blended weights
    ``(alpha^2 f + eta) / (alpha^2 + eta s)`` are used and
    ``alpha_effective = sqrt(alpha^2 + eta s)``.

    The solve runs at unit scale (:mod:`colsel.factor`); ``t``, ``t_norm``,
    ``alpha_effective`` and the residual scale with ``B``, ``eta`` with its
    square.  :mod:`colsel.factor` owns the input checks and the zero-matrix
    rule.
    """
    return _factorize(PietschObjective, as_matrix(b, "B"), alpha, emd_budget)


def improve_sign_witness_inf2(b, x):
    """Greedy single-flip ascent of ``||B x||_2`` over sign vectors.

    ``B`` needs a column and ``x`` one finite entry per column; the signs
    of ``x`` start the ascent (zeros count as ``+1``).  It runs at unit scale
    and stops below a gain relative to ``||B x||_2^2``, so it is homogeneous.
    """
    b = as_matrix(b, "B")
    x = _start_signs(x, b.shape[1], "B")
    b, e = _unit_scaled(b)
    col_sq = np.sum(b * b, axis=0)
    y = b @ x
    for _ in range(4 * b.shape[1]):
        gains = 4.0 * (col_sq - x * (b.T @ y))
        j = int(np.argmax(gains))
        if gains[j] <= 1e-12 * float(y @ y):
            break
        y = y - 2.0 * x[j] * b[:, j]
        x[j] = -x[j]
    y = b @ x  # fresh product: the incremental updates drift at ulp level
    return _ldexp(math.sqrt(float(y @ y)), e), x


def pietsch_optimal_alpha(b, rel_tol=REL_TOL, emd_budget=EMD_BUDGET) -> NormBracket:
    """Certified bracket for ``||B||_{inf->2}``, bisecting over ``alpha`` if needed.

    The lower bound is ``||B x||_2`` at the best start sign vector (all ones
    and the signs of the top eigenvector of ``B^T B``, each polished by
    greedy flips).  The upper bound is the smallest measured factor norm:
    first the uniform factorization's, ``sqrt(s) ||B||`` from the same
    spectrum, then each probe's.  Bisection stops once ``alpha_hi /
    alpha_lo <= K_P (1 + rel_tol)`` or the search interval has collapsed to
    relative width ``rel_tol``, a test made before the first probe too;
    exhausting ``factor.MAX_PROBES`` probes first returns the current
    bracket flagged as not converged.  The bracket runs at unit scale, like
    :func:`pietsch_factorize`, and its ends are scaled back;
    ``lower_witness`` has first entry ``+1``.  The zero matrix gets the
    bracket ``[0, 0]``.
    """
    b = as_matrix(b, "B")
    return _bracket(PietschObjective, b, rel_tol, emd_budget, pietsch_factorize)
