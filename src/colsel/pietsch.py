"""Pietsch factorization ``B = T D`` by eigenvalue minimization.

For a nonnegative diagonal ``D`` with ``trace(D^2) = 1``, a factorization
with ``||T|| <= alpha`` exists iff ``lambda_max(B^T B - alpha^2 D^2) <= 0``.
:class:`PietschObjective` is that program (``p = 2``) for the factorization
core :mod:`colsel.factor`, whose bracket for the NP-hard ``||B||_{inf->2}``
is within the constant ``K_P = sqrt(pi/2)`` for the real field.

Every eigenvalue the module needs comes from :meth:`PietschObjective.pair`.
Constant weights make the shift ``alpha^2 diag(f)`` a multiple ``c I`` of
the identity; when ``B`` also has fewer rows than columns, the top pair is
taken from the small Gram ``B B^T``, which shares the nonzero spectrum of
``B^T B``, and the ``s x s`` Gram is formed only for the first non-constant
``f``.
"""

import math
from typing import Optional

import numpy as np

from .emd import SubgradientSample
from .errors import DomainError, SolverError
from .factor import (
    CERTIFICATE_EIG_TOL,
    OBJECTIVE_EIG_TOL,
    Factorization,
    NormBracket,
    _bracket,
    _factorize,
)
from .linalg import EigPair, as_matrix, frobenius_norm, max_eig_pair

PIETSCH_CONSTANT = math.sqrt(math.pi / 2.0)

PietschFactorization = Factorization


class PietschObjective:
    """Evaluator for ``lambda_max(B^T B - alpha^2 diag(f))``.

    For constant weights on an ``m x s`` matrix with ``m < s`` the shift is
    ``c I``, ``c = alpha^2 f_0``: the top pair ``(mu, v)`` of the ``m x m``
    Gram ``B B^T`` gives ``lambda = mu - c`` and ``u = B^T v / ||B^T v||``.
    Every other ``f`` uses the ``s x s`` Gram ``B^T B``, formed on first use.
    The subgradient at ``f`` is ``-alpha^2 |u|^2`` for the returned unit top
    eigenvector ``u``.  The class is the Pietsch program of
    :mod:`colsel.factor`.
    """

    power = 2
    constant = PIETSCH_CONSTANT

    def __init__(self, b, alpha):
        self.b = as_matrix(b, "B")
        if alpha < 0:
            raise DomainError("alpha must be nonnegative")
        self.level = float(alpha) ** 2
        self._gram = None
        self._short = None

    def pair(self, f, tol, level):
        """Top eigenpair of ``B^T B - level diag(f)`` with its residual.

        The residual ``||H u - lambda u||_2`` is measured on the ``s x s``
        problem and held to ``tol * max(1, ||H||_F)`` on either path.
        """
        f = np.asarray(f, dtype=float)
        m, s = self.b.shape
        if m < s and f.max() == f.min():
            return self._short_side_pair(level * float(f[0]), tol)
        if self._gram is None:
            self._gram = self.b.T @ self.b
        h = self._gram.copy()
        idx = np.arange(s)
        h[idx, idx] -= level * f
        return max_eig_pair(h, tol)

    def _short_side_pair(self, c, tol):
        b = self.b
        if not math.isfinite(c):
            raise DomainError(f"diagonal shift {c!r} is not finite")
        if self._short is None:
            k = b @ b.T
            self._short = (k, float(np.sum(k * k)), float(np.sum(b * b)))
        k, fro_k_sq, fro_b_sq = self._short
        top = max_eig_pair(k, tol)
        w = b.T @ top.vector
        norm_w = math.sqrt(float(w @ w))
        if norm_w > 0.0:
            u = w / norm_w
        else:  # B B^T vanished: take e_0 and let the residual judge it
            u = np.zeros(b.shape[1])
            u[0] = 1.0
        r = b.T @ (b @ u) - top.value * u
        resid = math.sqrt(float(r @ r))
        # ||B^T B - c I||_F^2 = ||B B^T||_F^2 - 2 c ||B||_F^2 + s c^2, exactly.
        fro_h_sq = fro_k_sq - 2.0 * c * fro_b_sq + b.shape[1] * c * c
        scale = max(1.0, math.sqrt(max(fro_h_sq, 0.0)))
        if resid > tol * scale:
            raise SolverError(
                f"eigenpair residual {resid:.3g} exceeds {tol:g} * {scale:g}"
            )
        return EigPair(top.value - c, u, resid)

    def __call__(self, f):
        pair = self.pair(f, OBJECTIVE_EIG_TOL, self.level)
        return SubgradientSample(pair.value, -self.level * pair.vector**2)

    def certified(self, f):
        """Upper bound on the objective at ``f``: value plus residual."""
        top = self.pair(f, CERTIFICATE_EIG_TOL, self.level)
        return top.value + top.residual

    def start(self):
        """``K_P sqrt(s) ||B||`` and the top eigenvector of ``B^T B``."""
        s = self.b.shape[1]
        top = self.pair(np.ones(s), CERTIFICATE_EIG_TOL, 0.0)
        spec = math.sqrt(max(top.value, 0.0))
        return self.constant * math.sqrt(s) * spec, (top.vector,)

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


def pietsch_objective(b, alpha, f):
    """Value and subgradient of the factorization program at weights ``f``."""
    return PietschObjective(b, alpha)(f)


def pietsch_factorize(
    b,
    alpha,
    emd_budget=5000,
    *,
    eta_cap: Optional[float] = None,
) -> PietschFactorization:
    """Factor ``B = T D`` with ``||T|| <= alpha_effective``.

    Runs mirror descent on the eigenvalue objective with an early exit at
    zero.  If the certified best value ``eta`` is nonpositive the weights are
    used as-is and ``alpha_effective = alpha``; otherwise the blended weights
    ``(alpha^2 f + eta) / (alpha^2 + eta s)`` are used and
    ``alpha_effective = sqrt(alpha^2 + eta s)``.

    When ``eta_cap`` is given and ``eta`` exceeds it, raises
    :class:`InfeasibleFactorization` instead of constructing the blended
    factorization.

    The solve runs at unit scale (:mod:`colsel.factor`); ``t``, ``t_norm``,
    ``alpha_effective`` and the residual scale with ``B``, ``eta`` and
    ``eta_cap`` with its square.
    """
    b = as_matrix(b, "B")
    if b.shape[1] == 0:
        raise DomainError("B must have at least one column")
    if frobenius_norm(b) == 0.0:
        raise DomainError("B must be nonzero")
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return _factorize(PietschObjective, b, alpha, emd_budget, eta_cap)


def improve_sign_witness_inf2(b, x):
    """Greedy single-flip ascent of ``||B x||_2`` over sign vectors."""
    b = as_matrix(b, "B")
    x = np.where(np.asarray(x, dtype=float) >= 0, 1.0, -1.0)
    col_sq = np.sum(b * b, axis=0)
    y = b @ x
    for _ in range(4 * max(1, b.shape[1])):
        gains = 4.0 * (col_sq - x * (b.T @ y))
        j = int(np.argmax(gains))
        if gains[j] <= 1e-12 * max(1.0, float(y @ y)):
            break
        y = y - 2.0 * x[j] * b[:, j]
        x[j] = -x[j]
    y = b @ x  # fresh product: the incremental updates drift at ulp level
    return math.sqrt(float(y @ y)), x


def pietsch_optimal_alpha(
    b,
    rel_tol=0.05,
    emd_budget=5000,
    *,
    max_probes=48,
) -> NormBracket:
    """Certified bracket for ``||B||_{inf->2}`` by bisection over ``alpha``.

    Lower bounds come from evaluating ``||B x||_2`` at sign vectors (probes
    are the signs of top eigenvectors met during the search, polished by
    greedy flips); upper bounds are the factor norms of the factorizations
    produced along the way.  Bisection stops once
    ``alpha_hi / alpha_lo <= K_P (1 + rel_tol)`` or the search interval has
    collapsed to relative width ``rel_tol``; exhausting ``max_probes`` first
    returns the current bracket flagged as not converged.  The bisection
    runs at unit scale, like :func:`pietsch_factorize`, and the bracket
    ends and ``best`` are scaled back; ``lower_witness`` has first entry
    ``+1``.
    """
    b = as_matrix(b, "B")
    if b.shape[1] == 0 or frobenius_norm(b) == 0.0:
        raise DomainError("B must be nonzero")
    if not 0.0 < rel_tol < 1.0:
        raise DomainError("rel_tol must lie in (0, 1)")
    return _bracket(PietschObjective, b, rel_tol, emd_budget, max_probes, pietsch_factorize)
