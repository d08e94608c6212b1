"""Pietsch factorization ``B = T D`` by eigenvalue minimization.

For a nonnegative diagonal ``D`` with ``trace(D^2) = 1``, a factorization
with ``||T|| <= alpha`` exists iff ``lambda_max(B^T B - alpha^2 D^2) <= 0``.
Minimizing that eigenvalue over the simplex of squared diagonals is a convex
program solved here with entropic mirror descent; any feasible point with a
nonpositive value yields the factorization directly, and a point with small
positive value ``eta`` still yields one after blending the weights with the
uniform point (at the price of ``alpha_effective = sqrt(alpha^2 + eta s)``).

Every returned factorization certifies
``||B||_{inf->2} <= ||T|| <= alpha_effective``, which is what makes the
bisection in :func:`pietsch_optimal_alpha` a certified bracket for the
(NP-hard) norm: sign-vector probes give lower bounds, factorizations give
upper bounds, and the two meet within the factorization constant
``K_P = sqrt(pi/2)`` for the real field.

Every eigenvalue the module needs comes from :meth:`PietschObjective.pair`.
Constant weights make the shift ``alpha^2 diag(f)`` a multiple ``c I`` of
the identity; when ``B`` also has fewer rows than columns, the top pair is
taken from the small Gram ``B B^T``, which shares the nonzero spectrum of
``B^T B``, and the ``s x s`` Gram is formed only for the first non-constant
``f``.  Both public solvers work on ``B 2^-e`` at level ``alpha 2^-e``, where
``2^e`` brings the largest entry of ``B`` into ``[0.5, 1)``, and scale the
results back; scaling by a power of two is exact, so Gram entries neither
overflow nor underflow and the results are homogeneous in ``B``.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .emd import SubgradientSample, emd_minimize
from .errors import DomainError, InfeasibleFactorization, SolverError
from .linalg import (
    EigPair,
    _unit_scaled,
    as_matrix,
    frobenius_norm,
    max_eig_pair,
    spectral_norm,
)

PIETSCH_CONSTANT = math.sqrt(math.pi / 2.0)

# Only exactly-zero weights (mirror-descent underflow) take the
# pseudoinverse zero-column path; a certified nonpositive objective forces
# the matching column below this fraction of ||B||_F, which is checked.
ZERO_COLUMN_GATE = 1e-6
RECONSTRUCTION_RTOL = 1e-8
NORM_SLACK = 1e-8

# Subgradient evaluations run the eigensolver two orders tighter than the
# certificate tolerance so that mirror descent sees effectively exact values.
OBJECTIVE_EIG_TOL = 1e-11
CERTIFICATE_EIG_TOL = 1e-12


@dataclass
class PietschFactorization:
    """``B = T D`` with ``D = diag(d)``, ``sum(d^2) = 1``.

    ``eta`` is the certified objective value at the returned weights;
    ``alpha_effective`` bounds ``||T||`` from above and ``||B||_{inf->2}``
    is bounded above by ``t_norm`` (the measured ``||T||``).
    """

    d: np.ndarray
    t: np.ndarray
    alpha_effective: float
    eta: float
    reconstruction_residual: float
    t_norm: float


@dataclass
class NormBracket:
    """Certified two-sided bracket for an operator norm.

    ``alpha_lo <= norm <= alpha_hi``; ``lower_witness`` is a sign vector
    attaining ``alpha_lo`` (up to measurement slack), and ``best`` is the
    factorization whose factor norm produced ``alpha_hi``.
    """

    alpha_lo: float
    alpha_hi: float
    best: PietschFactorization
    lower_witness: np.ndarray
    converged: bool
    probes: int


class PietschObjective:
    """Evaluator for ``lambda_max(B^T B - alpha^2 diag(f))``.

    For constant weights on an ``m x s`` matrix with ``m < s`` the shift is
    ``c I``, ``c = alpha^2 f_0``: the top pair ``(mu, v)`` of the ``m x m``
    Gram ``B B^T`` gives ``lambda = mu - c`` and ``u = B^T v / ||B^T v||``.
    Every other ``f`` uses the ``s x s`` Gram ``B^T B``, formed on first use.
    The subgradient at ``f`` is ``-alpha^2 |u|^2`` for the returned unit top
    eigenvector ``u``.
    """

    def __init__(self, b, alpha, eig_tol=OBJECTIVE_EIG_TOL):
        self.b = as_matrix(b, "B")
        if alpha < 0:
            raise DomainError("alpha must be nonnegative")
        self.alpha_sq = float(alpha) ** 2
        self.eig_tol = eig_tol
        self._gram = None
        self._short = None

    def pair(self, f, tol, alpha_sq):
        """Top eigenpair of ``B^T B - alpha_sq diag(f)`` with its residual.

        The residual ``||H u - lambda u||_2`` is measured on the ``s x s``
        problem and held to ``tol * max(1, ||H||_F)`` on either path.
        """
        f = np.asarray(f, dtype=float)
        m, s = self.b.shape
        if m < s and f.max() == f.min():
            return self._short_side_pair(alpha_sq * float(f[0]), tol)
        if self._gram is None:
            self._gram = self.b.T @ self.b
        h = self._gram.copy()
        idx = np.arange(s)
        h[idx, idx] -= alpha_sq * f
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
        pair = self.pair(f, self.eig_tol, self.alpha_sq)
        return SubgradientSample(pair.value, -self.alpha_sq * pair.vector**2)


def pietsch_objective(b, alpha, f):
    """Value and subgradient of the factorization program at weights ``f``."""
    return PietschObjective(b, alpha)(f)


def _ldexp(x, e):
    """``x * 2**e``, saturating to ``+-inf`` beyond the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _rescaled(fact, e):
    """The factorization of ``B`` from that of ``B * 2**-e``."""
    return PietschFactorization(
        d=fact.d,
        t=np.ldexp(fact.t, e),
        alpha_effective=_ldexp(fact.alpha_effective, e),
        eta=_ldexp(fact.eta, 2 * e),
        reconstruction_residual=_ldexp(fact.reconstruction_residual, e),
        t_norm=_ldexp(fact.t_norm, e),
    )


def _canonical_sign(x):
    """``x`` or ``-x``, whichever has first entry ``+1``; both attain the
    same sign-vector norms, and the exact oracles pin the same entry."""
    return x if x[0] > 0 else -x


def _scale_columns_by_inverse(b, d, row_gate, what):
    """``B @ pinv(diag(d))`` with zero weights required to hit zero columns."""
    t = np.zeros_like(b)
    for j, dj in enumerate(d):
        col = b[:, j]
        if dj > 0.0:
            t[:, j] = col / dj
        elif math.sqrt(float(col @ col)) > row_gate:
            raise SolverError(
                f"weight {j} vanished but {what} {j} is not negligible; "
                "the solve is numerically inconsistent"
            )
    return t


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

    The solve runs on ``B 2^-e`` at ``alpha 2^-e`` (module docstring); ``t``,
    ``t_norm``, ``alpha_effective`` and the residual are scaled back by
    ``2^e``, ``eta`` and ``eta_cap`` by ``2^(2e)``.
    """
    b = as_matrix(b, "B")
    if b.shape[1] == 0:
        raise DomainError("B must have at least one column")
    if frobenius_norm(b) == 0.0:
        raise DomainError("B must be nonzero")
    if alpha <= 0:
        raise DomainError("alpha must be positive")

    b, e = _unit_scaled(b)
    fro_b = frobenius_norm(b)
    unit_alpha = _ldexp(float(alpha), -e)
    s = b.shape[1]
    objective = PietschObjective(b, unit_alpha)
    run = emd_minimize(
        objective,
        s,
        emd_budget,
        step_mode="adaptive",
        stop_below=0.0,
    )
    f = np.maximum(run.best_point, 0.0)
    f /= f.sum()
    top = objective.pair(f, CERTIFICATE_EIG_TOL, objective.alpha_sq)
    eta = top.value + top.residual

    if eta_cap is not None and eta > _ldexp(eta_cap, -2 * e):
        full_eta = _ldexp(eta, 2 * e)
        raise InfeasibleFactorization(
            f"objective stalled at {full_eta:.6g} > cap {eta_cap:.6g} "
            f"for alpha={alpha:.6g}",
            alpha=alpha,
            eta=full_eta,
        )

    fact = _build_pietsch(b, fro_b, f, unit_alpha, eta)
    if fact.t_norm <= fact.alpha_effective * (1.0 + NORM_SLACK):
        return _rescaled(fact, e)
    # Eigensolver slack let ||T|| creep past alpha; rebuild with the measured
    # excess folded into eta, which restores the certificate.
    bumped = max(eta, 0.0) + (fact.t_norm**2 - fact.alpha_effective**2) / s
    fact = _build_pietsch(b, fro_b, f, unit_alpha, bumped)
    if fact.t_norm <= fact.alpha_effective * (1.0 + NORM_SLACK):
        return _rescaled(fact, e)
    fact = _rescaled(fact, e)
    raise SolverError(
        f"factor norm {fact.t_norm:.9g} exceeds certificate "
        f"{fact.alpha_effective:.9g} after rebuild"
    )


def _build_pietsch(b, fro_b, f, alpha, eta):
    s = b.shape[1]
    alpha_sq = float(alpha) ** 2
    if eta <= 0.0:
        weights = f.copy()
        alpha_eff = float(alpha)
    else:
        weights = (alpha_sq * f + eta) / (alpha_sq + eta * s)
        alpha_eff = math.sqrt(alpha_sq + eta * s)
    total = weights.sum()
    if total <= 0.0:
        raise SolverError("all factorization weights vanished")
    weights /= total
    d = np.sqrt(weights)
    t = _scale_columns_by_inverse(b, d, ZERO_COLUMN_GATE * fro_b, "column")
    recon = frobenius_norm(b - t * d)
    if recon > RECONSTRUCTION_RTOL * max(1.0, fro_b):
        raise SolverError(
            f"reconstruction residual {recon:.3g} exceeds tolerance; "
            "zero weights do not match zero columns"
        )
    t_norm = spectral_norm(t, CERTIFICATE_EIG_TOL)
    return PietschFactorization(
        d=d,
        t=t,
        alpha_effective=alpha_eff,
        eta=float(eta),
        reconstruction_residual=recon,
        t_norm=t_norm,
    )


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

    b, e = _unit_scaled(b)
    s = b.shape[1]
    objective = PietschObjective(b, 0.0)
    top = objective.pair(np.ones(s), CERTIFICATE_EIG_TOL, 0.0)
    spec = math.sqrt(max(top.value, 0.0))

    lo, witness = improve_sign_witness_inf2(b, np.ones(s))
    cand, cand_x = improve_sign_witness_inf2(b, np.sign(top.vector))
    if cand > lo:
        lo, witness = cand, cand_x

    hi_seed = PIETSCH_CONSTANT * math.sqrt(s) * spec * (1.0 + 1e-6)
    lo_b = lo
    hi_b = max(hi_seed, lo * (1.0 + 1e-9))

    alpha_hi = math.inf
    best = None
    probes = 0
    converged = False
    while True:
        ratio_ok = best is not None and alpha_hi <= lo * PIETSCH_CONSTANT * (1.0 + rel_tol)
        collapsed = best is not None and (hi_b - lo_b) <= rel_tol * lo_b
        if ratio_ok or collapsed:
            converged = True
            break
        if probes >= max_probes:
            break
        mid = math.sqrt(lo_b * hi_b)
        fact = pietsch_factorize(b, mid, emd_budget)
        probes += 1
        # The measured ||T|| certifies the norm from above (up to eigensolver
        # slack, absorbed here).
        upper = fact.t_norm * (1.0 + 1e-9)
        if upper < alpha_hi:
            alpha_hi = upper
            best = fact
        pair = objective.pair(fact.d**2, OBJECTIVE_EIG_TOL, mid**2)
        cand, cand_x = improve_sign_witness_inf2(b, np.sign(pair.vector))
        if cand > lo:
            lo, witness = cand, cand_x
            lo_b = max(lo_b, lo)
        feasible = fact.eta <= 0.0 or fact.alpha_effective <= mid * (1.0 + rel_tol)
        if feasible:
            hi_b = mid
        else:
            lo_b = max(lo_b, mid)
        if hi_b < lo_b:
            hi_b = lo_b

    return NormBracket(
        alpha_lo=_ldexp(lo * (1.0 - 1e-12), e),
        alpha_hi=_ldexp(alpha_hi, e),
        best=None if best is None else _rescaled(best, e),
        lower_witness=_canonical_sign(witness),
        converged=converged,
        probes=probes,
    )
