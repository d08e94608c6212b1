"""Grothendieck factorization ``G = D T D`` for symmetric ``G``.

The feasibility question "does ``G = D T D`` admit ``||T|| <= alpha``?"
reduces to nonpositivity of the top eigenvalue of the block matrix
``[[-alpha F, G], [G, -alpha F]]`` with ``F = D^2`` on the simplex.  A
congruence by the orthogonal matrix ``(1/sqrt 2) [[I, I], [-I, I]]`` splits
that block spectrum into the spectra of ``G - alpha F`` and ``-G - alpha F``,
so the objective is evaluated with two half-size eigensolves instead of one
double-size solve.

Factorizations certify ``||G||_{inf->1} <= ||T|| <= alpha_effective``; a
positive objective value ``eta`` is absorbed by blending the weights with the
uniform point, at the price ``alpha_effective = alpha + eta s`` (the program
is linear in ``alpha``, so the blend is linear too, unlike the Pietsch case).
The constant governing bracket quality is the real Grothendieck constant,
known to lie in ``[pi/2, pi / (2 log(1 + sqrt 2))]``.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .emd import SubgradientSample, emd_minimize
from .errors import DomainError, InfeasibleFactorization, SolverError
from .linalg import (
    _require_symmetric,
    as_matrix,
    frobenius_norm,
    max_eig_pair,
    spectral_norm,
)
from .pietsch import (
    CERTIFICATE_EIG_TOL,
    NORM_SLACK,
    OBJECTIVE_EIG_TOL,
    RECONSTRUCTION_RTOL,
    ZERO_COLUMN_GATE,
    NormBracket,
    _canonical_sign,
)

GROTHENDIECK_LOWER = math.pi / 2.0
GROTHENDIECK_UPPER = math.pi / (2.0 * math.log(1.0 + math.sqrt(2.0)))


@dataclass
class GrothendieckFactorization:
    """``G = D T D`` with ``D = diag(d)``, ``sum(d^2) = 1``."""

    d: np.ndarray
    t: np.ndarray
    alpha_effective: float
    eta: float
    reconstruction_residual: float
    t_norm: float


def block_matrix(g, alpha, f):
    """Assembled ``2s x 2s`` block matrix ``[[-alpha F, G], [G, -alpha F]]``."""
    g = _require_symmetric(g, "G")
    s = g.shape[0]
    f = np.asarray(f, dtype=float)
    m = np.zeros((2 * s, 2 * s))
    m[:s, s:] = g
    m[s:, :s] = g
    diag = alpha * f
    idx = np.arange(s)
    m[idx, idx] = -diag
    m[s + idx, s + idx] = -diag
    return m


class GrothObjective:
    """Evaluator for the block eigenvalue objective via its two branches.

    The subgradient is ``-alpha w^2`` for the top eigenvector ``w`` of the
    attaining branch, which matches ``-alpha (|u|^2 + |v|^2)`` for the block
    eigenvector ``(u, v) = (w, -w)/sqrt(2)``.
    """

    def __init__(self, g, alpha, eig_tol=OBJECTIVE_EIG_TOL):
        self.g = _require_symmetric(g, "G")
        if alpha < 0:
            raise DomainError("alpha must be nonnegative")
        self.alpha = float(alpha)
        self.eig_tol = eig_tol

    def branch_pairs(self, f, eig_tol=None):
        tol = self.eig_tol if eig_tol is None else eig_tol
        f = np.asarray(f, dtype=float)
        idx = np.arange(self.g.shape[0])
        pairs = []
        for signed in (self.g, -self.g):
            m = signed.copy()
            m[idx, idx] -= self.alpha * f
            pairs.append(max_eig_pair(m, tol))
        return pairs

    def __call__(self, f):
        pos, neg = self.branch_pairs(f)
        top = pos if pos.value >= neg.value else neg
        return SubgradientSample(top.value, -self.alpha * top.vector**2)


def groth_objective(g, alpha, f):
    """Value and subgradient of the block program at weights ``f``."""
    return GrothObjective(g, alpha)(f)


def _certified_eta(objective, f):
    pos, neg = objective.branch_pairs(f, eig_tol=CERTIFICATE_EIG_TOL)
    return max(pos.value + pos.residual, neg.value + neg.residual)


def groth_factorize(
    g,
    alpha,
    emd_budget=5000,
    *,
    eta_cap: Optional[float] = None,
) -> GrothendieckFactorization:
    """Factor symmetric ``G = D T D`` with ``||T|| <= alpha_effective``.

    Mirrors the Pietsch construction: mirror descent with an early exit at
    zero, then either the weights as found (``eta <= 0``) or the uniform
    blend ``(alpha f + eta) / (alpha + eta s)`` with
    ``alpha_effective = alpha + eta s``.
    """
    g = _require_symmetric(g, "G")
    if g.shape[0] == 0:
        raise DomainError("G must have at least one column")
    if alpha <= 0:
        raise DomainError("alpha must be positive")

    s = g.shape[0]
    objective = GrothObjective(g, alpha)
    run = emd_minimize(
        objective,
        s,
        emd_budget,
        step_mode="adaptive",
        stop_below=0.0,
    )
    f = np.maximum(run.best_point, 0.0)
    f /= f.sum()
    eta = _certified_eta(objective, f)

    if eta_cap is not None and eta > eta_cap:
        raise InfeasibleFactorization(
            f"objective stalled at {eta:.6g} > cap {eta_cap:.6g} "
            f"for alpha={alpha:.6g}",
            alpha=alpha,
            eta=eta,
        )

    fact = _build_groth(g, f, alpha, eta)
    if fact.t_norm <= fact.alpha_effective * (1.0 + NORM_SLACK):
        return fact
    bumped = max(eta, 0.0) + (fact.t_norm - fact.alpha_effective) / s
    fact = _build_groth(g, f, alpha, bumped)
    if fact.t_norm <= fact.alpha_effective * (1.0 + NORM_SLACK):
        return fact
    raise SolverError(
        f"factor norm {fact.t_norm:.9g} exceeds certificate "
        f"{fact.alpha_effective:.9g} after rebuild"
    )


def _build_groth(g, f, alpha, eta):
    s = g.shape[0]
    fro_g = frobenius_norm(g)
    if eta <= 0.0:
        weights = f.copy()
        alpha_eff = float(alpha)
    else:
        weights = (alpha * f + eta) / (alpha + eta * s)
        alpha_eff = float(alpha + eta * s)
    total = weights.sum()
    if total <= 0.0:
        raise SolverError("all factorization weights vanished")
    weights /= total
    d = np.sqrt(weights)

    row_gate = ZERO_COLUMN_GATE * max(fro_g, 1.0)
    zero = d == 0.0
    if zero.any():
        row_norms = np.sqrt(np.sum(g * g, axis=1))
        bad = np.nonzero(zero & (row_norms > row_gate))[0]
        if bad.size:
            raise SolverError(
                f"weight {int(bad[0])} vanished but row {int(bad[0])} of G "
                "is not negligible; the solve is numerically inconsistent"
            )
    inv = np.zeros(s)
    inv[~zero] = 1.0 / d[~zero]
    t = inv[:, None] * g * inv[None, :]
    recon = frobenius_norm(g - d[:, None] * t * d[None, :])
    if recon > RECONSTRUCTION_RTOL * max(1.0, fro_g):
        raise SolverError(
            f"reconstruction residual {recon:.3g} exceeds tolerance; "
            "zero weights do not match zero rows"
        )
    t_norm = spectral_norm(t, CERTIFICATE_EIG_TOL)
    return GrothendieckFactorization(
        d=d,
        t=t,
        alpha_effective=alpha_eff,
        eta=float(eta),
        reconstruction_residual=recon,
        t_norm=t_norm,
    )


def improve_sign_witness_inf1(g, x):
    """Greedy single-flip ascent of ``||G x||_1`` over sign vectors."""
    g = as_matrix(g, "G")
    x = np.where(np.asarray(x, dtype=float) >= 0, 1.0, -1.0)
    y = g @ x
    current = float(np.abs(y).sum())
    for _ in range(4 * max(1, g.shape[1])):
        flipped = np.abs(y[:, None] - 2.0 * g * x[None, :]).sum(axis=0)
        j = int(np.argmax(flipped))
        if flipped[j] <= current * (1.0 + 1e-12):
            break
        y = y - 2.0 * x[j] * g[:, j]
        x[j] = -x[j]
        current = float(np.abs(y).sum())
    y = g @ x
    return float(np.abs(y).sum()), x


def groth_optimal_alpha(
    g,
    rel_tol=0.05,
    emd_budget=5000,
    *,
    max_probes=48,
) -> NormBracket:
    """Certified bracket for ``||G||_{inf->1}`` by bisection over ``alpha``.

    Same scheme as the Pietsch bracket: sign-vector probes below,
    factorization norms above, ratio target
    ``alpha_hi / alpha_lo <= K_G_upper (1 + rel_tol)``; ``lower_witness``
    has first entry ``+1``.
    """
    g = _require_symmetric(g, "G")
    if g.shape[0] == 0:
        raise DomainError("G must have at least one column")
    if not 0.0 < rel_tol < 1.0:
        raise DomainError("rel_tol must lie in (0, 1)")

    s = g.shape[0]
    if frobenius_norm(g) == 0.0:
        fact = GrothendieckFactorization(
            d=np.full(s, 1.0 / math.sqrt(s)),
            t=np.zeros((s, s)),
            alpha_effective=0.0,
            eta=0.0,
            reconstruction_residual=0.0,
            t_norm=0.0,
        )
        return NormBracket(0.0, 0.0, fact, np.ones(s), True, 0)

    top = max_eig_pair(g, CERTIFICATE_EIG_TOL)
    bottom = max_eig_pair(-g, CERTIFICATE_EIG_TOL)

    lo, witness = improve_sign_witness_inf1(g, np.ones(s))
    for seed_vec in (top.vector, bottom.vector):
        cand, cand_x = improve_sign_witness_inf1(g, np.sign(seed_vec))
        if cand > lo:
            lo, witness = cand, cand_x

    spec = max(top.value, bottom.value)
    hi_seed = GROTHENDIECK_UPPER * s * spec * (1.0 + 1e-6)
    lo_b = lo
    hi_b = max(hi_seed, lo * (1.0 + 1e-9))

    alpha_hi = math.inf
    best = None
    probes = 0
    converged = False
    while True:
        ratio_ok = best is not None and alpha_hi <= lo * GROTHENDIECK_UPPER * (1.0 + rel_tol)
        collapsed = best is not None and (hi_b - lo_b) <= rel_tol * lo_b
        if ratio_ok or collapsed:
            converged = True
            break
        if probes >= max_probes:
            break
        mid = math.sqrt(lo_b * hi_b)
        fact = groth_factorize(g, mid, emd_budget)
        probes += 1
        upper = fact.t_norm * (1.0 + 1e-9)
        if upper < alpha_hi:
            alpha_hi = upper
            best = fact
        probe_obj = GrothObjective(g, mid)
        pos, neg = probe_obj.branch_pairs(fact.d**2)
        lead = pos if pos.value >= neg.value else neg
        cand, cand_x = improve_sign_witness_inf1(g, np.sign(lead.vector))
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
        alpha_lo=lo * (1.0 - 1e-12),
        alpha_hi=alpha_hi,
        best=best,
        lower_witness=_canonical_sign(witness),
        converged=converged,
        probes=probes,
    )
