"""Grothendieck factorization ``G = D T D`` for symmetric ``G``.

The feasibility question "does ``G = D T D`` admit ``||T|| <= alpha``?"
reduces to nonpositivity of the top eigenvalue of the block matrix
``[[-alpha F, G], [G, -alpha F]]`` with ``F = D^2`` on the simplex.  A
congruence by the orthogonal matrix ``(1/sqrt 2) [[I, I], [-I, I]]`` splits
that block spectrum into the spectra of ``G - alpha F`` and ``-G - alpha F``,
so the objective is evaluated with two half-size eigensolves instead of one
double-size solve.

:class:`GrothObjective` is that program (``p = 1``, linear in ``alpha``) for
the factorization core :mod:`colsel.factor`.  The bracket constant is the
real Grothendieck constant, known to lie in
``[pi/2, pi / (2 log(1 + sqrt 2))]``.
"""

import math
from typing import Optional

import numpy as np

from .emd import SubgradientSample
from .errors import DomainError
from .factor import (
    CERTIFICATE_EIG_TOL,
    OBJECTIVE_EIG_TOL,
    Factorization,
    NormBracket,
    _bracket,
    _factorize,
)
from .linalg import _require_symmetric, as_matrix, frobenius_norm, max_eig_pair

GROTHENDIECK_LOWER = math.pi / 2.0
GROTHENDIECK_UPPER = math.pi / (2.0 * math.log(1.0 + math.sqrt(2.0)))

GrothendieckFactorization = Factorization


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
    eigenvector ``(u, v) = (w, -w)/sqrt(2)``.  The class is the Grothendieck
    program of :mod:`colsel.factor`.
    """

    power = 1
    constant = GROTHENDIECK_UPPER

    def __init__(self, g, alpha):
        self.g = _require_symmetric(g, "G")
        if alpha < 0:
            raise DomainError("alpha must be nonnegative")
        self.level = float(alpha)

    def branch_pairs(self, f, tol, level):
        """Top eigenpairs of ``G - level F`` and ``-G - level F``."""
        shift = np.diag(level * np.asarray(f, dtype=float))
        return [max_eig_pair(signed - shift, tol) for signed in (self.g, -self.g)]

    def pair(self, f, tol, level):
        """Top eigenpair of the attaining branch."""
        pos, neg = self.branch_pairs(f, tol, level)
        return pos if pos.value >= neg.value else neg

    def __call__(self, f):
        pair = self.pair(f, OBJECTIVE_EIG_TOL, self.level)
        return SubgradientSample(pair.value, -self.level * pair.vector**2)

    def certified(self, f):
        """The larger branch value plus residual: a bound on the objective."""
        pos, neg = self.branch_pairs(f, CERTIFICATE_EIG_TOL, self.level)
        return max(pos.value + pos.residual, neg.value + neg.residual)

    def start(self):
        """``K_G s max(lambda_max(+-G))`` and both top eigenvectors."""
        s = self.g.shape[0]
        top, bottom = self.branch_pairs(np.zeros(s), CERTIFICATE_EIG_TOL, 0.0)
        spec = max(top.value, bottom.value)
        return self.constant * s * spec, (top.vector, bottom.vector)

    def improve(self, x):
        return improve_sign_witness_inf1(self.g, x)

    def split(self, d):
        """``T = pinv(D) G pinv(D)``."""
        live = d > 0.0
        inv = np.zeros(d.size)
        inv[live] = 1.0 / d[live]
        return inv[:, None] * self.g * inv[None, :]

    def join(self, t, d):
        """``D T D``."""
        return d[:, None] * t * d[None, :]


def groth_objective(g, alpha, f):
    """Value and subgradient of the block program at weights ``f``."""
    return GrothObjective(g, alpha)(f)


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
    ``alpha_effective = alpha + eta s``.  The solve runs at unit scale
    (:mod:`colsel.factor`), so ``t``, ``t_norm``, ``alpha_effective``,
    ``eta`` and the residual all scale with ``G``.
    """
    g = _require_symmetric(g, "G")
    if g.shape[0] == 0:
        raise DomainError("G must have at least one column")
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return _factorize(GrothObjective, g, alpha, emd_budget, eta_cap)


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
    ``alpha_hi / alpha_lo <= K_G_upper (1 + rel_tol)``; it runs at unit
    scale, and ``lower_witness`` has first entry ``+1``.
    """
    g = _require_symmetric(g, "G")
    if g.shape[0] == 0:
        raise DomainError("G must have at least one column")
    if not 0.0 < rel_tol < 1.0:
        raise DomainError("rel_tol must lie in (0, 1)")

    s = g.shape[0]
    if frobenius_norm(g) == 0.0:
        fact = Factorization(
            d=np.full(s, 1.0 / math.sqrt(s)),
            t=np.zeros((s, s)),
            alpha_effective=0.0,
            eta=0.0,
            reconstruction_residual=0.0,
            t_norm=0.0,
        )
        return NormBracket(0.0, 0.0, fact, np.ones(s), True, 0)
    return _bracket(GrothObjective, g, rel_tol, emd_budget, max_probes, groth_factorize)
