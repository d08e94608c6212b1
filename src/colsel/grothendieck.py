"""Grothendieck factorization ``G = D T D`` for symmetric ``G``.

The feasibility question "does ``G = D T D`` admit ``||T|| <= alpha``?"
reduces to nonpositivity of the top eigenvalue of the block matrix
``[[-alpha F, G], [G, -alpha F]]`` with ``F = D^2`` on the simplex.  A
congruence by the orthogonal matrix ``(1/sqrt 2) [[I, I], [-I, I]]`` splits
that block spectrum into the spectra of ``G - alpha F`` and ``-G - alpha F``,
so the program's branches are ``G`` and ``-G``: two half-size eigensolves
instead of one double-size solve, both dense (:mod:`colsel.linalg`).  On the
weights path of selection the two level-free pairs come from one
``eigh(G)``, the pair of ``-G`` being ``G``'s bottom one; brackets and
:func:`groth_factorize` solve ``G`` and ``-G`` apart, so the top vectors that
seed a bracket's sign-witness ascent keep their bits.

:class:`GrothObjective` is that program (``p = 1``, linear in ``alpha``) for
the factorization core :mod:`colsel.factor`.  The bracket constant is the
real Grothendieck constant, known to lie in
``[pi/2, pi / (2 log(1 + sqrt 2))]``.
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
from .linalg import _ldexp, _require_symmetric, _signed_top_pairs, _unit_scaled, as_matrix

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


class GrothObjective(EigenProgram):
    """Evaluator for the block eigenvalue objective via its two branches.

    The subgradient is ``-alpha w^2`` for the top eigenvector ``w`` of the
    attaining branch, which matches ``-alpha (|u|^2 + |v|^2)`` for the block
    eigenvector ``(u, v) = (w, -w)/sqrt(2)``.  The class is the Grothendieck
    program of :mod:`colsel.factor`.  ``G`` and ``alpha`` are trusted; outside
    input goes through :func:`groth_objective`.
    """

    power = 1
    constant = GROTHENDIECK_UPPER
    name = "G"

    def __init__(self, g, alpha):
        self.g = g
        self.level = alpha

    @functools.cached_property
    def _branches(self):  # a tie goes to +G
        return (self.g, -self.g)

    def _level_free(self):
        if self._one_spectrum:  # -G's top pair is G's bottom one
            return list(_signed_top_pairs(*self._branches))
        return super()._level_free()

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
    return _evaluate(GrothObjective, _require_symmetric(g, "G"), alpha, f)


def groth_factorize(g, alpha, emd_budget=EMD_BUDGET) -> GrothendieckFactorization:
    """Factor symmetric ``G = D T D`` with ``||T|| <= alpha_effective``.

    Mirrors the Pietsch construction: mirror descent with an early exit at
    zero, then either the weights as found (``eta <= 0``) or the uniform
    blend ``(alpha f + eta) / (alpha + eta s)`` with
    ``alpha_effective = alpha + eta s``.  The solve runs at unit scale
    (:mod:`colsel.factor`), so ``t``, ``t_norm``, ``alpha_effective``,
    ``eta`` and the residual all scale with ``G``.  :mod:`colsel.factor`
    owns the input checks and the zero-matrix rule.
    """
    return _factorize(GrothObjective, _require_symmetric(g, "G"), alpha, emd_budget)


def improve_sign_witness_inf1(g, x):
    """Greedy single-flip ascent of ``||G x||_1`` over sign vectors.

    ``G`` needs a column and ``x`` one finite entry per column; the signs
    of ``x`` start the ascent (zeros count as ``+1``).  Each step scores
    every single flip against the flip table ``step = 2 G diag(x)``, built
    once: flipping ``x_j`` turns ``y = G x`` into ``y - step[:, j]`` and
    negates that column.  The scores are computed in one scratch buffer,
    with the same floating-point operations in the same order as forming
    ``|y - 2 g_j x_j|`` afresh (doubling and signs are exact), so the
    flips and the result are the same bits.  It runs at unit scale, so it is
    homogeneous.
    """
    g = as_matrix(g, "G")
    x = _start_signs(x, g.shape[1], "G")
    g, e = _unit_scaled(g)
    y = g @ x
    current = float(np.abs(y).sum())
    step = 2.0 * g * x[None, :]
    buf = np.empty_like(step)
    for _ in range(4 * g.shape[1]):
        np.subtract(y[:, None], step, out=buf)
        flipped = np.abs(buf, out=buf).sum(axis=0)
        j = int(np.argmax(flipped))
        if flipped[j] <= current * (1.0 + 1e-12):
            break
        y = y - step[:, j]
        step[:, j] = -step[:, j]
        x[j] = -x[j]
        current = float(np.abs(y).sum())
    y = g @ x
    return _ldexp(float(np.abs(y).sum()), e), x


def groth_optimal_alpha(g, rel_tol=REL_TOL, emd_budget=EMD_BUDGET) -> NormBracket:
    """Certified bracket for ``||G||_{inf->1}``, bisecting over ``alpha`` if needed.

    Same scheme as the Pietsch bracket: the start's sign vectors below;
    above, the uniform factorization's norm ``s ||G||`` from the same
    spectrum, then the probes' factor norms; ratio target ``alpha_hi /
    alpha_lo <= K_G_upper (1 + rel_tol)``, tested before the first probe
    too, at most ``factor.MAX_PROBES`` probes; it runs at unit scale, and
    ``lower_witness`` has first entry ``+1``.  The zero matrix gets the
    bracket ``[0, 0]``.
    """
    g = _require_symmetric(g, "G")
    return _bracket(GrothObjective, g, rel_tol, emd_budget, groth_factorize)
