"""The factorization core shared by the Pietsch and Grothendieck modules.

Both are one algorithm run on two eigenvalue programs.  A program is an
objective class built from a matrix ``A`` with ``s`` columns and a level
``alpha``.  It evaluates ``lambda(f)``, the top eigenvalue of a symmetric
matrix affine in ``alpha^p f``; ``lambda(f) <= 0`` for weights ``f`` on the
simplex iff ``A`` factors through ``D = diag(sqrt f)`` with ``||T|| <=
alpha``.  Its members: ``power`` ``p`` (2 for Pietsch, 1 for Grothendieck),
the bracket ``constant``, ``pair(f, tol, level)`` (the top eigenpair at any
level ``alpha^p``), ``certified(f)`` (an upper bound on ``lambda(f)``),
``start()`` (an upper end for the bisection and the vectors whose signs
seed the lower bounds), ``improve(x)`` (sign-witness ascent), and
``split(d)``/``join(t, d)`` (``T`` from ``D``, and the input back from both).

:func:`_factorize` minimizes ``lambda`` by mirror descent with an early exit
at zero and certifies ``eta``.  A positive ``eta`` is absorbed by blending
with the uniform point, ``(alpha^p f + eta) / (alpha^p + eta s)``, at the
price ``alpha_effective = (alpha^p + eta s)^(1/p)``; if eigensolver slack
lets ``||T||`` pass that, the excess ``(||T||^p - alpha_eff^p) / s`` is
folded into ``eta`` once.  :func:`_bracket` bisects on ``alpha``: sign
vectors give lower bounds, factor norms upper bounds.  Both solve ``A 2^-e``
at level ``alpha 2^-e``, ``2^e`` bringing the largest entry of ``A`` into
``[0.5, 1)``, and scale the results back (``eta`` by ``2^(p e)``).  That is
exact, so nothing overflows or underflows and both are homogeneous in ``A``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .emd import emd_minimize
from .errors import InfeasibleFactorization, SolverError
from .linalg import _ldexp, _unit_scaled, frobenius_norm, spectral_norm

# Only exactly-zero weights (mirror-descent underflow) take the
# pseudoinverse zero-column path; a certified nonpositive objective forces
# the matching column below this fraction of ||A||_F, which is checked.
ZERO_COLUMN_GATE = 1e-6
RECONSTRUCTION_RTOL = 1e-8
NORM_SLACK = 1e-8

# Subgradient evaluations run the eigensolver two orders tighter than the
# certificate tolerance so that mirror descent sees effectively exact values.
OBJECTIVE_EIG_TOL = 1e-11
CERTIFICATE_EIG_TOL = 1e-12


@dataclass
class Factorization:
    """``B = T D`` (Pietsch) or ``G = D T D`` (Grothendieck), ``D = diag(d)``.

    ``sum(d^2) = 1``.  ``eta`` is the certified objective value at the
    returned weights; ``alpha_effective`` bounds ``||T||`` from above and
    the norm of the input is bounded above by ``t_norm`` (the measured
    ``||T||``).
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
    best: Factorization
    lower_witness: np.ndarray
    converged: bool
    probes: int


def _rescaled(fact, e, power):
    """The factorization of ``A`` from that of ``A * 2**-e``."""
    return Factorization(
        d=fact.d,
        t=np.ldexp(fact.t, e),
        alpha_effective=_ldexp(fact.alpha_effective, e),
        eta=_ldexp(fact.eta, power * e),
        reconstruction_residual=_ldexp(fact.reconstruction_residual, e),
        t_norm=_ldexp(fact.t_norm, e),
    )


def _canonical_sign(x):
    """``x`` or ``-x``, whichever has first entry ``+1``; both attain the
    same sign-vector norms, and the exact oracles pin the same entry."""
    return x if x[0] > 0 else -x


def _factorize(program, a, alpha, emd_budget, eta_cap):
    """Factor the validated nonzero-width ``a`` at level ``alpha > 0``."""
    power = program.power
    a, e = _unit_scaled(a)
    unit_alpha = _ldexp(float(alpha), -e)
    s = a.shape[1]
    objective = program(a, unit_alpha)
    run = emd_minimize(objective, s, emd_budget, step_mode="adaptive", stop_below=0.0)
    f = np.maximum(run.best_point, 0.0)
    f /= f.sum()
    eta = objective.certified(f)

    if eta_cap is not None and eta > _ldexp(eta_cap, -power * e):
        full_eta = _ldexp(eta, power * e)
        raise InfeasibleFactorization(
            f"objective stalled at {full_eta:.6g} > cap {eta_cap:.6g} for alpha={alpha:.6g}",
            alpha=alpha,
            eta=full_eta,
        )

    fro = frobenius_norm(a)
    fact = _build(objective, a, fro, f, unit_alpha, eta)
    if fact.t_norm > fact.alpha_effective * (1.0 + NORM_SLACK):
        # Eigensolver slack let ||T|| creep past alpha; rebuild with the measured
        # excess folded into eta, which restores the certificate.
        bumped = max(eta, 0.0) + (fact.t_norm**power - fact.alpha_effective**power) / s
        fact = _build(objective, a, fro, f, unit_alpha, bumped)
        if fact.t_norm > fact.alpha_effective * (1.0 + NORM_SLACK):
            raise SolverError(
                f"factor norm {_ldexp(fact.t_norm, e):.9g} exceeds certificate "
                f"{_ldexp(fact.alpha_effective, e):.9g} after rebuild"
            )
    return _rescaled(fact, e, power)


def _build(objective, a, fro, f, alpha, eta):
    s = a.shape[1]
    if eta <= 0.0:
        weights = f.copy()
        alpha_eff = alpha
    else:
        level = alpha**objective.power
        weights = (level * f + eta) / (level + eta * s)
        alpha_eff = level + eta * s
        if objective.power == 2:
            alpha_eff = math.sqrt(alpha_eff)
    total = weights.sum()
    if total <= 0.0:
        raise SolverError("all factorization weights vanished")
    weights /= total
    d = np.sqrt(weights)

    norms = np.sqrt(np.sum(a * a, axis=0))
    bad = np.flatnonzero((d == 0.0) & (norms > ZERO_COLUMN_GATE * fro))
    if bad.size:
        raise SolverError(
            f"weight {bad[0]} vanished but column {bad[0]} is not negligible; "
            "the solve is numerically inconsistent"
        )
    t = objective.split(d)
    recon = frobenius_norm(a - objective.join(t, d))
    if recon > RECONSTRUCTION_RTOL * max(1.0, fro):
        raise SolverError(
            f"reconstruction residual {recon:.3g} exceeds tolerance; "
            "zero weights do not match zero columns"
        )
    t_norm = spectral_norm(t, CERTIFICATE_EIG_TOL)
    return Factorization(d, t, alpha_eff, float(eta), recon, t_norm)


def _bracket(program, a, rel_tol, emd_budget, max_probes, factorize):
    """Bisect on ``alpha`` for the validated nonzero ``a``.

    Every probe is one call of ``factorize``, the program's public solver,
    on the unit-scaled ``a``, so a probe is what a caller would get.
    """
    power = program.power
    a, e = _unit_scaled(a)
    s = a.shape[1]
    objective = program(a, 0.0)
    hi_seed, seeds = objective.start()

    lo, witness = objective.improve(np.ones(s))
    for seed in seeds:
        cand, cand_x = objective.improve(np.sign(seed))
        if cand > lo:
            lo, witness = cand, cand_x

    lo_b = lo
    hi_b = max(hi_seed * (1.0 + 1e-6), lo * (1.0 + 1e-9))

    alpha_hi = math.inf
    best = None
    probes = 0
    converged = False
    while True:
        ratio_ok = best is not None and alpha_hi <= lo * program.constant * (1.0 + rel_tol)
        collapsed = best is not None and (hi_b - lo_b) <= rel_tol * lo_b
        if ratio_ok or collapsed:
            converged = True
            break
        if probes >= max_probes:
            break
        mid = math.sqrt(lo_b * hi_b)
        fact = factorize(a, mid, emd_budget)
        probes += 1
        # The measured ||T|| certifies the norm from above (up to eigensolver
        # slack, absorbed here).
        upper = fact.t_norm * (1.0 + 1e-9)
        if upper < alpha_hi:
            alpha_hi = upper
            best = fact
        pair = objective.pair(fact.d**2, OBJECTIVE_EIG_TOL, mid**power)
        cand, cand_x = objective.improve(np.sign(pair.vector))
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

    best = None if best is None else _rescaled(best, e, power)
    alpha_lo = _ldexp(lo * (1.0 - 1e-12), e)
    witness = _canonical_sign(witness)
    return NormBracket(alpha_lo, _ldexp(alpha_hi, e), best, witness, converged, probes)
