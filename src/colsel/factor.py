"""The factorization core shared by the Pietsch and Grothendieck modules.

Both are one algorithm run on two eigenvalue programs.  A program is an
:class:`EigenProgram` built from a matrix ``A`` with ``s`` columns and a level
``alpha``: one eigenproblem, ``lambda(f)``, the top eigenvalue of a symmetric
matrix affine in ``alpha^p f``; ``lambda(f) <= 0`` for weights ``f`` on the
simplex iff ``A`` factors through ``D = diag(sqrt f)`` with ``||T|| <=
alpha``.  Its members: ``power`` ``p`` (2 for Pietsch, 1 for Grothendieck),
the bracket ``constant``, ``name`` (the input's name in messages), ``level``
(``alpha^p``), ``pairs(f)`` (the top eigenpair of each branch at ``level``,
solved to ``linalg.EIG_TOL``: one branch for Pietsch, two for Grothendieck),
``improve(x)`` (sign-witness ascent), ``split(d)``/``join(t, d)`` (``T``
from ``D``, and the input back from both) and ``t_norm(t, d)`` (the measured
``||T||``).  The base class derives the evaluation ``program(f)`` (the
attaining branch's value and subgradient) and ``certified(f)`` (an upper
bound on ``lambda(f)``).  Both solve through one memo of the program's last
point, so a certificate asked for at the point just evaluated makes no
eigensolve (see :class:`EigenProgram`).  The base ``t_norm`` solves the Gram
of ``T``; a program may read it from a spectrum it already holds instead.

The public solvers convert their input once and hand it here; the core owns
the other checks (a column, a finite ``||A||_F``, a finite ``alpha > 0`` whose
unit-scale level is at most ``MAX_UNIT_LEVEL``, ``0 < rel_tol < 1``, a budget).
The zero matrix factors exactly (uniform ``d``, ``T = 0``) with bracket ``[0, 0]``.

:func:`_factorize` minimizes ``lambda`` by mirror descent with an early exit
at zero and certifies ``eta``.  A positive ``eta`` is absorbed by blending
with the uniform point, ``(alpha^p f + eta) / (alpha^p + eta s)``, at the
price ``alpha_effective = (alpha^p + eta s)^(1/p)``; if eigensolver slack
lets ``||T||`` pass that, the excess ``(||T||^p - alpha_eff^p) / s`` is
folded into ``eta`` once.  :func:`_bracket` bisects on ``alpha``: the sign
vectors of its start give the lower bound, factor norms upper bounds.  Both,
and the public objective :func:`_evaluate`, solve ``A 2^-e`` at level ``alpha
2^-e``, ``2^e`` bringing the largest entry of ``A`` into ``[0.5, 1)``, and
scale the results back (``eta``, objective values and subgradients by ``2^(p
e)``).  That is exact, so nothing overflows or underflows and all three are homogeneous in
``A``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .emd import SubgradientSample, emd_minimize
from .errors import DomainError, SolverError, _require_budget
from .linalg import _ldexp, _spectral_norm, _unit_scaled, frobenius_norm

# Only exactly-zero weights (mirror-descent underflow) take the
# pseudoinverse zero-column path; a certified nonpositive objective forces
# the matching column below this fraction of ||A||_F, which is checked.
ZERO_COLUMN_GATE = 1e-6
RECONSTRUCTION_RTOL = 1e-8
NORM_SLACK = 1e-8

# Default relative tolerance of the bracket bisection.
REL_TOL = 0.05

# Probes a bracket runs before it returns unconverged.
MAX_PROBES = 48

# Unit-scale levels alpha^p up to this, their squares and sums stay in the
# float range; above it, any input that fits in memory is trivially feasible
# (uniform weights give ||T|| <= s ||A||_F, and ||A||_F^2 < m s at unit scale).
MAX_UNIT_LEVEL = 2.0**480


class EigenProgram:
    """An eigenvalue program at one level: its value is the largest of its
    branches' top values.

    A program keeps the branch pairs of the last point it solved, keyed by
    the exact bytes of ``f``.  The evaluation and ``certified`` reuse them
    when the same point comes again: every pair passed the kernel's test
    ``residual <= EIG_TOL max(1, ||H||_F)`` when it was solved, and a fresh
    solve of the same matrix gives the same bits, so reuse changes no value.
    Otherwise the branches are solved afresh, with their ``SolverError``.
    """

    _last = None  # (f bytes, branch pairs) of the last solve

    def _solved(self, f):
        key = np.asarray(f, dtype=float).tobytes()
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        pairs = self.pairs(f)
        self._last = (key, pairs)
        return pairs

    def __call__(self, f):
        """The value at ``f`` and the subgradient ``-level u^2`` of the top
        vector ``u`` of the attaining branch, the first with the largest value."""
        top = max(self._solved(f), key=lambda p: p.value)
        return SubgradientSample(top.value, -self.level * top.vector**2)

    def certified(self, f):
        """Upper bound on the value at ``f``: the largest branch value plus residual."""
        return max(p.value + p.residual for p in self._solved(f))

    def t_norm(self, t, d):
        """The measured ``||T||`` of the factor ``t = split(d)``."""
        return _spectral_norm(t)


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
    with np.errstate(over="ignore"):  # saturates to +-inf, like _ldexp
        t = np.ldexp(fact.t, e)
    return Factorization(
        d=fact.d,
        t=t,
        alpha_effective=_ldexp(fact.alpha_effective, e),
        eta=_ldexp(fact.eta, power * e),
        reconstruction_residual=_ldexp(fact.reconstruction_residual, e),
        t_norm=_ldexp(fact.t_norm, e),
    )


def _canonical_sign(x):
    """``x`` or ``-x``, whichever has first entry ``+1``; both attain the
    same sign-vector norms, and the exact oracles pin the same entry."""
    return x if x[0] > 0 else -x


def _column_vector(v, s, name, label):
    """``v`` as a float vector with one finite entry per column of ``name``,
    which has ``s`` columns and needs one; refused with :class:`DomainError`."""
    if s == 0:
        raise DomainError(f"{name} must have at least one column")
    v = np.asarray(v, dtype=float)
    if v.shape != (s,):
        raise DomainError(f"{label} must have {s} entries, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise DomainError(f"{label} must have finite entries")
    return v


def _start_signs(x, s, name):
    """The sign vector of a start ``x`` for an ascent over the ``s`` columns
    of ``name``: ``+1`` where ``x >= 0`` (zeros included), ``-1`` elsewhere."""
    return np.where(_column_vector(x, s, name, "x") >= 0, 1.0, -1.0)


def _unit_input(program, a):
    """``(a 2**-e, e, ||a 2**-e||_F)``, refused if ``||a||_F`` overflows: both
    norms are at least ``||A||_F`` (the mean of ``||A x||_2^2`` over sign vectors
    is ``||A||_F^2``, and ``||G x||_1 >= ||G x||_2``), so every bound is inf."""
    if a.shape[1] == 0:
        raise DomainError(f"{program.name} must have at least one column")
    a, e = _unit_scaled(a)
    fro = frobenius_norm(a)
    if _ldexp(fro, e) == math.inf:
        raise DomainError(f"{program.name} has a Frobenius norm beyond the float range")
    return a, e, fro


def _unit_level(program, alpha, e):
    """``alpha * 2**-e``, refused if its ``power`` passes ``MAX_UNIT_LEVEL``."""
    unit_alpha = _ldexp(alpha, -e)
    if unit_alpha > MAX_UNIT_LEVEL ** (1.0 / program.power):
        raise DomainError(
            f"alpha {alpha:g} puts alpha^{program.power} beyond the float range"
        )
    return unit_alpha


def _evaluate(program, a, alpha, f):
    """The program's value and subgradient at checked ``alpha`` and ``f``.

    Evaluated on ``A 2^-e`` at level ``alpha 2^-e``, like :func:`_factorize`;
    both scale back by ``2^(p e)`` exactly, saturating to ``+-inf``.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < math.inf:
        raise DomainError(f"alpha must be finite and nonnegative, got {alpha!r}")
    f = _column_vector(f, a.shape[1], program.name, "f")
    a, e = _unit_scaled(a)
    value, grad = program(a, _unit_level(program, alpha, e))(f)
    shift = program.power * e
    with np.errstate(over="ignore"):  # saturates to +-inf, like _ldexp
        grad = np.ldexp(grad, shift)
    return SubgradientSample(_ldexp(value, shift), grad)


def _factorize(program, a, alpha, emd_budget):
    """Factor the converted input ``a`` at level ``alpha``."""
    power = program.power
    a, e, fro = _unit_input(program, a)
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and positive, got {alpha!r}")
    unit_alpha = _unit_level(program, alpha, e)
    s = a.shape[1]
    objective = program(a, unit_alpha)
    run = emd_minimize(objective, s, emd_budget, step_mode="adaptive", stop_below=0.0)
    f = np.maximum(run.best_point, 0.0)
    f /= f.sum()
    eta = objective.certified(f)

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
        level = objective.level
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
    return Factorization(d, t, alpha_eff, float(eta), recon, objective.t_norm(t, d))


def _bracket(program, a, rel_tol, emd_budget, factorize):
    """Bisect on ``alpha`` for the converted input ``a``.

    Every probe is one call of ``factorize``, the program's public solver,
    on the unit-scaled ``a``, so a probe is what a caller would get; after
    ``MAX_PROBES`` of them the bracket returns unconverged.
    """
    power = program.power
    a, e, fro = _unit_input(program, a)
    if not 0.0 < rel_tol < 1.0:
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    emd_budget = _require_budget(emd_budget)
    s = a.shape[1]
    if fro == 0.0:
        d = np.full(s, 1.0 / math.sqrt(s))
        zero = Factorization(d, np.zeros_like(a), 0.0, 0.0, 0.0, 0.0)
        return NormBracket(0.0, 0.0, zero, np.ones(s), True, 0)
    # At level 0 every weight gives the unshifted spectrum.  Its top value
    # bounds the norm above (``K_P sqrt(s) ||B||``, ``K_G s ||G||``); the
    # all-ones start and each branch's top vector give the one lower bound.
    objective = program(a, 0.0)
    tops = objective.pairs(np.ones(s))
    root = math.sqrt if power == 2 else (lambda x: x)
    top = max(*(p.value for p in tops), 0.0)
    hi_seed = program.constant * root(s) * root(top)

    lo, witness = objective.improve(np.ones(s))
    for branch in tops:
        cand, cand_x = objective.improve(np.sign(branch.vector))
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
        if probes >= MAX_PROBES:
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
        if fact.eta <= 0.0 or fact.alpha_effective <= mid * (1.0 + rel_tol):
            hi_b = mid
        else:
            lo_b = mid

    best = None if best is None else _rescaled(best, e, power)
    alpha_lo = _ldexp(lo * (1.0 - 1e-12), e)
    witness = _canonical_sign(witness)
    return NormBracket(alpha_lo, _ldexp(alpha_hi, e), best, witness, converged, probes)
