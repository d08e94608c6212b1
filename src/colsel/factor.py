"""The factorization core shared by the Pietsch and Grothendieck modules.

Both are one algorithm run on two eigenvalue programs.  A program is an
:class:`EigenProgram` built from a matrix ``A`` with ``s`` columns and a level
``alpha``: one eigenproblem, ``lambda(f)``, the top eigenvalue of a symmetric
matrix affine in ``alpha^p f``; ``lambda(f) <= 0`` for weights ``f`` on the
simplex iff ``A`` factors through ``D = diag(sqrt f)`` with ``||T|| <=
alpha``.  Its members: ``power`` ``p`` (2 for Pietsch, 1 for Grothendieck),
the bracket ``constant``, ``name`` (the input's name in messages), ``level``
(``alpha^p``), ``improve(x)`` (sign-witness ascent), ``split(d)``/``join(t,
d)`` (``T`` from ``D``, and the input back from both) and ``_branches``, the
level-free branch matrices ``H``: ``lambda(f)`` is the largest top eigenvalue
of an ``H - level diag(f)``.  The base class owns the rest: each branch's top
pair (see :class:`EigenProgram`), the constant-weight rule (the level-free
pairs give every pair at constant ``f`` and ``t_norm(t, d)``, the measured
``||T||``, at constant ``d``), the evaluation ``program(f)`` and
``certified(f)``, an upper bound on ``lambda(f)`` at the best point's pairs.

The public solvers convert their input once and hand it here; the core owns
the other checks (a column, a finite ``||A||_F``, a finite ``alpha > 0`` whose
unit-scale level is at most ``MAX_UNIT_LEVEL``, ``0 < rel_tol < 1``, a budget).
The zero matrix factors exactly (uniform ``d``, ``T = 0``) with bracket ``[0, 0]``.

:func:`_factorize` minimizes ``lambda`` by mirror descent with an early exit
at zero and certifies ``eta`` at the best point.  A positive ``eta`` is
absorbed by blending with the uniform point, ``(alpha^p f + eta) / (alpha^p
+ eta s)``, at the price ``alpha_effective = (alpha^p + eta s)^(1/p)``; if
eigensolver slack lets ``||T||`` pass that, the excess ``(||T||^p -
alpha_eff^p) / s`` is folded into ``eta`` once.  :func:`_bracket` starts
from the level-free spectrum: the sign vectors of its start give the lower
bound and the measured norm of the uniform factorization the upper one.  It
bisects on ``alpha`` until ``alpha_hi <= K alpha_lo (1 + rel_tol)`` or the
interval collapses, a rule tested before the first probe too; each probe's
factor norm is another upper bound.  Both, and the objective
:func:`_evaluate`, solve ``A 2^-e`` at level ``alpha 2^-e`` (the largest entry
of ``A 2^-e`` in ``[0.5, 1)``) and scale back exactly (``eta`` and objective
values by ``2^(p e)``), so all three are homogeneous; a reported number beyond
the float range is refused.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .emd import SubgradientSample, emd_minimize
from .errors import DomainError, SolverError, _require_budget
from .linalg import (EigPair, _krylov_top_pair, _ldexp, _scaled_back, _spectral_norm,
                     _top_pair, _unit_scaled, frobenius_norm)

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

# Order from which a shifted solve of a ``_krylov`` program tries Lanczos first.
KRYLOV_ORDER = 128


class EigenProgram:
    """An eigenvalue program at one level: its value is the largest of its
    branches' top values.

    A program supplies ``_branches``, formed on first use; the core solves
    their top pairs, dense at level 0 (:meth:`_level_free`) and by
    :meth:`_shifted` at non-constant ``f``.  At constant weights the shift
    ``level F`` is ``c I``, ``c = level f_0``, so each pair is a level-free
    pair ``(mu, u)`` moved to ``(mu - c, u)`` with the same residual; those
    are solved once per program and also give ``||T||`` at constant ``d``.

    A program keeps the pairs of its lowest-value point, the first to reach
    that value (the point ``emd_minimize`` returns), keyed by the exact bytes
    of ``f``, and ``certified`` reuses them there: every pair passed the
    kernel's test ``residual <= EIG_TOL max(1, ||H||_F)``, and a fresh solve of
    the same matrix gives the same bits, so reuse changes no value.  At any
    other point the branches are solved afresh, with their ``SolverError``.
    """

    _best = None  # (value, f bytes, branch pairs) of the lowest-value point
    _krylov = False  # True: shifted solves try the Krylov kernel until it refuses one

    @functools.cached_property
    def _spectrum(self):  # the level-free branch pairs
        return self._level_free()

    def _level_free(self):
        """Each branch's top pair, dense: it starts a bracket's ascent."""
        return [_top_pair(branch) for branch in self._branches]

    def _shifted(self, f):
        """The top pair of each ``H - level diag(f)``; a tie goes to the first.

        With ``_krylov`` set, from order ``KRYLOV_ORDER`` on, Lanczos goes
        first: the Pietsch top is isolated on clustered inputs, where an
        ``eigh`` of order 128-256 costs several Lanczos runs and proofs.  Its
        first refusal (a slow gap, or a Krylov space that missed the top)
        leaves the rest of the program's solves to ``eigh``, so a slow-gap
        input wastes at most one attempt per factorization.
        """
        shift = self.level * f
        pairs = []
        for branch in self._branches:
            h = branch.copy()
            h.reshape(-1)[:: f.size + 1] -= shift  # the diagonal, in place
            pair = None
            if self._krylov and f.size >= KRYLOV_ORDER:
                pair = _krylov_top_pair(h)
                self._krylov = pair is not None
            pairs.append(_top_pair(h) if pair is None else pair)
        return pairs

    def _pairs(self, f):
        """The top pair of each branch at ``f``."""
        f = np.asarray(f, dtype=float)
        if f[0] != f[-1] or f.max() != f.min():  # the first test settles most calls
            return self._shifted(f)
        c = self.level * float(f[0])
        return [EigPair(p.value - c, p.vector, p.residual) for p in self._spectrum]

    def __call__(self, f):
        """The value at ``f`` and the subgradient ``-level u^2`` of the top
        vector ``u`` of the attaining branch, the first with the largest value."""
        pairs = self._pairs(f)
        top = max(pairs, key=lambda p: p.value)
        if self._best is None or top.value < self._best[0]:
            self._best = (top.value, np.asarray(f, dtype=float).tobytes(), pairs)
        return SubgradientSample(top.value, -self.level * top.vector**2)

    def certified(self, f):
        """Upper bound on the value at ``f``: the largest branch value plus residual."""
        best = self._best
        key = np.asarray(f, dtype=float).tobytes()
        pairs = best[2] if best is not None and best[1] == key else self._pairs(f)
        return max(p.value + p.residual for p in pairs)

    def t_norm(self, t, d):
        """The measured ``||T||`` of the factor ``t = split(d)``: at constant
        ``d``, ``T`` is ``A / d_0^(2/p)``, so it is ``sqrt(mu) / d_0``
        (Pietsch) or ``mu / (d_0 d_0)`` (Grothendieck) for the largest
        level-free top value ``mu``; otherwise the Gram of ``t`` is solved."""
        if d.max() != d.min():
            return _spectral_norm(t)
        mu = max(max(p.value for p in self._spectrum), 0.0)
        d0 = float(d[0])
        return math.sqrt(mu) / d0 if self.power == 2 else mu / (d0 * d0)


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
    attaining ``alpha_lo`` (up to measurement slack).  ``alpha_hi`` is the
    smallest measured factor norm: the uniform factorization's, or a probe's.
    ``probes`` counts the factorizations run; ``converged`` says whether the
    stop rule held.
    """

    alpha_lo: float
    alpha_hi: float
    lower_witness: np.ndarray
    converged: bool
    probes: int


def _rescaled(fact, e, power):
    """The factorization of ``A`` from that of ``A * 2**-e``, its numbers scaled
    back; a number that leaves the float range is refused."""
    with np.errstate(over="ignore"):  # saturates to +-inf, like _ldexp
        t = np.ldexp(fact.t, e)
    return Factorization(
        d=fact.d,
        t=t,
        alpha_effective=_scaled_back(fact.alpha_effective, e, "alpha_effective"),
        eta=_scaled_back(fact.eta, power * e, "eta"),
        reconstruction_residual=_scaled_back(fact.reconstruction_residual, e, "the residual"),
        t_norm=_scaled_back(fact.t_norm, e, "t_norm"),
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
    _scaled_back(fro, e, f"the Frobenius norm of {program.name}")
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
    both scale back by ``2^(p e)`` exactly, and a value or subgradient entry
    beyond the float range is refused.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < math.inf:
        raise DomainError(f"alpha must be finite and nonnegative, got {alpha!r}")
    f = _column_vector(f, a.shape[1], program.name, "f")
    a, e = _unit_scaled(a)
    value, grad = program(a, _unit_level(program, alpha, e))(f)
    shift = program.power * e
    _scaled_back(float(np.abs(grad).max()), shift, "the subgradient")
    return SubgradientSample(_scaled_back(value, shift, "the objective value"),
                             np.ldexp(grad, shift))


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
    f = run.best_point
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
    """Bracket the norm of the converted input ``a``, bisecting on ``alpha``
    until ``alpha_hi <= K alpha_lo (1 + rel_tol)`` or the search interval
    collapses to relative width ``rel_tol``.

    The start's level-free spectrum gives the lower end (sign vectors) and the
    first upper end: the measured norm of the uniform factorization.  Every
    probe is one call of ``factorize``, the program's public solver, on the
    unit-scaled ``a``, so a probe is what a caller would get; after
    ``MAX_PROBES`` of them the bracket returns unconverged.
    """
    a, e, fro = _unit_input(program, a)
    if not 0.0 < rel_tol < 1.0:
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    emd_budget = _require_budget(emd_budget)
    s = a.shape[1]
    if fro == 0.0:
        return NormBracket(0.0, 0.0, np.ones(s), True, 0)
    # The all-ones start and each branch's top vector give the one lower bound.
    objective = program(a, 0.0)
    lo, witness = objective.improve(np.ones(s))
    for branch in objective._spectrum:
        cand, cand_x = objective.improve(np.sign(branch.vector))
        if cand > lo:
            lo, witness = cand, cand_x
    # A measured ||T|| certifies the norm from above (up to eigensolver slack,
    # absorbed here), and uniform weights factor every input.  They are
    # normalized as _build normalizes them, so the bound has the bits that a
    # probe ending at the uniform start measures.
    f = np.full(s, 1.0 / s)
    d = np.sqrt(f / f.sum())
    alpha_hi = objective.t_norm(objective.split(d), d) * (1.0 + 1e-9)

    lo_b, hi_b = lo, alpha_hi
    probes = 0
    while True:
        converged = (alpha_hi <= lo * program.constant * (1.0 + rel_tol)
                     or hi_b - lo_b <= rel_tol * lo_b)
        if converged or probes >= MAX_PROBES:
            break
        mid = math.sqrt(lo_b * hi_b)
        fact = factorize(a, mid, emd_budget)
        probes += 1
        alpha_hi = min(alpha_hi, fact.t_norm * (1.0 + 1e-9))
        if fact.eta <= 0.0 or fact.alpha_effective <= mid * (1.0 + rel_tol):
            hi_b = mid
        else:
            lo_b = mid

    alpha_lo = _scaled_back(lo * (1.0 - 1e-12), e, "the lower end of the bracket")
    alpha_hi = _scaled_back(alpha_hi, e, "the upper end of the bracket")
    return NormBracket(alpha_lo, alpha_hi, _canonical_sign(witness), converged, probes)
