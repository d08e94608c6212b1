"""Dense matrix utilities: norms, spectral quantities, and extreme
eigenpair solvers for symmetric matrices.

The public functions validate anything convertible to a 2-d float ndarray
and treat inputs as immutable.  The eigen kernels trust their caller, a
solver passing an array it built, and hold a pair to one contract: a unit
vector, its measured residual and ``residual <= EIG_TOL max(1, ||H||_F)``.
:func:`_top_pair` is the dense ``eigh``; :func:`max_eig_pair` checks its
input and calls it.  Within a :func:`_gram_scope`, :func:`_gram_top_pair`
returns the pair of the last Gram it solved for a Gram with the same bits:
the spectral norms and the Pietsch level-free Grams go through it, so a
selection's check of a sample that pruning kept whole reuses the
factorization's solve, and a stable rank right after a check of every
column reuses the check's.  Grothendieck's level-free solves, every shifted
solve and :func:`max_eig_pair` bypass it, so ``bt``'s order-8 solves pay no
comparison and evict nothing.  :func:`_signed_top_pairs` gives the top
pairs of ``G`` and ``-G`` from one ``eigh(G)``, for the level-free solve of
the selection's weights path; the public Grothendieck factorization and
bracket solve ``G`` and ``-G`` apart.
:func:`_krylov_top_pair` finds the top pair by Lanczos iteration and returns
it only when a Cholesky factor proves that no eigenvalue lies above it; the
core's shifted Pietsch solves of order 128 and more try it first and fall
back to :func:`_top_pair` when it refuses (:mod:`colsel.factor`).  The rest
stays dense: the spectral-norm Grams, on which Lanczos took 36-56 steps at
order 128 and lost to ``eigh``; the Grothendieck solves, whose top is a
cluster on wide inputs; and the level-free spectra, whose top vectors start
the sign-witness ascents, so their bits must not move.
"""

import contextlib
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SolverError

SYMMETRY_ATOL = 1e-10
STANDARDIZE_ATOL = 1e-8
ZERO_COLUMN_ATOL = 1e-12
# Singular values at or below this fraction of the largest count as zero.
RANK_RTOL = 1e-12
# Largest eigenpair residual accepted from the dense eigensolver, relative to
# ``max(1, ||H||_F)``.  A dense ``eigh`` is accurate to rounding; this only
# decides when a residual is refused, it does not set the accuracy.
EIG_TOL = 1e-12
# Lanczos steps a Krylov solve takes before it refuses; the isolated top
# pairs of the Pietsch evaluations in the kt benchmark converge in 12-32.
KRYLOV_STEPS = 48
# Steps between a Krylov solve's convergence checks, each an ``eigh`` of its
# tridiagonal matrix.
KRYLOV_CHECK = 4
# A Krylov solve stops once its residual estimate is below this fraction of
# ``EIG_TOL max(1, ||H||_F)``, which leaves its pair as accurate as eigh's.
KRYLOV_RTOL = 1e-2
_UNIT_ROUNDOFF = 2.0**-53  # of a float rounded to nearest


def as_matrix(a, name="matrix"):
    """Validate and return ``a`` as a 2-d float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DomainError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise DomainError(f"{name} contains non-finite entries")
    return m


def _require_symmetric(h, name="matrix"):
    h = as_matrix(h, name)
    r, c = h.shape
    if r != c:
        raise DomainError(f"{name} must be square, got {r}x{c}")
    if r and np.abs(h - h.T).max() > SYMMETRY_ATOL:
        raise DomainError(
            f"{name} is not symmetric within {SYMMETRY_ATOL:g}; "
            "symmetrize explicitly if that is intended"
        )
    return h


def _unit_scaled(a):
    """``(a * 2**-e, e)`` with the largest ``|entry|`` of the first in [0.5, 1).

    Scaling by a power of two is exact, so norms computed from squared
    entries of the scaled matrix and multiplied back by ``2**e`` neither
    underflow nor overflow, and equal the unscaled results wherever those
    stay in range.  A zero matrix has ``e = 0``.  On a ``(K, m, n)`` stack
    each matrix is scaled on its own, and ``e`` is the array of exponents.
    """
    e = np.frexp(np.abs(a).max(axis=(-2, -1), initial=0.0))[1]
    return np.ldexp(a, -e[..., None, None]), (e if a.ndim == 3 else int(e))


def _ldexp(x, e):
    """``x * 2**e``, saturating to ``+-inf`` beyond the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _scaled_back(x, e, what):
    """``x * 2**e`` for a value ``x`` taken at unit scale; :class:`DomainError`
    names ``what`` if a finite ``x`` leaves the float range."""
    value = _ldexp(x, e)
    if math.isinf(value) and not math.isinf(x):
        raise DomainError(f"{what} is beyond the float range")
    return value


def frobenius_norm(a):
    """Frobenius norm of a dense matrix."""
    a, e = _unit_scaled(as_matrix(a))
    return _ldexp(math.sqrt(float(np.sum(a * a))), e)


class EigPair(NamedTuple):
    """Algebraically maximal eigenvalue of a symmetric matrix.

    ``vector`` has unit 2-norm and ``residual = ||H v - value v||_2``.
    """

    value: float
    vector: np.ndarray
    residual: float


def max_eig_pair(h) -> EigPair:
    """Algebraically maximal eigenpair of a symmetric matrix.

    Backed by the dense symmetric eigensolver; the returned pair always
    carries its measured residual, and :class:`SolverError` is raised if
    ``||H v - lam v||_2 > EIG_TOL * max(1, ||H||_F)``.
    """
    h = _require_symmetric(h)
    if h.shape[0] == 0:
        raise DomainError("matrix must have at least one row")
    return _top_pair(h)


def _top_pair(h):
    """:func:`max_eig_pair` without its checks, for a nonempty symmetric
    finite ``h`` whose entries and their squared sum stay in the float range."""
    # ``||H||_F`` underflows to 0 for a tiny nonzero matrix; test the entries.
    if not h.any():
        v = np.zeros(h.shape[0])
        v[0] = 1.0
        return EigPair(0.0, v, 0.0)
    eigenvalues, eigenvectors = _eigh(h)
    return _measured_pair(h, float(eigenvalues[-1]), eigenvectors[:, -1])


def _signed_top_pairs(h, minus_h):
    """The top pairs of ``h`` and of ``minus_h``, which is ``-h``, from one
    ``eigh(h)``: ``minus_h``'s is ``(-lambda_min, v_min)``.  Each pair has
    its own measured residual and passes :func:`_top_pair`'s test."""
    if not h.any():
        return _top_pair(h), _top_pair(minus_h)
    eigenvalues, eigenvectors = _eigh(h)
    return (_measured_pair(h, float(eigenvalues[-1]), eigenvectors[:, -1]),
            _measured_pair(minus_h, -float(eigenvalues[0]), eigenvectors[:, 0]))


def _eigh(h):
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"symmetric eigendecomposition failed: {exc}") from exc


def _measured_pair(h, lam, v):
    """``(lam, v)`` with ``v`` normalized and its residual measured and tested."""
    v = v / math.sqrt(float(v @ v))
    r = h @ v - lam * v
    resid = math.sqrt(float(r @ r))
    _require_residual(resid, lambda: math.sqrt(float(np.sum(h * h))))
    return EigPair(lam, v, resid)


# ``None`` outside every :func:`_gram_scope`, else ``[None]`` or ``[(gram, pair)]``.
_gram_memo = None


@contextlib.contextmanager
def _gram_scope():
    """A lifetime for the Gram memo; a nested scope shares the outer one's."""
    global _gram_memo
    if _gram_memo is not None:
        yield
        return
    _gram_memo = [None]
    try:
        yield
    finally:
        _gram_memo = None


def _gram_top_pair(gram, solve=_top_pair):
    """``solve(gram)`` for a Gram matrix a solver built, remembered once
    within a :func:`_gram_scope` and not at all outside one.

    A Gram with the shape and the bits of the last one (``-0.0`` and ``0.0``
    differ) gets its pair, whose bits a fresh solve would repeat.  Only a
    pair that passed ``solve``'s residual test is kept, and only the last,
    with the caller's ``gram`` itself, both read-only, so no copy is held.
    Threads share a scope soundly: the entry is bit-keyed and replaced as
    one tuple, so a caller can lose a hit, never get another matrix's pair.
    """
    memo = _gram_memo
    if memo is None:
        return solve(gram)
    held = memo[0]
    if (held is not None and held[0].shape == gram.shape
            and np.array_equal(held[0].view(np.uint64), gram.view(np.uint64))):
        return held[1]
    pair = solve(gram)
    gram.flags.writeable = False
    pair.vector.flags.writeable = False
    memo[0] = (gram, pair)
    return pair


def _krylov_top_pair(h):
    """The top pair of a nonempty symmetric finite ``h`` by Lanczos iteration
    with full reorthogonalization, or ``None`` when the pair is not proven.

    The iteration starts from the fixed unit vector proportional to ``(sin 1,
    ..., sin n)``, which no sign pattern of an input is likely to be
    orthogonal to.  Every ``KRYLOV_CHECK`` steps, and at once when the Krylov
    space is invariant within tolerance, it takes the top Ritz pair of its
    tridiagonal matrix, and it stops when that pair's residual estimate is
    below ``KRYLOV_RTOL EIG_TOL max(1, ||H||_F)`` or after ``KRYLOV_STEPS``
    steps.  The pair is returned only if its measured residual passes
    :func:`_top_pair`'s test and :func:`_proves_top` proves that no
    eigenvalue lies above its value by more than a rounding margin: a Krylov
    space that misses the top eigenvector gives a lower Ritz value with as
    small a residual, and only the proof tells the two apart.
    """
    n = h.shape[0]
    scale = max(1.0, math.sqrt(float(np.sum(h * h))))
    tol = KRYLOV_RTOL * EIG_TOL * scale
    steps = min(KRYLOV_STEPS, n)
    q = np.empty((steps, n))
    start = np.sin(np.arange(1.0, n + 1.0))
    q[0] = start / math.sqrt(float(start @ start))
    diag, off = np.empty(steps), np.empty(steps)
    for k in range(steps):
        basis = q[:k + 1]
        w = h @ q[k]
        c = basis @ w
        w -= c @ basis
        c2 = basis @ w  # Gram-Schmidt twice keeps the basis orthogonal to rounding
        w -= c2 @ basis
        diag[k] = c[k] + c2[k]
        off[k] = math.sqrt(float(w @ w))
        last = k + 1 == steps
        if (k + 1) % KRYLOV_CHECK == 0 or off[k] <= tol or last:
            t = np.diag(diag[:k + 1]) + np.diag(off[:k], 1) + np.diag(off[:k], -1)
            values, vectors = np.linalg.eigh(t)
            y = vectors[:, -1]
            if off[k] * abs(float(y[-1])) <= tol or last:
                break
        q[k + 1] = w / off[k]
    theta = float(values[-1])
    v = y @ basis
    v /= math.sqrt(float(v @ v))
    r = h @ v - theta * v
    resid = math.sqrt(float(r @ r))
    if resid > EIG_TOL * scale or not _proves_top(h, theta):
        return None
    return EigPair(theta, v, resid)


def _proves_top(h, theta):
    """Whether a Cholesky factor proves ``lambda_max(h) <= c + mu`` for the
    shift ``c = theta + delta`` and Rump's margin ``mu <= delta``.

    If a floating-point Cholesky factorization of ``M = fl(c I - h)`` (order
    ``n``, unit roundoff ``u``) completes, ``M + E = R^T R`` with ``||E||_2 <=
    gamma_{n+1} / (1 - gamma_{n+1}) tr(M)`` (Demmel), and ``M`` differs from
    ``c I - h`` by the rounding of its diagonal, at most ``u max m_ii``; with a
    term for underflow that is Rump's margin ``mu`` ("Verification of
    positive definiteness", BIT 2006), bounded here by ``2 (n + 1) u tr(M) + u
    max m_ii + 4 n (2 n + 4 + max m_ii) 2^-1074``.  The shift ``delta``,
    twice that bound taken with ``theta - h_ii`` for ``m_ii``, lets the
    factorization complete when ``theta`` is the top eigenvalue; ``mu <=
    delta`` is checked on the factored matrix.
    """
    n = h.shape[0]
    idx = np.arange(n)

    def margin(d):
        return (2.0 * (n + 1) * _UNIT_ROUNDOFF * float(np.sum(d))
                + _UNIT_ROUNDOFF * float(d.max())
                + 4.0 * n * (2.0 * n + 4.0 + float(d.max())) * math.ulp(0.0))

    delta = 2.0 * margin(np.abs(theta - h[idx, idx]))
    m = -h
    m[idx, idx] += theta + delta
    if not margin(np.abs(m[idx, idx])) <= delta:
        return False
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _require_residual(resid, frobenius):
    """Refuse an eigenpair residual above ``EIG_TOL * max(1, ||H||_F)``.

    ``frobenius()`` gives ``||H||_F``; the scale is at least 1, so it is
    called only when ``resid > EIG_TOL``.
    """
    if resid > EIG_TOL:
        scale = max(1.0, frobenius())
        if resid > EIG_TOL * scale:
            raise SolverError(
                f"eigenpair residual {resid:.3g} exceeds {EIG_TOL:g} * {scale:g}"
            )


def spectral_norm(a):
    """Largest singular value, via the extreme eigenpair of the Gram matrix."""
    return _spectral_norm(as_matrix(a), max_eig_pair)


def _spectral_norm(a, solve=_top_pair):
    """:func:`spectral_norm` of a finite 2-d float array, by default without
    the checks of :func:`max_eig_pair`: the Gram it builds is symmetric by
    construction, so the bits are the same.  Its Gram goes through
    :func:`_gram_top_pair`."""
    if a.size == 0:
        return 0.0
    a, e = _unit_scaled(a)
    m, n = a.shape
    gram = a.T @ a if n <= m else a @ a.T
    return _ldexp(math.sqrt(max(_gram_top_pair(gram, solve).value, 0.0)), e)


def stable_rank(a):
    """``||A||_F^2 / ||A||^2``, an analytic surrogate for the rank."""
    fro = frobenius_norm(a)
    if fro == 0.0:
        raise DomainError("stable rank is undefined for the zero matrix")
    s = spectral_norm(a)
    return (fro / s) ** 2


def condition_number(a):
    """Ratio of the extreme singular values over the full domain sphere.

    Returns ``inf`` when the smallest singular value does not exceed
    ``RANK_RTOL`` times the largest (rank-deficient within tolerance).
    """
    a = as_matrix(a)
    if a.shape[1] == 0:
        raise DomainError("condition number needs at least one column")
    sv = np.linalg.svd(a, compute_uv=False)
    smax = float(sv[0])
    smin = float(sv[-1]) if len(sv) >= a.shape[1] else 0.0
    if smax == 0.0 or smin <= RANK_RTOL * smax:
        return math.inf
    return smax / smin


def _column_norms(a):
    """``(a 2**-e, e, column 2-norms of a 2**-e)``: no squared entry overflows."""
    a, e = _unit_scaled(a)
    return a, e, np.sqrt(np.sum(a * a, axis=0))


def standardize(a):
    """Rescale every column to unit 2-norm.

    The norms are taken at unit scale (:func:`_column_norms`), so entries
    whose squares leave the float range are handled exactly; a column whose
    norm is at most ``ZERO_COLUMN_ATOL`` is refused.
    """
    a, e, norms = _column_norms(as_matrix(a))
    bad = np.nonzero(norms <= _ldexp(ZERO_COLUMN_ATOL, -e))[0]
    if bad.size:
        raise DomainError(f"column {int(bad[0])} has (near-)zero norm; cannot standardize")
    return a / norms


def _require_standardized(a, name="A"):
    """``a`` as a checked matrix if its column 2-norms, taken at unit scale, are
    within ``STANDARDIZE_ATOL`` of one; else :class:`DomainError` names the furthest."""
    a = as_matrix(a, name)
    _, e, norms = _column_norms(a)
    off = np.abs(norms - _ldexp(1.0, -e))
    if off.size and off.max() > _ldexp(STANDARDIZE_ATOL, -e):
        j = int(np.argmax(off))
        raise DomainError(
            f"column {j} has norm {_ldexp(float(norms[j]), e):.12g}; "
            f"{name} must have unit-norm columns, standardize it first"
        )
    return a


def is_standardized(a):
    """True when :func:`_require_standardized` accepts ``a``."""
    a = as_matrix(a)
    try:
        _require_standardized(a)
    except DomainError:
        return False
    return True


def hollow_gram(a):
    """``A^T A - I`` for a standardized matrix; symmetric with zero diagonal.

    The diagonal is forced exactly to zero; the input goes through
    :func:`_require_standardized`.
    """
    a = _require_standardized(a)
    h = a.T @ a
    np.fill_diagonal(h, 0.0)
    return h


def _check_subset(indices, ambient, name="subset"):
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size:
        if np.any(np.diff(idx) <= 0):
            raise DomainError(f"{name} indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= ambient:
            raise DomainError(f"{name} indices must lie in [0, {ambient})")
    return idx


def column_submatrix(a, indices):
    """Columns of ``a`` restricted to a sorted, duplicate-free index set."""
    a = as_matrix(a)
    idx = _check_subset(indices, a.shape[1])
    return a[:, idx]


def principal_submatrix(h, indices):
    """Rows and columns of square ``h`` restricted to a sorted index set."""
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise DomainError("principal submatrix requires a square matrix")
    idx = _check_subset(indices, h.shape[1])
    return h[np.ix_(idx, idx)]
