"""Dense matrix utilities: norms, spectral quantities, and an extreme
eigenpair solver for symmetric matrices.

All functions accept anything convertible to a 2-d float ndarray and treat
inputs as immutable.  The only iterative routine is :func:`max_eig_pair`;
everything it backs (spectral norm, stable rank) inherits its residual-based
accuracy contract.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SolverError

SYMMETRY_ATOL = 1e-10
STANDARDIZE_ATOL = 1e-8
ZERO_COLUMN_ATOL = 1e-12


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
    stay in range.
    """
    peak = float(np.abs(a).max()) if a.size else 0.0
    if peak == 0.0:
        return a, 0
    e = math.frexp(peak)[1]
    return np.ldexp(a, -e), e


def _ldexp(x, e):
    """``x * 2**e``, saturating to ``+-inf`` beyond the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def frobenius_norm(a):
    """Frobenius norm of a dense matrix."""
    a, e = _unit_scaled(as_matrix(a))
    return math.ldexp(math.sqrt(float(np.sum(a * a))), e)


class EigPair(NamedTuple):
    """Algebraically maximal eigenvalue of a symmetric matrix.

    ``vector`` has unit 2-norm and ``residual = ||H v - value v||_2``.
    """

    value: float
    vector: np.ndarray
    residual: float


def max_eig_pair(h, tol=1e-10) -> EigPair:
    """Algebraically maximal eigenpair of a symmetric matrix.

    Backed by the dense symmetric eigensolver; the returned pair always
    carries its measured residual, and :class:`SolverError` is raised if
    ``||H v - lam v||_2 > tol * max(1, ||H||_F)`` (which for a dense solve
    indicates ``tol`` was tightened past machine precision).
    """
    h = _require_symmetric(h)
    n = h.shape[0]
    if tol <= 0:
        raise DomainError("tol must be positive")
    if n == 0:
        raise DomainError("matrix must have at least one row")
    fro = math.sqrt(float(np.sum(h * h)))
    scale = max(1.0, fro)
    # ``fro`` underflows to 0 for a tiny nonzero matrix; test the entries.
    if not h.any():
        v = np.zeros(n)
        v[0] = 1.0
        return EigPair(0.0, v, 0.0)

    try:
        eigenvalues, eigenvectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"symmetric eigendecomposition failed: {exc}") from exc
    lam = float(eigenvalues[-1])
    v = eigenvectors[:, -1]
    v = v / math.sqrt(float(v @ v))
    r = h @ v - lam * v
    resid = math.sqrt(float(r @ r))
    if resid > tol * scale:
        raise SolverError(
            f"eigenpair residual {resid:.3g} exceeds {tol:g} * {scale:g}"
        )
    return EigPair(lam, v, resid)


def spectral_norm(a, tol=1e-10):
    """Largest singular value, via the extreme eigenpair of the Gram matrix."""
    a = as_matrix(a)
    if a.size == 0:
        return 0.0
    a, e = _unit_scaled(a)
    m, n = a.shape
    gram = a.T @ a if n <= m else a @ a.T
    pair = max_eig_pair(gram, tol)
    return math.ldexp(math.sqrt(max(pair.value, 0.0)), e)


def stable_rank(a, tol=1e-10):
    """``||A||_F^2 / ||A||^2``, an analytic surrogate for the rank."""
    a = as_matrix(a)
    fro = frobenius_norm(a)
    if fro == 0.0:
        raise DomainError("stable rank is undefined for the zero matrix")
    s = spectral_norm(a, tol)
    return (fro / s) ** 2


def condition_number(a, tol=1e-12):
    """Ratio of the extreme singular values over the full domain sphere.

    Returns ``inf`` when the smallest singular value does not exceed
    ``tol`` times the largest (rank-deficient within tolerance).
    """
    a = as_matrix(a)
    if a.shape[1] == 0:
        raise DomainError("condition number needs at least one column")
    sv = np.linalg.svd(a, compute_uv=False)
    smax = float(sv[0])
    smin = float(sv[-1]) if len(sv) >= a.shape[1] else 0.0
    if smax == 0.0 or smin <= tol * smax:
        return math.inf
    return smax / smin


def standardize(a):
    """Rescale every column to unit 2-norm."""
    a = as_matrix(a)
    norms = np.sqrt(np.sum(a * a, axis=0))
    bad = np.nonzero(norms <= ZERO_COLUMN_ATOL)[0]
    if bad.size:
        raise DomainError(f"column {int(bad[0])} has (near-)zero norm; cannot standardize")
    return a / norms


def is_standardized(a, atol=STANDARDIZE_ATOL):
    """True when every column 2-norm is within ``atol`` of one."""
    a = as_matrix(a)
    norms = np.sqrt(np.sum(a * a, axis=0))
    return bool(np.all(np.abs(norms - 1.0) <= atol))


def hollow_gram(a):
    """``A^T A - I`` for a standardized matrix; symmetric with zero diagonal.

    The diagonal is forced exactly to zero; column norms may deviate from
    one by at most ``STANDARDIZE_ATOL``, otherwise a :class:`DomainError`
    names the offending column.
    """
    a = as_matrix(a)
    norms = np.sqrt(np.sum(a * a, axis=0))
    off = np.abs(norms - 1.0)
    if off.size and off.max() > STANDARDIZE_ATOL:
        j = int(np.argmax(off))
        raise DomainError(
            f"column {j} has norm {norms[j]:.12g}; standardize the input first"
        )
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
