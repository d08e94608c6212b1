"""Independent reference computations used only by the test suite.

Deliberately different algorithms from the library: a cyclic Jacobi
eigensolver (vs LAPACK), an exact rational ``LDL^T`` test of an eigenvalue
bound (vs a floating-point Cholesky factor and a rounding margin),
itertools sign enumeration (vs a doubled sign table split between low and
high columns), and a dense simplex grid (vs mirror descent).  The
exceptions are references that the library must match bit for bit:
:func:`flip_ascent_inf1`, the (inf->1) sign-witness ascent as first written
(every flip score formed afresh), and the shifted top pairs of the two
factorization programs as each program first solved them
(:func:`pietsch_shifted_pairs`, :func:`groth_shifted_pairs`), on the
library's dense eigen kernel.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from colsel.linalg import _top_pair


def jacobi_eigenvalues(a, tol=1e-13, max_sweeps=60):
    """Full spectrum of a symmetric matrix by cyclic Jacobi rotations.

    Returns eigenvalues in ascending order.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a.ravel().copy()
    scale = max(1.0, math.sqrt(float(np.sum(a * a))))
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, float(np.sum(a * a) - np.sum(np.diag(a) ** 2))))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
    return np.sort(np.diag(a))


def jacobi_max_eigenvalue(a, **kwargs):
    return float(jacobi_eigenvalues(a, **kwargs)[-1])


def lambda_max_at_most(h, t):
    """Whether ``lambda_max(h) <= t`` holds exactly, for a symmetric float
    ``h`` and a float or :class:`~fractions.Fraction` ``t``.

    Every float is a dyadic rational, so ``t I - h`` is held exactly in
    fractions and tested for positive semidefiniteness by an ``LDL^T``
    elimination with the diagonal pivots in order: the matrix is
    semidefinite unless a pivot is negative, or is zero with a nonzero
    entry left in its row.  The cost grows as ``n^3`` rational operations on
    growing numerators, so keep the order at 12 or less.
    """
    n = h.shape[0]
    t = Fraction(t)
    m = [[(t if i == j else 0) - Fraction(float(h[i, j])) for j in range(n)]
         for i in range(n)]
    for k in range(n):
        pivot = m[k][k]
        if pivot < 0 or (pivot == 0 and any(m[k][k + 1:])):
            return False
        if pivot == 0:
            continue
        for i in range(k + 1, n):
            ratio = m[i][k] / pivot
            if ratio:
                for j in range(k + 1, n):
                    m[i][j] -= ratio * m[k][j]
    return True


def _cube(s, pinned=False):
    """Sign vectors of length ``s`` as rows, listed by ``itertools.product``
    with the columns reversed: entry 1 (entry 0 unless ``pinned``) varies
    fastest, so with ``pinned`` the row index is the code of
    :func:`lowest_code_maximizer`."""
    free = s - 1 if pinned else s
    rows = list(itertools.product((1.0, -1.0), repeat=free))
    signs = np.ones((len(rows), s))
    signs[:, s - free :] = np.reshape(rows, (len(rows), free))[:, ::-1]
    return signs


def naive_norm_inf2(b):
    """``max ||B x||_2`` over the whole sign cube, by one direct product."""
    images = np.asarray(b, dtype=float) @ _cube(np.shape(b)[1]).T
    return math.sqrt(float(np.max(np.sum(images * images, axis=0))))


def naive_norm_inf1(g):
    """``max ||G x||_1`` over the whole sign cube, by one direct product."""
    images = np.asarray(g, dtype=float) @ _cube(np.shape(g)[1]).T
    return float(np.max(np.sum(np.abs(images), axis=0)))


def lowest_code_maximizer(mat, kind):
    """First maximizer, in code order, of ``||mat x||_2`` (``kind="inf2"``)
    or ``||mat x||_1`` over sign vectors with first entry +1.

    Code ``c`` sets entry ``j + 1`` to -1 iff bit ``j`` of ``c`` is set.
    Ties are judged exactly only when every image is exact, as for
    small-integer matrices.
    """
    signs = _cube(mat.shape[1], pinned=True)
    images = np.asarray(mat, dtype=float) @ signs.T
    if kind == "inf2":
        scores = np.sum(images * images, axis=0)
    else:
        scores = np.sum(np.abs(images), axis=0)
    return signs[int(np.argmax(scores))]


def simplex_grid(dim, steps):
    """All points of the simplex with coordinates at multiples of 1/steps."""
    points = []
    for combo in itertools.combinations(range(steps + dim - 1), dim - 1):
        prev = -1
        parts = []
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(steps + dim - 2 - prev)
        points.append(parts)
    return np.array(points, dtype=float) / steps


def flip_ascent_inf1(g, x):
    """Greedy single-flip ascent of ``||G x||_1``, each step scoring every
    flip by forming ``|y - 2 g_j x_j|`` afresh."""
    g = np.asarray(g, dtype=float)
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


def pietsch_shifted_pairs(b, level, f):
    """The top pair of ``B^T B - level diag(f)``: the Gram's diagonal
    shifted through an index array, then the dense kernel."""
    h = b.T @ b
    idx = np.arange(f.size)
    h[idx, idx] -= level * f
    return [_top_pair(h)]


def groth_shifted_pairs(g, level, f):
    """The top pairs of ``G - level F`` and ``-G - level F``, each formed by
    subtracting a dense ``diag(level f)``; a tie goes to ``+G``."""
    shift = np.diag(level * f)
    return [_top_pair(signed - shift) for signed in (g, -g)]
