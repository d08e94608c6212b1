"""Exhaustive evaluation of the sign-vector matrix norms.

Both norms below are NP-hard in general, but for a matrix with ``s`` columns
they are attained at a vertex of the cube ``{-1, +1}^s`` (the objective is a
convex function of ``x``, so its maximum over the cube sits at a vertex).
Enumerating vertices is exact and affordable for small ``s``; these routines
exist as ground truth for the approximation algorithms and the sampling
experiments, and refuse inputs beyond ``ENUMERATION_CAP`` columns.

By sign symmetry only half the cube is scanned (the first coordinate is
pinned to +1).  Vertices are processed in vectorized blocks so the inner
work is a single matrix product per block.
"""

import math

import numpy as np

from .errors import DomainError
from .linalg import _ldexp, _unit_scaled, as_matrix

ENUMERATION_CAP = 22
_BLOCK_BITS = 15


def _sign_block(start, stop, s):
    """Rows are the sign vectors with codes ``start..stop-1``, first entry +1."""
    codes = np.arange(start, stop, dtype=np.uint64)[:, None]
    if s == 1:
        return np.ones((stop - start, 1))
    bits = (codes >> np.arange(s - 1, dtype=np.uint64)[None, :]) & np.uint64(1)
    x = np.empty((stop - start, s))
    x[:, 0] = 1.0
    x[:, 1:] = 1.0 - 2.0 * bits
    return x


def _enumerate_max(mat, score_rows):
    """Maximize ``score_rows(mat @ x)`` over half the sign cube."""
    s = mat.shape[1]
    total = 1 << (s - 1)
    block = 1 << min(_BLOCK_BITS, s - 1)
    best = -math.inf
    best_x = None
    for start in range(0, total, block):
        stop = min(start + block, total)
        x = _sign_block(start, stop, s)
        scores = score_rows(mat @ x.T)
        k = int(np.argmax(scores))
        if scores[k] > best:
            best = float(scores[k])
            best_x = x[k].copy()
    return best, best_x


def _check_enumerable(mat, name):
    mat = as_matrix(mat, name)
    if mat.shape[1] > ENUMERATION_CAP:
        raise DomainError(
            f"{name} has {mat.shape[1]} columns; exact enumeration is "
            f"capped at {ENUMERATION_CAP} (2^s sign vectors)"
        )
    return mat


def norm_inf2_exact(b):
    """Exact ``max ||B x||_2`` over sign vectors ``x``, with a maximizer.

    Returns ``(value, x)``.  An empty matrix has norm 0.
    """
    b = _check_enumerable(b, "B")
    if b.shape[1] == 0:
        return 0.0, np.zeros(0)
    b, e = _unit_scaled(b)  # exact, so the squares neither overflow nor underflow
    sq, x = _enumerate_max(b, lambda v: np.sum(v * v, axis=0))
    return _ldexp(math.sqrt(sq), e), x


def norm_inf1_exact(g):
    """Exact ``max ||G x||_1`` over sign vectors ``x``, with a maximizer.

    Returns ``(value, x)``.  An empty matrix has norm 0.
    """
    g = _check_enumerable(g, "G")
    if g.shape[1] == 0:
        return 0.0, np.zeros(0)
    val, x = _enumerate_max(g, lambda v: np.sum(np.abs(v), axis=0))
    return val, x
