"""Exhaustive evaluation of the sign-vector matrix norms.

Both norms below are NP-hard in general, but for a matrix with ``s`` columns
they are attained at a vertex of the cube ``{-1, +1}^s`` (the objective is a
convex function of ``x``, so its maximum over the cube sits at a vertex).
Enumerating vertices is exact and affordable for small ``s``; these routines
exist as ground truth for the approximation algorithms and the sampling
experiments, and refuse inputs beyond ``ENUMERATION_CAP`` columns.

By sign symmetry only half the cube is scanned: the first coordinate is
pinned to +1, and the sign vector with code ``c`` has entry ``j + 1`` equal
to -1 iff bit ``j`` of ``c`` is set.  Up to ``_LOW_COLUMNS`` columns, one
product ``A X^T`` against the table ``X`` of all codes scores every vector.

Wider inputs are split (meet in the middle, Horowitz and Sahni 1974): the
first ``_LOW_COLUMNS`` columns ``A_lo`` give the table ``P = A_lo X_lo^T``
(``m x 2^12``), tabulated once, and the high columns are enumerated in
blocks, each high sign vector giving ``v = A_hi x_hi``.  The score of the
pair is ``||v||^2 + 2 v^T P + ||P||^2`` for (inf->2), one GEMM per block,
and ``sum_rows |v + P|`` for (inf->1): ``O(m)`` per sign vector instead of
``O(m s)``.

The winner is the first maximum in code order (the lowest code among the
maximizers).  Split scores round differently from a direct product, so above
the split every vector within ``_TIE_WINDOW`` (relative) of the best score
is scored again by a direct product, and the first maximum of those wins.
The reported value is always measured by a direct product at the winner.
Both norms are evaluated on the input scaled by a power of two that brings
its largest entry into ``[0.5, 1)``, and scaled back; that is exact, so no
square or sum overflows and the values saturate to ``inf`` beyond the float
range.
"""

import functools
import math

import numpy as np

from .errors import DomainError
from .linalg import _ldexp, _unit_scaled, as_matrix

ENUMERATION_CAP = 22
# The pinned first column and 12 code bits: a 4096-row low table.
_LOW_COLUMNS = 13
# Entries of one scratch array: a block of split scores or of batched images.
_BLOCK_ENTRIES = 1 << 18
_BATCH_ENTRIES = 1 << 20
_TIE_WINDOW = 1e-12


@functools.lru_cache(maxsize=None)
def _sign_table(k):
    """The ``2^k x k`` table of all sign vectors in code order.

    Entry ``j`` of row ``c`` is -1 iff bit ``j`` of ``c`` is set; built by
    doubling (rows ``2^j..2^(j+1)-1`` copy the first ``2^j`` and set column
    ``j`` to -1).  The array is shared, so it is read-only.
    """
    table = np.empty((1 << k, k))
    for j in range(k):
        half = 1 << j
        table[:half, j] = 1.0
        table[half : 2 * half, :j] = table[:half, :j]
        table[half : 2 * half, j] = -1.0
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _pinned_table(s):
    """Sign vectors of length ``s`` with first entry +1, in code order."""
    table = np.empty((1 << (s - 1), s))
    table[:, 0] = 1.0
    table[:, 1:] = _sign_table(s - 1)
    table.flags.writeable = False
    return table


def _inf2_scores(images):
    """Squared 2-norms of the columns (over axis -2) of ``images``."""
    return np.sum(images * images, axis=-2)


def _inf1_scores(images):
    """1-norms of the columns (over axis -2) of ``images``."""
    return np.sum(np.abs(images), axis=-2)


_SCORES = {"inf2": _inf2_scores, "inf1": _inf1_scores}


def _enumerate_max(mat, kind):
    """``(score, x)``: the maximal score over half the sign cube and its
    lowest-code maximizer."""
    s = mat.shape[1]
    score = _SCORES[kind]
    if s <= _LOW_COLUMNS:
        table = _pinned_table(s)
        scores = score(mat @ table.T)
        k = int(np.argmax(scores))
        return float(scores[k]), table[k].copy()
    if not mat.any():  # every vector ties at 0; code 0 wins
        return 0.0, np.ones(s)
    low, high = _pinned_table(_LOW_COLUMNS), _sign_table(s - _LOW_COLUMNS)

    def vectors(codes):
        return np.hstack([low[codes % len(low)], high[codes // len(low)]])

    codes = _split_candidates(mat, kind, low, high)
    winner = int(codes[0])
    if codes.size > 1:  # near-ties: the first maximum of direct products wins
        best = -math.inf
        step = max(1, _BLOCK_ENTRIES // mat.shape[0])
        for start in range(0, codes.size, step):
            chunk = codes[start : start + step]
            scores = score(mat @ vectors(chunk).T)
            k = int(np.argmax(scores))
            if scores[k] > best:
                best, winner = scores[k], int(chunk[k])
    x = vectors(np.array([winner]))[0]
    return float(score(mat @ x[:, None])[0]), x


def _split_candidates(mat, kind, low, high):
    """Codes, ascending, whose split score is within ``_TIE_WINDOW`` of the
    best; code ``c`` pairs row ``c % len(low)`` of the low table with row
    ``c // len(low)`` of the high one."""
    width = low.shape[0]
    p = mat[:, :_LOW_COLUMNS] @ low.T  # m x 4096
    if kind == "inf2":
        p_sq = _inf2_scores(p)
        step = max(1, _BLOCK_ENTRIES // width)
    else:
        step = max(1, _BLOCK_ENTRIES // (width * mat.shape[0]))
    a_hi = mat[:, _LOW_COLUMNS:]
    best = -math.inf
    found = []  # (codes, scores) of the blocks that came near the running best
    for start in range(0, high.shape[0], step):
        v = a_hi @ high[start : start + step].T  # m x block
        if kind == "inf2":
            scores = v.T @ p
            scores *= 2.0
            scores += _inf2_scores(v)[:, None]
            scores += p_sq
        else:
            images = v.T[:, :, None] + p
            scores = np.sum(np.abs(images, out=images), axis=1)
        top = float(scores.max())
        best = max(best, top)
        floor = best * (1.0 - _TIE_WINDOW)
        if top >= floor:
            hits = np.flatnonzero(scores >= floor)
            found.append((hits + start * width, scores.ravel()[hits]))
    floor = best * (1.0 - _TIE_WINDOW)
    return np.concatenate([codes[scores >= floor] for codes, scores in found])


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
    sq, x = _enumerate_max(b, "inf2")
    return _ldexp(math.sqrt(sq), e), x


def norm_inf1_exact(g):
    """Exact ``max ||G x||_1`` over sign vectors ``x``, with a maximizer.

    Returns ``(value, x)``.  An empty matrix has norm 0.
    """
    g = _check_enumerable(g, "G")
    if g.shape[1] == 0:
        return 0.0, np.zeros(0)
    g, e = _unit_scaled(g)  # exact, so the split sums cannot overflow
    val, x = _enumerate_max(g, "inf1")
    return _ldexp(val, e), x


def _batched_norms(mats, kind):
    """The values of ``norm_inf2_exact`` or ``norm_inf1_exact`` (``kind``)
    at each of the checked matrices ``mats``, bit for bit.

    Matrices of one shape with rows and 1 to ``_LOW_COLUMNS`` columns are
    stacked and scored against their shared sign table in one batched
    product, chunked to about ``_BATCH_ENTRIES`` image entries; each item of
    the batch is the product the single-matrix path computes.  Other shapes
    take that path.
    """
    values = np.empty(len(mats))
    groups = {}
    for i, mat in enumerate(mats):
        groups.setdefault(mat.shape, []).append(i)
    single = norm_inf2_exact if kind == "inf2" else norm_inf1_exact
    for (m, s), members in groups.items():
        if m == 0 or not 1 <= s <= _LOW_COLUMNS:
            for i in members:
                values[i] = single(mats[i])[0]
            continue
        stack = np.stack([mats[i] for i in members])
        # per-matrix unit scaling, as _unit_scaled does
        peaks = np.abs(stack).max(axis=(1, 2))
        exps = np.where(peaks > 0.0, np.frexp(peaks)[1], 0)
        stack = np.ldexp(stack, -exps[:, None, None])
        table = _pinned_table(s)
        step = max(1, _BATCH_ENTRIES // (m * table.shape[0]))
        best = np.concatenate([
            _SCORES[kind](stack[k : k + step] @ table.T).max(axis=1)
            for k in range(0, len(members), step)
        ])
        if kind == "inf2":
            best = np.sqrt(best)
        for i, top, e in zip(members, best, exps):
            values[i] = _ldexp(float(top), int(e))
    return values
