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
That path (:func:`_stack_norms`) takes a stack of same-shape matrices: a
single oracle call is a stack of one, and the Monte Carlo experiments score
their stacks of trials through :func:`_stack_values`, with the same bits.

Wider inputs are split (meet in the middle, Horowitz and Sahni 1974): the
first ``_LOW_COLUMNS`` columns ``A_lo`` give the table ``P = A_lo X_lo^T``
(``m x 2^12``), tabulated once, and the high columns are enumerated in
blocks, each high sign vector giving ``v = A_hi x_hi``.  The score of the
pair is ``||v||^2 + 2 v^T P + ||P||^2`` for (inf->2), one GEMM per block,
and ``sum_rows |v + P|`` for (inf->1): ``O(m)`` per sign vector instead of
``O(m s)``.  A tall (inf->2) input (``m > s``) is split on the ``s x s``
factor ``R`` of ``A = Q R`` instead, since ``||A x|| = ||R x||``, so the
tables do not grow with ``m``.

The winner is the first maximum in code order (the lowest code among the
maximizers).  Split scores round differently from a direct product, so above
the split every vector within ``_TIE_WINDOW`` (relative) of the best score
is scored again by a direct product on ``A``, and the first maximum of those
wins.  The reported value is always measured by a direct product at the
winner.  Both norms are evaluated on the input scaled by a power of two that
brings its largest entry into ``[0.5, 1)`` (``linalg._unit_scaled``), and
scaled back; that is exact, so no square or sum overflows, and a norm beyond
the float range is refused with :class:`DomainError`.

``ENUMERATION_CAP`` (20 columns, ``2^19`` sign vectors) is the one limit on
the input: the CLI and the experiments refuse wider inputs through it.
"""

import functools
import math

import numpy as np

from .errors import DomainError
from .linalg import _scaled_back, _unit_scaled, as_matrix

ENUMERATION_CAP = 20
# The pinned first column and 12 code bits: a 4096-row low table.
_LOW_COLUMNS = 13
# Entries of one scratch array: a block of split scores or of batched images
# (4 MB; 8 MB image products raised the benchmark's peak RSS by 10%).
_BLOCK_ENTRIES = 1 << 18
_BATCH_ENTRIES = 1 << 19
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


def _stack_norms(stack, kind):
    """``(values, codes)``: for each matrix of a ``(K, m, s)`` stack with
    ``1 <= s <= _LOW_COLUMNS``, its norm and the lowest code attaining it.

    Each matrix is scaled to unit size on its own and scored against the
    shared pinned table; the products are chunked to about
    ``_BATCH_ENTRIES`` image entries, and each matrix gets the product it
    would get alone.
    """
    stack, exps = _unit_scaled(stack)
    count, m, s = stack.shape
    table = _pinned_table(s)
    step = max(1, _BATCH_ENTRIES // max(1, m * table.shape[0]))
    codes, tops = np.empty(count, dtype=np.intp), np.empty(count)
    for k in range(0, count, step):
        scores = _SCORES[kind](stack[k : k + step] @ table.T)
        codes[k : k + step] = scores.argmax(axis=1)
        tops[k : k + step] = scores.max(axis=1)
    with np.errstate(over="ignore"):  # saturates to inf, like _ldexp
        values = np.ldexp(np.sqrt(tops) if kind == "inf2" else tops, exps)
    return values, codes


def _split_max(mat, kind):
    """``(score, x)`` for one unit-scaled matrix above the split: the maximal
    score over half the sign cube and its lowest-code maximizer."""
    s = mat.shape[1]
    score = _SCORES[kind]
    if not mat.any():  # every vector ties at 0; code 0 wins
        return 0.0, np.ones(s)
    low, high = _pinned_table(_LOW_COLUMNS), _sign_table(s - _LOW_COLUMNS)

    def vectors(codes):
        return np.hstack([low[codes % len(low)], high[codes // len(low)]])

    # ||A x|| = ||R x|| for A = Q R: a tall input is split on its s x s factor.
    tall = kind == "inf2" and mat.shape[0] > s
    codes = _split_candidates(np.linalg.qr(mat, mode="r") if tall else mat, kind, low, high)
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


def _exact(mat, kind):
    """``(value, x)`` for one checked matrix: a stack of one up to the split."""
    s = mat.shape[1]
    if s == 0:
        return 0.0, np.zeros(0)
    mat, e = _unit_scaled(mat)
    if s <= _LOW_COLUMNS:
        values, codes = _stack_norms(mat[None], kind)
        value, x = float(values[0]), _pinned_table(s)[codes[0]].copy()
    else:
        score, x = _split_max(mat, kind)
        value = math.sqrt(score) if kind == "inf2" else score
    return _scaled_back(value, e, f"the ({kind[:3]}->{kind[3]}) norm"), x


def norm_inf2_exact(b):
    """Exact ``max ||B x||_2`` over sign vectors ``x``, with a maximizer.

    Returns ``(value, x)``.  An empty matrix has norm 0.
    """
    return _exact(_check_enumerable(b, "B"), "inf2")


def norm_inf1_exact(g):
    """Exact ``max ||G x||_1`` over sign vectors ``x``, with a maximizer.

    Returns ``(value, x)``.  An empty matrix has norm 0.
    """
    return _exact(_check_enumerable(g, "G"), "inf1")


def _stack_values(stack, kind):
    """The values of ``norm_inf2_exact`` or ``norm_inf1_exact`` (``kind``)
    at each matrix of a checked ``(K, m, k)`` stack, bit for bit.

    With 1 to ``_LOW_COLUMNS`` columns the stack goes through
    :func:`_stack_norms` as one C-ordered array; otherwise each member goes
    through the single oracle, in its own memory layout.
    """
    if 1 <= stack.shape[2] <= _LOW_COLUMNS:
        return _stack_norms(np.ascontiguousarray(stack), kind)[0]
    return [_exact(mat, kind)[0] for mat in stack]
