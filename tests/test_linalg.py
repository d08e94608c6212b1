import math

import numpy as np
import pytest

from colsel import (
    DomainError,
    column_submatrix,
    condition_number,
    frobenius_norm,
    hollow_gram,
    is_standardized,
    max_eig_pair,
    principal_submatrix,
    spectral_norm,
    stable_rank,
    standardize,
)

import colsel.linalg
import colsel.pietsch
from colsel.linalg import EIG_TOL, _krylov_top_pair, _proves_top
from colsel.pietsch import PietschObjective

from oracles import jacobi_max_eigenvalue

DOUBLE_IDENTITY_2x4 = np.hstack([np.eye(2), np.eye(2)])


def test_frobenius_norm_basics():
    assert frobenius_norm(np.eye(2)) == pytest.approx(math.sqrt(2))
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert frobenius_norm(DOUBLE_IDENTITY_2x4) == pytest.approx(2.0)


def test_frobenius_rejects_nonfinite():
    with pytest.raises(DomainError):
        frobenius_norm(np.array([[1.0, np.nan]]))


def test_spectral_norm_basics():
    assert spectral_norm(np.eye(2)) == pytest.approx(1.0)
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)
    assert spectral_norm(DOUBLE_IDENTITY_2x4) == pytest.approx(math.sqrt(2))


def test_spectral_norm_matches_svd_on_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9)))
        sv = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a) == pytest.approx(sv, abs=1e-10)


@pytest.mark.parametrize("c", [1e-200, 1e-150, 1.0, 1e150])
def test_norms_scale_exactly_with_the_input(c):
    # Squared entries of 1e-160 * B underflow; the norms must not.
    b = np.random.default_rng(7).standard_normal((6, 9))
    assert spectral_norm(c * b) == pytest.approx(c * spectral_norm(b), rel=1e-12, abs=0.0)
    assert frobenius_norm(c * b) == pytest.approx(c * frobenius_norm(b), rel=1e-12, abs=0.0)


def test_norms_saturate_beyond_the_float_range():
    # Both norms of this finite matrix exceed the largest float; the
    # scale-back once raised OverflowError ("math range error").
    big = np.full((2, 2), 1e308)
    assert frobenius_norm(big) == math.inf
    assert spectral_norm(big) == math.inf
    edge = np.array([[0.0, 1e308], [1e308, 0.0]])
    assert frobenius_norm(edge) == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)
    assert spectral_norm(edge) == pytest.approx(1e308, rel=1e-12)


def test_stable_rank():
    for n in (1, 3, 6):
        assert stable_rank(np.eye(n)) == pytest.approx(n)
    assert stable_rank(DOUBLE_IDENTITY_2x4) == pytest.approx(2.0)
    col = np.array([[0.6], [0.8]])
    assert stable_rank(np.hstack([col, col])) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        stable_rank(np.zeros((2, 2)))


def test_stable_rank_below_rank_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal((6, rng.integers(1, 7)))
        assert stable_rank(a) <= np.linalg.matrix_rank(a) + 1e-9


def test_condition_number():
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 3)))
    assert condition_number(q) == pytest.approx(1.0)
    col = np.array([[1.0], [0.0]])
    assert condition_number(np.hstack([col, col])) == math.inf
    a = np.diag([math.sqrt(1.5), math.sqrt(0.5)])
    assert condition_number(a) == pytest.approx(math.sqrt(3))


def test_condition_number_wide_matrix_is_infinite():
    assert condition_number(DOUBLE_IDENTITY_2x4) == math.inf


def test_standardize():
    a = standardize(np.diag([2.0, 5.0]))
    assert np.allclose(a, np.eye(2))
    ones = np.ones((4, 1))
    assert np.allclose(standardize(ones), 0.5)
    already = standardize(np.random.default_rng(4).standard_normal((3, 3)))
    assert np.allclose(standardize(already), already)
    with pytest.raises(DomainError, match="column 1"):
        standardize(np.array([[1.0, 0.0], [0.0, 0.0]]))
    # The zero-column gate is absolute, whatever the scale of the rest.
    with pytest.raises(DomainError, match="column 0"):
        standardize(np.array([[1e-13, 1.0], [0.0, 1.0]]))
    with pytest.raises(DomainError, match="column 0"):
        standardize(np.full((2, 2), 1e-13))
    assert np.allclose(standardize(np.full((2, 2), 1e-11)), math.sqrt(0.5))
    # Squared entries above about 1e154 overflow; standardize once returned
    # zeros for them (with a RuntimeWarning).
    a = np.random.default_rng(4).standard_normal((5, 7))
    for c in (1e154, 1e200, 1e300):
        np.testing.assert_allclose(standardize(c * a), standardize(a), rtol=1e-15, atol=0.0)


def test_hollow_gram_examples():
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 4)))
    assert np.allclose(hollow_gram(q), 0.0)

    h = hollow_gram(standardize(DOUBLE_IDENTITY_2x4))
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 1.0
    assert np.allclose(h, expected)

    h = hollow_gram(np.array([[1.0, 1.0]]))
    assert np.allclose(h, [[0.0, 1.0], [1.0, 0.0]])


def test_hollow_gram_properties():
    rng = np.random.default_rng(6)
    a = standardize(rng.standard_normal((7, 5)))
    h = hollow_gram(a)
    assert np.allclose(h, h.T)
    assert np.all(np.diag(h) == 0.0)
    tau = np.array([0, 2, 4])
    assert np.allclose(principal_submatrix(h, tau), hollow_gram(a[:, tau]))


def test_hollow_gram_rejects_nonstandardized():
    with pytest.raises(DomainError, match="column 0"):
        hollow_gram(np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_column_norms_are_taken_at_unit_scale():
    # The squares of 1e200 overflow; is_standardized and hollow_gram once
    # warned (an error under the test filter) before answering.
    a = standardize(np.random.default_rng(1).standard_normal((4, 5)))
    assert is_standardized(a)
    for c in (1e200, 2.0**-600):
        assert not is_standardized(c * a)
        with pytest.raises(DomainError, match=r"column \d has norm"):
            hollow_gram(c * a)
    with pytest.raises(DomainError, match=r"column \d has norm 1e\+200"):
        hollow_gram(1e200 * a)


def test_submatrix_selection():
    a = np.arange(8, dtype=float).reshape(2, 4)
    sub = column_submatrix(a, [0, 2])
    assert sub.shape == (2, 2)
    assert np.allclose(sub, a[:, [0, 2]])
    assert np.allclose(column_submatrix(a, [0, 1, 2, 3]), a)
    assert column_submatrix(a, []).shape == (2, 0)

    h = np.arange(16, dtype=float).reshape(4, 4)
    sub = principal_submatrix(h, [1, 3])
    assert np.allclose(sub, [[h[1, 1], h[1, 3]], [h[3, 1], h[3, 3]]])


def test_submatrix_index_validation():
    a = np.eye(3)
    with pytest.raises(DomainError):
        column_submatrix(a, [2, 1])
    with pytest.raises(DomainError):
        column_submatrix(a, [0, 3])
    with pytest.raises(DomainError):
        principal_submatrix(np.ones((2, 3)), [0])


def test_max_eig_pair_examples():
    pair = max_eig_pair(np.diag([3.0, 1.0]))
    assert pair.value == pytest.approx(3.0)
    assert abs(pair.vector[0]) == pytest.approx(1.0)

    pair = max_eig_pair(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert pair.value == pytest.approx(1.0)
    assert np.allclose(np.abs(pair.vector), 1 / math.sqrt(2))


def test_max_eig_pair_contract():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 17, 50):
        h = rng.standard_normal((n, n))
        h = (h + h.T) / 2
        pair = max_eig_pair(h)
        assert abs(np.linalg.norm(pair.vector) - 1.0) <= 1e-12
        resid = np.linalg.norm(h @ pair.vector - pair.value * pair.vector)
        assert resid <= 1e-10 * max(1.0, frobenius_norm(h))
        assert pair.residual == pytest.approx(resid, abs=1e-14)


def test_max_eig_pair_matches_jacobi_oracle():
    rng = np.random.default_rng(8)
    for n in (2, 5, 13, 50):
        h = rng.standard_normal((n, n))
        h = (h + h.T) / 2
        assert max_eig_pair(h).value == pytest.approx(
            jacobi_max_eigenvalue(h), abs=1e-8
        )


def test_max_eig_pair_rejects_asymmetric():
    with pytest.raises(DomainError, match="symmetric"):
        max_eig_pair(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_max_eig_pair_zero_matrix():
    pair = max_eig_pair(np.zeros((3, 3)))
    assert pair.value == 0.0
    assert pair.residual == 0.0


def test_max_eig_pair_tiny_matrix_is_not_zero():
    h = np.diag([3.0, 1.0, -2.0])
    assert max_eig_pair(1e-170 * h).value == pytest.approx(3e-170, rel=1e-12, abs=0.0)


def _missed_top(n):
    """A symmetric ``h`` of order ``n`` on which Lanczos from the kernel's start
    vector converges to the Ritz value 1, below the top eigenvalue 2.

    The start vector and two orthonormal columns span an invariant subspace on
    which ``h`` acts as the tridiagonal ``[[0, c, 0], [c, 0, c], [0, c, 0]]``,
    ``c = 1/sqrt 2`` (eigenvalues -1, 0 and 1), the top eigenvector is a fourth
    orthonormal column, and the rest of the spectrum is -1.  The subspace is
    invariant to rounding, so the third Lanczos step finds it.
    """
    start = np.sin(np.arange(1.0, n + 1.0))  # the kernel's start, up to its norm
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(np.column_stack([start, rng.standard_normal((n, 3))]))
    block = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / math.sqrt(2.0)
    h = -np.eye(n) + q[:, :3] @ (block + np.eye(3)) @ q[:, :3].T + 3.0 * np.outer(q[:, 3], q[:, 3])
    return (h + h.T) / 2.0  # exactly symmetric


def test_krylov_kernel_refuses_a_krylov_space_that_misses_the_top(monkeypatch):
    h = _missed_top(128)
    assert np.linalg.eigvalsh(h)[-1] == pytest.approx(2.0, abs=1e-12)
    proofs = []

    def recorded(h, theta):
        proven = _proves_top(h, theta)
        proofs.append((theta, proven))
        return proven

    monkeypatch.setattr(colsel.linalg, "_proves_top", recorded)
    assert _krylov_top_pair(h) is None
    # The Ritz pair passed the residual test; only the Cholesky proof refused it.
    ((theta, proven),) = proofs
    assert theta == pytest.approx(1.0, abs=1e-12)
    assert not proven


def test_a_refused_pietsch_evaluation_falls_back_to_the_dense_top(monkeypatch):
    # B^T B - alpha^2 diag(f) is _missed_top's matrix to rounding: alpha^2 f
    # >= 5, so h + alpha^2 diag(f) is positive definite, with Cholesky factor B.
    h = _missed_top(128)
    f = np.linspace(1.0, 2.0, 128)
    f /= f.sum()
    alpha = 32.0
    b = np.linalg.cholesky(h + alpha**2 * np.diag(f)).T
    attempts = []

    def recorded(h):
        pair = _krylov_top_pair(h)
        attempts.append(pair)
        return pair

    monkeypatch.setattr(colsel.pietsch, "_krylov_top_pair", recorded)
    program = PietschObjective(b, alpha)
    value = program(f).value
    assert attempts == [None]
    top = np.linalg.eigvalsh(b.T @ b - alpha**2 * np.diag(f))[-1]
    assert value == pytest.approx(top, rel=1e-12, abs=0.0)
    assert top == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("clusters", [1, 2])
def test_krylov_kernel_finds_an_isolated_top_pair(clusters):
    # Columns from tight clusters, shifted by uneven weights: the shape of the
    # Pietsch evaluations the kernel serves.
    rng = np.random.default_rng(clusters)
    n = 160
    centers, _ = np.linalg.qr(rng.standard_normal((48, clusters)))
    b = standardize(centers[:, np.arange(n) % clusters] + 0.03 * rng.standard_normal((48, n)))
    h = b.T @ b - 40.0 * np.diag(rng.dirichlet(np.ones(n)) * n)
    pair = _krylov_top_pair(h)
    dense = max_eig_pair(h)
    scale = max(1.0, np.linalg.norm(h, "fro"))
    assert pair is not None
    assert abs(pair.value - dense.value) <= EIG_TOL * scale
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
    resid = np.linalg.norm(h @ pair.vector - pair.value * pair.vector)
    assert pair.residual == pytest.approx(resid, rel=1e-6, abs=1e-15)
    assert pair.residual <= EIG_TOL * scale


def test_cholesky_proof_holds_at_the_top_and_fails_below_it():
    h = _missed_top(128)
    top = np.linalg.eigvalsh(h)[-1]
    assert _proves_top(h, top)
    assert not _proves_top(h, top - 1e-9)
    assert not _proves_top(h, 1.0)
    assert _proves_top(np.zeros((3, 3)), 0.0)
