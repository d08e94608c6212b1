import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colsel import (
    DomainError,
    SolverError,
    column_submatrix,
    condition_number,
    frobenius_norm,
    hollow_gram,
    is_standardized,
    kt_select,
    max_eig_pair,
    principal_submatrix,
    spectral_norm,
    stable_rank,
    standardize,
)

import colsel.factor
import colsel.linalg
from colsel import cli
from colsel.grothendieck import GrothObjective
from colsel.linalg import (
    EIG_TOL, _gram_scope, _gram_top_pair, _krylov_top_pair, _proves_top, _top_pair,
)
from colsel.pietsch import PietschObjective

from oracles import jacobi_max_eigenvalue, lambda_max_at_most

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

    monkeypatch.setattr(colsel.factor, "_krylov_top_pair", recorded)
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


def _counted_eigh(mp, calls):
    """Patch ``numpy.linalg.eigh`` on ``mp`` to record the order of each call."""
    eigh = np.linalg.eigh

    def counted(h, *args, **kwargs):
        calls.append(h.shape[0])
        return eigh(h, *args, **kwargs)

    mp.setattr(np.linalg, "eigh", counted)


def _gram(seed, m, n):
    x = np.random.default_rng(seed).standard_normal((m, n))
    return x.T @ x


def _same_bits(pair, other):
    return (np.float64(pair.value).tobytes() == np.float64(other.value).tobytes()
            and pair.vector.tobytes() == other.vector.tobytes()
            and np.float64(pair.residual).tobytes() == np.float64(other.residual).tobytes())


@_gram_scope()
def test_the_last_gram_is_remembered_bit_for_bit(monkeypatch):
    gram = _gram(1, 9, 6)
    calls = []
    _counted_eigh(monkeypatch, calls)
    pair = _gram_top_pair(gram)
    again = _gram_top_pair(gram.copy())
    assert calls == [6]
    assert again is pair
    assert _same_bits(pair, _top_pair(gram.copy()))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1),
       change=st.sampled_from(["ulp", "zero sign"]), data=st.data())
def test_a_gram_one_bit_off_the_last_is_solved_afresh(n, seed, change, data):
    gram = _gram(seed, n + 2, n)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if change == "zero sign":
        gram[i, j] = gram[j, i] = 0.0
    other = gram.copy()
    if change == "ulp":
        other[i, j] = other[j, i] = np.nextafter(gram[i, j], math.inf)
    else:
        other[i, j] = other[j, i] = -0.0
    calls = []
    with _gram_scope(), pytest.MonkeyPatch.context() as mp:  # each example starts cold
        _counted_eigh(mp, calls)
        _gram_top_pair(gram)
        pair = _gram_top_pair(other)
    assert calls == [n, n]
    assert _same_bits(pair, _top_pair(other.copy()))


@_gram_scope()
def test_a_remembered_pair_and_its_gram_are_read_only():
    gram = DOUBLE_IDENTITY_2x4.T @ DOUBLE_IDENTITY_2x4
    pair = _gram_top_pair(gram)
    with pytest.raises(ValueError):
        pair.vector[0] = 0.0
    with pytest.raises(ValueError):
        gram[0, 0] = 0.0


@_gram_scope()
def test_a_pair_refused_by_the_residual_test_is_not_remembered(monkeypatch):
    gram = _gram(2, 7, 5)
    eigh = np.linalg.eigh

    def perturbed(h, *args, **kwargs):
        values, vectors = eigh(h, *args, **kwargs)
        return values, vectors + 1e-6

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(SolverError, match="residual"):
            _gram_top_pair(gram)
    assert colsel.linalg._gram_memo == [None]
    calls = []
    _counted_eigh(monkeypatch, calls)
    pair = _gram_top_pair(gram)
    assert calls == [5]
    assert _same_bits(pair, _top_pair(gram.copy()))


@_gram_scope()
def test_grothendieck_shifted_and_public_solves_bypass_the_gram_memo(monkeypatch):
    rng = np.random.default_rng(4)
    g = hollow_gram(standardize(rng.standard_normal((5, 8))))
    f = rng.random(8)
    GrothObjective(g, 0.9)(np.full(8, 1.0 / 8))  # level-free G and -G
    GrothObjective(g, 0.9)(f / f.sum())  # shifted
    PietschObjective(rng.standard_normal((12, 6)), 1.5)(f[:6] / f[:6].sum())  # shifted
    max_eig_pair(g)
    assert colsel.linalg._gram_memo == [None]
    gram = g @ g
    held = _gram_top_pair(gram)
    calls = []
    _counted_eigh(monkeypatch, calls)
    assert max_eig_pair(gram.copy()) is not held
    assert calls == [8]
    assert colsel.linalg._gram_memo[0][1] is held


def test_kt_select_makes_one_eigensolve_per_attempt_that_keeps_its_sample(monkeypatch):
    # The Gaussian 16x256 of test_kt_select_wide_input_only_diagonalizes_the_short_side:
    # every attempt is feasible at its uniform start and keeps its whole sample,
    # so its acceptance check is the Gram the factorization solved last.
    calls = []
    _counted_eigh(monkeypatch, calls)
    a = standardize(np.random.default_rng(8).standard_normal((16, 256)))
    report = kt_select(a, seed=0)
    assert all(size == s for s, _, size, _ in report.per_round_log)
    assert calls == [1] + [min(s, 16) for s, *_ in report.per_round_log]  # column 0 first
    assert len(calls) == report.attempts + 1 == 8


def test_no_gram_is_held_after_a_spectral_norm_a_selection_or_a_cli_job(tmp_path):
    a = np.random.default_rng(9).standard_normal((600, 600))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spectral_norm(a)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < a.nbytes / 8  # its 600x600 Gram alone is a.nbytes
    assert colsel.linalg._gram_memo is None
    b = standardize(np.random.default_rng(8).standard_normal((16, 256)))
    kt_select(b, seed=0)  # its last check is of a sample kept whole
    assert colsel.linalg._gram_memo is None
    path = tmp_path / "b.csv"
    np.savetxt(path, b, delimiter=",", fmt="%.17g")
    assert cli.main(["kt", str(path), "--output", str(tmp_path / "kt.json")]) == 0
    assert colsel.linalg._gram_memo is None


def test_identical_cli_jobs_in_one_process_each_solve_as_a_cold_run(monkeypatch, tmp_path):
    # On a standardized input the experiment's stable rank is the job's only
    # Gram solved through the memo; a memo that outlived a job would give the
    # next one a hit.
    path = tmp_path / "a12x16.csv"
    np.savetxt(path, np.random.default_rng(3).standard_normal((12, 16)), delimiter=",",
               fmt="%.17g")
    argv = ["experiment", "--kind", "inf2", "--delta", "0.5", "--trials", "100",
            "--seed", "5", "--standardize", str(path), "--output", str(tmp_path / "out.json")]
    calls = []
    _counted_eigh(monkeypatch, calls)
    counts = []
    for _ in range(2):
        assert colsel.linalg._gram_memo is None  # so the run starts cold
        calls.clear()
        assert cli.main(argv) == 0
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[1] == counts[0]


def _margin_delta(h, theta):
    """The shift ``delta`` of :func:`colsel.linalg._proves_top`, by the margin
    formula of its docstring."""
    n = h.shape[0]
    d = np.abs(theta - np.diag(h))
    u = 2.0**-53
    margin = (2.0 * (n + 1) * u * float(np.sum(d)) + u * float(d.max())
              + 4.0 * n * (2.0 * n + 4.0 + float(d.max())) * 2.0**-1074)
    return 2.0 * margin


def _symmetric_input(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        x = rng.standard_normal((n, n))
    elif kind == "integer":
        x = rng.integers(-4, 5, (n, n)).astype(float)
    else:  # near-singular: a Gram of rank about n / 2
        b = rng.standard_normal((n, max(1, n // 2)))
        x = b @ b.T
    return np.triu(x) + np.triu(x, 1).T  # exactly symmetric


@pytest.mark.parametrize("scale", [-40, 0, 40])
@pytest.mark.parametrize("kind", ["gaussian", "integer", "near-singular"])
def test_a_cholesky_proof_never_claims_a_false_bound(kind, scale):
    for n, seed in [(2, 0), (3, 1), (5, 2), (8, 3), (12, 4), (12, 5)]:
        h = np.ldexp(_symmetric_input(kind, n, seed), scale)
        values = np.linalg.eigvalsh(h)
        top, second = float(values[-1]), float(values[-2])
        delta = _margin_delta(h, top)
        proved = 0
        for theta in [top, math.nextafter(top, -math.inf), top - delta / 2, top - delta,
                      top - 1.5 * delta, top - 2 * delta, top - 3 * delta]:
            if _proves_top(h, theta):
                proved += 1
                bound = Fraction(theta) + 2 * Fraction(_margin_delta(h, theta))
                assert lambda_max_at_most(h, bound), (kind, scale, n, theta)
        assert proved  # at least the top itself
        bound = Fraction(second) + 2 * Fraction(_margin_delta(h, second))
        assert not lambda_max_at_most(h, bound)  # a gap wider than the margin
        assert not _proves_top(h, second)
