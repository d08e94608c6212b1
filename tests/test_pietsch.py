import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colsel import (
    DomainError,
    InfeasibleFactorization,
    PIETSCH_CONSTANT,
    groth_optimal_alpha,
    hollow_gram,
    kt_select,
    max_eig_pair,
    norm_inf2_exact,
    pietsch_factorize,
    pietsch_objective,
    pietsch_optimal_alpha,
    spectral_norm,
    standardize,
)
from colsel.pietsch import CERTIFICATE_EIG_TOL, OBJECTIVE_EIG_TOL, PietschObjective

from oracles import jacobi_max_eigenvalue


def check_factorization_invariants(b, fact):
    assert np.sum(fact.d**2) == pytest.approx(1.0, abs=1e-10)
    recon = np.linalg.norm(b - fact.t * fact.d, "fro")
    assert recon <= 1e-8 * max(1.0, np.linalg.norm(b, "fro"))
    assert fact.t_norm <= fact.alpha_effective * (1 + 1e-8)
    assert spectral_norm(fact.t) <= fact.alpha_effective * (1 + 1e-8)


def test_objective_diagonal_case():
    sample = pietsch_objective(np.eye(2), math.sqrt(2.0), np.array([0.5, 0.5]))
    assert sample.value == pytest.approx(0.0, abs=1e-12)
    assert np.abs(sample.subgradient).sum() == pytest.approx(2.0)


def test_objective_alpha_zero():
    sample = pietsch_objective(np.eye(2), 0.0, np.array([0.5, 0.5]))
    assert sample.value == pytest.approx(1.0)


def test_objective_matches_jacobi_assembly():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((4, 6))
    alpha = 1.7
    f = rng.random(6)
    f /= f.sum()
    sample = pietsch_objective(b, alpha, f)
    assembled = b.T @ b - alpha**2 * np.diag(f)
    assert sample.value == pytest.approx(jacobi_max_eigenvalue(assembled), abs=1e-9)


def test_subgradient_respects_lipschitz_bound():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((5, 7))
    for alpha in (0.5, 2.0, 9.0):
        f = rng.random(7)
        f /= f.sum()
        sample = pietsch_objective(b, alpha, f)
        assert np.abs(sample.subgradient).max() <= alpha**2 * (1 + 1e-12)


def test_factorize_identity():
    s = 4
    fact = pietsch_factorize(np.eye(s), math.sqrt(s))
    assert np.allclose(fact.d, 1 / math.sqrt(s), atol=1e-8)
    assert np.allclose(fact.t, math.sqrt(s) * np.eye(s), atol=1e-6)
    assert fact.t_norm == pytest.approx(math.sqrt(s), rel=1e-8)
    check_factorization_invariants(np.eye(s), fact)


def test_factorize_tiny_input_measures_t_norm():
    # ||T|| of 1e-150 * B was once reported as 0.0, a false certificate.
    b = np.random.default_rng(3).standard_normal((6, 9))
    tiny = pietsch_factorize(1e-150 * b, 1e-148)
    unit = pietsch_factorize(b, 100.0)
    assert tiny.t_norm == pytest.approx(1e-150 * unit.t_norm, rel=1e-9, abs=0.0)
    check_factorization_invariants(1e-150 * b, tiny)


def test_factorize_flat_row():
    b = np.array([[1.0, 1.0]])
    fact = pietsch_factorize(b, 2.0)
    assert np.allclose(fact.d, 1 / math.sqrt(2), atol=1e-8)
    assert np.allclose(fact.t, [[math.sqrt(2), math.sqrt(2)]], atol=1e-7)
    assert fact.t_norm == pytest.approx(2.0, rel=1e-8)
    check_factorization_invariants(b, fact)


def test_factorize_random_standardized_is_feasible():
    rng = np.random.default_rng(2)
    b = standardize(rng.standard_normal((6, 10)))
    alpha = 8 * PIETSCH_CONSTANT * math.sqrt(10)
    fact = pietsch_factorize(b, alpha)
    assert fact.eta <= 0.0
    assert fact.alpha_effective == alpha
    check_factorization_invariants(b, fact)
    exact, _ = norm_inf2_exact(b)
    assert exact <= fact.t_norm * (1 + 1e-9)


def test_factorize_rescales_infeasible_level():
    rng = np.random.default_rng(3)
    b = standardize(rng.standard_normal((4, 8)))
    exact, _ = norm_inf2_exact(b)
    alpha = 0.8 * exact  # no factorization can reach below the norm
    fact = pietsch_factorize(b, alpha)
    assert fact.eta > 0.0
    assert fact.alpha_effective == pytest.approx(
        math.sqrt(alpha**2 + fact.eta * 8), rel=1e-12
    )
    check_factorization_invariants(b, fact)
    # rescaled weights keep the assembled matrix negative semidefinite
    assembled = b.T @ b - fact.alpha_effective**2 * np.diag(fact.d**2)
    assert np.linalg.eigvalsh(assembled)[-1] <= 1e-8


def test_factorize_infeasibility_report():
    b = np.array([[1.0, 1.0]])
    with pytest.raises(InfeasibleFactorization) as exc_info:
        pietsch_factorize(b, 1.0, eta_cap=0.0)
    assert exc_info.value.eta > 0.0
    assert exc_info.value.alpha == 1.0


def test_factorize_handles_near_zero_column():
    # tiny weights must stay invertible rather than being rounded to zero
    rng = np.random.default_rng(12)
    b = standardize(rng.standard_normal((5, 6)))
    b[:, 3] *= 1e-7
    for alpha_mult, level in ((4.0, None), (None, 1.001)):
        alpha = alpha_mult or level * norm_inf2_exact(b)[0]
        fact = pietsch_factorize(b, alpha)
        assert np.isfinite(fact.t).all()
        check_factorization_invariants(b, fact)


def test_factorize_input_validation():
    with pytest.raises(DomainError):
        pietsch_factorize(np.zeros((2, 2)), 1.0)
    with pytest.raises(DomainError):
        pietsch_factorize(np.eye(2), 0.0)
    with pytest.raises(DomainError):
        pietsch_factorize(np.zeros((2, 0)), 1.0)


def test_equivalence_forward_direction():
    # a factorization with ||T|| <= alpha forces the assembled matrix NSD
    rng = np.random.default_rng(4)
    for _ in range(25):
        s = int(rng.integers(2, 9))
        b = rng.standard_normal((6, s))
        weights = rng.random(s)
        zero = rng.random(s) < 0.25
        if zero.all():
            zero[0] = False
        weights[zero] = 0.0
        b[:, zero] = 0.0
        weights /= weights.sum()
        d = np.sqrt(weights)
        t = np.where(d > 0, 1.0, 0.0)[None, :] * b / np.where(d > 0, d, 1.0)
        alpha = 1.01 * np.linalg.svd(t, compute_uv=False)[0]
        assembled = b.T @ b - alpha**2 * np.diag(weights)
        assert np.linalg.eigvalsh(assembled)[-1] <= 1e-10


def test_equivalence_reverse_direction():
    # nonpositive certified value at the solver's weights bounds ||T||
    rng = np.random.default_rng(5)
    for _ in range(10):
        b = standardize(rng.standard_normal((5, 6)))
        fact = pietsch_factorize(b, 6.0)
        if fact.eta <= 0:
            assert fact.t_norm <= 6.0 * (1 + 1e-8)


def test_optimal_alpha_identity():
    bracket = pietsch_optimal_alpha(np.eye(3), rel_tol=0.05, emd_budget=400)
    exact = math.sqrt(3)
    assert bracket.alpha_lo <= exact <= bracket.alpha_hi
    assert bracket.converged


def test_optimal_alpha_flat_row():
    bracket = pietsch_optimal_alpha(np.array([[1.0, 1.0]]), rel_tol=0.05, emd_budget=400)
    assert bracket.alpha_lo == pytest.approx(2.0, rel=1e-9)
    assert bracket.alpha_hi <= 2.0 * (1 + 0.06)


def test_optimal_alpha_brackets_exact_norm():
    rng = np.random.default_rng(6)
    for _ in range(10):
        b = standardize(rng.standard_normal((5, 8)))
        bracket = pietsch_optimal_alpha(b, rel_tol=0.05, emd_budget=400)
        exact, _ = norm_inf2_exact(b)
        assert bracket.alpha_lo <= exact <= bracket.alpha_hi
        assert bracket.alpha_hi <= PIETSCH_CONSTANT * 1.05 * exact
        witness_norm = np.linalg.norm(b @ bracket.lower_witness)
        assert witness_norm == pytest.approx(bracket.alpha_lo, rel=1e-9)


def test_optimal_alpha_budget_exhaustion_flagged():
    bracket = pietsch_optimal_alpha(np.eye(3), max_probes=0)
    assert not bracket.converged
    assert bracket.best is None


def test_optimal_alpha_rejects_zero_matrix():
    with pytest.raises(DomainError):
        pietsch_optimal_alpha(np.zeros((3, 3)))


@settings(max_examples=80, deadline=None)
@given(
    shape=st.integers(2, 40).flatmap(lambda s: st.tuples(st.integers(1, s - 1), st.just(s))),
    kind=st.sampled_from(["gaussian", "rank-one", "wild-columns", "duplicate-columns", "zero"]),
    seed=st.integers(0, 2**32 - 1),
    c_ratio=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 3.0)),
)
def test_short_side_pair_matches_dense(shape, kind, seed, c_ratio):
    m, s = shape
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((m, s))
    if kind == "rank-one":
        b = np.outer(rng.standard_normal(m), rng.standard_normal(s))
    elif kind == "wild-columns":
        b *= 10.0 ** rng.uniform(-3.0, 3.0, s)
    elif kind == "duplicate-columns":
        b[:, s // 2 :] = b[:, : s - s // 2]
    elif kind == "zero":
        b[:] = 0.0
    c = c_ratio * np.linalg.norm(b, 2) ** 2  # c_ratio > 1: c > ||B||^2
    tol = CERTIFICATE_EIG_TOL
    short = PietschObjective(b, 0.0).pair(np.ones(s), tol, c)
    h = b.T @ b - c * np.eye(s)
    dense = max_eig_pair(h, tol)
    scale = max(1.0, np.linalg.norm(h, "fro"))
    assert abs(short.value - dense.value) <= tol * scale
    assert short.residual <= tol * scale
    assert np.linalg.norm(short.vector) == pytest.approx(1.0, abs=1e-12)
    top, second = np.linalg.eigvalsh(h)[[-1, -2]]
    gap = top - second
    if gap > 1e-6 * scale:
        # Each vector is within residual / gap of the top eigenvector.
        diff = np.abs(short.vector**2 - dense.vector**2).max()
        assert diff <= 8.0 * tol * scale / gap


def test_nonconstant_weights_on_wide_b_match_dense_evaluation():
    rng = np.random.default_rng(7)
    b = rng.standard_normal((5, 12))
    f = rng.random(12)
    f /= f.sum()
    alpha = 2.3
    sample = pietsch_objective(b, alpha, f)
    dense = max_eig_pair(b.T @ b - alpha**2 * np.diag(f), OBJECTIVE_EIG_TOL)
    assert sample.value == dense.value
    assert np.array_equal(sample.subgradient, -(alpha**2) * dense.vector**2)


def test_kt_select_wide_input_only_diagonalizes_the_short_side(monkeypatch):
    orders = []
    eigh = np.linalg.eigh

    def recording_eigh(h, *args, **kwargs):
        orders.append(np.shape(h)[0])
        return eigh(h, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    a = standardize(np.random.default_rng(8).standard_normal((16, 256)))
    report = kt_select(a, seed=0)
    assert report.accepted_metric <= 15.0
    assert orders and max(orders) <= 16


@pytest.mark.parametrize("c", [1e-150, 1.0, 1e150])
def test_factorize_scales_with_the_input(c):
    # At 1e150 the Gram entries once overflowed and the solve raised
    # SolverError "weight 0 vanished".
    b = np.random.default_rng(3).standard_normal((6, 9))
    unit = pietsch_factorize(b, 100.0)
    fact = pietsch_factorize(c * b, c * 100.0)
    assert np.array_equal(fact.d, unit.d)
    np.testing.assert_allclose(fact.t, c * unit.t, rtol=1e-12, atol=0.0)
    for name in ("t_norm", "alpha_effective"):
        assert getattr(fact, name) == pytest.approx(c * getattr(unit, name), rel=1e-12)
    assert fact.eta == pytest.approx(c * c * unit.eta, rel=1e-12)
    assert fact.reconstruction_residual <= 1e-12 * c * np.linalg.norm(b, "fro")
    check_factorization_invariants(c * b, fact)


@pytest.mark.parametrize("c", [2.0**-500, 2.0**500])
def test_infeasible_factorization_scales_exactly(c):
    b = standardize(np.random.default_rng(3).standard_normal((4, 8)))
    alpha = 0.8 * norm_inf2_exact(b)[0]
    unit = pietsch_factorize(b, alpha)
    fact = pietsch_factorize(c * b, c * alpha)
    assert unit.eta > 0.0
    assert np.array_equal(fact.d, unit.d)
    assert np.array_equal(fact.t, c * unit.t)
    assert fact.eta == c * c * unit.eta
    assert fact.alpha_effective == c * unit.alpha_effective
    assert fact.t_norm == c * unit.t_norm
    with pytest.raises(InfeasibleFactorization) as unit_info:
        pietsch_factorize(b, alpha, eta_cap=0.0)
    with pytest.raises(InfeasibleFactorization) as scaled_info:
        pietsch_factorize(c * b, c * alpha, eta_cap=0.0)
    assert scaled_info.value.alpha == c * alpha
    assert scaled_info.value.eta == c * c * unit_info.value.eta


@pytest.mark.parametrize("c", [2.0**-600, 1e-150, 1e150])
def test_bracket_scales_with_the_input(c):
    b = standardize(np.random.default_rng(6).standard_normal((5, 8)))
    unit = pietsch_optimal_alpha(b, rel_tol=0.05, emd_budget=400)
    scaled = pietsch_optimal_alpha(c * b, rel_tol=0.05, emd_budget=400)
    assert scaled.alpha_lo == pytest.approx(c * unit.alpha_lo, rel=1e-12)
    assert scaled.alpha_hi == pytest.approx(c * unit.alpha_hi, rel=1e-12)
    assert np.array_equal(scaled.lower_witness, unit.lower_witness)
    assert scaled.probes == unit.probes


def test_bracket_witnesses_are_canonical():
    rng = np.random.default_rng(9)
    for _ in range(6):
        b = standardize(rng.standard_normal((4, 7)))
        g = hollow_gram(b)
        for bracket, mat, norm in (
            (pietsch_optimal_alpha(b, emd_budget=400), b, np.linalg.norm),
            (groth_optimal_alpha(g, emd_budget=400), g, lambda y: np.abs(y).sum()),
        ):
            x = bracket.lower_witness
            assert x[0] == 1.0
            assert set(np.unique(x)) <= {-1.0, 1.0}
            assert norm(mat @ x) == pytest.approx(bracket.alpha_lo, rel=1e-9)
