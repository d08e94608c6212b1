import math

import numpy as np
import pytest

from colsel import (
    DomainError,
    InfeasibleFactorization,
    PIETSCH_CONSTANT,
    norm_inf2_exact,
    pietsch_factorize,
    pietsch_objective,
    pietsch_optimal_alpha,
    spectral_norm,
    standardize,
)

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
