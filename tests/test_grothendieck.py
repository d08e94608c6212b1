import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colsel.factor
from colsel import (
    DomainError,
    GROTHENDIECK_LOWER,
    GROTHENDIECK_UPPER,
    block_matrix,
    groth_factorize,
    groth_objective,
    groth_optimal_alpha,
    hollow_gram,
    norm_inf1_exact,
    pietsch_factorize,
    pietsch_optimal_alpha,
    principal_submatrix,
    spectral_norm,
    standardize,
)

from colsel.grothendieck import improve_sign_witness_inf1
from oracles import flip_ascent_inf1, jacobi_max_eigenvalue

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def check_factorization_invariants(g, fact):
    assert np.sum(fact.d**2) == pytest.approx(1.0, abs=1e-10)
    recon = np.linalg.norm(g - fact.d[:, None] * fact.t * fact.d[None, :], "fro")
    assert recon <= 1e-8 * max(1.0, np.linalg.norm(g, "fro"))
    assert fact.t_norm <= fact.alpha_effective * (1 + 1e-8)


def test_constants():
    assert GROTHENDIECK_LOWER == pytest.approx(math.pi / 2)
    assert 1.570 <= GROTHENDIECK_LOWER <= GROTHENDIECK_UPPER <= 1.783


def test_objective_zero_matrix():
    sample = groth_objective(np.zeros((3, 3)), 1.0, np.full(3, 1 / 3))
    assert sample.value == pytest.approx(-1 / 3)


def test_objective_swap_closed_form():
    sample = groth_objective(SWAP, 2.0, np.array([0.5, 0.5]))
    assert sample.value == pytest.approx(0.0, abs=1e-12)


def test_branch_formula_matches_block_assembly():
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = int(rng.integers(2, 7))
        g = rng.standard_normal((s, s))
        g = (g + g.T) / 2
        alpha = float(rng.uniform(0.1, 3.0))
        f = rng.random(s)
        f /= f.sum()
        sample = groth_objective(g, alpha, f)
        assembled = block_matrix(g, alpha, f)
        assert sample.value == pytest.approx(
            jacobi_max_eigenvalue(assembled), abs=1e-9
        )


def test_block_spectrum_is_union_of_branches():
    rng = np.random.default_rng(1)
    s = 5
    g = rng.standard_normal((s, s))
    g = (g + g.T) / 2
    f = rng.random(s)
    f /= f.sum()
    alpha = 1.3
    block = np.linalg.eigvalsh(block_matrix(g, alpha, f))
    pos = np.linalg.eigvalsh(g - alpha * np.diag(f))
    neg = np.linalg.eigvalsh(-g - alpha * np.diag(f))
    assert np.allclose(block, np.sort(np.concatenate([pos, neg])), atol=1e-10)


def test_subgradient_respects_lipschitz_bound():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((6, 6))
    g = (g + g.T) / 2
    for alpha in (0.3, 1.0, 4.0):
        f = rng.random(6)
        f /= f.sum()
        sample = groth_objective(g, alpha, f)
        assert np.abs(sample.subgradient).max() <= alpha * (1 + 1e-12)


# Both programs answer the zero matrix: it factors exactly with uniform
# weights and T = 0, and its bracket is [0, 0].  The Pietsch one is wide, so
# its solve runs on the short side.
ZERO_INPUTS = [
    pytest.param(pietsch_factorize, pietsch_optimal_alpha, (2, 3), id="pietsch"),
    pytest.param(groth_factorize, groth_optimal_alpha, (3, 3), id="groth"),
]


@pytest.mark.parametrize("factorize, optimal_alpha, shape", ZERO_INPUTS)
def test_factorize_zero_matrix(factorize, optimal_alpha, shape):
    fact = factorize(np.zeros(shape), 1.5)
    assert np.allclose(fact.d, 1 / math.sqrt(3), atol=1e-9)
    assert np.array_equal(fact.t, np.zeros(shape))
    assert fact.alpha_effective == 1.5
    assert fact.t_norm == fact.reconstruction_residual == 0.0
    assert np.sum(fact.d**2) == pytest.approx(1.0, abs=1e-10)


def test_factorize_swap_closed_form():
    fact = groth_factorize(SWAP, 2.0)
    assert np.allclose(fact.d, 1 / math.sqrt(2), atol=1e-8)
    assert np.allclose(fact.t, 2 * SWAP, atol=1e-6)
    assert fact.t_norm == pytest.approx(2.0, rel=1e-8)
    check_factorization_invariants(SWAP, fact)


def test_factorize_pipeline_smoke():
    rng = np.random.default_rng(3)
    a = standardize(rng.standard_normal((8, 12)))
    sigma = np.sort(rng.choice(12, size=6, replace=False))
    g = hollow_gram(a[:, sigma])
    fact = groth_factorize(g, 6 / 4.0)
    assert fact.t_norm <= fact.alpha_effective * (1 + 1e-8)
    check_factorization_invariants(g, fact)


def test_factorize_rescaled_branch_certificate():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((6, 6))
    g = (g + g.T) / 2
    exact, _ = norm_inf1_exact(g)
    alpha = 0.5 * exact  # infeasible level
    fact = groth_factorize(g, alpha)
    assert fact.eta > 0
    assert fact.alpha_effective == pytest.approx(alpha + fact.eta * 6, rel=1e-12)
    assembled = block_matrix(g, fact.alpha_effective, fact.d**2)
    assert np.linalg.eigvalsh(assembled)[-1] <= 1e-8


def test_factorize_rejects_asymmetric():
    with pytest.raises(DomainError, match="symmetric"):
        groth_factorize(np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0)


def test_equivalence_both_directions():
    rng = np.random.default_rng(5)
    for _ in range(25):
        s = int(rng.integers(2, 8))
        g = rng.standard_normal((s, s))
        g = (g + g.T) / 2
        weights = rng.random(s)
        zero = rng.random(s) < 0.25
        if zero.all():
            zero[0] = False
        weights[zero] = 0.0
        g[zero, :] = 0.0
        g[:, zero] = 0.0
        weights /= weights.sum()
        d = np.sqrt(weights)
        inv = np.where(d > 0, 1 / np.where(d > 0, d, 1.0), 0.0)
        t = inv[:, None] * g * inv[None, :]
        t_norm = np.abs(np.linalg.eigvalsh(t)).max()

        # forward: ||T|| <= alpha makes the block matrix NSD
        alpha = 1.01 * t_norm + 1e-9
        top = np.linalg.eigvalsh(block_matrix(g, alpha, weights))[-1]
        assert top <= 1e-10

        # reverse: an NSD block matrix bounds ||T||
        assert t_norm <= alpha * (1 + 1e-8)


def test_pruning_markov_bound():
    # weights above 2/s cannot cover more than half the mass
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = standardize(rng.standard_normal((8, 12)))
        sigma = np.sort(rng.choice(12, size=8, replace=False))
        g = hollow_gram(a[:, sigma])
        fact = groth_factorize(g, 8 / 4.0)
        tau = np.nonzero(fact.d**2 <= 2.0 / 8)[0]
        assert tau.size >= math.ceil(8 / 2)
        sub = principal_submatrix(g, tau)
        assert spectral_norm(sub) <= (2.0 / 8) * fact.alpha_effective + 1e-9


def test_optimal_alpha_identity():
    bracket = groth_optimal_alpha(np.eye(2), rel_tol=0.05, emd_budget=400)
    assert bracket.alpha_lo <= 2.0 <= bracket.alpha_hi * (1 + 1e-12)


def test_optimal_alpha_swap():
    bracket = groth_optimal_alpha(SWAP, rel_tol=0.05, emd_budget=400)
    assert bracket.alpha_lo == pytest.approx(2.0, rel=1e-9)
    assert bracket.alpha_hi <= 2.0 * 1.06


def test_optimal_alpha_brackets_exact_norm():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = rng.standard_normal((6, 6))
        g = (g + g.T) / 2
        bracket = groth_optimal_alpha(g, rel_tol=0.05, emd_budget=400)
        exact, _ = norm_inf1_exact(g)
        assert bracket.alpha_lo <= exact <= bracket.alpha_hi
        assert bracket.alpha_hi <= GROTHENDIECK_UPPER * 1.05 * exact


@pytest.mark.parametrize("factorize, optimal_alpha, shape", ZERO_INPUTS)
def test_optimal_alpha_zero_matrix(factorize, optimal_alpha, shape):
    bracket = optimal_alpha(np.zeros(shape))
    assert bracket.alpha_lo == 0.0
    assert bracket.alpha_hi == 0.0
    assert bracket.converged
    assert bracket.probes == 0
    assert np.array_equal(bracket.lower_witness, np.ones(3))


def _ascent_input(kind, s, rng):
    if kind == "gaussian":
        return hollow_gram(standardize(rng.standard_normal((max(2, s // 2), s))))
    if kind == "integer":
        g = np.triu(rng.integers(-3, 4, size=(s, s)).astype(float), 1)
        return g + g.T
    if kind == "doubled-identity":  # entries 0 and 1: every flip score ties exactly
        k = max(1, s // 2)
        return hollow_gram(standardize(np.hstack([np.eye(k), np.eye(k)])))
    return rng.standard_normal((int(rng.integers(1, 2 * s + 1)), s))  # "rectangular"


@settings(max_examples=120, deadline=None)
@given(
    s=st.integers(1, 64),
    kind=st.sampled_from(["gaussian", "integer", "doubled-identity", "rectangular"]),
    exponent=st.sampled_from([0, -600, 600]),
    start=st.sampled_from(["zeros", "ones", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_flip_table_ascent_matches_fresh_scores_bit_for_bit(s, kind, exponent, start, seed):
    rng = np.random.default_rng(seed)
    g = np.ldexp(_ascent_input(kind, s, rng), exponent)
    s = g.shape[1]
    x0 = {"zeros": np.zeros(s), "ones": np.ones(s),
          "random": rng.choice([-1.0, 1.0], size=s)}[start]
    value, x = improve_sign_witness_inf1(g, x0)
    ref_value, ref_x = flip_ascent_inf1(g, x0)
    assert value == ref_value
    assert np.array_equal(x, ref_x)


def test_grothendieck_shifted_solves_never_try_the_krylov_kernel(monkeypatch):
    # For a wide A, G = A^T A - I has the eigenvalue -1 with multiplicity at
    # least s - m, so the top of -G - level F is a cluster: the Krylov kernel
    # refused 6 of 12 Grothendieck shifted matrices at order 128/256, and
    # trying it first moved reports (eta of `grothendieck --alpha 64` on a
    # 256-column hollow Gram in its 14th digit) and ran slower.
    g = hollow_gram(standardize(np.random.default_rng(0).standard_normal((64, 128))))
    attempts, dense = [], []
    krylov_top_pair, top_pair = colsel.factor._krylov_top_pair, colsel.factor._top_pair

    def krylov_counted(h):
        attempts.append(h.shape[0])
        return krylov_top_pair(h)

    def dense_counted(h):
        dense.append(h.shape[0])
        return top_pair(h)

    monkeypatch.setattr(colsel.factor, "_krylov_top_pair", krylov_counted)
    monkeypatch.setattr(colsel.factor, "_top_pair", dense_counted)
    fact = groth_factorize(g, 64.0, emd_budget=25)
    assert fact.eta > 0.0  # infeasible: the descent left the uniform start
    assert len(dense) > 2 and set(dense) == {128}  # shifted solves beyond the two level-free
    assert attempts == []
