import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import colsel.factor
import colsel.grothendieck
import colsel.linalg
import colsel.pietsch
from colsel import (
    DomainError,
    PIETSCH_CONSTANT,
    frobenius_norm,
    emd_minimize,
    groth_factorize,
    groth_objective,
    groth_optimal_alpha,
    hollow_gram,
    is_standardized,
    kt_select,
    max_eig_pair,
    norm_inf1_exact,
    norm_inf2_exact,
    pietsch_factorize,
    pietsch_objective,
    pietsch_optimal_alpha,
    spectral_norm,
    standardize,
)
from colsel.factor import NORM_SLACK
from colsel.grothendieck import improve_sign_witness_inf1
from colsel.linalg import EIG_TOL, STANDARDIZE_ATOL
from colsel.pietsch import PietschObjective, improve_sign_witness_inf2

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


def test_optimal_alpha_budget_exhaustion_flagged(monkeypatch):
    # The start of this input does not certify the ratio, so it needs a probe.
    monkeypatch.setattr(colsel.factor, "MAX_PROBES", 0)
    bracket = pietsch_optimal_alpha(np.diag([4.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
    assert not bracket.converged
    assert bracket.probes == 0
    assert bracket.alpha_lo < bracket.alpha_hi < math.inf


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
    # c_ratio > 1: c > ||B||^2
    program = PietschObjective(b, math.sqrt(c_ratio) * np.linalg.norm(b, 2))
    c = program.level
    tol = EIG_TOL
    (short,) = program._pairs(np.ones(s))
    h = b.T @ b - c * np.eye(s)
    dense = max_eig_pair(h)
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


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 12),
    s=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    ratio=st.sampled_from([0.25, 0.9, 1.1, 4.0]),
    c=st.sampled_from([1.0, 2.0**-500, 2.0**500]),
)
def test_factor_norm_at_constant_weights_is_measured(m, s, seed, ratio, c):
    # One evaluation keeps the weights uniform: at ratio < 1 the level is
    # infeasible and the blend stays uniform, at ratio > 1 it is feasible.
    # Either way ||T|| is read from the held spectrum of the evaluation, on
    # B B^T (wide) or B^T B (tall), and must match a fresh measurement.
    b = c * np.random.default_rng(seed).standard_normal((m, s))
    alpha = ratio * math.sqrt(s) * spectral_norm(b)
    fact = pietsch_factorize(b, alpha, emd_budget=1)
    assert np.all(fact.d == fact.d[0])
    assert (fact.eta <= 0.0) == (ratio > 1.0)
    assert fact.t_norm == pytest.approx(spectral_norm(fact.t), rel=1e-12, abs=0.0)
    assert fact.t_norm <= fact.alpha_effective * (1.0 + NORM_SLACK)


def test_nonconstant_weights_on_wide_b_match_dense_evaluation():
    rng = np.random.default_rng(7)
    b = rng.standard_normal((5, 12))
    f = rng.random(12)
    f /= f.sum()
    alpha = 2.3
    sample = pietsch_objective(b, alpha, f)
    dense = max_eig_pair(b.T @ b - alpha**2 * np.diag(f))
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


def _wide_input(kind, m, s, rng):
    """A standardized ``m x s`` input: one or two tight clusters of columns
    (an isolated top eigenvalue) or a Gaussian (a slow gap at the top)."""
    if kind == "gaussian":
        return standardize(rng.standard_normal((m, s)))
    k = 1 if kind == "one-cluster" else 2
    centers, _ = np.linalg.qr(rng.standard_normal((m, k)))
    return standardize(centers[:, np.arange(s) % k] + 0.03 * rng.standard_normal((m, s)))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["one-cluster", "two-cluster", "gaussian"]),
    m=st.integers(2, 64),
    s=st.integers(128, 192),
    seed=st.integers(0, 2**32 - 1),
    ratio=st.floats(0.5, 12.0),
)
def test_krylov_evaluations_match_the_dense_top(kind, m, s, seed, ratio):
    # From order 128 the evaluation tries the Krylov kernel; whether it takes
    # the proven Lanczos pair or falls back to eigh, the value is the top.
    rng = np.random.default_rng(seed)
    b = _wide_input(kind, m, s, rng)
    alpha = ratio * math.sqrt(s)
    f = rng.dirichlet(np.ones(s))
    h = b.T @ b - alpha**2 * np.diag(f)
    sample = pietsch_objective(b, alpha, f)
    top = np.linalg.eigvalsh(h)[-1]
    assert abs(sample.value - top) <= EIG_TOL * max(1.0, np.linalg.norm(h, "fro"))


def test_a_slow_gap_factorization_makes_at_most_one_krylov_attempt(monkeypatch):
    # The top of a Gaussian B^T B is not isolated: Lanczos does not converge
    # within its step cap, and after that refusal the solve stays dense.
    b = standardize(np.random.default_rng(0).standard_normal((64, 256)))
    alpha = 2.0 * math.sqrt(256)
    attempts = []
    krylov_top_pair = colsel.pietsch._krylov_top_pair

    def counted(h):
        pair = krylov_top_pair(h)
        attempts.append(pair)
        return pair

    monkeypatch.setattr(colsel.pietsch, "_krylov_top_pair", counted)
    fact = pietsch_factorize(b, alpha, emd_budget=25)
    assert attempts == [None]
    monkeypatch.setattr(colsel.pietsch, "KRYLOV_ORDER", b.shape[1] + 1)
    dense = pietsch_factorize(b, alpha, emd_budget=25)
    assert len(attempts) == 1
    np.testing.assert_allclose(fact.d, dense.d, rtol=0.0, atol=1e-12)


class Program(NamedTuple):
    """A factorization program as the scaling tests see it."""

    factorize: Callable
    optimal_alpha: Callable
    exact: Callable
    power: int  # alpha enters the program as alpha**power
    of: Callable  # a test matrix B -> the program's input
    join: Callable  # (T, d) -> the input the factorization reconstructs
    level: float  # alpha for test_factorize_scales_with_the_input


PIETSCH = Program(
    pietsch_factorize, pietsch_optimal_alpha, norm_inf2_exact, 2,
    lambda b: b, lambda t, d: t * d, 100.0,
)
GROTH = Program(
    groth_factorize, groth_optimal_alpha, norm_inf1_exact, 1,
    lambda b: hollow_gram(standardize(b)), lambda t, d: d[:, None] * t * d[None, :], 10.0,
)


def _cases(pietsch_scales, groth_scales):
    """Pietsch cases are named by the scale alone, Grothendieck ones ``groth-<scale>``."""
    return [pytest.param(PIETSCH, c, id=str(c)) for c in pietsch_scales] + [
        pytest.param(GROTH, c, id=f"groth-{c}") for c in groth_scales
    ]


def check_scaled_invariants(program, a, fact):
    # colsel's norms scale by powers of two, so they stay finite at 1e200.
    assert np.sum(fact.d**2) == pytest.approx(1.0, abs=1e-10)
    recon = frobenius_norm(a - program.join(fact.t, fact.d))
    assert recon <= 1e-8 * max(1.0, frobenius_norm(a))
    assert fact.t_norm <= fact.alpha_effective * (1 + 1e-8)
    assert spectral_norm(fact.t) <= fact.alpha_effective * (1 + 1e-8)


@pytest.mark.parametrize("program, c", _cases([1e-150, 1.0, 1e150], [1e-150, 1.0, 1e150, 1e200]))
def test_factorize_scales_with_the_input(program, c):
    # At 1e150 the Pietsch Gram entries once overflowed and the solve raised
    # SolverError "weight 0 vanished"; at 1e200 the Grothendieck solve raised
    # DomainError on a non-finite matrix.
    a = program.of(np.random.default_rng(3).standard_normal((6, 9)))
    unit = program.factorize(a, program.level)
    fact = program.factorize(c * a, c * program.level)
    if unit.eta <= 0.0:  # feasible at the uniform start, which c cannot perturb
        assert np.array_equal(fact.d, unit.d)
    else:
        np.testing.assert_allclose(fact.d, unit.d, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fact.t, c * unit.t, rtol=1e-12, atol=0.0)
    for name in ("t_norm", "alpha_effective"):
        assert getattr(fact, name) == pytest.approx(c * getattr(unit, name), rel=1e-12)
    assert fact.eta == pytest.approx(c**program.power * unit.eta, rel=1e-12)
    assert fact.reconstruction_residual <= 1e-12 * c * np.linalg.norm(a, "fro")
    check_scaled_invariants(program, c * a, fact)


@pytest.mark.parametrize("program, c", _cases([2.0**-500, 2.0**500], [2.0**-500, 2.0**500]))
def test_infeasible_factorization_scales_exactly(program, c):
    a = program.of(standardize(np.random.default_rng(3).standard_normal((4, 8))))
    alpha = 0.8 * program.exact(a)[0]
    unit = program.factorize(a, alpha)
    fact = program.factorize(c * a, c * alpha)
    scale_eta = c**program.power
    assert unit.eta > 0.0
    assert np.array_equal(fact.d, unit.d)
    assert np.array_equal(fact.t, c * unit.t)
    assert fact.eta == scale_eta * unit.eta
    assert fact.alpha_effective == c * unit.alpha_effective
    assert fact.t_norm == c * unit.t_norm


@pytest.mark.parametrize(
    "program, c", _cases([2.0**-600, 1e-150, 1e150], [2.0**-600, 1e-200, 1e-150, 1e150])
)
def test_bracket_scales_with_the_input(program, c):
    # At 1e-200 the Grothendieck bisection point once underflowed to 0 and
    # the bracket raised DomainError "alpha must be positive".
    a = program.of(standardize(np.random.default_rng(6).standard_normal((5, 8))))
    unit = program.optimal_alpha(a, rel_tol=0.05, emd_budget=400)
    scaled = program.optimal_alpha(c * a, rel_tol=0.05, emd_budget=400)
    assert scaled.alpha_lo == pytest.approx(c * unit.alpha_lo, rel=1e-12)
    assert scaled.alpha_hi == pytest.approx(c * unit.alpha_hi, rel=1e-12)
    assert np.array_equal(scaled.lower_witness, unit.lower_witness)
    assert scaled.probes == unit.probes


@pytest.mark.parametrize("program", [PIETSCH, GROTH], ids=["pietsch", "groth"])
@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 5),
    s=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    ratio=st.floats(0.25, 4.0),
    k=st.integers(-660, 660),
)
def test_solvers_are_homogeneous(program, m, s, seed, ratio, k):
    # Both solvers run on A 2^-e, so scaling A by c = 2^k scales every result
    # exactly: d and the witness do not move, the rest scales by c, and eta
    # by c^p wherever that stays in the float range; past it the
    # factorization is refused.
    c = 2.0**k
    a = program.of(np.random.default_rng(seed).standard_normal((m, s)))
    assume(a.any())
    alpha = ratio * frobenius_norm(a)  # feasible and infeasible levels
    unit = program.factorize(a, alpha, 400)
    eta_exponent = math.frexp(unit.eta)[1] + program.power * k
    if unit.eta != 0.0 and eta_exponent > 1024:
        with pytest.raises(DomainError, match="eta is beyond the float range"):
            program.factorize(c * a, c * alpha, 400)
    else:
        fact = program.factorize(c * a, c * alpha, 400)
        assert np.array_equal(fact.d, unit.d)
        assert np.array_equal(fact.t, c * unit.t)
        assert fact.t_norm == c * unit.t_norm
        assert fact.alpha_effective == c * unit.alpha_effective
        if unit.eta == 0.0 or eta_exponent >= -1021:
            assert fact.eta == math.ldexp(unit.eta, program.power * k)

    unit = program.optimal_alpha(a, emd_budget=400)
    scaled = program.optimal_alpha(c * a, emd_budget=400)
    assert scaled.alpha_lo == c * unit.alpha_lo
    assert scaled.alpha_hi == c * unit.alpha_hi
    assert np.array_equal(scaled.lower_witness, unit.lower_witness)
    assert (scaled.probes, scaled.converged) == (unit.probes, unit.converged)


@pytest.mark.parametrize(
    "solve",
    [
        lambda a: pietsch_factorize(a, 1.0),
        pietsch_optimal_alpha,
        lambda a: groth_factorize(a, 1.0),
        groth_optimal_alpha,
    ],
    ids=["pietsch_factorize", "pietsch_optimal_alpha", "groth_factorize", "groth_optimal_alpha"],
)
def test_solvers_refuse_an_overflowing_frobenius_norm(solve):
    # Both norms are at least ||A||_F, so every bound would be inf.
    with pytest.raises(DomainError, match="float range"):
        solve(np.full((2, 2), 1e308))


@pytest.mark.parametrize("program", [PIETSCH, GROTH], ids=["pietsch", "groth"])
@pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0, -1.0, 1e300])
def test_solvers_refuse_an_alpha_out_of_range(program, alpha):
    # 1e300 once overflowed: Pietsch squared it into an OverflowError, and
    # Grothendieck overflowed in the eigensolver's ||H||_F.
    a = program.of(standardize(np.random.default_rng(2).standard_normal((4, 6))))
    with pytest.raises(DomainError, match="alpha"):
        program.factorize(a, alpha)


@pytest.mark.parametrize("program", [PIETSCH, GROTH], ids=["pietsch", "groth"])
def test_solvers_take_every_alpha_up_to_the_level_bound(program):
    # The largest accepted unit-scale level, 2^480, is trivially feasible;
    # the unit-scale matrices here have exponent e = 0.
    for shape in ((6, 4), (3, 8)):  # Pietsch on the dense and the short side
        a = program.of(np.random.default_rng(4).standard_normal(shape))
        a = a / (2.0 * np.abs(a).max())
        alpha = 2.0 ** (480 / program.power)
        fact = program.factorize(a, alpha)
        assert fact.eta <= 0.0 and fact.alpha_effective == alpha
        with pytest.raises(DomainError, match="float range"):
            program.factorize(a, 2.0 * alpha)


def test_public_boundary_refusals():
    g = hollow_gram(standardize(np.random.default_rng(5).standard_normal((3, 4))))
    b = g[:3]
    bad = [
        lambda: groth_factorize(np.triu(g), 1.0),  # not symmetric
        lambda: groth_optimal_alpha(np.triu(g)),
        lambda: pietsch_factorize(np.where(b > 0, np.inf, b), 1.0),  # non-finite entries
        lambda: pietsch_optimal_alpha(np.full((2, 2), np.nan)),
        lambda: groth_factorize(np.zeros((0, 0)), 1.0),  # no columns
        lambda: pietsch_optimal_alpha(np.zeros((2, 0))),
        lambda: groth_optimal_alpha(np.zeros((0, 0))),
        lambda: groth_factorize(g, -1.0),  # alpha <= 0
        lambda: pietsch_optimal_alpha(b, rel_tol=0.0),  # rel_tol outside (0, 1)
        lambda: groth_optimal_alpha(g, rel_tol=1.0),
        lambda: pietsch_optimal_alpha(np.zeros((2, 2)), rel_tol=math.nan),
        lambda: pietsch_objective(b, 1.0, [0.5, math.nan, 0.25, 0.25]),  # non-finite f
        lambda: groth_objective(g, 1.0, [0.5, 0.5, math.inf, 0.0]),
        lambda: pietsch_objective(b, math.nan, np.full(4, 0.25)),  # non-finite alpha
        lambda: groth_objective(g, -1.0, np.full(4, 0.25)),
        lambda: pietsch_objective(b, 1.0, np.ones(3)),  # f not one weight per column
        lambda: pietsch_objective(b, 1.0, np.ones(7)),
        lambda: pietsch_objective(b, 1.0, np.full((4, 1), 0.25)),
        lambda: groth_objective(g, 1.0, np.full((4, 1), 0.25)),
        lambda: groth_objective(g, 1.0, np.ones(5)),
        lambda: pietsch_objective(np.zeros((2, 0)), 1.0, np.ones(0)),  # no columns
        lambda: groth_objective(np.zeros((0, 0)), 1.0, np.ones(0)),
    ]
    for i, call in enumerate(bad):
        with pytest.raises(DomainError):
            call()
            pytest.fail(f"case {i} was accepted")


def test_solves_validate_their_input_once(monkeypatch):
    # The eigen kernel trusts the matrices a solve builds, so the number of
    # validations does not grow with the number of objective evaluations.
    validations, evaluations = [], []
    as_matrix = colsel.linalg.as_matrix

    def counting_as_matrix(*args, **kwargs):
        validations.append(1)
        return as_matrix(*args, **kwargs)

    def counting_emd_minimize(*args, **kwargs):
        run = emd_minimize(*args, **kwargs)
        evaluations.append(run.iterations)
        return run

    for module in (colsel.linalg, colsel.pietsch, colsel.grothendieck):
        monkeypatch.setattr(module, "as_matrix", counting_as_matrix)
    monkeypatch.setattr(colsel.factor, "emd_minimize", counting_emd_minimize)
    monkeypatch.setattr(colsel.factor, "MAX_PROBES", 1)
    g = hollow_gram(standardize(np.random.default_rng(0).standard_normal((5, 8))))
    b = np.diag([4.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])  # uniform weights are infeasible
    solves = {
        "groth_factorize": lambda budget: groth_factorize(g, 0.5 * norm_inf1_exact(g)[0], budget),
        "pietsch_optimal_alpha": lambda budget: pietsch_optimal_alpha(b, emd_budget=budget),
    }
    for name, solve in solves.items():
        counts = []
        for budget in (1, 400):
            validations.clear()
            evaluations.clear()
            solve(budget)
            counts.append((sum(evaluations), len(validations)))
        (few, checks), (many, checks_again) = counts
        assert few < many, name
        assert checks == checks_again, (name, counts)


def _hollow(b):
    g = b.T @ b
    np.fill_diagonal(g, 0.0)
    return g


@pytest.mark.parametrize("program", [PIETSCH, GROTH], ids=["pietsch", "groth"])
@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(
        ["gaussian", "rank-one", "zero-column", "duplicate-columns", "wild-columns",
         "near-standardized"]
    ),
    m=st.integers(1, 6),
    s=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    c=st.sampled_from([1.0, 2.0**-500, 2.0**500, 2.0**-600, 2.0**600]),
)
def test_bracket_is_sound(program, kind, m, s, seed, c):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((m, s))
    if kind == "rank-one":
        b = np.outer(rng.standard_normal(m), rng.standard_normal(s))
    elif kind == "zero-column":
        b[:, rng.integers(s)] = 0.0
    elif kind == "duplicate-columns":
        b[:, s // 2 :] = b[:, : s - s // 2]
    elif kind == "wild-columns":
        b *= 10.0 ** rng.uniform(-8.0, 8.0, s)
    elif kind == "near-standardized":
        b = standardize(b) * (1.0 + STANDARDIZE_ATOL * rng.uniform(-1.0, 1.0, s))
        assert is_standardized(b)
    a = b if program is PIETSCH else _hollow(b)
    exact, _ = program.exact(a)
    bracket = program.optimal_alpha(c * a, emd_budget=400)
    assert bracket.alpha_lo <= c * exact <= bracket.alpha_hi


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


@pytest.mark.parametrize("c", [2.0**-500, 2.0**500])
def test_objectives_are_homogeneous(c):
    # lambda(c A, c alpha) = c^p lambda(A, alpha), and so is the subgradient.
    rng = np.random.default_rng(11)
    b = rng.standard_normal((4, 3))
    g = hollow_gram(standardize(rng.standard_normal((5, 4))))
    for objective, a, p in ((pietsch_objective, b, 2), (groth_objective, g, 1)):
        f = rng.random(a.shape[1]) + 0.5
        f /= f.sum()
        unit = objective(a, 1.3, f)
        scaled = objective(c * a, c * 1.3, f)
        assert scaled.value == c**p * unit.value
        assert np.array_equal(scaled.subgradient, c**p * unit.subgradient)


@pytest.mark.parametrize("k", [-1000, -600, -1, 0, 1, 600, 1000])
def test_ascents_are_homogeneous(k):
    # Both ascents run on M 2^-e.  The inf2 ascent once stopped below an
    # absolute floor: at 2^-1000 it made no flip, at 1e160 its squares overflowed.
    c = 2.0**k
    rng = np.random.default_rng(12)
    b = rng.standard_normal((8, 20))
    g = hollow_gram(standardize(rng.standard_normal((6, 20))))
    for ascent, a in ((improve_sign_witness_inf2, b), (improve_sign_witness_inf1, g)):
        value, x = ascent(a, np.ones(20))
        scaled, scaled_x = ascent(c * a, np.ones(20))
        assert np.array_equal(scaled_x, x)
        assert scaled == c * value


def test_objectives_at_extreme_scales():
    # These once raised OverflowError or overflow warnings, or returned inf.
    f = np.full(3, 1.0 / 3.0)
    with pytest.raises(DomainError, match="beyond the float range"):
        pietsch_objective(np.eye(3), 1e200, f)
    with pytest.raises(DomainError, match="objective value is beyond the float range"):
        pietsch_objective(1e200 * np.eye(3), 1.0, f)  # 1e400 - 1/3
    with pytest.raises(DomainError, match="subgradient is beyond the float range"):
        # The value is 1, at the second column; its subgradient entry is -1e310.
        pietsch_objective(np.diag([1e155, 1.0]), 1e155, [1.0, 0.0])
    g = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    sample = groth_objective(1e200 * g, 1.0, f)
    assert sample.value == pytest.approx(1e200 * math.sqrt(2.0), rel=1e-12)
    assert np.isfinite(sample.subgradient).all()
