"""The factorization core solves a program's level-free spectrum once,
reuses the pairs of its lowest-value point, and only those, and solves the
shifted pairs of both programs with the bits each program's own solve had.

Eigensolves are counted by wrapping ``numpy.linalg.eigh``, which the eigen
kernel looks up at each call.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import colsel.factor
import colsel.grothendieck
import colsel.pietsch
from colsel import (
    PIETSCH_CONSTANT,
    SolverError,
    groth_factorize,
    groth_optimal_alpha,
    hollow_gram,
    pietsch_factorize,
    pietsch_optimal_alpha,
    spectral_norm,
    standardize,
)
from colsel.factor import NORM_SLACK
from colsel.grothendieck import GrothObjective
from colsel.linalg import EIG_TOL, _signed_top_pairs, _top_pair
from colsel.pietsch import PietschObjective
from oracles import groth_shifted_pairs, pietsch_shifted_pairs


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(h, *args, **kwargs):
        calls.append(h.shape[0])
        return eigh(h, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _programs():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((12, 6))  # tall, so every f takes the s x s Gram
    g = hollow_gram(standardize(rng.standard_normal((5, 8))))
    f = rng.random(6)
    h = rng.random(8)
    return [
        pytest.param(PietschObjective(b, 1.5), f / f.sum(), 1, id="pietsch"),
        pytest.param(GrothObjective(g, 0.9), h / h.sum(), 2, id="groth"),
    ]


def test_bracket_certifies_its_start_without_a_probe(eigh_calls):
    # The start's two level-free branches give the lower end and the uniform
    # factorization's measured norm, which already meets the ratio stop: no
    # probe, and no branch is solved twice.
    a = np.random.default_rng(0).standard_normal((64, 128))
    g = hollow_gram(standardize(a))
    bracket = groth_optimal_alpha(g)
    assert bracket.probes == 0
    assert bracket.converged
    assert eigh_calls == [128, 128]
    uniform = 128 * spectral_norm(g)
    assert bracket.alpha_hi == pytest.approx(uniform, rel=1e-8)
    assert bracket.alpha_hi <= bracket.alpha_lo * colsel.grothendieck.GROTHENDIECK_UPPER * 1.05


def test_a_bracket_whose_start_does_not_certify_bisects():
    # On diag(4, 3, 1, ..., 1) the uniform factorization's norm sqrt(8) 4 is
    # above K_P (1 + rel_tol) times the lower end, so the bracket probes, and
    # its probe's factor norm is tighter than the start's.
    b = np.diag([4.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    uniform = math.sqrt(8.0) * 4.0
    bracket = pietsch_optimal_alpha(b)
    assert bracket.alpha_lo * PIETSCH_CONSTANT * 1.05 < uniform * (1.0 + 1e-9)
    assert bracket.probes == 1
    assert bracket.converged
    assert bracket.alpha_hi == pytest.approx(6.1744, abs=1e-4)
    assert bracket.alpha_hi <= bracket.alpha_lo * PIETSCH_CONSTANT * 1.05


def _wild_inputs():
    # Columns of very different norms: one mirror-descent step leaves the
    # probes infeasible, so the bracket bisects several times.
    rng = np.random.default_rng(0)
    b = rng.standard_normal((6, 12)) * 10.0 ** rng.uniform(-2, 2, 12)
    w = np.diag(10.0 ** rng.uniform(-2, 2, 8))
    h = rng.standard_normal((8, 8))
    g = w @ (h + h.T) @ w
    b, g = (m / 2.0 ** np.frexp(np.abs(m).max())[1] for m in (b, g))  # unit scale: e = 0
    return [
        pytest.param(colsel.pietsch, "improve_sign_witness_inf2", pietsch_optimal_alpha, b, 2,
                     id="pietsch"),
        pytest.param(colsel.grothendieck, "improve_sign_witness_inf1", groth_optimal_alpha, g, 3,
                     id="groth"),
    ]


@pytest.mark.parametrize("module, ascent, optimal_alpha, a, starts", _wild_inputs())
def test_bracket_ascends_only_from_its_start(monkeypatch, module, ascent, optimal_alpha, a, starts):
    # The all-ones start and one per branch; a probe adds no ascent.
    values = []
    improve = getattr(module, ascent)

    def counted(m, x):
        value, signs = improve(m, x)
        values.append(value)
        return value, signs

    monkeypatch.setattr(module, ascent, counted)
    bracket = optimal_alpha(a, emd_budget=1)
    assert bracket.probes >= 2
    assert len(values) == starts
    assert bracket.alpha_lo == max(values) * (1.0 - 1e-12)


def _solvers():
    # The Pietsch inputs take both ||T|| paths: a 5x7 Gaussian at alpha 10
    # ends infeasible at non-constant weights (the Gram of T is solved); a
    # tenth of it is feasible at the uniform start (the held spectrum is read).
    b = np.random.default_rng(4).standard_normal((5, 7))
    return [
        pytest.param(pietsch_factorize, PietschObjective, b, False, id="pietsch"),
        pytest.param(pietsch_factorize, PietschObjective, 0.1 * b, True, id="pietsch-constant"),
        pytest.param(groth_factorize, GrothObjective, hollow_gram(standardize(b)), False,
                     id="groth"),
    ]


@pytest.mark.parametrize("factorize, program, a, constant", _solvers())
def test_a_factor_norm_past_its_certificate_is_rebuilt(monkeypatch, factorize, program, a,
                                                       constant):
    # The measured ||T|| is taken past alpha_effective once: eta absorbs the
    # excess and the rebuilt factor passes.
    calls = []
    t_norm = program.t_norm

    def inflated_once(self, t, d):
        calls.append(t)
        return 1e3 if len(calls) == 1 else t_norm(self, t, d)

    plain = factorize(a, 10.0)
    assert np.all(plain.d == plain.d[0]) == constant
    monkeypatch.setattr(program, "t_norm", inflated_once)
    fact = factorize(a, 10.0)
    assert np.all(fact.d == fact.d[0]) == constant
    assert len(calls) == 2
    assert fact.eta > plain.eta
    assert 10.0 < fact.alpha_effective
    assert fact.t_norm <= fact.alpha_effective * (1.0 + NORM_SLACK)


@pytest.mark.parametrize("factorize, program, a, constant", _solvers())
def test_a_factor_norm_past_its_rebuilt_certificate_fails(monkeypatch, factorize, program, a,
                                                          constant):
    calls = []

    def inflated(self, t, d):
        calls.append(t)
        return 1e3 * len(calls)

    monkeypatch.setattr(program, "t_norm", inflated)
    with pytest.raises(SolverError, match="after rebuild"):
        factorize(a, 10.0)
    assert len(calls) == 2


def _wide():
    # 8 x 32 Gaussian: uniform weights are feasible at alpha = 8 K_P sqrt(s),
    # the level norm_reduce uses, and its Gram B B^T has order 8.
    return np.random.default_rng(5).standard_normal((8, 32))


def test_a_feasible_wide_factorization_makes_one_eigensolve(eigh_calls):
    # The evaluation at the uniform start solves B B^T; the certificate
    # reuses it and ||T|| = ||B|| / d_0 is read from it.
    b = _wide()
    fact = pietsch_factorize(b, 8.0 * PIETSCH_CONSTANT * np.sqrt(32))
    assert fact.eta <= 0.0
    assert np.all(fact.d == fact.d[0])
    assert eigh_calls == [8]


def test_a_wide_bracket_certified_at_its_start_makes_one_eigensolve(eigh_calls):
    # The start's level-0 spectrum, on the short side, gives both ends: one solve.
    bracket = pietsch_optimal_alpha(_wide())
    assert bracket.probes == 0
    assert bracket.converged
    assert eigh_calls == [8]


@pytest.mark.parametrize("program, f, branches", _programs())
def test_certificate_at_the_evaluated_point_makes_no_solve(eigh_calls, program, f, branches):
    value = program(f).value
    assert len(eigh_calls) == branches
    bound = program.certified(f)
    assert len(eigh_calls) == branches
    fresh = program._pairs(f)
    assert bound == max(p.value + p.residual for p in fresh) >= value


@pytest.mark.parametrize("program, f, branches", _programs())
def test_only_the_best_point_is_certified_without_a_solve(eigh_calls, program, f, branches):
    # The pairs kept are those of the lowest value, not of the last point.
    probe = copy.copy(program)
    worse = max((0.1 * f + 0.9 * np.eye(f.size)[j] for j in range(f.size)),
                key=lambda w: probe(w).value)
    del eigh_calls[:]
    assert program(f).value < program(worse).value
    assert len(eigh_calls) == 2 * branches
    program.certified(f)
    assert len(eigh_calls) == 2 * branches
    program.certified(worse)
    assert len(eigh_calls) == 3 * branches
    program.certified(np.nextafter(f, 1.0))
    assert len(eigh_calls) == 4 * branches


def _gap_exits():
    # Infeasible levels whose mirror descent ends by the gap test at a best
    # point it evaluated before its last one.
    a = np.random.default_rng(6).standard_normal((5, 8))
    g = hollow_gram(standardize(a))
    return [
        pytest.param(pietsch_factorize, a, 0.5 * np.sqrt(8) * spectral_norm(a), id="pietsch"),
        pytest.param(groth_factorize, g, 0.4 * 8 * spectral_norm(g), id="groth"),
    ]


@pytest.mark.parametrize("factorize, a, alpha", _gap_exits())
def test_a_gap_exit_certifies_its_best_point_without_a_solve(monkeypatch, eigh_calls,
                                                             factorize, a, alpha):
    seen = {}
    minimize = colsel.factor.emd_minimize

    def recorded(objective, s, *args, **kwargs):
        points = []

        def evaluate(f):
            points.append(f)
            return objective(f)

        run = minimize(evaluate, s, *args, **kwargs)
        seen.update(run=run, last=points[-1], solves=len(eigh_calls))
        return run

    monkeypatch.setattr(colsel.factor, "emd_minimize", recorded)
    fact = factorize(a, alpha)
    assert seen["run"].exit == "gap"
    assert seen["run"].best_point is not seen["last"]
    assert fact.eta > 0.0 and not np.all(fact.d == fact.d[0])
    # The certificate reuses the best point's pairs: only the Gram of T is solved.
    assert len(eigh_calls) == seen["solves"] + 1


def test_a_uniform_grothendieck_factor_norm_is_read_from_the_spectrum(eigh_calls):
    # Feasible at uniform weights: T = s G, and ||T|| = ||G|| / d_0^2 comes
    # from the two level-free branches, which are the only solves.
    g = hollow_gram(standardize(np.random.default_rng(2).standard_normal((5, 8))))
    alpha = 2.0 * 8 * spectral_norm(g)
    del eigh_calls[:]
    unit = groth_factorize(g, alpha)
    assert unit.eta <= 0.0 and np.all(unit.d == unit.d[0])
    assert len(eigh_calls) == 2
    measured = spectral_norm(unit.t)
    assert abs(unit.t_norm - measured) <= 8 * np.spacing(measured)
    for c in (2.0**-600, 2.0**600):
        assert groth_factorize(c * g, c * alpha).t_norm == c * unit.t_norm


@pytest.mark.parametrize("program, f, branches", _programs())
def test_a_residual_above_the_eig_tol_fails_the_evaluation(monkeypatch, program, f, branches):
    # One tolerance: the evaluation itself refuses what a certificate would.
    eigh = np.linalg.eigh

    def perturbed(h, *args, **kwargs):
        values, vectors = eigh(h, *args, **kwargs)
        return values, vectors + 1e-6

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(SolverError, match="residual"):
        program(f)


@settings(max_examples=80, deadline=None)
@given(
    program=st.sampled_from(["pietsch", "grothendieck"]),
    kind=st.sampled_from(["gaussian", "integer"]),
    m=st.integers(1, 48),
    s=st.integers(2, 48),
    alpha=st.floats(0.25, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_shifted_evaluations_keep_the_bits_of_the_per_program_solves(program, kind, m, s,
                                                                    alpha, seed):
    # Below KRYLOV_ORDER every shifted pair is dense, so the core's solve must
    # give the value, subgradient and certificate that each program's own
    # construction gave, bit for bit.
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        a = rng.standard_normal((m, s))
    else:
        a = rng.integers(-3, 4, size=(m, s)).astype(float)
    f = rng.dirichlet(np.ones(s))
    assume(f.max() != f.min())
    if program == "pietsch":
        matrix, cls, reference = a, PietschObjective, pietsch_shifted_pairs
    else:
        matrix, cls, reference = a.T @ a, GrothObjective, groth_shifted_pairs
    evaluator = cls(matrix, alpha)
    pairs = reference(matrix, evaluator.level, f)
    top = max(pairs, key=lambda p: p.value)  # the first maximum
    certificate = max(p.value + p.residual for p in pairs)
    assert evaluator.certified(f) == certificate  # no best point yet: solved
    value, grad = evaluator(f)  # solved again, from the same branches
    assert value == top.value
    assert grad.tobytes() == (-evaluator.level * top.vector**2).tobytes()
    assert evaluator.certified(f) == certificate  # the best point's pairs


def _weights_inputs():
    # Seeded 6x8 Pietsch and order-8 Grothendieck inputs at levels feasible at
    # the uniform start, feasible after descent and infeasible (a gap exit),
    # and one input of each with a zero column.
    rng = np.random.default_rng(11)
    b = rng.standard_normal((6, 8))
    b0 = b.copy()
    b0[:, 3] = 0.0
    g = hollow_gram(standardize(rng.standard_normal((5, 8))))
    g0 = g.copy()
    g0[2, :] = g0[:, 2] = 0.0
    pietsch = np.sqrt(8) * spectral_norm(b)
    groth = 8 * spectral_norm(g)
    return [
        pytest.param(PietschObjective, b, 1.5 * pietsch, id="pietsch-uniform"),
        pytest.param(PietschObjective, b, 0.75 * pietsch, id="pietsch-infeasible"),
        pytest.param(PietschObjective, b0, 0.9 * np.sqrt(8) * spectral_norm(b0),
                     id="pietsch-zero-column"),
        pytest.param(GrothObjective, g, 1.5 * groth, id="groth-uniform"),
        pytest.param(GrothObjective, g, 0.9 * groth, id="groth-descent"),
        pytest.param(GrothObjective, g, 0.6 * groth, id="groth-infeasible"),
        pytest.param(GrothObjective, g0, 0.75 * 8 * spectral_norm(g0), id="groth-zero-column"),
    ]


@pytest.mark.parametrize("program, a, alpha", _weights_inputs())
def test_the_weights_path_keeps_the_bits_of_the_public_weights(monkeypatch, program, a, alpha):
    # Without the one-eigh(G) spectrum (compared in the next test), the weights
    # path is the public factorization cut at d: the same bits wherever that
    # did not rebuild, and its record reports the same eta.
    monkeypatch.setattr(colsel.grothendieck, "_signed_top_pairs",
                        lambda h, minus_h: (_top_pair(h), _top_pair(minus_h)))
    builds = []
    build = colsel.factor._build

    def counted(*args):
        builds.append(None)
        return build(*args)

    monkeypatch.setattr(colsel.factor, "_build", counted)
    fact = colsel.factor._factorize(program, a, alpha, 5000)
    assert len(builds) == 1  # no rebuild
    d, record = colsel.factor._weights(program, a, alpha, 5000)
    assert len(builds) == 1
    assert d.tobytes() == fact.d.tobytes()
    assert record["eta"] == fact.eta
    assert record["feasible"] == (fact.eta <= 0.0)
    assert record["exit"] in ("feasible", "gap")
    assert record["lower_bound"] <= record["eta"] or record["feasible"]


@pytest.mark.parametrize("program, a, alpha", _weights_inputs())
def test_one_grothendieck_spectrum_moves_the_weights_by_rounding_at_most(program, a, alpha):
    # -G's pair from eigh(G) may differ from eigh(-G)'s in the last bits, and
    # so may d; on these inputs it stays within rounding of the public d.
    d, record = colsel.factor._weights(program, a, alpha, 5000)
    fact = colsel.factor._factorize(program, a, alpha, 5000)
    np.testing.assert_allclose(d, fact.d, rtol=1e-9, atol=0.0)
    assert record["feasible"] == (fact.eta <= 0.0)


@pytest.mark.parametrize("program, a", [
    pytest.param(PietschObjective, np.random.default_rng(12).standard_normal((6, 8)),
                 id="pietsch"),
    pytest.param(GrothObjective,
                 hollow_gram(standardize(np.random.default_rng(12).standard_normal((5, 8)))),
                 id="groth"),
])
@pytest.mark.parametrize("zeros, message", [
    ([0], "weight 0 vanished but column 0 is not negligible"),
    (slice(None), "all factorization weights vanished"),
])
def test_the_weights_path_refuses_a_vanished_weight_as_the_public_path(
        monkeypatch, program, a, zeros, message):
    # A certified-feasible best point with a zero weight on a live column (or
    # none left) is refused by both paths with the same SolverError.
    minimize = colsel.factor.emd_minimize

    def vanished(*args, **kwargs):
        run = minimize(*args, **kwargs)
        point = run.best_point.copy()
        point[zeros] = 0.0
        return dataclasses.replace(run, best_point=point)

    monkeypatch.setattr(colsel.factor, "emd_minimize", vanished)
    monkeypatch.setattr(program, "certified", lambda self, f: -1.0)
    alpha = 2.0 * 8 * spectral_norm(a)
    with pytest.raises(SolverError) as public:
        colsel.factor._factorize(program, a, alpha, 5000)
    with pytest.raises(SolverError) as weights:
        colsel.factor._weights(program, a, alpha, 5000)
    assert str(weights.value) == str(public.value)
    assert message in str(public.value)


def test_a_lower_bound_beyond_the_float_range_refuses_no_attempt(monkeypatch):
    # At scale 2^500 a Pietsch value is scaled back by about 2^1002: eta fits,
    # a loose lower bound of -1e300 at unit scale does not, and saturates.
    b = np.random.default_rng(13).standard_normal((6, 8)) * 2.0**500
    alpha = 1.5 * math.sqrt(8) * spectral_norm(b)
    d, record = colsel.factor._weights(PietschObjective, b, alpha, 5000)
    minimize = colsel.factor.emd_minimize
    monkeypatch.setattr(colsel.factor, "emd_minimize", lambda *args, **kwargs: dataclasses.replace(
        minimize(*args, **kwargs), lower_bound=-1e300))
    loose_d, loose = colsel.factor._weights(PietschObjective, b, alpha, 5000)
    assert loose_d.tobytes() == d.tobytes()
    assert loose["lower_bound"] == -math.inf
    assert loose["eta"] == record["eta"] and math.isfinite(loose["eta"])


@pytest.mark.parametrize("seed", range(6))
def test_the_minus_g_pair_of_one_spectrum_passes_the_residual_test(seed):
    # -G's top pair is G's bottom pair (-lambda_min, v_min), with the residual
    # measured on -G; both pairs pass the kernel's test.
    rng = np.random.default_rng(seed)
    g = hollow_gram(standardize(rng.standard_normal((5 + seed, 8 + 4 * seed))))
    pairs = _signed_top_pairs(g, -g)
    for h, pair, dense in zip((g, -g), pairs, (_top_pair(g), _top_pair(-g))):
        assert math.sqrt(float(pair.vector @ pair.vector)) == pytest.approx(1.0, abs=1e-15)
        r = h @ pair.vector - pair.value * pair.vector
        assert pair.residual == math.sqrt(float(r @ r))
        assert pair.residual <= EIG_TOL * max(1.0, math.sqrt(float(np.sum(h * h))))
        assert abs(pair.value - dense.value) <= 64 * np.finfo(float).eps * spectral_norm(g)
    assert pairs[1].value == -np.linalg.eigh(g)[0][0]
