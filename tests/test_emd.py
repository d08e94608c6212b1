import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import colsel.factor
from colsel import (
    PIETSCH_CONSTANT,
    DomainError,
    emd_minimize,
    emd_step,
    groth_factorize,
    hollow_gram,
    pietsch_factorize,
    standardize,
)
from colsel.emd import GAP_RTOL, SubgradientSample

from oracles import simplex_grid


def linear_objective(c):
    c = np.asarray(c, dtype=float)
    return lambda f: SubgradientSample(float(c @ f), c)


def test_fixed_horizon_efficiency_bound():
    # J(f) = <c, f> has minimum min(c) and Lipschitz constant max|c|.
    rng = np.random.default_rng(0)
    for s in (2, 8, 32):
        for horizon in (100, 1000):
            c = rng.random(s)
            run = emd_minimize(linear_objective(c), s, horizon, "fixed-horizon")
            bound = math.sqrt(2 * np.abs(c).max() ** 2 * math.log(s) / horizon)
            assert run.best_value - c.min() <= bound


def test_first_coordinate_objective_bound():
    run = emd_minimize(linear_objective([1.0, 0.0]), 2, 400, "fixed-horizon")
    assert run.best_value <= math.sqrt(2 * math.log(2) / 400)


def test_constant_objective_returns_uniform():
    run = emd_minimize(lambda f: SubgradientSample(3.0, np.zeros(4)), 4, 100)
    assert run.iterations == 1
    assert run.exit == "zero-step"
    assert run.lower_bound == 3.0
    assert np.allclose(run.best_point, 0.25)
    assert run.best_value == 3.0


def test_max_objective_vs_grid_search():
    rng = np.random.default_rng(1)
    c = rng.random(4)
    c /= c.sum()

    def objective(f):
        j = int(np.argmax(c - f))
        theta = np.zeros(4)
        theta[j] = -1.0
        return SubgradientSample(float((c - f)[j]), theta)

    horizon = 2000
    run = emd_minimize(objective, 4, horizon, "fixed-horizon")
    grid = simplex_grid(4, 100)
    grid_min = np.max(c[None, :] - grid, axis=1).min()
    bound = math.sqrt(2 * math.log(4) / horizon)
    assert run.best_value <= grid_min + bound


def test_iterates_stay_on_simplex():
    seen = []

    def objective(f):
        seen.append(f.copy())
        return SubgradientSample(float(f[0] - f[1]), np.array([1.0, -1.0, 0.0]))

    emd_minimize(objective, 3, 50, "fixed-horizon")
    for f in seen:
        assert np.all(f >= 0)
        assert f.sum() == pytest.approx(1.0, abs=1e-12)


def test_constant_subgradient_shift_is_invisible():
    weights = np.array([0.5, 0.25, 0.125, 0.125])
    theta = np.array([0.3, -1.2, 0.0, 2.0])
    base = emd_step(weights, 0.7, theta)
    for c in (-3.0, 1e-3, 256.0):
        shifted = emd_step(weights, 0.7, theta + c)
        assert np.allclose(shifted, base, rtol=1e-13, atol=1e-16)


def test_best_value_equals_min_of_trace_and_reproduces():
    rng = np.random.default_rng(2)
    c = rng.standard_normal(5)
    obj = linear_objective(c)
    values = []

    def recorded(f):
        sample = obj(f)
        values.append(sample.value)
        return sample

    run = emd_minimize(recorded, 5, 300, "adaptive")
    assert len(values) == run.iterations
    assert run.best_value == min(values)
    assert obj(run.best_point).value == pytest.approx(run.best_value, abs=1e-9)


def test_stop_below_exits_early():
    run = emd_minimize(linear_objective([1.0, 0.0]), 2, 10_000, "adaptive", stop_below=0.1)
    assert run.exit == "feasible"
    assert run.best_value <= 0.1
    assert run.iterations < 10_000


def test_certified_gap_stops_infeasible_solve():
    # min c = 1 > stop_below, so the level is out of reach; the cuts certify
    # that and the solve ends once best is within GAP_RTOL of the bound.
    c = np.array([1.0, 2.0, 3.0, 4.0])
    run = emd_minimize(linear_objective(c), 4, 10_000, "adaptive", stop_below=0.0)
    assert run.exit == "gap"
    assert run.iterations < 10_000
    assert run.lower_bound <= c.min() <= run.best_value
    assert run.best_value - run.lower_bound <= GAP_RTOL * abs(run.best_value)


def test_gap_exit_when_nonsmooth_minimum_sits_just_above_level():
    # J(f) = max_j (c_j - f_j) + 0.01 has minimum 0.01 at f = c, where every
    # coordinate is active.  Single cuts stay far below it; averaging the
    # cuts of recent steps certifies it well inside the budget.
    c = np.random.default_rng(8).random(8)
    c /= c.sum()

    def objective(f):
        j = int(np.argmax(c - f))
        theta = np.zeros(8)
        theta[j] = -1.0
        return SubgradientSample(float((c - f)[j]) + 0.01, theta)

    run = emd_minimize(objective, 8, 5000, "adaptive", stop_below=0.0)
    assert run.exit == "gap"
    assert run.lower_bound <= 0.01 <= run.best_value


def test_minimum_at_stop_below_runs_to_budget():
    # The infimum 0 equals stop_below but is only approached: no cut can
    # exceed it and no iterate reaches it, so the budget ends the solve.
    run = emd_minimize(linear_objective([0.0, 5.0]), 2, 500, "adaptive", stop_below=0.0)
    assert run.exit == "budget"
    assert run.iterations == 500
    assert run.lower_bound <= 0.0 < run.best_value


@settings(max_examples=60, deadline=None)
@given(
    c=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=64),
    stop_below=st.one_of(st.none(), st.floats(-20.0, 20.0)),
    mode=st.sampled_from(["fixed-horizon", "adaptive"]),
)
# A subnormal subgradient once overflowed the step size to inf.
@example(c=[0.0, 2.225073858507e-311], stop_below=None, mode="fixed-horizon")
# Orders 16-64 with the level out of reach run the bundle cut.
@example(c=[float(j % 7) - 2.5 for j in range(16)], stop_below=-3.0, mode="adaptive")
@example(c=[math.sin(j) for j in range(64)], stop_below=-2.0, mode="adaptive")
def test_lower_bound_never_exceeds_linear_minimum(c, stop_below, mode):
    c = np.array(c)
    run = emd_minimize(linear_objective(c), c.size, 60, mode, stop_below=stop_below)
    assert run.exit in ("feasible", "gap", "budget", "zero-step")
    assert run.lower_bound <= c.min()


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(16, 48),
    pieces=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    stop_below=st.floats(-60.0, 20.0),
)
def test_lower_bound_never_exceeds_a_max_of_affine_objective(s, pieces, seed, stop_below):
    # J(f) = max_i (a_i + G_i . f); every cut, the bundle cut included, is
    # below J everywhere on the simplex.
    rng = np.random.default_rng(seed)
    a = rng.uniform(-10.0, 10.0, pieces)
    g = rng.uniform(-10.0, 10.0, (pieces, s))

    def objective(f):
        i = int(np.argmax(a + g @ f))
        return SubgradientSample(float(a[i] + g[i] @ f), g[i])

    run = emd_minimize(objective, s, 200, "adaptive", stop_below=stop_below)
    points = np.vstack([rng.dirichlet(np.full(s, 0.3), 64), np.eye(s), run.best_point])
    values = np.max(a[None, :] + points @ g.T, axis=1)
    assert np.all(run.lower_bound <= values + 1e-9 * (1.0 + np.abs(values)))


def _record_solves(monkeypatch):
    """Record the ``EmdRun`` of every factorization solve."""
    runs = []

    def recorded(*args, **kwargs):
        run = emd_minimize(*args, **kwargs)
        runs.append(run)
        return run

    monkeypatch.setattr(colsel.factor, "emd_minimize", recorded)
    return runs


def test_bundle_cut_stops_an_infeasible_order_256_solve_early(monkeypatch):
    # Two orthonormal clusters of 128 columns each (the kt-coherent shape):
    # no weights reach level 8 K_P sqrt(s), and the step-weighted cuts alone
    # need 21 evaluations to certify the gap.
    rng = np.random.default_rng(2)
    centers, _ = np.linalg.qr(rng.standard_normal((64, 2)))
    b = standardize(centers[:, np.arange(256) % 2] + 0.03 * rng.standard_normal((64, 256)))
    runs = _record_solves(monkeypatch)
    orders = []
    eigh = np.linalg.eigh

    def counted(h, *args, **kwargs):
        orders.append(h.shape[-1])
        return eigh(h, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    fact = pietsch_factorize(b, 8.0 * PIETSCH_CONSTANT * 16.0)
    (run,) = runs
    assert fact.eta > 0.0
    assert run.exit == "gap"
    assert run.iterations <= 8
    # The shifted evaluations are proven Lanczos pairs: the only dense solves
    # are of order 64 (the short side) and of the Lanczos tridiagonals.
    assert orders and 256 not in orders


def test_order_8_solves_run_without_the_bundle_cut(monkeypatch):
    # Below order 16 the bundle cut is off: this Grothendieck solve of a bt
    # round keeps the evaluation count of the step-weighted cuts.
    rng = np.random.default_rng(3)
    b = standardize(rng.standard_normal((16, 48)))[:, rng.choice(48, 8, replace=False)]
    runs = _record_solves(monkeypatch)
    groth_factorize(hollow_gram(b), 2.0)
    (run,) = runs
    assert run.exit == "gap"
    assert run.iterations == 7


def test_single_point_simplex():
    run = emd_minimize(lambda f: SubgradientSample(2.0, np.array([1.0])), 1, 50)
    assert run.iterations == 1
    assert run.best_point[0] == 1.0


def test_adaptive_mode_still_converges():
    run = emd_minimize(linear_objective([1.0, 0.0]), 2, 2000, "adaptive")
    assert run.best_value <= 0.05


def test_input_validation():
    obj = linear_objective([1.0, 0.0])
    with pytest.raises(DomainError):
        emd_minimize(obj, 2, 0)
    with pytest.raises(DomainError):
        emd_minimize(obj, 2, 10, step_mode="warp")
    with pytest.raises(DomainError):
        emd_minimize(lambda f: SubgradientSample(math.nan, np.zeros(2)), 2, 10)
