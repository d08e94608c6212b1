import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colsel import (
    DomainError,
    check_inf1_reduction,
    check_inf2_reduction,
    hollow_gram,
    norm_inf1_exact,
    norm_inf2_exact,
    poissonization_check,
    sample_projector,
    standardize,
)
from colsel import montecarlo
from colsel.errors import _stream
from colsel.exact import _stack_values
from colsel.montecarlo import _draws

DOUBLE_ID = standardize(np.hstack([np.eye(8), np.eye(8)]))


def rng_from(seed):
    return np.random.default_rng(seed)


def test_sample_projector_extremes():
    for model in ("P", "R"):
        assert np.array_equal(sample_projector(model, 6, 1.0, rng_from(0)), np.arange(6))
    assert sample_projector("P", 6, 0.0, rng_from(0)).size == 0
    assert sample_projector("R", 6, 0.0, rng_from(0)).size == 0


def test_sample_projector_cardinalities():
    # P model is exact; R model is binomial
    rng = rng_from(1)
    sizes = [sample_projector("P", 10, 0.3, rng).size for _ in range(50)]
    assert all(s == 3 for s in sizes)

    n, delta, draws = 1000, 0.3, 200
    sizes = np.array([sample_projector("R", n, delta, rng).size for _ in range(draws)])
    sigma_mean = math.sqrt(n * delta * (1 - delta) / draws)
    assert abs(sizes.mean() - n * delta) <= 5 * sigma_mean


def test_sample_projector_validation():
    with pytest.raises(DomainError):
        sample_projector("P", 4, 1.5, rng_from(0))
    with pytest.raises(DomainError):
        sample_projector("Q", 4, 0.5, rng_from(0))


def test_inf2_delta_zero():
    r_res, p_res = check_inf2_reduction(DOUBLE_ID, 0.0, 100, seed=0)
    assert r_res.empirical_mean == 0.0
    assert p_res.empirical_mean == 0.0
    assert r_res.passed and p_res.passed


def test_inf2_delta_one_is_equality():
    r_res, p_res = check_inf2_reduction(DOUBLE_ID, 1.0, 100, seed=0)
    exact, _ = norm_inf2_exact(DOUBLE_ID)
    assert r_res.empirical_mean == pytest.approx(exact, rel=1e-12)
    assert r_res.theoretical_bound == pytest.approx(exact, rel=1e-12)
    assert r_res.std_error <= 1e-14
    assert r_res.passed and p_res.passed


def test_inf2_double_identity_passes_bounds():
    r_res, p_res = check_inf2_reduction(DOUBLE_ID, 0.5, 500, seed=42)
    assert r_res.passed
    assert p_res.passed
    # regime check: s = 8 <= ceil(2 * st.rank) = 16, so the 7 sqrt(s) bound applies
    assert p_res.theoretical_bound == pytest.approx(7 * math.sqrt(8))
    ok, lhs, rhs = poissonization_check(p_res, r_res)
    assert ok and lhs <= rhs


def test_inf1_orthonormal_columns_are_silent():
    res = check_inf1_reduction(np.eye(12), 0.25, 100, seed=0, regime=True)
    assert res.empirical_mean == 0.0
    assert res.passed


def test_inf1_delta_zero():
    res = check_inf1_reduction(DOUBLE_ID, 0.0, 100, seed=0, regime=True)
    assert res.empirical_mean == 0.0
    assert res.passed


def test_inf1_double_identity_small_regime():
    res = check_inf1_reduction(DOUBLE_ID, 2 / 16, 500, seed=7, regime=True)
    assert res.theoretical_bound == pytest.approx(2 / 9)
    assert res.passed


def test_inf1_informational_row_records_fitted_constant():
    a = standardize(rng_from(3).standard_normal((10, 16)))
    res = check_inf1_reduction(a, 0.25, 200, seed=5)
    assert res.passed  # informational rows never fail
    assert res.fitted_constant is not None
    assert res.fitted_constant > 0


def test_monotonicity_of_norms_under_sampling():
    rng = rng_from(4)
    a = standardize(rng.standard_normal((6, 10)))
    h = hollow_gram(a)
    inner = np.array([1, 4, 7])
    outer = np.array([1, 2, 4, 7, 9])
    assert norm_inf2_exact(a[:, inner])[0] <= norm_inf2_exact(a[:, outer])[0] + 1e-12
    assert (
        norm_inf1_exact(h[np.ix_(inner, inner)])[0]
        <= norm_inf1_exact(h[np.ix_(outer, outer)])[0] + 1e-12
    )


def test_poissonization_on_inf1():
    # E_P <= 2 E_R with a 3 sigma cushion, checked directly via the oracles
    rng = rng_from(8)
    h = hollow_gram(DOUBLE_ID)
    n = 16
    p_vals, r_vals = [], []
    for _ in range(400):
        idx = sample_projector("P", n, 0.25, rng)
        p_vals.append(norm_inf1_exact(h[np.ix_(idx, idx)])[0])
        idx = sample_projector("R", n, 0.25, rng)
        r_vals.append(norm_inf1_exact(h[np.ix_(idx, idx)])[0])
    p_vals, r_vals = np.array(p_vals), np.array(r_vals)
    se = math.sqrt(
        (p_vals.std(ddof=1) ** 2 + 4 * r_vals.std(ddof=1) ** 2) / 400
    )
    assert p_vals.mean() <= 2 * r_vals.mean() + 3 * se


def test_experiment_determinism():
    a = standardize(rng_from(9).standard_normal((6, 12)))
    first = check_inf2_reduction(a, 0.4, 150, seed=11)
    second = check_inf2_reduction(a, 0.4, 150, seed=11)
    assert first == second


def test_experiment_validation():
    with pytest.raises(DomainError, match="trials"):
        check_inf2_reduction(DOUBLE_ID, 0.5, 10, seed=0)
    wide = standardize(np.hstack([np.eye(12), np.eye(12)]))
    with pytest.raises(DomainError, match="capped"):
        check_inf2_reduction(wide, 0.5, 100, seed=0)
    with pytest.raises(DomainError, match="capped"):
        check_inf1_reduction(wide, 0.5, 100, seed=0)


@pytest.mark.parametrize("delta", [1.5, -0.5, math.nan])
def test_delta_outside_the_unit_interval_refused(delta):
    # check_inf2_reduction once took sqrt(2 delta (1 - delta)) first and
    # crashed with "math domain error".
    with pytest.raises(DomainError, match="delta"):
        check_inf2_reduction(DOUBLE_ID, delta, 100, seed=0)
    with pytest.raises(DomainError, match="delta"):
        check_inf1_reduction(DOUBLE_ID, delta, 100, seed=0)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["inf2", "inf1"]),
    m=st.integers(0, 5),
    n=st.integers(1, 16),
    scale=st.sampled_from([2.0**-600, 1e-3, 1.0, 1e5, 2.0**600]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_norms_equal_the_single_oracles(kind, m, n, scale, seed):
    # Bit for bit, with empty draws, repeated sizes, draws above the split
    # and (for inf2) inputs without rows; each stack of one size is gathered
    # as the experiments gather it, against the oracle on each submatrix.
    rng = np.random.default_rng(seed)
    if kind == "inf2":
        a = scale * rng.standard_normal((m, n))
        take, gather = (lambda idx: a[:, idx]), (lambda idx: a.T[idx].transpose(0, 2, 1))
        oracle = norm_inf2_exact
    else:
        a = scale * hollow_gram(standardize(rng.standard_normal((m + 1, n))))
        take, gather = ((lambda idx: a[np.ix_(idx, idx)]),
                        (lambda idx: a[idx[:, :, None], idx[:, None, :]]))
        oracle = norm_inf1_exact
    keep = rng.random((12, n)) < rng.random((12, 1))
    keep[:2] = [[False], [True]]
    sizes = keep.sum(axis=1)
    for k in np.unique(sizes):
        rows = np.flatnonzero(sizes == k)
        idx = np.nonzero(keep[rows])[1].reshape(rows.size, k)
        expected = [oracle(take(row))[0] for row in idx]
        assert np.asarray(_stack_values(gather(idx), kind)).tolist() == expected


def test_experiments_equal_per_trial_oracles():
    # Bin(16, 0.8) draws reach 14 to 16 columns in about a third of the trials.
    a = standardize(rng_from(10).standard_normal((6, 16)))
    r_res, p_res = check_inf2_reduction(a, 0.8, 100, seed=3)
    h = hollow_gram(a)
    i_res = check_inf1_reduction(a, 0.8, 100, seed=3)
    for res, stream, model, value in (
        (r_res, 0, "R", lambda idx: norm_inf2_exact(a[:, idx])[0]),
        (p_res, 1, "P", lambda idx: norm_inf2_exact(a[:, idx])[0]),
        (i_res, 2, "P", lambda idx: norm_inf1_exact(h[np.ix_(idx, idx)])[0]),
    ):
        values = np.array([value(idx) for idx in
                           map(np.flatnonzero, _draws(model, 16, 0.8, _stream(3, stream), 100))])
        se = float(values.std(ddof=1) / math.sqrt(values.size))
        assert (res.empirical_mean, res.std_error) == (float(values.mean()), se)


def test_results_do_not_depend_on_the_chunk_size(monkeypatch):
    # 150 trials in chunks of 7 read the stream in 22 blocks instead of one.
    a = standardize(rng_from(11).standard_normal((6, 12)))
    whole = (check_inf2_reduction(a, 0.4, 150, seed=5),
             check_inf1_reduction(a, 0.4, 150, seed=5))
    monkeypatch.setattr(montecarlo, "_TRIAL_CHUNK", 7)
    chunked = (check_inf2_reduction(a, 0.4, 150, seed=5),
               check_inf1_reduction(a, 0.4, 150, seed=5))
    assert chunked == whole


def test_p_draws_are_uniform_subsets():
    # n = 5, s = 2: the 10 subsets should each appear 300 times in 3000 draws.
    draws = _draws("P", 5, 0.4, _stream(0, 0), 3000)
    counts = Counter(tuple(np.flatnonzero(keep).tolist()) for keep in draws)
    assert sorted(counts) == sorted(itertools.combinations(range(5), 2))
    expected = len(draws) / 10
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 9 degrees of freedom: P(chi2 > 40) is below 1e-5.
    assert chi2 < 40.0


def test_r_draws_keep_each_coordinate_with_probability_delta():
    n, delta, count = 12, 0.3, 4000
    kept = np.zeros(n)
    for idx in map(np.flatnonzero, _draws("R", n, delta, _stream(0, 1), count)):
        kept[idx] += 1
    se = math.sqrt(delta * (1 - delta) / count)
    assert np.all(np.abs(kept / count - delta) <= 4 * se)


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 10),
    delta=st.sampled_from([0.3, 0.5, 0.8]),
    k=st.sampled_from([-600, -1, 1, 600, 990]),
    seed=st.integers(0, 2**32 - 1),
)
def test_statistics_scale_exactly_with_the_input(m, n, delta, k, seed):
    # At 2^-600 the squares of the trial values once underflowed (std_error 0)
    # and at 2^600 they overflowed (std_error inf, with a RuntimeWarning).
    a = rng_from(seed).standard_normal((m, n))
    unit = check_inf2_reduction(a, delta, 100, seed=seed)
    scaled = check_inf2_reduction(math.ldexp(1.0, k) * a, delta, 100, seed=seed)
    for one, other in zip(unit, scaled):
        for field in ("empirical_mean", "std_error", "theoretical_bound"):
            assert getattr(other, field) == math.ldexp(getattr(one, field), k)
        assert other.passed == one.passed
    verdict, lhs, rhs = poissonization_check(unit[1], unit[0])
    assert poissonization_check(scaled[1], scaled[0]) == (
        verdict, math.ldexp(lhs, k), math.ldexp(rhs, k))
