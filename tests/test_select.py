import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from colsel import (
    DomainError,
    PIETSCH_CONSTANT,
    bt_select,
    condition_number,
    cond_reduce,
    hollow_gram,
    kt_select,
    norm_reduce,
    pietsch_factorize,
    principal_submatrix,
    random_subset,
    spectral_norm,
    stable_rank,
    standardize,
)

DOUBLE_ID_8 = standardize(np.hstack([np.eye(8), np.eye(8)]))


def rng_from(seed):
    return np.random.default_rng(seed)


def test_random_subset_full_set():
    assert np.array_equal(random_subset(5, 5, rng_from(0)), np.arange(5))


def test_random_subset_deterministic():
    a = random_subset(4, 1, rng_from(123))
    b = random_subset(4, 1, rng_from(123))
    assert np.array_equal(a, b)


def test_random_subset_validation():
    with pytest.raises(DomainError):
        random_subset(4, 5, rng_from(0))
    with pytest.raises(DomainError):
        random_subset(4, 0, rng_from(0))


def test_random_subset_uniform_over_subsets():
    # 60000 draws of 3-subsets of {0..5}: each of the 20 subsets within 5 sigma
    draws = 60_000
    rng = rng_from(99)
    counts = Counter()
    for _ in range(draws):
        counts[tuple(random_subset(6, 3, rng))] += 1
    assert len(counts) == 20
    p = 1 / 20
    sigma = math.sqrt(draws * p * (1 - p))
    for subset in combinations(range(6), 3):
        assert abs(counts[subset] - draws * p) <= 5 * sigma


def test_norm_reduce_identity_keeps_whole_sample():
    tau = norm_reduce(np.eye(8), 4, rng_from(1))
    assert tau is not None
    assert tau.size == 4


def test_norm_reduce_cardinality_and_norm_chain():
    # candidates keep at least half the sample, and the pruned norm obeys
    # the sqrt(2/s) * alpha_effective chain from the factorization
    rng = rng_from(2)
    a = DOUBLE_ID_8
    s = 8
    for _ in range(10):
        sigma = random_subset(a.shape[1], s, rng)
        fact = pietsch_factorize(a[:, sigma], 8 * PIETSCH_CONSTANT * math.sqrt(s), 5000)
        keep = fact.d**2 <= 2.0 / s
        tau = sigma[keep]
        assert tau.size >= math.ceil(s / 2)
        chained = math.sqrt(2.0 / s) * fact.alpha_effective
        assert spectral_norm(a[:, tau]) <= chained + 1e-9


def test_norm_reduce_duplicate_columns_bound():
    # one column duplicated s times: accepted candidates stay below the
    # 8 sqrt(2) K_P level promised by the pruning chain
    col = standardize(rng_from(3).standard_normal((6, 1)))
    a = np.hstack([col] * 4 + [standardize(rng_from(4).standard_normal((6, 4)))])
    bound = 8 * math.sqrt(2) * PIETSCH_CONSTANT
    for seed in range(20):
        tau = norm_reduce(a, 4, rng_from(seed))
        if tau is None:
            continue
        assert spectral_norm(a[:, tau]) <= bound + 1e-6


def test_kt_identity():
    report = kt_select(np.eye(2), seed=0)
    assert np.array_equal(report.tau, [0, 1])
    assert report.accepted_metric == pytest.approx(1.0)


def test_kt_double_identity_many_seeds():
    a = standardize(np.hstack([np.eye(2), np.eye(2)]))
    for seed in range(100):
        report = kt_select(a, seed=seed)
        assert report.accepted_metric <= 15.0
        assert spectral_norm(a[:, report.tau]) <= 15.0
        assert report.tau.size >= 1


def test_kt_accepts_norm_soundly():
    rng = rng_from(5)
    a = standardize(rng.standard_normal((16, 32)))
    for seed in range(5):
        report = kt_select(a, seed=seed)
        assert spectral_norm(a[:, report.tau]) <= 15.0
        assert report.tau.size >= stable_rank(a) / 2


def test_kt_determinism():
    a = standardize(rng_from(6).standard_normal((8, 16)))
    r1 = kt_select(a, seed=77)
    r2 = kt_select(a, seed=77)
    assert np.array_equal(r1.tau, r2.tau)
    assert r1.accepted_metric == r2.accepted_metric
    assert r1.per_round_log == r2.per_round_log
    assert r1.attempts == r2.attempts


def test_kt_rejects_nonstandardized():
    with pytest.raises(DomainError, match="unit-norm"):
        kt_select(np.diag([2.0, 1.0]))


def test_cond_reduce_identity():
    tau = cond_reduce(np.eye(8), 4, rng_from(7))
    assert tau is not None
    assert tau.size == 4
    assert condition_number(np.eye(8)[:, tau]) == pytest.approx(1.0)


def test_cond_reduce_cardinality():
    rng = rng_from(8)
    a = standardize(rng.standard_normal((12, 20)))
    for s in (4, 8):
        for _ in range(5):
            tau = cond_reduce(a, s, rng)
            if tau is not None:
                assert tau.size >= math.ceil(s / 2)


def test_bt_identity():
    report = bt_select(np.eye(4), seed=0)
    assert np.array_equal(report.tau, np.arange(4))
    assert report.accepted_metric == pytest.approx(1.0)


def test_bt_double_identity_no_duplicates():
    for seed in range(25):
        report = bt_select(DOUBLE_ID_8, seed=seed)
        tau = report.tau
        assert report.accepted_metric <= math.sqrt(3) * (1 + 1e-10)
        assert condition_number(DOUBLE_ID_8[:, tau]) <= math.sqrt(3) * (1 + 1e-10)
        partners = tau % 8
        assert len(set(partners.tolist())) == tau.size


def test_bt_accepted_sets_satisfy_gram_eigenvalue_chain():
    # whenever the hollow Gram restriction is small, the Gram eigenvalues
    # sit inside [0.5, 1.5], which is what forces kappa <= sqrt(3)
    rng = rng_from(9)
    a = standardize(rng.standard_normal((16, 24)))
    h = hollow_gram(a)
    for seed in range(5):
        report = bt_select(a, seed=seed)
        tau = report.tau
        if tau.size < 2:
            continue
        if spectral_norm(principal_submatrix(h, tau)) <= 0.5:
            eigs = np.linalg.eigvalsh(a[:, tau].T @ a[:, tau])
            assert eigs[0] >= 0.5 - 1e-9
            assert eigs[-1] <= 1.5 + 1e-9


def test_bt_determinism():
    r1 = bt_select(DOUBLE_ID_8, seed=13)
    r2 = bt_select(DOUBLE_ID_8, seed=13)
    assert np.array_equal(r1.tau, r2.tau)
    assert r1.per_round_log == r2.per_round_log


def test_tiny_matrix_single_round():
    a = standardize(rng_from(11).standard_normal((4, 3)))
    report = kt_select(a, seed=0)
    assert report.tau.size >= 1
    assert report.accepted_metric <= 15.0


def test_report_log_shape():
    report = kt_select(DOUBLE_ID_8, seed=3)
    for entry in report.per_round_log:
        s, k, size, metric = entry
        assert s >= 1 and k >= 1
        assert 0 <= size <= s
        if size:
            assert metric is not None
