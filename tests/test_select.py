import json
import math
import sys
import threading
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import colsel.select
from colsel import (
    DomainError,
    PIETSCH_CONSTANT,
    SolverError,
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
from colsel import cli

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


def _one_cluster(rng, m, n):
    """``n`` columns spread by 0.03 around one random unit direction."""
    center = np.linalg.qr(rng.standard_normal((m, 1)))[0]
    return center + 0.03 * rng.standard_normal((m, n))


def test_kt_on_one_coherent_cluster_accepts_only_small_norms():
    # The full set has norm 22 and every sample of 256 columns about 15.6,
    # above the threshold, so the accepted set is the 128-column round.
    a = standardize(_one_cluster(rng_from(0), 64, 512))
    report = kt_select(a, seed=0)
    assert spectral_norm(a[:, report.tau]) <= 15.0
    assert report.tau.size == 128


def test_norm_reduce_prunes_the_heavy_columns_of_a_coherent_cluster():
    # Half the columns sit around one direction and half are Gaussian: the
    # factorization gives some cluster columns weights above 2/s, and the
    # pruning drops those, never a Gaussian column.
    rng = rng_from(0)
    a = standardize(np.hstack([_one_cluster(rng, 64, 128), rng.standard_normal((64, 128))]))
    tau = norm_reduce(a, 256, rng_from(0))
    dropped = np.setdiff1d(np.arange(256), tau)
    assert dropped.size > 0
    assert np.all(dropped < 128)


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


@pytest.mark.parametrize("select", [kt_select, bt_select])
@pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
def test_threshold_must_be_positive(select, threshold):
    # A NaN threshold was once accepted, and the selection returned column 0.
    with pytest.raises(DomainError, match="threshold"):
        select(DOUBLE_ID_8, seed=0, threshold=threshold)


def test_the_kappa_slack_keeps_the_largest_threshold_finite():
    # threshold * (1 + slack) once overflowed to inf at the largest float,
    # and bt accepted all 16 columns, duplicates included (kappa = inf).
    report = bt_select(DOUBLE_ID_8, seed=0, threshold=sys.float_info.max)
    assert report.accepted_metric <= sys.float_info.max


def test_a_size_that_samples_every_column_runs_once():
    # Every attempt at s = n factors the same matrix and measures the same
    # candidate; this input once logged 13 identical attempts.
    a = standardize(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    report = bt_select(a, seed=0)
    assert report.attempts == 1
    assert report.tau.tolist() == [0]
    assert report.per_round_log == [(3, 1, 3, math.inf)]


@pytest.fixture(params=[("kt", "pietsch_factorize"), ("bt", "groth_factorize")], ids=["kt", "bt"])
def first_solve_fails(request, monkeypatch):
    """The selection command whose first factorization raises ``SolverError``."""
    command, name = request.param
    real = getattr(colsel.select, name)
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise SolverError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(colsel.select, name, fails_once)
    return command


def test_a_failed_attempt_is_logged_and_the_next_one_runs(first_solve_fails):
    select = kt_select if first_solve_fails == "kt" else bt_select
    report = select(DOUBLE_ID_8, seed=0)
    assert report.per_round_log[0] == (4, 1, 0, None)
    assert report.per_round_log[1][:2] == (4, 2)
    assert report.attempts == len(report.per_round_log)


def test_a_failed_attempt_reports_a_null_metric(first_solve_fails, tmp_path, capsys):
    path = tmp_path / "d8.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in DOUBLE_ID_8))
    assert cli.main([first_solve_fails, str(path)]) == 0
    out = capsys.readouterr().out
    assert '"per_round_log": [[4, 1, 0, null], [4, 2, ' in out
    result = json.loads(out)["result"]
    assert result["attempts"] == len(result["per_round_log"])


def _planted(m, planted, eps):
    """Standardized ``m x 1024`` Gaussian (``default_rng(7)``) whose first
    ``planted`` columns are one random column plus ``eps`` times noise."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((m, 1024))
    c = rng.standard_normal(m)
    a[:, :planted] = c[:, None] + eps * rng.standard_normal((m, planted))
    return standardize(a)


def test_concurrent_selections_equal_their_serial_runs():
    # Both selections share the Gram memo of colsel.linalg (one scope for the
    # process); each result must keep every bit of its run alone.
    inputs = [_planted(64, 512, 0.3), _planted(32, 1024, 0.5)]
    serial = [kt_select(a, seed=0) for a in inputs]
    results = [None, None]

    def run(i):
        results[i] = kt_select(inputs[i], seed=0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, serial):
        assert got is not None
        assert got.tau.tobytes() == want.tau.tobytes()
        assert np.float64(got.accepted_metric).tobytes() == np.float64(want.accepted_metric).tobytes()
        assert repr(got.per_round_log) == repr(want.per_round_log)


def test_kt_select_prunes_a_planted_cluster_in_the_round_that_decides_it():
    # Half the columns hug one direction, so ||A|| = 21.83 > 15.  Every round
    # up to s = 128 keeps its sample whole; at s = 256 the factorization
    # prunes the heavy planted columns, and that candidate is accepted.  A
    # pass that kept its whole sample would return 512 columns instead.
    a = _planted(64, 512, 0.3)
    assert spectral_norm(a) == pytest.approx(21.83, abs=5e-3)
    report = kt_select(a, seed=0)
    assert [(s, size) for s, _, size, _ in report.per_round_log] == [
        (4, 4), (8, 8), (16, 16), (32, 32), (64, 64), (128, 128), (256, 227)]
    assert report.tau.size == 227
    assert report.accepted_metric == pytest.approx(9.5807, abs=5e-5)


def test_kt_select_keeps_the_last_accepted_set_when_a_round_rejects_every_candidate():
    # Every column planted, 32 rows: at s = 512 all ceil(8 log2 512) = 72
    # candidates are refused, so the s = 256 set stands.  A search that
    # accepted every candidate would return an s = 512 one.
    a = _planted(32, 1024, 0.5)
    report = kt_select(a, seed=0)
    last_round = [value for s, _, _, value in report.per_round_log if s == 512]
    assert len(last_round) == 72
    assert all(value > colsel.select.KT_NORM_THRESHOLD for value in last_round)
    assert report.tau.size == 256
    assert report.accepted_metric == pytest.approx(14.124, abs=5e-4)
