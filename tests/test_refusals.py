"""Every integer setting, tolerance, standardization, shape, finiteness and
ascent-start rule has one owner in the library, and the CLI repeats none of
them.

Each row of ``REFUSALS`` is a library call that must raise
:class:`DomainError` and, where a flag or a file carries the value, the
same input through the CLI, which must exit 3 with the library's message
and no traceback.  Float seeds, budgets and trials have no CLI row: argparse
refuses them as usage errors (exit 2) before the library sees them.
"""

import math

import numpy as np
import pytest

from colsel import (
    DomainError,
    bt_select,
    check_inf1_reduction,
    check_inf2_reduction,
    cli,
    condition_number,
    dumps_report,
    groth_factorize,
    groth_optimal_alpha,
    hollow_gram,
    kt_select,
    load_matrix,
    max_eig_pair,
    pietsch_factorize,
    pietsch_optimal_alpha,
    sample_projector,
    spectral_norm,
    standardize,
)
from colsel.grothendieck import improve_sign_witness_inf1
from colsel.pietsch import improve_sign_witness_inf2

EYE = np.eye(4)  # standardized and symmetric: every program accepts it
ZERO = np.zeros((3, 3))
NONSTD = np.diag([1.0, 3.0, 1.0])  # column 1 is furthest from unit norm
DOUBLE_ID = standardize(np.hstack([np.eye(8), np.eye(8)]))

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])

FILES = {"eye": EYE, "zero": ZERO, "nonstd": NONSTD, "dblid": DOUBLE_ID,
         "nan": np.array([[1.0, 2.0], [math.nan, 3.0]]),
         "inf": np.array([[1.0, math.inf], [2.0, 3.0]])}


def row(name, call, argv=None, match=None):
    return pytest.param(call, argv, match, id=name)


def _selection_rows():
    for select, command in ((kt_select, "kt"), (bt_select, "bt")):
        for seed in (-3, 2**64):
            yield row(f"{command}-seed-{seed}",
                      lambda select=select, seed=seed: select(EYE, seed=seed),
                      [command, "--seed", str(seed), "eye"], "seed")
        yield row(f"{command}-seed-2.9", lambda select=select: select(EYE, seed=2.9),
                  match="seed must be an integer")
        yield row(f"{command}-no-columns", lambda select=select: select(np.zeros((3, 0))),
                  match="A must have at least one column")


def _experiment_rows():
    for check, kind in ((check_inf2_reduction, "inf2"), (check_inf1_reduction, "inf1")):
        argv = ["experiment", "--kind", kind, "--delta", "0.5", "--trials", "100"]
        yield row(f"{kind}-seed--1", lambda check=check: check(DOUBLE_ID, 0.5, 100, seed=-1),
                  argv + ["--seed", "-1", "dblid"], "seed")
        yield row(f"{kind}-seed-1.5", lambda check=check: check(DOUBLE_ID, 0.5, 100, seed=1.5),
                  match="seed must be an integer")
        yield row(f"{kind}-trials-150.5",
                  lambda check=check: check(DOUBLE_ID, 0.5, 150.5, seed=0),
                  match="trials must be an integer")
        # np.empty(trials) once died allocating 72.8 TiB, with a traceback.
        yield row(f"{kind}-trials-10**13",
                  lambda check=check: check(DOUBLE_ID, 0.5, 10**13, seed=0),
                  argv[:-1] + [str(10**13), "dblid"], "trials must be at most 10000000")
    # sample_projector once let numpy's ValueError (negative n) and
    # TypeError (float n) escape.
    for model, n, match in (("P", -3, "n must be at least 0"), ("R", 2.5, "n must be an integer")):
        yield row(f"sample-projector-{model}-n-{n}",
                  lambda model=model, n=n: sample_projector(model, n, 0.5,
                                                            np.random.default_rng(0)),
                  match=match)


def _budget_rows():
    for optimal_alpha, kind in ((pietsch_optimal_alpha, "inf2"), (groth_optimal_alpha, "inf1")):
        # The zero matrix takes the bracket's shortcut and runs no solve.
        yield row(f"norm-{kind}-budget-0-zero",
                  lambda optimal_alpha=optimal_alpha: optimal_alpha(ZERO, emd_budget=0),
                  ["norm", "--kind", kind, "--iters", "0", "zero"], "budget")
        yield row(f"norm-{kind}-rel-tol-0",
                  lambda optimal_alpha=optimal_alpha: optimal_alpha(EYE, rel_tol=0.0),
                  ["norm", "--kind", kind, "--rel-tol", "0", "eye"], "rel_tol")
        for budget in (2.5, math.nan):
            yield row(f"norm-{kind}-budget-{budget}",
                      lambda optimal_alpha=optimal_alpha, budget=budget:
                      optimal_alpha(EYE, emd_budget=budget),
                      match="budget must be an integer")
    for factorize in (pietsch_factorize, groth_factorize):
        for budget in (2.5, math.nan):
            yield row(f"{factorize.__name__}-budget-{budget}",
                      lambda factorize=factorize, budget=budget: factorize(EYE, 1.0, budget),
                      match="budget must be an integer")


def _standardization_rows():
    yield row("hollow-gram-nonstandardized", lambda: hollow_gram(NONSTD),
              match="column 1 has norm 3; A must have unit-norm columns")
    yield row("kt-nonstandardized", lambda: kt_select(NONSTD), ["kt", "nonstd"],
              "column 1 has norm 3; A must have unit-norm columns")


def _ascent_rows():
    for improve in (improve_sign_witness_inf1, improve_sign_witness_inf2):
        name = improve.__name__
        for bad in (math.nan, math.inf):
            yield row(f"{name}-start-{bad}", lambda improve=improve, bad=bad:
                      improve(SWAP, [bad, 1.0]), match="x must have finite entries")
        for start in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]):
            yield row(f"{name}-start-{np.shape(start)}", lambda improve=improve, start=start:
                      improve(SWAP, start), match="x must have 2 entries")
        yield row(f"{name}-no-columns", lambda improve=improve: improve(np.zeros((3, 0)), []),
                  match="must have at least one column")


def _io_rows():
    # --format has argparse choices, so only the library sees an unknown format.
    yield row("load-matrix-format-tsv", lambda: load_matrix("m.tsv", fmt="tsv"),
              match="unknown matrix format 'tsv'")
    yield row("dumps-report-object", lambda: dumps_report(object()),
              match="cannot serialize object into a report")
    for name in ("nan", "inf"):
        yield row(f"load-matrix-{name}", lambda name=name: load_matrix(name),
                  ["oracle", "--kind", "inf2", name], "matrix contains non-finite entries")


def _linalg_rows():
    yield row("spectral-norm-1d", lambda: spectral_norm(np.ones(3)),
              match="matrix must be 2-dimensional")
    yield row("max-eig-pair-not-square", lambda: max_eig_pair(np.ones((2, 3))),
              match="matrix must be square")
    yield row("max-eig-pair-empty", lambda: max_eig_pair(np.zeros((0, 0))),
              match="matrix must have at least one row")
    yield row("condition-number-no-columns", lambda: condition_number(np.zeros((3, 0))),
              match="condition number needs at least one column")


REFUSALS = [*_selection_rows(), *_experiment_rows(), *_budget_rows(), *_standardization_rows(),
            *_ascent_rows(), *_io_rows(), *_linalg_rows()]


@pytest.fixture
def csv_dir(tmp_path):
    for name, a in FILES.items():
        (tmp_path / name).write_text(
            "\n".join(",".join(repr(float(v)) for v in r) for r in a) + "\n")
    return tmp_path


@pytest.mark.parametrize("call, argv, match", REFUSALS)
def test_refusal(capsys, monkeypatch, csv_dir, call, argv, match):
    # Files are named relative to csv_dir, so a message naming one is the same
    # from the library and the CLI.
    monkeypatch.chdir(csv_dir)
    with pytest.raises(DomainError, match=match) as refused:
        call()
    if argv is None:
        return
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: {refused.value}\n"


def test_numpy_integer_settings_give_the_same_reports():
    # Control: operator.index accepts NumPy integers, and they act as ints.
    for select in (kt_select, bt_select):
        plain, numpy = select(DOUBLE_ID, seed=5), select(DOUBLE_ID, seed=np.int64(5))
        assert type(numpy.seed) is int
        assert np.array_equal(plain.tau, numpy.tau)
        assert (plain.attempts, plain.per_round_log) == (numpy.attempts, numpy.per_round_log)
    assert (check_inf2_reduction(DOUBLE_ID, 0.5, 100, seed=3)
            == check_inf2_reduction(DOUBLE_ID, 0.5, np.int64(100), seed=np.uint64(3)))
    assert (check_inf1_reduction(DOUBLE_ID, 0.25, 100, seed=3)
            == check_inf1_reduction(DOUBLE_ID, 0.25, np.int32(100), seed=np.int64(3)))
    plain = pietsch_optimal_alpha(DOUBLE_ID, emd_budget=50)
    numpy = pietsch_optimal_alpha(DOUBLE_ID, emd_budget=np.int64(50))
    assert (plain.alpha_lo, plain.alpha_hi, plain.probes) == (numpy.alpha_lo, numpy.alpha_hi,
                                                                numpy.probes)


def test_experiment_seed_is_refused_before_the_full_matrix_oracle(monkeypatch):
    from colsel import montecarlo

    def oracle(*args):
        raise AssertionError("the oracle ran before the seed was checked")

    monkeypatch.setattr(montecarlo, "norm_inf2_exact", oracle)
    monkeypatch.setattr(montecarlo, "norm_inf1_exact", oracle)
    for check in (check_inf2_reduction, check_inf1_reduction):
        with pytest.raises(DomainError, match="seed"):
            check(DOUBLE_ID, 0.5, 100, seed=-1)
        with pytest.raises(DomainError, match="trials"):
            check(DOUBLE_ID, 0.5, 150.5, seed=0)
        with pytest.raises(DomainError, match="trials"):
            check(DOUBLE_ID, 0.5, 10**13, seed=0)


def test_ascent_starts_read_zeros_as_plus_one():
    # Control: a zero entry starts at +1, as it did before starts were checked.
    for improve in (improve_sign_witness_inf1, improve_sign_witness_inf2):
        value, x = improve(SWAP, [0.0, -0.0])
        assert x.tolist() == [1.0, 1.0]
        assert value == improve(SWAP, [1.0, 1.0])[0]
