"""The factorization core reuses a program's last solve, and only that.

Eigensolves are counted by wrapping ``numpy.linalg.eigh``, which the eigen
kernel looks up at each call.
"""

import numpy as np
import pytest

from colsel import SolverError, groth_optimal_alpha, hollow_gram, standardize
from colsel.grothendieck import GrothObjective
from colsel.pietsch import PietschObjective


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


def test_bracket_certifies_its_probe_without_a_second_solve(eigh_calls):
    # One feasible probe: the two start branches, one evaluation (two
    # branches), the certificate (reused), t_norm and the post-probe pair
    # (two branches).  Without reuse the certificate solves both branches again.
    a = np.random.default_rng(0).standard_normal((64, 128))
    bracket = groth_optimal_alpha(hollow_gram(standardize(a)))
    assert bracket.probes == 1
    assert bracket.best.eta <= 0.0
    assert len(eigh_calls) == 7


@pytest.mark.parametrize("program, f, branches", _programs())
def test_certificate_at_the_evaluated_point_makes_no_solve(eigh_calls, program, f, branches):
    value = program(f).value
    assert len(eigh_calls) == branches
    bound = program.certified(f)
    assert len(eigh_calls) == branches
    fresh = program.pairs(f)
    assert bound == max(p.value + p.residual for p in fresh) >= value


@pytest.mark.parametrize("program, f, branches", _programs())
def test_another_point_solves_afresh(eigh_calls, program, f, branches):
    program(f)
    program.certified(np.nextafter(f, 1.0))
    assert len(eigh_calls) == 2 * branches
    program.certified(f)
    assert len(eigh_calls) == 3 * branches


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
