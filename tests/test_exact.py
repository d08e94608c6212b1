import math

import numpy as np
import pytest

from colsel import (
    DomainError,
    norm_inf1_exact,
    norm_inf2_exact,
    spectral_norm,
)

from oracles import naive_norm_inf1, naive_norm_inf2


def test_inf2_examples():
    value, x = norm_inf2_exact(np.eye(2))
    assert value == pytest.approx(math.sqrt(2))
    value, x = norm_inf2_exact(np.array([[1.0, 1.0]]))
    assert value == pytest.approx(2.0)
    assert np.allclose(x, [1.0, 1.0])


def test_inf1_examples():
    value, x = norm_inf1_exact(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert value == pytest.approx(2.0)
    value, _ = norm_inf1_exact(np.eye(3))
    assert value == pytest.approx(3.0)


def test_witness_attains_value():
    rng = np.random.default_rng(0)
    for _ in range(10):
        b = rng.standard_normal((5, 7))
        value, x = norm_inf2_exact(b)
        assert set(np.unique(x)) <= {-1.0, 1.0}
        assert np.linalg.norm(b @ x) == pytest.approx(value)
        g = rng.standard_normal((6, 6))
        value, x = norm_inf1_exact(g)
        assert np.abs(g @ x).sum() == pytest.approx(value)


def test_matches_naive_enumeration():
    rng = np.random.default_rng(1)
    for cols in (1, 2, 3, 4):
        b = rng.standard_normal((3, cols))
        assert norm_inf2_exact(b)[0] == pytest.approx(naive_norm_inf2(b))
        g = rng.standard_normal((cols, cols))
        assert norm_inf1_exact(g)[0] == pytest.approx(naive_norm_inf1(g))


def test_psd_identity_links_the_two_norms():
    rng = np.random.default_rng(2)
    for _ in range(10):
        b = rng.standard_normal((4, 6))
        inf2, _ = norm_inf2_exact(b)
        inf1, _ = norm_inf1_exact(b.T @ b)
        assert inf1 == pytest.approx(inf2**2, abs=1e-8)


def test_spectral_norm_comparisons():
    rng = np.random.default_rng(3)
    for _ in range(10):
        b = rng.standard_normal((5, rng.integers(1, 9)))
        s = b.shape[1]
        inf2, _ = norm_inf2_exact(b)
        assert inf2 <= math.sqrt(s) * spectral_norm(b) + 1e-9

        g = rng.standard_normal((s, s))
        g = (g + g.T) / 2
        inf1, _ = norm_inf1_exact(g)
        spec = spectral_norm(g)
        assert spec - 1e-9 <= inf1 <= s * spec + 1e-9


def test_column_cap_refused():
    wide = np.ones((1, 23))
    with pytest.raises(DomainError, match="capped"):
        norm_inf2_exact(wide)
    with pytest.raises(DomainError, match="capped"):
        norm_inf1_exact(np.ones((23, 23)))


def test_empty_matrix():
    assert norm_inf2_exact(np.zeros((4, 0)))[0] == 0.0
    assert norm_inf1_exact(np.zeros((0, 0)))[0] == 0.0


def test_monotonicity_under_column_removal():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((4, 6))
    full, _ = norm_inf2_exact(b)
    for keep in ([0, 1, 2], [1, 3, 5], [0, 5]):
        sub, _ = norm_inf2_exact(b[:, keep])
        assert sub <= full + 1e-12


@pytest.mark.parametrize("c", [2.0**-600, 1e-200, 1e200, 2.0**600])
def test_inf2_scales_with_the_input(c):
    # Summing squared entries once returned 0.0 at 1e-200 and inf at 1e160.
    b = np.random.default_rng(5).standard_normal((5, 9))
    unit, unit_x = norm_inf2_exact(b)
    value, x = norm_inf2_exact(c * b)
    if math.frexp(c)[0] == 0.5:  # a power of two scales exactly
        assert value == c * unit
        assert np.array_equal(x, unit_x)
    else:
        assert value == pytest.approx(c * unit, rel=1e-12, abs=0.0)
