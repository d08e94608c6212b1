import math
import tracemalloc

import numpy as np
import pytest

from colsel import (
    ENUMERATION_CAP,
    DomainError,
    norm_inf1_exact,
    norm_inf2_exact,
    spectral_norm,
)

from oracles import lowest_code_maximizer, naive_norm_inf1, naive_norm_inf2


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


# The split enumeration (colsel.exact) scores more than 13 columns from a
# 13-column low table and blocks of high columns.
@pytest.mark.parametrize("s", range(1, 18))
def test_split_matches_naive_enumeration(s):
    rng = np.random.default_rng(100 + s)
    b = rng.standard_normal((4, s))
    assert norm_inf2_exact(b)[0] == pytest.approx(naive_norm_inf2(b), rel=1e-12)
    g = rng.standard_normal((3, s))
    assert norm_inf1_exact(g)[0] == pytest.approx(naive_norm_inf1(g), rel=1e-12)


def _tied_inputs():
    rng = np.random.default_rng(6)
    dup = rng.integers(-2, 3, size=(5, 15)).astype(float)
    dup[:, [3, 9, 14]] = dup[:, [0, 2, 13]]
    inputs = {
        "I8I8": np.hstack([np.eye(8), np.eye(8)]),
        "I9I9": np.hstack([np.eye(9), np.eye(9)]),
        "duplicated": dup,
        "ones": np.ones((2, 14)),
    }
    for s in (12, 13, 14, 15, 17):
        inputs[f"int{s}"] = rng.integers(-1, 2, size=(3, s)).astype(float)
    return inputs


@pytest.mark.parametrize("name", sorted(_tied_inputs()))
def test_witness_is_the_lowest_code_maximizer(name):
    mat = _tied_inputs()[name]
    for oracle, kind in ((norm_inf2_exact, "inf2"), (norm_inf1_exact, "inf1")):
        value, x = oracle(mat)
        assert np.array_equal(x, lowest_code_maximizer(mat, kind)), kind
        image = mat @ x
        attained = math.sqrt(image @ image) if kind == "inf2" else np.abs(image).sum()
        assert value == attained  # small integers: every image is exact


def test_zero_matrix_above_the_split():
    for oracle in (norm_inf2_exact, norm_inf1_exact):
        value, x = oracle(np.zeros((3, 15)))
        assert value == 0.0
        assert np.array_equal(x, np.ones(15))


@pytest.mark.parametrize("c", [2.0**-600, 2.0**600])
def test_inf1_scales_with_the_input(c):
    g = np.random.default_rng(7).standard_normal((6, 16))
    unit, unit_x = norm_inf1_exact(g)
    value, x = norm_inf1_exact(c * g)
    assert value == c * unit
    assert np.array_equal(x, unit_x)


def test_norms_beyond_the_float_range_are_refused():
    # Split sums of entries near the float maximum once mixed +inf and -inf;
    # then the norms saturated to inf, which a report prints as null.
    big = np.full((2, 20), 1e308)
    big[:, ::3] *= -1.0
    for mat in (big, big[:, :8]):  # above and below the split
        for oracle in (norm_inf1_exact, norm_inf2_exact):
            with pytest.raises(DomainError, match="beyond the float range"):
                oracle(mat)


def test_cap_is_twenty_columns():
    # One cap for every caller; 21 and 22 columns were once enumerated.
    assert ENUMERATION_CAP == 20
    for oracle in (norm_inf2_exact, norm_inf1_exact):
        for s in (21, 22):
            with pytest.raises(DomainError, match="capped at 20"):
                oracle(np.ones((2, s)))
        assert oracle(np.ones((1, 20)))[0] == 20.0


@pytest.mark.parametrize("m", [17, 40])
def test_tall_tied_input_above_the_split(m):
    # Tall inf2 inputs are split on their triangular factor; the near-ties
    # are still judged on the input itself.
    rng = np.random.default_rng(m)
    tall = rng.integers(-1, 2, size=(m, 16)).astype(float)
    tall[:, [5, 12, 15]] = tall[:, [0, 1, 14]]
    value, x = norm_inf2_exact(tall)
    assert np.array_equal(x, lowest_code_maximizer(tall, "inf2"))
    image = tall @ x
    assert value == naive_norm_inf2(tall) == math.sqrt(image @ image)  # all exact


def test_tall_input_memory_does_not_grow_with_rows():
    # The split tables once held m x 4096 entries: about 130 MB here.
    tall = np.random.default_rng(8).standard_normal((2000, 20))
    tracemalloc.start()
    try:
        value, x = norm_inf2_exact(tall)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert value == pytest.approx(np.linalg.norm(tall @ x), rel=1e-14)
