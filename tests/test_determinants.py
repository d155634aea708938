import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from simplexkite import (
    BorderedUniform,
    ExactMatrix,
    bordered_uniform_det,
    exact_determinant,
    uniform_det,
    uniform_matrix,
)
from simplexkite.prekite import _bordered_uniform

F = Fraction
small = st.fractions(min_value=-6, max_value=6, max_denominator=3)


@st.composite
def bordered_cases(draw):
    """(corner, top, left, m, off, diag): k = 0..2 border rows T (`top`) and
    columns L (`left`, one tuple per column), drawn apart, beside an m x m
    uniform block; corner entries are often 0."""
    k, m = draw(st.integers(0, 2)), draw(st.integers(1, 12))
    corner_entry = st.just(F(0)) | small
    corner = tuple(tuple(draw(corner_entry) for _ in range(k)) for _ in range(k))
    top, left = (tuple(tuple(draw(small) for _ in range(m)) for _ in range(k)) for _ in range(2))
    return corner, top, left, m, draw(small), draw(small)


@settings(max_examples=150, deadline=None)
@given(bordered_cases())
@example(case=(((F(0),),), ((F(1), F(2), F(-1)),), ((F(3), F(0), F(1, 2)),), 3, F(1), F(-2)))  # mu = 0
@example(case=(((F(0), F(1)), (F(1), F(0))), ((F(1),), (F(2),)), ((F(1),), (F(-3),)), 1, F(2), F(5)))  # m = 1, lambda != 0
@example(case=(((F(2), F(0)), (F(0), F(0))), ((F(1), F(1), F(1)), (F(1), F(2), F(3))),
               ((F(1), F(-1), F(1)), (F(0), F(4), F(1, 3))), 3, F(2), F(2)))  # lambda = 0, m > k
def test_bordered_uniform_matches_the_assembled_matrix(case):
    # det [[C, T], [L^T, U]] from the corner, T L^T, T 1 and L 1 alone, wherever lambda != 0 or m > k
    corner, top, left, m, off, diag = case
    assume(diag != off or m > len(corner))
    rows = [list(c) + list(t) for c, t in zip(corner, top)]
    rows += [[col[i] for col in left] + [diag if i == j else off for j in range(m)] for i in range(m)]
    cross = [[sum(map(mul, t, col)) for col in left] for t in top]
    value = _bordered_uniform(corner, cross, [sum(t) for t in top], [sum(col) for col in left], m, off, diag)
    assert value == exact_determinant(ExactMatrix(rows))


def test_uniform_examples():
    assert uniform_det(3, 1, 2) == 4
    for c in (Fraction(2), Fraction(-3, 2), Fraction(5, 7)):
        assert uniform_det(4, c, c) == 0
    assert uniform_det(1, 7, 5) == 5  # 1x1 determinant is the diagonal value


def test_uniform_rejects_order_zero():
    with pytest.raises(ValueError):
        uniform_det(0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), small, small)
def test_uniform_matches_oracle(n, a, b):
    assert uniform_det(n, a, b) == exact_determinant(uniform_matrix(n, a, b))


def test_bordered_base_case():
    spec = BorderedUniform(1, 3, (5,), (7,), 11, 13)
    assert bordered_uniform_det(spec) == 3 * 13 - 5 * 7


def test_bordered_hand_value():
    spec = BorderedUniform(2, 5, (1, 2), (3, 4), 7, 9)
    assert bordered_uniform_det(spec) == 131
    assert exact_determinant(spec.matrix()) == 131


def test_zero_border_reduces_to_uniform():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        z = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        a = Fraction(rng.randint(-4, 4))
        b = Fraction(rng.randint(-4, 4))
        spec = BorderedUniform(n, z, (0,) * n, (0,) * n, a, b)
        assert bordered_uniform_det(spec) == z * uniform_det(n, a, b)


def _random_spec(rng, n=None):
    n = n or rng.randint(1, 6)
    mk = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 2))
    return BorderedUniform(
        n, mk(), [mk() for _ in range(n)], [mk() for _ in range(n)], mk(), mk()
    )


def test_random_specs_match_assembled_oracle():
    rng = random.Random(17)
    for _ in range(120):
        spec = _random_spec(rng)
        assert bordered_uniform_det(spec) == exact_determinant(spec.matrix())


def test_transpose_symmetry():
    rng = random.Random(19)
    for _ in range(40):
        spec = _random_spec(rng)
        swapped = BorderedUniform(spec.n, spec.corner, spec.top, spec.left, spec.off, spec.diag)
        assert bordered_uniform_det(spec) == bordered_uniform_det(swapped)


def test_shared_border_permutation_invariance():
    rng = random.Random(23)
    for _ in range(40):
        spec = _random_spec(rng)
        perm = list(range(spec.n))
        rng.shuffle(perm)
        shuffled = BorderedUniform(
            spec.n,
            spec.corner,
            [spec.left[p] for p in perm],
            [spec.top[p] for p in perm],
            spec.off,
            spec.diag,
        )
        assert bordered_uniform_det(spec) == bordered_uniform_det(shuffled)


@pytest.mark.parametrize(
    "corner_one,zero_corner,signs",
    [
        (True, False, False),   # symmetric border with unit corner
        (False, True, True),    # zero corner, off/diag pinned to 1/-1
        (False, True, False),   # zero corner, symmetric border
    ],
)
def test_historical_specializations_against_oracle(corner_one, zero_corner, signs):
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 5)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(n)]
        corner = Fraction(1) if corner_one else Fraction(0)
        if signs:
            a, b = Fraction(1), Fraction(-1)
        else:
            a = Fraction(rng.randint(-4, 4))
            b = Fraction(rng.randint(-4, 4))
        spec = BorderedUniform(n, corner, x, x, a, b)
        assert bordered_uniform_det(spec) == exact_determinant(spec.matrix())


def test_border_length_validation():
    with pytest.raises(ValueError):
        BorderedUniform(3, 0, (1, 2), (1, 2, 3), 1, 2)
