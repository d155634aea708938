import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexkite import (
    ExactMatrix,
    SingularMatrixError,
    determinant_by_cofactors,
    exact_determinant,
    gram_ldl,
    gram_matrix,
    inertia,
    parse_scalar,
    scalar_str,
    solve_linear,
    uniform_det,
)
from conftest import random_point_sdm


def test_one_by_one():
    assert exact_determinant(ExactMatrix([[5]])) == 5


def test_rank_one_all_ones():
    assert exact_determinant(ExactMatrix([[1] * 3] * 3)) == 0


def test_hand_cofactor_value():
    m = ExactMatrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert exact_determinant(m) == 4
    assert determinant_by_cofactors(m) == 4
    # same matrix is the uniform off=1/diag=2 case
    assert uniform_det(3, 1, 2) == 4


def test_empty_matrix_convention():
    assert exact_determinant(ExactMatrix([])) == 1
    assert determinant_by_cofactors(ExactMatrix([])) == 1


def test_non_square_rejected():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3, 4], [5, 6]])


def test_exactness_of_fractions():
    m = ExactMatrix([[Fraction(1, 3), Fraction(1, 7)], [Fraction(2, 5), Fraction(3, 11)]])
    assert exact_determinant(m) == Fraction(1, 3) * Fraction(3, 11) - Fraction(1, 7) * Fraction(2, 5)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_two_determinant_methods_agree(rows):
    m = ExactMatrix(rows)
    assert exact_determinant(m) == determinant_by_cofactors(m)


class TestInertia:
    def test_identity(self):
        assert inertia(ExactMatrix.identity(3)) == (3, 0, 0)

    def test_zero(self):
        assert inertia(ExactMatrix([[0, 0], [0, 0]])) == (0, 0, 2)

    def test_indefinite_hand_case(self):
        # eigenvalues 3 and -1
        assert inertia(ExactMatrix([[1, 2], [2, 1]])) == (1, 1, 0)

    def test_zero_diagonal_block(self):
        assert inertia(ExactMatrix([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            inertia(ExactMatrix([[1, 2], [3, 4]]))

    def test_sylvester_diagonal_congruence(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            m = ExactMatrix(rows)
            diag = [Fraction(rng.choice([-5, -2, -1, 1, 2, 3]), rng.randint(1, 2)) for _ in range(n)]
            conj = ExactMatrix(
                [[m[i][j] * diag[i] * diag[j] for j in range(n)] for i in range(n)]
            )
            assert inertia(conj) == inertia(m)

    def test_counts_sum_to_order(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 6)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-4, 4)
            pos, neg, zero = inertia(ExactMatrix(rows))
            assert pos + neg + zero == n

    def test_known_signature_under_full_congruence(self):
        # build P^T D P with random invertible P; the signature must be D's
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 5)
            diag = [rng.choice([-3, -1, 0, 1, 2]) for _ in range(n)]
            while True:
                p = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                if exact_determinant(ExactMatrix(p)) != 0:
                    break
            conj = [
                [
                    sum(p[k][i] * diag[k] * p[k][j] for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            expected = (
                sum(1 for d in diag if d > 0),
                sum(1 for d in diag if d < 0),
                sum(1 for d in diag if d == 0),
            )
            assert inertia(ExactMatrix(conj)) == expected


class TestScalarText:
    @pytest.mark.parametrize("text,value", [
        ("5", Fraction(5)),
        ("-12", Fraction(-12)),
        ("3/4", Fraction(3, 4)),
        ("-7/2", Fraction(-7, 2)),
        ("6/4", Fraction(3, 2)),
    ])
    def test_parse(self, text, value):
        assert parse_scalar(text) == value

    @pytest.mark.parametrize("text", ["", "1.5", "1e3", "a", "1/0", "1/-2", "1 / 2"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_scalar(text)

    def test_round_trip_is_canonical(self):
        assert scalar_str(Fraction(6, 4)) == "3/2"
        assert scalar_str(Fraction(-8, 2)) == "-4"
        assert parse_scalar(scalar_str(Fraction(22, 7))) == Fraction(22, 7)


class TestSolveLinear:
    def test_known_solution(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = ExactMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            if exact_determinant(m) == 0:
                continue
            x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            rhs = [sum(m[i][j] * x[j] for j in range(n)) for i in range(n)]
            assert list(solve_linear(m, rhs)) == x

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(ExactMatrix([[1, 2], [2, 4]]), [1, 1])


def _mixed(rng, zero_share=0.25):
    """A random rational with a mixed denominator, zero with the given chance."""
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 2, 3, 4, 6, 9, 10]))


class TestIntegerKernel:
    def test_mixed_denominators_against_cofactors(self):
        rng = random.Random(21)
        for order in range(1, 9):
            for _ in range(3 if order < 8 else 2):
                m = ExactMatrix([[_mixed(rng) for _ in range(order)] for _ in range(order)])
                assert exact_determinant(m) == determinant_by_cofactors(m)

    def test_zero_leading_pivots_need_row_swaps(self):
        rng = random.Random(22)
        for order in range(2, 9):
            for _ in range(3):
                rows = [[_mixed(rng, 0.1) for _ in range(order)] for _ in range(order)]
                # zero the top-left block so the first pivots must come from below
                lead = rng.randint(1, order - 1)
                for i in range(lead):
                    for j in range(lead):
                        rows[i][j] = Fraction(0)
                m = ExactMatrix(rows)
                assert exact_determinant(m) == determinant_by_cofactors(m)

    def test_anti_diagonal(self):
        vals = [Fraction(k + 1, 2 * k + 3) for k in range(7)]
        m = ExactMatrix([[vals[i] if i + j == 6 else 0 for j in range(7)] for i in range(7)])
        expected = -math.prod(vals)  # reversing 7 indices is an odd permutation
        assert exact_determinant(m) == expected == determinant_by_cofactors(m)

    def test_singular(self):
        rng = random.Random(23)
        for order in range(2, 9):
            rows = [[_mixed(rng, 0.1) for _ in range(order)] for _ in range(order)]
            i = rng.randrange(order)
            # row i becomes a rational combination of the other rows
            coef = [0 if r == i else _mixed(rng, 0.3) for r in range(order)]
            rows[i] = [sum(coef[r] * rows[r][c] for r in range(order)) for c in range(order)]
            k = rng.randrange(order)
            m = ExactMatrix(rows)
            assert exact_determinant(m) == 0
            if order <= 7:
                assert determinant_by_cofactors(m) == 0
            with pytest.raises(SingularMatrixError):
                solve_linear(m, [_mixed(rng) for _ in range(order)])
            zero_col = ExactMatrix([row[:k] + [0] + row[k + 1:] for row in rows])
            assert exact_determinant(zero_col) == 0

    def test_solve_round_trip_order_12(self):
        rng = random.Random(24)
        for zero_lead in (False, True):
            while True:
                rows = [[_mixed(rng) for _ in range(12)] for _ in range(12)]
                if zero_lead:
                    rows[0][0] = rows[1][0] = Fraction(0)
                m = ExactMatrix(rows)
                if exact_determinant(m) != 0:
                    break
            x = [_mixed(rng, 0.1) for _ in range(12)]
            rhs = [sum(m[i][j] * x[j] for j in range(12)) for i in range(12)]
            assert list(solve_linear(m, rhs)) == x


class TestInertiaTwoByTwoPath:
    """Matrices whose live diagonal runs out mid-elimination.

    T^T (p + H) T with T = [[1, t], [0, I]] has the leading pivot p and,
    after it, the Schur complement H = [[0, B], [B^T, 0]].  H has a zero
    diagonal, so only the 2x2 congruence can produce the next pivot, and
    for B of full rank m its inertia is (m, m, size - 2m).
    """

    @staticmethod
    def _build(rng, p, r, s):
        while True:
            b = [[_mixed(rng, 0.3) for _ in range(s)] for _ in range(r)]
            short, other = (b, list(zip(*b))) if r <= s else (list(zip(*b)), b)
            gram = [[sum(x * y for x, y in zip(u, v)) for v in short] for u in short]
            if exact_determinant(ExactMatrix(gram)) != 0:  # full rank min(r, s)
                break
        h = [[Fraction(0)] * (r + s) for _ in range(r + s)]
        for i in range(r):
            for j in range(s):
                h[i][r + j] = h[r + j][i] = b[i][j]
        t = [_mixed(rng, 0.2) for _ in range(r + s)]
        rows = [[p] + [p * x for x in t]]
        for i in range(r + s):
            rows.append([p * t[i]] + [p * t[i] * t[j] + h[i][j] for j in range(r + s)])
        det = p * (-1) ** r * exact_determinant(ExactMatrix(b)) ** 2 if r == s else 0
        return ExactMatrix(rows), det

    def test_signature_determinant_and_path(self, monkeypatch):
        import simplexkite.linalg as linalg

        steps = []
        real = linalg._symmetric_pivot

        def spy(a, k):
            steps.append(k)
            return real(a, k)

        monkeypatch.setattr(linalg, "_symmetric_pivot", spy)
        rng = random.Random(25)
        for _ in range(30):
            p = _mixed(rng, 0)
            r, s = rng.randint(1, 3), rng.randint(1, 3)
            m, det = self._build(rng, p, r, s)
            assert m.is_symmetric()
            steps.clear()
            rank = min(r, s)
            assert inertia(m) == (rank + (p > 0), rank + (p < 0), r + s - 2 * rank)
            assert steps and steps[0] == 1  # the diagonal ran out after one pivot
            assert exact_determinant(m) == det


def test_gram_ldl_reproduces_gram_exactly():
    # the factors embed turns into coordinates
    rng = random.Random(26)
    for n in range(1, 9):
        d = random_point_sdm(rng, n)
        lower, pivots = gram_ldl(d)
        g = gram_matrix(d)
        assert all(p > 0 for p in pivots)
        for i in range(n):
            assert lower[i][i] == 1 and all(x == 0 for x in lower[i][i + 1:])
            for j in range(n):
                assert sum(lower[i][k] * pivots[k] * lower[j][k] for k in range(n)) == g[i][j]
