import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
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
import simplexkite.linalg as linalg
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


def _one_step_bareiss(a, symmetric, pivot_move, diag, swaps=None):
    """The oracle: Bareiss elimination with one pivot per step, whose
    minors, sign, echelon rows and pivot moves `linalg._bareiss` must match.

    `pivot_move` stands for `linalg._symmetric_pivot`; `diag` collects
    a[k+1][k+1] after each step k that leaves a row below, the entry the
    three-pivot pass tests before it takes pivot k+1 as well, and then
    pivot k+2; `swaps`, if given, collects each k whose pivot came by a
    row swap.
    """
    rows = len(a)
    minors = []
    sign = 1
    prev = 1
    for k in range(rows):
        if symmetric:
            if a[k][k] == 0 and not pivot_move(a, k):
                break
        else:
            p = next((r for r in range(k, rows) if a[r][k]), None)
            if p is None:
                break
            if p != k:
                a[k], a[p] = a[p], a[k]
                sign = -sign
                if swaps is not None:
                    swaps.append(k)
        top = a[k]
        pivot = top[k]
        for i in range(k + 1, rows):
            row = a[i]
            f, lo = (top[i], i) if symmetric else (row[k], k + 1)
            row[lo:] = [(pivot * x - f * y) // prev for x, y in zip(row[lo:], top[lo:])]
        if k + 1 < rows:
            diag.append(a[k + 1][k + 1])
        minors.append(pivot)
        prev = pivot
    return minors, sign


def _oracle(rows, symmetric):
    """(rows after the oracle, its (minors, sign), its `_symmetric_pivot`
    calls, the kernel paths the input takes).

    The paths name where the kernel's passes start and what each decides:
    a pass at k takes three pivots when four rows remain and pivots k+1
    and k+2 are nonzero, else one, so a zero at block offset 1 or 2, the
    1..3 rows left after the last block, and a pivot move (a row swap, a
    `_symmetric_pivot` call, its 2x2 congruence) opening a block that
    follows a block each steer it differently."""
    a = [row[:] for row in rows]
    n = len(a)
    calls, diag, swaps, congruences, paths = [], [], [], [], set()

    def move(a, k):
        calls.append(k)
        zero_diagonal = not any(a[i][i] for i in range(k, n))
        moved = linalg._symmetric_pivot(a, k)
        if zero_diagonal and moved:
            congruences.append(k)
        return moved

    minors, sign = _one_step_bareiss(a, symmetric, move, diag, swaps)
    if rows[0][0] == 0:
        paths.add("zero first pivot")
    if len(minors) < n:
        paths.add("singular")
    if len(rows[0]) > n:
        paths.add("right-hand side")
    if congruences:
        paths.add("2x2 congruence")
    k, block = 0, False
    while k < len(minors):  # where the three-pivot passes start
        three = k + 3 < n and diag[k] != 0 and diag[k + 1] != 0
        if k + 3 < n and not three:
            paths.add("zero pivot at offset %d" % (1 if diag[k] == 0 else 2))
        if block and n - k < 4:
            paths.add("tail of %d rows" % (n - k))
        if block and three and k in (calls if symmetric else swaps):
            paths.add("pivot move opening a block after a block")
            if k in congruences:
                paths.add("2x2 congruence opening a block after a block")
        block = three
        k += 3 if three else 1
    return a, (minors, sign), calls, {(path, symmetric) for path in paths}


@st.composite
def _kernel_inputs(draw):
    """An integer matrix of order 1..13 with 0..2 right-hand-side columns,
    symmetric or not, with the structure that steers the kernel's paths:
    a zero tail of the diagonal cut off from the rows above, often where a
    block would start (the 2x2 congruence in symmetric mode), rows copied
    into a leading block (a zero pivot at any of 1..n-2, so at block
    offset 1 or 2) and a copied row (a singular matrix)."""
    n = draw(st.integers(1, 13))
    symmetric = draw(st.booleans())
    width = n + draw(st.integers(0, 2))
    entries = draw(st.lists(st.sampled_from(range(-9, 10)), min_size=n * width, max_size=n * width))
    a = [entries[i * width:(i + 1) * width] for i in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i):
                a[i][j] = a[j][i]
    if draw(st.booleans()):
        z = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            z -= z % 3
        for i in range(z, n):
            a[i][i] = 0
            for k in range(z):
                a[i][k] = 0
                if symmetric:
                    a[k][i] = 0
    for k in draw(st.sets(st.integers(0, max(0, n - 3)), max_size=3)) if n > 2 else ():
        r = draw(st.integers(0, k))  # rows r and k+1 agree on the leading k+2 columns
        for j in range(k + 1):
            a[k + 1][j] = a[r][j]
            if symmetric:
                a[j][k + 1] = a[r][j]
        a[k + 1][k + 1] = a[r][r] if symmetric else a[r][k + 1]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        a[j] = a[i][:]
        if symmetric:
            for row in a:
                row[j] = row[i]
    return a, symmetric


ORACLE_EXAMPLES = [
    ([[4, 1, 3, -4, 1], [0, 0, 0, -4, 2], [2, -4, 0, 0, -3], [0, 0, 3, 0, 5]], False),
    ([[-4, 0, -1, -1, 1], [0, 0, 0, 1, 3], [-1, 0, 0, -4, -4], [-1, 1, -4, -3, 0], [1, 3, -4, 0, 0]], True),
    ([[-4, 0, 0, 0], [0, 0, -2, 0], [0, -2, 0, 0], [0, 0, 0, 3]], True),
    ([[0, 2, -1, 3, 1], [2, 0, 1, 0, -2], [-1, 1, 0, 2, 0], [3, 0, 2, 0, 4]], True),
    ([[0, 2, 1, 7], [3, 1, 0, -2], [1, 1, 1, 1]], False),
    ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], False),
    ([[1, 2, 1], [2, 4, 2], [1, 2, 1]], True),
    ([[5]], True),
    ([[0, 3]], False),
    ([[(i + 1) * (j + 2) % 7 - 3 for j in range(11)] for i in range(10)], False),
    ([[-3, -2, -2, 0], [2, -3, -2, 2], [2, -3, -2, 2], [-1, -2, -2, -3]], False),
    ([[2, 1, 1, -1], [1, -3, -3, -3], [1, -3, -3, -1], [-1, -3, -1, -3]], True),
    ([[-3, -2, -3, 0, -2], [-3, 2, -2, 0, 2], [1, 2, 0, 1, 3], [-2, 2, 3, 2, 1], [0, -2, 1, 2, -3]], False),
    ([[0, -3, 2, -1, -1], [-3, 0, 2, 1, -3], [2, 2, 0, 1, -3], [-1, 1, 1, -2, 3], [-1, -3, -3, 3, -2]], True),
    ([[1, 0, 0, -1, 3, 1], [1, 2, 2, 2, -3, 0], [2, -2, 2, 2, -1, 2], [-3, 0, 2, 2, -2, 2],
      [3, 0, 3, -1, 3, -2], [3, -3, 3, 3, 1, -3]], False),
    ([[3, 2, 0, -2, 1, 1], [2, -3, -1, -3, 0, -3], [0, -1, 3, -2, 3, -2], [-2, -3, -2, 1, 3, 0],
      [1, 0, 3, 3, 1, -3], [1, -3, -2, 0, -3, -3]], True),
    ([[-2, 2, -2, 0, 3, -3, -3], [-1, 2, 2, 2, 3, -1, 2], [-1, 2, -1, -1, -1, 0, 0], [0, 0, -1, -1, 1, 2, 0],
      [-2, 3, -2, 2, 0, -1, 2], [2, -1, 0, 1, 0, 1, -3], [-1, 1, 3, 0, -1, 0, -2]], False),
    ([[-1, 1, 3, 0, 0, 0, 0], [1, 3, -1, 0, 0, 0, 0], [3, -1, -2, 0, 0, 0, 0], [0, 0, 0, 0, 2, 1, 0],
      [0, 0, 0, 2, 0, -3, -3], [0, 0, 0, 1, -3, 0, 3], [0, 0, 0, 0, -3, 3, 0]], True),
    ([[(i * i + j * j + 3 * i * j + 2) % 17 - 8 for j in range(14)] for i in range(13)], False),
    ([[(i * i + j * j + 3 * i * j + 2) % 17 - 8 for j in range(13)] for i in range(13)], True),
]


def _with_oracle_examples(test):
    for case in ORACLE_EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=300, deadline=None)
@_with_oracle_examples
@given(_kernel_inputs())
def test_three_pivot_passes_match_one_pivot_steps(case):
    rows, symmetric = case
    want, result, want_calls, paths = _oracle(rows, symmetric)
    for path in paths:
        event("%s (%s)" % (path[0], "symmetric" if path[1] else "general"))
    a = [row[:] for row in rows]
    calls = []
    real = linalg._symmetric_pivot

    def spy(a, k):
        calls.append(k)
        return real(a, k)

    with mock.patch.object(linalg, "_symmetric_pivot", spy):
        assert linalg._bareiss(a, symmetric) == result
    assert calls == want_calls
    for k in range(len(result[0])):  # the echelon rows, on and right of the diagonal
        assert a[k][k:] == want[k][k:]


def test_oracle_examples_reach_every_kernel_path():
    reached = set().union(*(_oracle(rows, symmetric)[3] for rows, symmetric in ORACLE_EXAMPLES))
    for symmetric in (False, True):
        for path in ("zero first pivot", "zero pivot at offset 1", "zero pivot at offset 2",
                     "tail of 1 rows", "tail of 2 rows", "tail of 3 rows",
                     "pivot move opening a block after a block", "singular", "right-hand side"):
            assert (path, symmetric) in reached
    assert ("2x2 congruence", True) in reached
    assert ("2x2 congruence opening a block after a block", True) in reached
    assert {len(rows) for rows, _ in ORACLE_EXAMPLES} >= {1, 13}


def _fraction_minors(rows):
    """(leading minors, sign) by Gaussian elimination over Fractions with
    the kernel's row rule (the first row with a nonzero entry in the
    column); an oracle that shares no arithmetic with the kernel."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    minors, sign, det = [], 1, Fraction(1)
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k]), None)
        if p is None:
            break
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        top = a[k]
        det *= top[k]
        minors.append(det)
        for row in a[k + 1:]:
            f = row[k] / top[k]
            row[k:] = [x - f * y for x, y in zip(row[k:], top[k:])]
    return minors, sign


def _fraction_inertia(rows):
    """Inertia of a symmetric matrix over Fractions: take any nonzero
    diagonal pivot, or make one by adding row and column j to i where the
    diagonal is all zero, and count the signs of the pivots (each Schur
    complement carries the rest of the inertia)."""
    a = [[Fraction(x) for x in row] for row in rows]
    pos = neg = 0
    while a:
        m = len(a)
        p = next((p for p in range(m) if a[p][p]), None)
        if p is None:
            pair = next(((i, j) for i in range(m) for j in range(m) if a[i][j]), None)
            if pair is None:
                break
            p, j = pair
            a[p] = [x + y for x, y in zip(a[p], a[j])]
            for row in a:
                row[p] += row[j]
        d = a[p][p]
        pos, neg = pos + (d > 0), neg + (d < 0)
        a = [[x - a[r][p] * a[p][c] / d for c, x in enumerate(row) if c != p]
             for r, row in enumerate(a) if r != p]
    return pos, neg, len(rows) - pos - neg


class TestDeepFallback:
    """Order 31 with pivot 17 planted to be zero.  The blocks at k = 0, 3,
    .., 12 take three pivots; the pass at k = 15, on entries past 200 bits,
    meets the zero at offset 2 and takes one pivot, the pass at 16 meets
    it at offset 1, and the row swap or `_symmetric_pivot` at 17 opens the
    blocks that follow."""

    @staticmethod
    def _planted(symmetric):
        rng = random.Random(31 + symmetric)
        n, z = 31, 17
        a = [[rng.randint(-10**5, 10**5) for _ in range(n)] for _ in range(n)]
        c = [rng.randint(-3, 3) for _ in range(z)]
        # row z is sum(c[r] * row r) on the leading z+1 columns, so that minor is 0
        if symmetric:
            for i in range(n):
                for j in range(i):
                    a[i][j] = a[j][i]
            for j in range(z):
                a[z][j] = a[j][z] = sum(c[r] * a[r][j] for r in range(z))
            a[z][z] = sum(c[r] * a[r][z] for r in range(z))
        else:
            a[z][:z + 1] = [sum(c[r] * a[r][j] for r in range(z)) for j in range(z + 1)]
        return a

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_against_the_one_step_and_fraction_oracles(self, symmetric):
        rows = self._planted(symmetric)
        want, diag, swaps, want_calls = [row[:] for row in rows], [], [], []

        def move(a, k):
            want_calls.append(k)
            return linalg._symmetric_pivot(a, k)

        result = _one_step_bareiss(want, symmetric, move, diag, swaps)
        assert all(diag[k] and diag[k + 1] for k in range(0, 15, 3))
        assert diag[15] != 0 and diag[16] == 0
        assert min(abs(x).bit_length() for x in want[16][16:]) > 200
        assert (want_calls if symmetric else swaps) == [17]
        assert len(result[0]) == 31

        a, calls = [row[:] for row in rows], []
        real = linalg._symmetric_pivot

        def spy(a, k):
            calls.append(k)
            return real(a, k)

        with mock.patch.object(linalg, "_symmetric_pivot", spy):
            assert linalg._bareiss(a, symmetric) == result
        assert calls == want_calls
        for k in range(31):
            assert a[k][k:] == want[k][k:]

        minors, sign = _fraction_minors(rows)
        m = ExactMatrix(rows)
        assert exact_determinant(m) == sign * minors[-1]
        if symmetric:
            assert result[0][:17] == minors[:17]
            assert result[0][-1] == sign * minors[-1]  # a unimodular congruence keeps the determinant
            assert inertia(m) == _fraction_inertia(rows)
        else:
            assert result == (minors, sign)


def test_exact_matrix_equality_hash_and_repr():
    m = ExactMatrix([[1, Fraction(1, 2)], [0, -3]])
    same = ExactMatrix([[Fraction(1), Fraction(1, 2)], [0, -3]])
    assert m == same and hash(m) == hash(same)
    assert m != ExactMatrix([[1, Fraction(1, 2)], [0, 3]])
    assert m != m.rows and len({m, same}) == 1
    assert repr(m) == "ExactMatrix[1 1/2; 0 -3]"
