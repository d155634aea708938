import inspect
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplexkite
import simplexkite.centers as centers
from simplexkite import (
    DegenerateSimplexError,
    ExactMatrix,
    NonEuclideanError,
    Realizability,
    SquaredDistanceMatrix,
    cm_det,
    cm_matrix,
    circumcenter_barycentrics,
    circumradius_sq,
    exact_determinant,
    facet_circumradii_sq,
    facet_sdm,
    facet_volumes_sq,
    gram_ldl,
    gram_matrix,
    inner_cm_det,
    is_realizable,
    volume_sq,
)
from conftest import count_kernel_calls, random_point_sdm


def sdm_triangle(x, y, z):
    """Triangle with squared sides a01=x, a02=y, a12=z."""
    return SquaredDistanceMatrix([[0, x, y], [x, 0, z], [y, z, 0]])


def heron_16_area_sq(x, y, z):
    """Independent oracle: 16*Area**2 from squared side lengths."""
    return 2 * (x * y + y * z + z * x) - x * x - y * y - z * z


class TestCmDet:
    def test_segment(self):
        for t in (Fraction(1), Fraction(7, 3), Fraction(4)):
            d = SquaredDistanceMatrix([[0, t], [t, 0]])
            assert cm_det(d) == 2 * t

    def test_unit_regular_tetrahedron(self):
        assert cm_det(SquaredDistanceMatrix.regular(3)) == 4

    def test_collinear_triangle(self):
        assert cm_det(sdm_triangle(1, 4, 1)) == 0

    def test_matches_triangle_heron(self):
        rng = random.Random(2)
        for _ in range(30):
            d = random_point_sdm(rng, 2)
            x, y, z = d.a[0][1], d.a[0][2], d.a[1][2]
            assert cm_det(d) == -heron_16_area_sq(x, y, z)


class TestInnerCmDet:
    def test_segment(self):
        t = Fraction(5, 2)
        assert inner_cm_det(SquaredDistanceMatrix([[0, t], [t, 0]])) == -(t**2)

    def test_unit_regular_tetrahedron(self):
        assert inner_cm_det(SquaredDistanceMatrix.regular(3)) == -3

    def test_scaling_homogeneity(self):
        rng = random.Random(4)
        for _ in range(15):
            n = rng.randint(1, 4)
            d = random_point_sdm(rng, n)
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            assert inner_cm_det(d.scaled(lam)) == lam ** (n + 1) * inner_cm_det(d)
            assert cm_det(d.scaled(lam)) == lam**n * cm_det(d)


class TestVolume:
    def test_unit_regular_tetrahedron(self):
        assert volume_sq(SquaredDistanceMatrix.regular(3)) == Fraction(1, 72)

    def test_degenerate_is_zero(self):
        assert volume_sq(sdm_triangle(1, 4, 1)) == 0

    def test_equilateral_against_heron(self):
        assert volume_sq(SquaredDistanceMatrix.regular(2, 2)) == Fraction(3, 4)
        rng = random.Random(6)
        for _ in range(25):
            d = random_point_sdm(rng, 2)
            x, y, z = d.a[0][1], d.a[0][2], d.a[1][2]
            assert volume_sq(d) == heron_16_area_sq(x, y, z) / 16

    def test_non_euclidean_sign_violation_raises(self):
        with pytest.raises(NonEuclideanError) as exc:
            volume_sq(sdm_triangle(1, 1, 9))
        assert exc.value.verdict.status is Realizability.NON_EUCLIDEAN

    def test_relation_to_cm_det_and_gram(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(1, 5)
            d = random_point_sdm(rng, n)
            v2 = volume_sq(d)
            fact = Fraction(math.factorial(n)) ** 2
            assert v2 * fact * 2**n == abs(cm_det(d))
            assert cm_det(d) * (-1) ** (n + 1) > 0
            assert exact_determinant(gram_matrix(d)) == fact * v2


class TestCircumradius:
    def test_unit_regular_family(self):
        for n in range(2, 9):
            d = SquaredDistanceMatrix.regular(n)
            assert circumradius_sq(d) == Fraction(n, 2 * (n + 1))

    def test_segment_midpoint(self):
        d = SquaredDistanceMatrix([[0, 4], [4, 0]])
        assert circumradius_sq(d) == 1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSimplexError):
            circumradius_sq(sdm_triangle(1, 4, 1))


def _fraction_solve(rows, rhs):
    """(det, x) with rows * x = rhs, by plain Gaussian elimination over
    Fractions with row swaps; an oracle that never calls the integer kernel."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    det = Fraction(1)
    for k in range(n):
        p = next(r for r in range(k, n) if a[r][k])
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        top = a[k]
        det *= top[k]
        for row in a[k + 1:]:
            if row[k]:
                f = row[k] / top[k]
                row[k:] = [x - f * y for x, y in zip(row[k:], top[k:])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (a[i][n] - sum(a[i][j] * x[j] for j in range(i + 1, n))) / a[i][i]
    return det, x


def _large_cloud(n):
    """(points, d): n+1 integer points, read over the denominator 12, and their matrix."""
    rng = random.Random(4000 + n)
    pts = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n + 1)]
    return pts, SquaredDistanceMatrix([[Fraction(sum((x - y) ** 2 for x, y in zip(p, q)), 144) for q in pts] for p in pts])


class TestLargeOrders:
    """The orders the benchmark runs (20, 30) and the top of the scope (40)
    on rational point clouds, against a Fraction oracle on the edge vectors
    E (rows p_i - p_0): volume**2 = det(E)**2 / (n!)**2, and the
    circumcenter p_0 + c solves 2 E c = (|p_i - p_0|**2)_i, so R**2 = |c|**2."""

    @pytest.mark.parametrize("n", [20, 30, 40])
    def test_against_a_fraction_oracle(self, n):
        den = 12  # every coordinate is an integer over den
        pts, d = _large_cloud(n)
        edges = [[Fraction(x - y, den) for x, y in zip(p, pts[0])] for p in pts[1:]]
        det, c = _fraction_solve(edges, [sum(x * x for x in e) / 2 for e in edges])
        assert det != 0
        verdict = is_realizable(d)
        assert verdict.status is Realizability.NONDEGENERATE and verdict.gram_inertia == (n, 0, 0)
        assert volume_sq(d) == det**2 / math.factorial(n) ** 2
        assert circumradius_sq(d) == sum(x * x for x in c)

    @pytest.mark.parametrize("n", [20, 30, 40])
    def test_facets_against_their_own_eliminations(self, n):
        # the facet values come from the unit columns read off the kept elimination by
        # back substitution (row i is adj(A_i) e_i); each facet's own elimination takes
        # the kernel's three-pivot passes, whose chains are longest at these orders
        _, d = _large_cloud(n)
        facets = [facet_sdm(d, j) for j in range(n + 1)]
        assert facet_volumes_sq(d) == tuple(map(volume_sq, facets))
        assert facet_circumradii_sq(d) == tuple(map(circumradius_sq, facets))


class TestRealizability:
    def test_regular_nondegenerate(self):
        for n in range(1, 7):
            verdict = is_realizable(SquaredDistanceMatrix.regular(n))
            assert verdict.status is Realizability.NONDEGENERATE
            assert verdict.gram_inertia == (n, 0, 0)

    def test_collinear_degenerate(self):
        verdict = is_realizable(sdm_triangle(1, 4, 1))
        assert verdict.status is Realizability.DEGENERATE

    def test_triangle_inequality_violation(self):
        verdict = is_realizable(sdm_triangle(1, 9, 1))
        assert verdict.status is Realizability.NON_EUCLIDEAN

    def test_base_point_independence(self):
        rng = random.Random(10)
        cases = [random_point_sdm(rng, rng.randint(1, 4)) for _ in range(10)]
        cases.append(sdm_triangle(1, 4, 1))
        cases.append(sdm_triangle(1, 9, 1))
        for d in cases:
            # edge vectors start at vertex 0; moving each vertex there in turn
            # must not change the verdict
            swaps = [[b] + [i for i in range(d.n + 1) if i != b] for b in range(d.n + 1)]
            verdicts = {is_realizable(d.permuted(p)) for p in swaps}
            assert len(verdicts) == 1


class TestFacets:
    def test_regular_facets_stay_regular(self):
        d = SquaredDistanceMatrix.regular(4, 3)
        for j in range(5):
            f = facet_sdm(d, j)
            assert f.n == 3
            assert f.is_regular()

    def test_prekite_facet_deletions(self):
        from simplexkite import PreKite

        d = PreKite(3, 1, (1, 1, 2)).to_sdm()
        base = facet_sdm(d, 3)
        assert base == SquaredDistanceMatrix.regular(2)
        other = facet_sdm(d, 1)
        assert (other.a[0][1], other.a[0][2], other.a[1][2]) == (1, 2, 1)

    def test_index_out_of_range(self):
        d = SquaredDistanceMatrix.regular(3)
        with pytest.raises(IndexError):
            facet_sdm(d, 5)


class TestPermutationInvariance:
    def test_all_permutations_small(self):
        rng = random.Random(12)
        for n in (2, 3):
            d = random_point_sdm(rng, n)
            c, ic = cm_det(d), inner_cm_det(d)
            for perm in permutations(range(n + 1)):
                p = d.permuted(list(perm))
                assert cm_det(p) == c
                assert inner_cm_det(p) == ic


class TestValidationAndJson:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            SquaredDistanceMatrix([[0, 1], [2, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            SquaredDistanceMatrix([[1, 1], [1, 0]])

    def test_nonpositive_off_diagonal_rejected(self):
        with pytest.raises(ValueError):
            SquaredDistanceMatrix([[0, 0], [0, 0]])

    @pytest.mark.parametrize("rows, message", [
        ([[0]], "expected a square matrix with at least two vertices"),
        ([[0, 1], [1]], "expected a square matrix with at least two vertices"),
        ([[0, 1], [2, 0]], "matrix must be symmetric"),
        ([[0, Fraction(1, 3)], [Fraction(1, 6), 0]], "matrix must be symmetric"),
        ([[1, 1], [1, 0]], "diagonal entries must be zero"),
        ([[0, 1], [1, Fraction(1, 7)]], "diagonal entries must be zero"),
        ([[0, 0], [0, 0]], "off-diagonal entries must be positive"),
        ([[0, Fraction(-1, 3)], [Fraction(-1, 3), 0]], "off-diagonal entries must be positive"),
    ])
    def test_error_messages(self, rows, message):
        with pytest.raises(ValueError) as exc:
            SquaredDistanceMatrix(rows)
        assert str(exc.value) == message

    @pytest.mark.parametrize("rows, message", [
        # row by row: a row's diagonal, then its pairs (i, j > i), symmetry before sign
        ([[0, 1, 2], [1, 1, 1], [3, 1, 0]], "matrix must be symmetric"),
        ([[1, 1, 2], [1, 0, 1], [2, 3, 0]], "diagonal entries must be zero"),
        ([[0, -1, 1], [1, 0, 1], [1, 1, 0]], "matrix must be symmetric"),
        ([[0, -1, 1], [-1, 0, 2], [1, 3, 0]], "off-diagonal entries must be positive"),
        ([[0, 1, 1], [1, 0, -2], [2, -2, 0]], "matrix must be symmetric"),
    ])
    def test_first_fault_is_reported(self, rows, message):
        with pytest.raises(ValueError) as exc:
            SquaredDistanceMatrix(rows)
        assert str(exc.value) == message

    def test_equal_rationals_in_any_form(self):
        d = SquaredDistanceMatrix([[0, "1/3", Fraction(2, 4)], [Fraction(2, 6), 0, 1], ["2/4", "3/3", 0]])
        assert d == SquaredDistanceMatrix([[0, Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 3), 0, 1], [Fraction(1, 2), 1, 0]])

    def test_json_round_trip(self):
        d = SquaredDistanceMatrix([[0, Fraction(3, 2)], [Fraction(3, 2), 0]])
        again = SquaredDistanceMatrix.from_json(d.to_json())
        assert again == d

    def test_json_requires_matching_n(self):
        with pytest.raises(ValueError):
            SquaredDistanceMatrix.from_json({"n": 3, "a": [["0", "1"], ["1", "0"]]})

    def test_json_rejects_boolean_order(self):
        with pytest.raises(ValueError):
            SquaredDistanceMatrix.from_json({"n": True, "a": [["0", "1"], ["1", "0"]]})

    def test_json_rejects_boolean_entry(self):
        with pytest.raises(ValueError):
            SquaredDistanceMatrix.from_json({"n": 1, "a": [["0", True], [True, "0"]]})
        with pytest.raises(TypeError):
            SquaredDistanceMatrix([[0, True], [True, 0]])

    def test_json_accepts_bare_integers(self):
        d = SquaredDistanceMatrix.from_json({"n": 1, "a": [[0, 3], [3, 0]]})
        assert d == SquaredDistanceMatrix([[0, 3], [3, 0]])

    def test_json_rejects_bad_scalar(self):
        with pytest.raises(ValueError):
            SquaredDistanceMatrix.from_json({"n": 1, "a": [["0", "1.5"], ["1.5", "0"]]})


def _sdm_from_entries(n, entries):
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    for (i, j), x in zip(pairs, entries):
        rows[i][j] = rows[j][i] = Fraction(x, 2)
    return SquaredDistanceMatrix(rows)


def _sdm_from_points(points):
    return SquaredDistanceMatrix(
        [[sum((x - y) ** 2 for x, y in zip(p, q)) for q in points] for p in points]
    )


# random positive entries (mostly non-Euclidean) and integer points in a
# space of dimension <= n (Euclidean, often degenerate)
_ANY_SDM = st.one_of(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.integers(1, 40), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2).map(
            lambda xs: _sdm_from_entries(n, xs)
        )
    ),
    st.integers(1, 4).flatmap(
        lambda n: st.integers(1, n).flatmap(
            lambda dim: st.lists(
                st.tuples(*[st.integers(-3, 3)] * dim), min_size=n + 1, max_size=n + 1, unique=True
            ).map(_sdm_from_points)
        )
    ),
)


class TestRealizabilityGate:
    # Gram inertia (2, 2, 0): the even number of negative eigenvalues gives
    # det(G) the Euclidean sign, so a sign test alone passes it
    FIVE_POINT = [
        [0, 15, 28, 17, 9],
        [15, 0, 2, 26, 30],
        [28, 2, 0, 18, 30],
        [17, 26, 18, 0, 1],
        [9, 30, 30, 1, 0],
    ]
    # Gram inertia (2, 1, 0)
    TETRAHEDRON = [[0, 1, 1, 100], [1, 0, 100, 1], [1, 100, 0, 1], [100, 1, 1, 0]]

    def test_volume_of_even_negative_inertia_raises(self):
        d = SquaredDistanceMatrix(self.FIVE_POINT)
        with pytest.raises(NonEuclideanError) as exc:
            volume_sq(d)
        assert exc.value.verdict.gram_inertia == (2, 2, 0)
        # the bare formula would have given 43873/9216
        assert cm_det(d) == exact_determinant(cm_matrix(d)) == -43873

    def test_circumradius_of_non_euclidean_tetrahedron_raises(self):
        d = SquaredDistanceMatrix(self.TETRAHEDRON)
        with pytest.raises(NonEuclideanError) as exc:
            circumradius_sq(d)
        assert exc.value.verdict.gram_inertia == (2, 1, 0)
        with pytest.raises(NonEuclideanError):
            volume_sq(d)

    @settings(max_examples=150, deadline=None)
    @given(_ANY_SDM)
    def test_volume_raises_or_agrees_with_verdict(self, d):
        verdict = is_realizable(d)
        if verdict.status is Realizability.NON_EUCLIDEAN:
            with pytest.raises(NonEuclideanError) as exc:
                volume_sq(d)
            assert exc.value.verdict == verdict
            return
        v2 = volume_sq(d)
        assert (v2 == 0) == (verdict.status is Realizability.DEGENERATE)
        assert v2 >= 0

    @settings(max_examples=150, deadline=None)
    @given(_ANY_SDM)
    def test_gram_reads_match_determinant_formulas(self, d):
        # cm_det and circumradius_sq are read off the Gram elimination;
        # pin them to the bordered Cayley-Menger determinants
        c = exact_determinant(cm_matrix(d))
        assert cm_det(d) == c
        if is_realizable(d).status is Realizability.NONDEGENERATE:
            assert circumradius_sq(d) == -inner_cm_det(d) / (2 * c)
        else:
            with pytest.raises((DegenerateSimplexError, NonEuclideanError)):
                circumradius_sq(d)


_INVARIANTS = (is_realizable, volume_sq, cm_det, circumradius_sq, circumcenter_barycentrics, gram_ldl)


def _outcome(f, d):
    """f(d), or the class, message and verdict of what it raised."""
    try:
        return f(d)
    except (DegenerateSimplexError, NonEuclideanError) as exc:
        return type(exc), str(exc), exc.verdict


def _memo_cases(rng):
    cases = [random_point_sdm(rng, n) for n in range(1, 9)]
    cases.append(sdm_triangle(1, 4, 1))  # degenerate
    cases.append(sdm_triangle(1, 9, 1))  # non-Euclidean
    cases.append(SquaredDistanceMatrix([[0, 1, 1, 100], [1, 0, 100, 1], [1, 100, 0, 1], [100, 1, 1, 0]]))
    return cases


class TestEliminationMemo:
    def test_one_elimination_per_matrix(self, monkeypatch):
        rng = random.Random(41)
        calls = count_kernel_calls(monkeypatch)
        for d in _memo_cases(rng):
            for _ in range(4):
                order = rng.sample(_INVARIANTS, rng.randint(1, len(_INVARIANTS)))
                fresh = SquaredDistanceMatrix(d.a)
                calls.clear()
                for f in order + order:
                    _outcome(f, fresh)
                assert len(calls) == 1

    def test_any_order_matches_a_fresh_matrix(self):
        # the kept rows are shared by every reader; none may change them
        rng = random.Random(42)
        for d in _memo_cases(rng):
            expected = [_outcome(f, SquaredDistanceMatrix(d.a)) for f in _INVARIANTS]
            for _ in range(5):
                shared = SquaredDistanceMatrix(d.a)
                order = list(range(len(_INVARIANTS))) * 2
                rng.shuffle(order)
                for i in order:
                    assert _outcome(_INVARIANTS[i], shared) == expected[i]

    def test_facets_built_once(self, monkeypatch):
        # d keeps no facet matrix, but a facet's volume and radius share its one elimination
        d = random_point_sdm(random.Random(43), 5)
        facets = [facet_sdm(d, j) for j in range(6)]
        assert all(facet_sdm(d, j) == f and facet_sdm(d, j) is not f for j, f in enumerate(facets))
        calls = count_kernel_calls(monkeypatch)
        for f in facets:
            volume_sq(f)
        assert len(calls) == 6
        for f in facets:
            circumradius_sq(f)
        assert len(calls) == 6


# the regular unit triangle with an apex at squared distance 3/10 from each base vertex: every facet is
# Euclidean, but the Gram matrix has inertia (2, 1, 0)
APEX_AT_3_10 = [[0, 1, 1, Fraction(3, 10)], [1, 0, 1, Fraction(3, 10)], [1, 1, 0, Fraction(3, 10)],
                [Fraction(3, 10)] * 3 + [0]]
# the exported functions of a matrix that answer for any matrix; each other one refuses non-Euclidean input
ANSWER_ANY_MATRIX = {
    "cm_det", "cm_matrix", "gram_matrix", "inner_cm_det", "is_realizable", "facet_sdm", "find_apexes",
    "recover_circumscriptible", "recover_isodynamic", "recover_orthocentric", "recover_tetra_isogonic",
}


def test_every_function_of_a_matrix_refuses_non_euclidean_input_or_answers_for_any():
    functions = {}
    for name in simplexkite.__all__:
        value = getattr(simplexkite, name)
        if inspect.isfunction(value) and next(iter(inspect.signature(value).parameters)) == "d":
            functions[name] = value
    assert ANSWER_ANY_MATRIX < set(functions) and len(functions) >= 22
    answered = set()
    for name, function in sorted(functions.items()):
        d = SquaredDistanceMatrix(APEX_AT_3_10)  # fresh, so no kept result decides the outcome
        try:
            function(d, 0) if name == "facet_sdm" else function(d)
        except NonEuclideanError as exc:
            assert exc.verdict.status is Realizability.NON_EUCLIDEAN
            assert exc.verdict.gram_inertia == (2, 1, 0)
        else:
            answered.add(name)
    assert answered == ANSWER_ANY_MATRIX


def test_centers_reads_realizability_through_the_cayley_gate():
    assert not {"NonEuclideanError", "Realizability", "is_realizable", "_gram_elimination"} & set(vars(centers))


def test_matrix_hash_follows_equality():
    d = SquaredDistanceMatrix([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    same = SquaredDistanceMatrix([["0", "1", "2"], ["1", "0", "3"], ["2", "3", "0"]])
    assert d == same and d is not same and hash(d) == hash(same)
    assert len({d, same, d.permuted([1, 0, 2])}) == 2
