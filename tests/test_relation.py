import decimal
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from simplexkite import (
    DEGENERATE_ON_CIRCLE,
    INCONSISTENT,
    VALID_TRIANGLE,
    DistanceTuple,
    SquaredDistanceMatrix,
    embed,
    equilateral_vertices,
    on_circumsphere_by_sums,
    pompeiu_classify,
    pompeiu_from_point,
    relation_residual,
    relation_residual_from_squares,
    solve_missing_distance,
    solve_missing_distance_squares,
)
from simplexkite.relation import (
    _float_sqrt,
    pompeiu_invariants,
    pompeiu_verdict,
    relation_holds,
    residual_within_tol,
    solve_open_slot,
)

SQRT3 = math.sqrt(3.0)


def hull_samples(rng, s, count):
    """Random points in the affine hull (the embedding is full-dimensional)."""
    for _ in range(count):
        w = np.array([rng.uniform(-1.5, 2.5) for _ in range(s.n + 1)])
        w /= w.sum()
        yield (w[:, None] * s.vertices).sum(axis=0)


class TestResidual:
    def test_point_at_vertex(self):
        assert relation_residual(DistanceTuple(2, 1, (0, 1, 1))) == 0

    def test_center_exact_squares(self):
        squares = [1, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]
        assert relation_residual_from_squares(2, squares) == 0

    def test_equidistant_off_plane_point(self):
        assert relation_residual(DistanceTuple(2, 1, (1, 1, 1))) == -4

    def test_hull_points_vanish(self):
        rng = random.Random(5)
        for n in range(2, 7):
            s = embed(SquaredDistanceMatrix.regular(n))
            for p in hull_samples(rng, s, 100):
                dists = tuple(float(np.linalg.norm(p - v)) for v in s.vertices)
                residual = relation_residual(DistanceTuple(n, 1.0, dists))
                scale = max((1.0,) + dists) ** 4
                assert abs(residual) <= 1e-9 * scale

    def test_off_hull_points_are_negative(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            s = embed(SquaredDistanceMatrix.regular(n))
            lifted = np.hstack([s.vertices, np.zeros((n + 1, 1))])
            for _ in range(50):
                w = np.array([rng.random() for _ in range(n + 1)])
                w /= w.sum()
                p = (w[:, None] * lifted).sum(axis=0)
                p[-1] = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
                dists = tuple(float(np.linalg.norm(p - v)) for v in lifted)
                residual = relation_residual(DistanceTuple(n, 1.0, dists))
                assert residual < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceTuple(2, 0, (1, 1, 1))
        with pytest.raises(ValueError):
            DistanceTuple(2, 1, (1, 1))
        with pytest.raises(ValueError):
            DistanceTuple(2, 1, (-1, 1, 1))

    @pytest.mark.parametrize("t0, t", [(math.nan, (1, 1, 1)), (math.inf, (1, 1, 1)), (1, (1, math.nan, 1)), (1, (1, 1, -math.inf))])
    def test_nan_and_infinity_refused(self, t0, t):
        with pytest.raises(ValueError, match="float inputs must be finite"):
            DistanceTuple(2, t0, t)

    def test_negative_squares_refused(self):
        with pytest.raises(ValueError, match="squared values must be nonnegative"):
            relation_residual_from_squares(1, [1, -1, 0])


class TestExactReading:
    """Float input is read at its exact value; each quartic comes back as one
    float relative to the fourth power of the largest length, the number a
    verdict compares with its tolerance."""

    def test_float_residual_is_relative_to_the_largest_length(self):
        assert relation_residual(DistanceTuple(2, 1.0, (1.0, 2.0, 1.0))) == 0.5  # 8 / 2**4
        assert relation_residual_from_squares(2, iter([1.0, 1.0, 4.0, 1.0])) == 0.5
        assert relation_residual_from_squares(2, [0.0] * 4) == 0.0
        for side in (1e-80, 1.0, 1e100, 1e200):
            assert relation_residual(DistanceTuple(2, side, (side,) * 3)) == -4.0

    def test_exact_input_stays_exact(self):
        residual = relation_residual(DistanceTuple(2, 2, (1, 1, 1)))
        assert residual == 8 and isinstance(residual, Fraction)
        assert residual_within_tol(Fraction(1, 10**400), 1e-3) is False  # exact: compared with 0, whatever tol
        assert pompeiu_verdict(Fraction(0), Fraction(1, 10**400), 1e-3) == VALID_TRIANGLE
        assert pompeiu_invariants(2, 1, 1, 1) == (8, 3)
        assert all(isinstance(v, Fraction) for v in pompeiu_invariants(2, 1, 1, 1))

    @pytest.mark.parametrize("side", [1e-100, 1.0, 1e100, 1e308])
    def test_pompeiu_invariants_at_every_magnitude(self, side):
        assert pompeiu_invariants(side, side, side, side) == (-4.0, 3.0)

    def test_mixed_input_is_float_throughout(self):
        assert pompeiu_invariants(2.0, 1, 1, 1) == (0.5, 0.1875)

    def test_verdicts_compare_the_returned_value(self):
        rng = random.Random(31)
        for _ in range(300):
            t0, *t = (rng.uniform(0.5, 1.5) for _ in range(4))
            dt = DistanceTuple(2, t0, t)
            g, h = pompeiu_invariants(t0, *t)
            for tol in (1e-3, 0.05, 0.5):
                assert relation_holds(dt, tol) is (abs(relation_residual(dt)) <= tol)
                assert residual_within_tol(relation_residual(dt), tol) is relation_holds(dt, tol)
                verdict = pompeiu_classify(t0, *t, tol=tol)
                assert pompeiu_verdict(g, h, tol) == verdict
                assert (verdict == INCONSISTENT) is (abs(g) > tol)
                if verdict != INCONSISTENT:
                    assert (verdict == DEGENERATE_ON_CIRCLE) is (abs(h) <= tol)


class TestMissingDistance:
    def test_vertex_case_double_root(self):
        assert solve_missing_distance(2, 1, [0, 1, None]) == (1.0,)

    def test_center_and_antipode(self):
        got = solve_missing_distance(2, 1, [1 / SQRT3, 1 / SQRT3, None])
        assert got == pytest.approx((1 / SQRT3, 2 / SQRT3))

    def test_exact_squares(self):
        got = solve_missing_distance_squares(2, 1, [Fraction(1, 3), Fraction(1, 3)])
        assert got == [Fraction(1, 3), Fraction(4, 3)]

    def test_far_point_substitution(self):
        for t in solve_missing_distance(2, 1, [10, 10, None]):
            residual = relation_residual(DistanceTuple(2, 1.0, (10.0, 10.0, t)))
            assert abs(residual) <= 1e-9 * max(10.0, t) ** 4

    def test_dimension_zero_refused(self):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            solve_missing_distance_squares(0, 1, [])

    def test_exact_squares_beyond_the_float_range(self):
        big = 10**200
        assert solve_missing_distance_squares(2, big**2, [big**2, big**2]) == [0, 3 * big**2]
        assert solve_missing_distance(2, big, [big, big]) == pytest.approx((0.0, SQRT3 * 1e200), rel=1e-15)

    @pytest.mark.parametrize("side", [1e-300, 1e-200, 1e-160, 1e-150, 1e150, 1e200])
    def test_float_distances_at_every_magnitude(self, side):
        # the squares 0 and 3 side**2 are exact, whether or not a float can hold them
        assert solve_missing_distance(2, side, [side, side]) == pytest.approx((0.0, SQRT3 * side), rel=1e-15)

    @pytest.mark.parametrize("side", [1e-200, 1e-160, 1e160])
    def test_float_squares_outside_the_normal_range_refused(self, side):
        # 3 side**2 would be 0.0, a subnormal float or infinity
        with pytest.raises(ValueError, match="a root lies beyond the float range"):
            solve_open_slot(2, side, [side, side])

    @pytest.mark.parametrize("square", [1e-320, 1e308])
    def test_float_square_roots_outside_the_normal_range_refused(self, square):
        with pytest.raises(ValueError, match="a root lies beyond the float range"):
            solve_missing_distance_squares(2, square, [square, square])

    def test_roots_beyond_the_float_range_refused(self):
        with pytest.raises(ValueError, match="a root lies beyond the float range"):
            solve_missing_distance(2, 10**400, [10**400, 10**400])
        with pytest.raises(ValueError, match="a root lies beyond the float range"):
            solve_missing_distance_squares(2, 10**400, [10**400, 4])  # irrational roots, as floats
        with pytest.raises(ValueError, match="a root lies beyond the float range"):
            solve_missing_distance_squares(1, 10**308, [2 * 10**307])  # the larger float root overflows

    def test_float_sqrt_is_math_sqrt_in_the_normal_range(self):
        rng = random.Random(23)
        for _ in range(2000):
            q = Fraction(rng.getrandbits(rng.randint(1, 200)) + 1, rng.getrandbits(rng.randint(1, 200)) + 1)
            q *= Fraction(2) ** rng.randint(-800, 800)
            assert _float_sqrt(q) == math.sqrt(float(q))

    def test_against_a_60_digit_reference(self):
        """The roots of float and exact input, to within 1e-15 of the roots of
        their exact values taken to 60 digits, also where the smaller root is
        far below the larger one, and for float lengths from 1e-300 to 1e300,
        whose squares leave the float range."""

        def reference(n, t0, known):
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                values = [Fraction(v) ** 2 for v in (t0, *known)]
                s1 = sum(values)
                c = (n + 1) * sum(v * v for v in values) - s1 * s1
                disc = s1 * s1 - n * c
                if disc < 0:
                    return []
                dec = lambda q: Decimal(q.numerator) / Decimal(q.denominator)
                hi = (dec(s1) + dec(disc).sqrt()) / n
                lo = [dec(c) / n / hi] if c > 0 else [Decimal(0)] if c == 0 else []
                return [q.sqrt() for q in sorted(set(lo + [hi]))]

        rng = random.Random(29)
        simplices = {n: embed(SquaredDistanceMatrix.regular(n)) for n in range(2, 8)}
        worst = {True: 0.0, False: 0.0}
        for i in range(2000):
            n = rng.randint(2, 7)
            dists = [float(np.linalg.norm(p - v)) for p in hull_samples(rng, simplices[n], 1) for v in simplices[n].vertices]
            exact = i % 2 == 1
            if exact:
                t0, known = Fraction(1), [Fraction(x).limit_denominator(10**6) for x in dists[:-1]]
            else:
                scale = 10 ** rng.uniform(-300, 300)
                t0, known = scale, [x * scale for x in dists[:-1]]
            got, want = solve_missing_distance(n, t0, known), reference(n, t0, known)
            assert len(got) == len(want), (n, t0, known)
            for g, w in zip(got, want):
                error = float(abs(Decimal(g) - w) / w) if w else float(g)
                worst[exact] = max(worst[exact], error)
        assert max(worst.values()) <= 1e-15, worst

    def test_incompatible_distances_empty(self):
        assert solve_missing_distance(2, 1, [10, 0.1, None]) == ()

    def test_open_slot_conventions(self):
        assert solve_missing_distance(2, 1, [0, 1]) == (1.0,)
        with pytest.raises(ValueError):
            solve_missing_distance(2, 1, [None, None, 1])

    def test_substitution_random(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 6)
            s = embed(SquaredDistanceMatrix.regular(n))
            p = next(iter(hull_samples(rng, s, 1)))
            dists = [float(np.linalg.norm(p - v)) for v in s.vertices]
            hidden = dists[-1]
            got = solve_missing_distance(n, 1.0, dists[:-1])
            assert any(t == pytest.approx(hidden, rel=1e-7, abs=1e-9) for t in got)


class TestCircumsphereBySums:
    def test_unit_triangle(self):
        assert on_circumsphere_by_sums(2, 1, 2)

    def test_dimension_zero_refused(self):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            on_circumsphere_by_sums(0, 1, 0)

    def test_vertex_is_on_sphere(self):
        for n in (2, 3, 5):
            # distances from a vertex: one zero and n edges
            total = n * 1
            assert on_circumsphere_by_sums(n, 1, total)

    def test_center_is_not(self):
        assert not on_circumsphere_by_sums(2, 1, Fraction(3, 2))
        assert not on_circumsphere_by_sums(3, 1, Fraction(3, 2))

    def test_float_tolerance(self):
        assert on_circumsphere_by_sums(2, 1.0, 2.0 + 1e-12)
        assert not on_circumsphere_by_sums(2, 1.0, 2.01)


class TestPompeiuClassify:
    def test_vertex_degenerate(self):
        assert pompeiu_classify(1, 0, 1, 1) == DEGENERATE_ON_CIRCLE

    @pytest.mark.parametrize("args", [(0, 1, 1, 1), (1, -1, 1, 1), (-2.0, 1, 1, 1), (1, 1, 1, -0.5)])
    def test_side_and_distances_checked_by_the_invariants(self, args):
        for call in (pompeiu_invariants, pompeiu_classify):
            with pytest.raises(ValueError, match="side must be positive and distances nonnegative"):
                call(*args)

    def test_center_valid(self):
        assert pompeiu_classify(1, 1 / SQRT3, 1 / SQRT3, 1 / SQRT3) == VALID_TRIANGLE

    def test_antipodal_degenerate(self):
        assert pompeiu_classify(1, 2 / SQRT3, 1 / SQRT3, 1 / SQRT3) == DEGENERATE_ON_CIRCLE

    def test_inconsistent(self):
        assert pompeiu_classify(1, 1, 1, 1) == INCONSISTENT

    def test_exact_path(self):
        # squared distances 1/3 each: g = 3*(1+3*(1/9)) - (1+1)**2 = -4/3... center uses
        # irrational distances, so drive the exact branch with the vertex case
        assert pompeiu_classify(Fraction(1), Fraction(0), Fraction(1), Fraction(1)) == DEGENERATE_ON_CIRCLE


class TestPompeiuFromPoint:
    def test_center(self):
        _, verdict = pompeiu_from_point(1.0, (0.0, 0.0))
        assert verdict == VALID_TRIANGLE

    def test_on_circle_random_angles(self):
        rng = random.Random(13)
        r = 1 / SQRT3
        for _ in range(25):
            ang = rng.uniform(0, 2 * math.pi)
            _, verdict = pompeiu_from_point(1.0, (r * math.cos(ang), r * math.sin(ang)))
            assert verdict == DEGENERATE_ON_CIRCLE

    def test_off_circle_strict_inequalities(self):
        rng = random.Random(17)
        r = 1 / SQRT3
        for _ in range(100):
            p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            rho = math.hypot(*p)
            if abs(rho - r) < 1e-3:
                continue
            (x, y, z), verdict = pompeiu_from_point(1.0, p)
            assert verdict == VALID_TRIANGLE
            assert y + z > x and z + x > y and x + y > z

    def test_verdict_matches_classify(self):
        rng = random.Random(19)
        for _ in range(50):
            p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            dists, verdict = pompeiu_from_point(1.0, p)
            assert verdict == pompeiu_classify(1.0, *dists)

    def test_triangle_construction(self):
        verts = np.asarray(equilateral_vertices(2.0))
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(verts[i] - verts[j]) == pytest.approx(2.0)
        assert np.linalg.norm(verts.mean(axis=0)) < 1e-15

    def test_side_beyond_the_float_range_refused(self):
        with pytest.raises(ValueError, match="float range"):
            pompeiu_from_point(10**400, (0.0, 0.0))
        with pytest.raises(ValueError, match="float range"):
            equilateral_vertices(10**400)

    @pytest.mark.parametrize("side", [math.nan, math.inf, -math.inf])
    def test_non_finite_side_refused(self, side):
        with pytest.raises(ValueError, match="finite"):
            equilateral_vertices(side)
        with pytest.raises(ValueError, match="finite"):
            pompeiu_from_point(side, (0.0, 0.0))


class TestSolveOpenSlot:
    @pytest.mark.parametrize(
        "n, t0, known",
        [(2, 1, [0, 1, None]), (2, 1, [0, 1]), (2, 1.5, [None, 1, 0.5]), (2, 1, [10, 0.1, None]),
         (3, Fraction(1, 2), [Fraction(1, 3), 1, Fraction(1, 2)]), (2, 10**200, [10**200, 10**200])],
    )
    def test_both_results_from_one_solve(self, n, t0, known):
        flat = [v for v in known if v is not None]
        squares = solve_missing_distance_squares(n, t0 * t0, [v * v for v in flat])
        assert solve_open_slot(n, t0, known) == (squares, solve_missing_distance(n, t0, known))

    @pytest.mark.parametrize(
        "known, message",
        [([None, None, 1], "exactly one slot"), ([1, None], "expected n known"), ([1, -1], "lengths must be positive")],
    )
    def test_input_checks(self, known, message):
        with pytest.raises(ValueError, match=message):
            solve_open_slot(2, 1, known)
        with pytest.raises(ValueError, match="lengths must be positive"):
            solve_open_slot(2, 0, [1, 1])


class TestScaleInvariantFloatVerdicts:
    """A float verdict is taken at a power-of-two scale of its inputs, so
    2**k times the inputs gets the verdict of k = 0, also where fourth
    powers underflow or the scale drops below 1e-300."""

    @staticmethod
    def scaled(v, k):
        return v * Fraction(2) ** k if isinstance(v, Fraction) else math.ldexp(v, k)

    def test_pompeiu_classify(self):
        point = pompeiu_from_point(1.0, (0.3, 0.1))[0]
        cases = [(1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 1.0, 1.0), (1.0, *point), (1.0, 0.5, 0.5, 0.5),
                 (Fraction(1), 0.0, 1.0, 1.0), (1.0, 1 / SQRT3, 1 / SQRT3, 1 / SQRT3)]
        verdicts = [pompeiu_classify(*case) for case in cases]
        assert set(verdicts) == {INCONSISTENT, DEGENERATE_ON_CIRCLE, VALID_TRIANGLE}
        for case, want in zip(cases, verdicts):
            for k in range(-250, 251):
                assert pompeiu_classify(*(self.scaled(v, k) for v in case)) == want, (case, k)

    def test_relation_holds(self):
        cases = [(2, 1.0, (1.0, 1.0, 1.0)), (2, 1.0, (0.0, 1.0, 1.0)), (2, 1.0, (1 / SQRT3,) * 3),
                 (3, 1.0, (0.0, 1.0, 1.0, 1.0)), (3, 1.0, (0.5, 1.0, 1.0, 1.0)), (2, Fraction(1), (0.0, 1.0, 1.0))]
        verdicts = [relation_holds(DistanceTuple(*case)) for case in cases]
        assert verdicts == [False, True, True, True, False, True]
        for (n, t0, t), want in zip(cases, verdicts):
            for k in range(-250, 251):
                dt = DistanceTuple(n, self.scaled(t0, k), [self.scaled(v, k) for v in t])
                assert relation_holds(dt) is want, (n, t0, t, k)

    def test_on_circumsphere_by_sums(self):
        # the edge length scales by 2**k and the sum of squares by 4**k
        cases = [(2, 1.0, 0.0), (2, 1.0, 2.0), (2, 1.0, 2.0 + 1e-12), (2, 1.0, 2.01), (3, 1.0, 1.5),
                 (3, 0.75, 1.6875), (2, Fraction(1), 2.0), (2, 1.0, Fraction(3, 2))]
        verdicts = [on_circumsphere_by_sums(*case) for case in cases]
        assert verdicts == [False, True, True, False, False, True, True, False]
        for (n, u, total), want in zip(cases, verdicts):
            for k in range(-250, 251):
                assert on_circumsphere_by_sums(n, self.scaled(u, k), self.scaled(total, 2 * k)) is want, (n, u, total, k)

    def test_on_circumsphere_by_sums_mixed_and_non_finite(self):
        assert not on_circumsphere_by_sums(2, 10**200, 1.0)
        assert on_circumsphere_by_sums(2, 10**150, 2e300)
        assert on_circumsphere_by_sums(2, 1.0, 2)
        for args in ((2, math.nan, 2.0), (2, 1.0, math.nan), (2, math.inf, 2.0), (2, 1.0, math.inf), (2, 1.0, -math.inf)):
            with pytest.raises(ValueError):
                on_circumsphere_by_sums(*args)

    def test_relation_holds_decides_exact_lengths_exactly(self):
        assert relation_holds(DistanceTuple(2, 10**400, (0, 10**400, 10**400)))
        assert not relation_holds(DistanceTuple(2, 10**6, (0, 10**6, 10**6 + 1)), tol=1e30)
