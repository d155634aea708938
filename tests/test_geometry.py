import json
import math
import operator
import pathlib
import random
import sys
import tempfile
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from simplexkite import (
    DegenerateSimplexError,
    EmbeddedSimplex,
    NonEuclideanError,
    PreKite,
    Realizability,
    SquaredDistanceMatrix,
    center_set,
    centroid,
    circumcenter,
    circumradius_sq,
    embed,
    fermat_torricelli,
    incenter,
    is_realizable,
    sum_distances,
)
import simplexkite.geometry as geometry
from simplexkite.geometry import _jump_change, _pull, _units
from conftest import random_point_sdm


def sdm_triangle(x, y, z):
    return SquaredDistanceMatrix([[0, x, y], [x, 0, z], [y, z, 0]])


class TestEmbed:
    def test_segment(self):
        vertices = np.asarray(embed(SquaredDistanceMatrix([[0, 4], [4, 0]])).vertices)
        assert np.allclose(sorted(vertices[:, 0]), [0.0, 2.0])

    def test_unit_triangle_distances(self):
        vertices = np.asarray(embed(SquaredDistanceMatrix.regular(2)).vertices)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(vertices[i] - vertices[j]) == pytest.approx(1.0)

    def test_apex_height(self):
        # apex of PK[3;1;(1,1,2)] sits at squared height 2/3 over the base plane
        vertices = np.asarray(embed(PreKite(3, 1, (1, 1, 2)).to_sdm()).vertices)
        base = vertices[1:]
        span = base[1:] - base[0]
        _, _, vt = np.linalg.svd(span)
        height = abs(float((vertices[0] - base[0]) @ vt[-1]))
        assert height**2 == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_round_trip_error_bound(self):
        rng = random.Random(51)
        for _ in range(25):
            n = rng.randint(1, 8)
            s = embed(random_point_sdm(rng, n))
            assert s.max_rel_error <= 1e-9

    def test_vertices_outside_the_frame_rejected(self):
        # the circumcenter is read in the frame embed builds, so no other is accepted
        d = sdm_triangle(1, 1, 2)
        assert EmbeddedSimplex([[0, 0], [1, 0], [0, 1]], d).vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        for rows in ([[0, 0], [0, 1], [1, 0]], [[1, 1], [2, 1], [1, 2]]):
            with pytest.raises(ValueError, match="first i coordinates"):
                EmbeddedSimplex(rows, d)

    def test_centers_of_flat_coordinates_raise(self):
        # a collinear triangle fits the frame, but it has no circumsphere and no insphere
        d = sdm_triangle(1, 4, 1)
        s = EmbeddedSimplex([[0, 0], [1, 0], [2, 0]], d)
        for center in (circumcenter, incenter):
            with pytest.raises(DegenerateSimplexError):
                center(s)

    def test_rejections_carry_verdict(self):
        with pytest.raises(DegenerateSimplexError) as exc:
            embed(sdm_triangle(1, 4, 1))
        assert exc.value.verdict is not None
        with pytest.raises(NonEuclideanError) as exc:
            embed(sdm_triangle(1, 9, 1))
        assert exc.value.verdict is not None


class TestCentroid:
    def test_segment_midpoint(self):
        s = embed(SquaredDistanceMatrix([[0, 4], [4, 0]]))
        assert centroid(s) == pytest.approx(np.array([1.0]))

    def test_regular_coincides_with_circumcenter(self):
        for n in (2, 3, 5):
            s = embed(SquaredDistanceMatrix.regular(n))
            q, _ = circumcenter(s)
            assert np.linalg.norm(np.asarray(centroid(s)) - q) < 1e-12

    def test_in_convex_hull(self):
        rng = random.Random(53)
        for _ in range(10):
            s = embed(random_point_sdm(rng, 3))
            g = np.asarray(centroid(s))
            vertices = np.asarray(s.vertices)
            # barycentric coordinates of the centroid are all 1/(n+1)
            coeffs, *_ = np.linalg.lstsq((vertices[1:] - vertices[0]).T, g - vertices[0], rcond=None)
            bary = np.concatenate([[1 - coeffs.sum()], coeffs])
            assert bary.min() > 0


class TestCircumcenter:
    def test_regular_radius(self):
        for n in range(1, 9):
            s = embed(SquaredDistanceMatrix.regular(n))
            _, r = circumcenter(s)
            assert r**2 == pytest.approx(n / (2 * (n + 1)), rel=1e-10)

    def test_single_long_edge_example(self):
        s = embed(PreKite(3, 1, (1, 1, 2)).to_sdm())
        _, r = circumcenter(s)
        assert r**2 == pytest.approx(0.5, rel=1e-10)

    def test_segment(self):
        s = embed(SquaredDistanceMatrix([[0, 4], [4, 0]]))
        c, r = circumcenter(s)
        assert c == pytest.approx(np.array([1.0]))
        assert r == pytest.approx(1.0)

    def test_agrees_with_exact_value(self):
        rng = random.Random(57)
        for _ in range(20):
            d = random_point_sdm(rng, rng.randint(1, 6))
            s = embed(d)
            _, r = circumcenter(s)
            assert r**2 == pytest.approx(float(circumradius_sq(d)), rel=1e-8)

    def test_equidistance(self):
        rng = random.Random(59)
        s = embed(random_point_sdm(rng, 4))
        c, r = circumcenter(s)
        for vertex in np.asarray(s.vertices):
            assert np.linalg.norm(vertex - c) == pytest.approx(r, rel=1e-9)


class TestIncenter:
    def test_regular_matches_centroid(self):
        for n in (2, 3, 4):
            s = embed(SquaredDistanceMatrix.regular(n))
            center, _ = incenter(s)
            assert np.linalg.norm(np.asarray(center) - centroid(s)) < 1e-10

    def test_right_triangle_inradius(self):
        # squared sides 9, 16, 25: the classical 3-4-5 right triangle
        s = embed(sdm_triangle(9, 16, 25))
        _, r = incenter(s)
        assert r == pytest.approx(1.0, rel=1e-10)

    def test_equiareal_prekite_incenter_is_centroid(self):
        s = embed(PreKite(4, 1, (1, 1, 1, 2)).to_sdm())
        center, _ = incenter(s)
        assert np.linalg.norm(np.asarray(center) - centroid(s)) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(st.builds(lambda num, den, e: Fraction(num, den) * Fraction(10) ** e,
                     st.integers(1, 10**30), st.integers(1, 10**30), st.integers(-270, 270)))
    @example(Fraction(1))
    @example(Fraction(3, 7))
    @example(Fraction(10**300))
    @example(Fraction(1, 10**300))
    @example(Fraction(10**300 + 1))
    def test_segment_is_midpoint_and_half_length(self, side_sq):
        # n = 1 takes the facet-weight path of every n: two point facets, weights 1/2 each
        s = embed(SquaredDistanceMatrix.regular(1, side_sq))
        p, q = s.vertices
        assert incenter(s) == (tuple((a + b) / 2 for a, b in zip(p, q)), math.dist(p, q) / 2)

    def test_inradius_equals_volume_ratio(self):
        # r = n * V / (sum of facet volumes)
        from simplexkite import facet_sdm, volume_sq

        rng = random.Random(61)
        for _ in range(10):
            d = random_point_sdm(rng, 3)
            s = embed(d)
            _, r = incenter(s)
            vol = math.sqrt(float(volume_sq(d)))
            facet_total = sum(
                math.sqrt(float(volume_sq(facet_sdm(d, j)))) for j in range(4)
            )
            assert r == pytest.approx(3 * vol / facet_total, rel=1e-9)


class TestFermatTorricelli:
    def test_regular_center(self):
        for n in (2, 3, 4):
            s = embed(SquaredDistanceMatrix.regular(n))
            f = np.asarray(fermat_torricelli(s))
            assert np.linalg.norm(f - centroid(s)) < 1e-8

    def test_obtuse_triangle_returns_vertex(self):
        # angle at vertex 0 is about 138 degrees (cos = -3/4)
        s = embed(sdm_triangle(1, 1, Fraction(7, 2)))
        f = np.asarray(fermat_torricelli(s))
        assert np.linalg.norm(f - s.vertices[0]) < 1e-12

    def test_exactly_120_degree_vertex(self):
        # squared opposite side 1 + 1 - 2*cos(120) = 3: boundary case
        s = embed(sdm_triangle(1, 1, 3))
        f = np.asarray(fermat_torricelli(s))
        assert np.linalg.norm(f - s.vertices[0]) < 1e-6

    def test_equilateral_objective(self):
        s = embed(SquaredDistanceMatrix.regular(2))
        assert sum_distances(s, fermat_torricelli(s)) == pytest.approx(math.sqrt(3.0))

    def test_objective_beats_vertices_and_samples(self):
        rng = random.Random(67)
        for _ in range(8):
            s = embed(random_point_sdm(rng, rng.randint(2, 4)))
            f = fermat_torricelli(s)
            best = sum_distances(s, f)
            for vertex in s.vertices:
                assert best <= sum_distances(s, vertex) + 1e-9
            for _ in range(100):
                w = np.array([rng.random() for _ in range(s.n + 1)])
                w /= w.sum()
                p = (w[:, None] * s.vertices).sum(axis=0)
                assert best <= sum_distances(s, p) + 1e-9


def gradient_norm(s, x):
    """Norm of the summed-distance gradient at a point off the vertices."""
    pts = np.asarray(s.vertices)
    diffs = np.asarray(x) - pts
    return float(np.linalg.norm((diffs / np.linalg.norm(diffs, axis=1)[:, None]).sum(axis=0)))


# A tetra-isogonic 6-simplex whose Fermat point sits next to vertex 5: the
# combined unit pull there is about 1.000074, just over the vertex certificate.
NEAR_VERTEX_6 = [
    ["0", "1161/256", "631/256", "7681/2304", "5179/2304", "301/256", "1291/256"],
    ["1161/256", "0", "277/64", "193/36", "2341/576", "43/16", "469/64"],
    ["631/256", "277/64", "0", "1813/576", "1201/576", "67/64", "309/64"],
    ["7681/2304", "193/36", "1813/576", "0", "559/192", "247/144", "3397/576"],
    ["5179/2304", "2341/576", "1201/576", "559/192", "0", "511/576", "2623/576"],
    ["301/256", "43/16", "67/64", "247/144", "511/576", "0", "199/64"],
    ["1291/256", "469/64", "309/64", "3397/576", "2623/576", "199/64", "0"],
]


class TestFermatNextToAVertex:
    """Weiszfeld's slow mode: the minimizer a distance delta from a vertex,
    with delta much smaller than the diameter."""

    @pytest.mark.parametrize("k", range(3, 11))
    def test_triangle_just_under_120_degrees(self, k):
        # the angle at vertex 0 falls short of 120 degrees by about 10**-k
        s = embed(sdm_triangle(1, 1, 3 - Fraction(1, 10**k)))
        f = fermat_torricelli(s)
        assert 0.0 < math.dist(f, s.vertices[0]) < 10.0 ** (1 - k)
        assert gradient_norm(s, f) <= 1e-10

    @pytest.mark.parametrize("k", range(3, 12))
    def test_triangle_just_under_120_degrees_in_10000_steps(self, k, monkeypatch):
        # each step is taken from x, so it is not lost to the rounding of the vertex next to x;
        # every step reads the unit vectors once, so counting `_units` calls bounds the steps
        steps = []
        monkeypatch.setattr(geometry, "_units", lambda *args: steps.append(1) or _units(*args))
        s = embed(sdm_triangle(1, 1, 3 - Fraction(1, 10**k)))
        f = fermat_torricelli(s)
        assert gradient_norm(s, f) <= 1e-10
        assert len(steps) <= 10_000

    def test_a_jump_that_raises_the_summed_distance_is_refused(self):
        # Accepting every extrapolated jump here runs out of steps.
        s = embed(SquaredDistanceMatrix([
            [0, Fraction(720868290159583, 4503599627370496), Fraction(47396738530183, 8796093022208)],
            [Fraction(720868290159583, 4503599627370496), 0, Fraction(7292627388696577, 1125899906842624)],
            [Fraction(47396738530183, 8796093022208), Fraction(7292627388696577, 1125899906842624), 0],
        ]))
        assert gradient_norm(s, fermat_torricelli(s)) <= 1e-10

    def test_six_simplex_next_to_a_vertex(self):
        s = embed(SquaredDistanceMatrix(NEAR_VERTEX_6))
        f = fermat_torricelli(s)
        assert 0.0 < math.dist(f, s.vertices[5]) < 1e-3
        assert gradient_norm(s, f) <= 1e-10


class TestFermatStepOff:
    """An iterate on a vertex that is not the minimizer is stepped off along
    the other vertices' pull.  No averaging step from the centroid lands
    there, so each case starts the iteration on vertex k instead, with
    `centroid` patched; the builtin `sum` is patched to raise, as in
    `test_float_oracle.test_no_float_sum_is_the_builtin`."""

    @pytest.mark.parametrize("matrix, k", [
        (SquaredDistanceMatrix.regular(3), 0),
        (SquaredDistanceMatrix.regular(4), 4),
        (sdm_triangle(4, 5, 6), 2),
        (sdm_triangle(1, 1, 3 - Fraction(1, 10**6)), 0),
        (sdm_triangle(1, 1, 3 - Fraction(1, 10**6)), 1),
        (SquaredDistanceMatrix(NEAR_VERTEX_6), 5),
    ], ids=["regular 3, vertex 0", "regular 4, vertex 4", "triangle 4 5 6, vertex 2",
            "just under 120 degrees, vertex 0", "just under 120 degrees, vertex 1", "near-vertex 6, vertex 5"])
    def test_from_a_vertex(self, monkeypatch, matrix, k):
        s = embed(matrix)
        want = fermat_torricelli(s)
        pulled = []
        vertex_pull = geometry._vertex_pull

        def counted_vertex_pull(pts, j, row):
            pulled.append(j)
            return vertex_pull(pts, j, row)

        def refuse(*args):
            raise AssertionError("builtin sum called in the float layer")

        monkeypatch.setattr(geometry, "centroid", lambda s: s.vertices[k])
        monkeypatch.setattr(geometry, "_vertex_pull", counted_vertex_pull)
        monkeypatch.setattr(geometry, "sum", refuse, raising=False)
        f = fermat_torricelli(s)
        # the step-off pulls vertex k once; only a vertex whose summed distance ties the least, within a factor
        # 1 + 1e-9, is certified first
        sums = [sum_distances(s, v) for v in s.vertices]
        assert pulled.count(k) == 1 + (sums[k] <= (1.0 + 1e-9) * min(sums))
        assert f not in s.vertices
        assert gradient_norm(s, f) <= 1e-10
        assert math.dist(f, want) <= 1e-8 * max(math.dist(p, q) for p in s.vertices for q in s.vertices)


def test_vertex_to_facet_centroid_distance():
    for n in range(2, 9):
        vertices = np.asarray(embed(SquaredDistanceMatrix.regular(n)).vertices)
        g = vertices[1:].mean(axis=0)
        dist_sq = float(((vertices[0] - g) ** 2).sum())
        assert dist_sq == pytest.approx((n + 1) / (2 * n), rel=1e-9)


def test_center_set_bundle():
    s = embed(SquaredDistanceMatrix.regular(3))
    cs = center_set(s)
    assert cs.circumradius == pytest.approx(math.sqrt(3.0 / 8.0))
    assert np.linalg.norm(np.asarray(cs.centroid) - cs.incenter) < 1e-10
    assert np.linalg.norm(np.asarray(cs.centroid) - cs.fermat) < 1e-8
    payload = cs.to_json()
    assert set(payload) == {
        "centroid", "circumcenter", "incenter", "fermat", "circumradius", "inradius",
    }


def unscreened_vertex(s):
    """The first vertex passing the certificate, every vertex tried: None
    when the unit pulls on each have norm above 1 + 1e-12."""
    pts = s.vertices
    for k, vk in enumerate(pts):
        others = pts[:k] + pts[k + 1:]
        pull = _pull(vk, zip(*others), [math.dist(v, vk) for v in others])
        if math.hypot(*pull) <= 1.0 + 1e-12:
            return vk
    return None


def hub_simplex(rng, n):
    """n random points and a hub near their centroid, off their hyperplane
    by a random small amount: the Fermat point is the hub when it sits low."""
    others = [[Fraction(rng.randint(-20, 20), 4) for _ in range(n)] for _ in range(n)]
    hub = [sum(col) / n + Fraction(rng.randint(-8, 8), rng.choice((4, 64, 1024))) for col in zip(*others)]
    pts = [hub] + others
    d = SquaredDistanceMatrix([[sum((a - b) ** 2 for a, b in zip(p, q)) for q in pts] for p in pts])
    return embed(d) if is_realizable(d).status is Realizability.NONDEGENERATE else None


class TestFermatVertexScreen:
    """Only the vertices whose summed distance ties the least, within a
    factor 1 + 1e-9, are certified; the answer must not change by a bit
    from trying every vertex's certificate."""

    def test_same_point_as_the_unscreened_certificate(self):
        rng = random.Random(1212)
        sims = [embed(sdm_triangle(1, 1, 3 + sign * Fraction(1, 10**k))) for k in range(1, 17) for sign in (-1, 1)]
        sims += [embed(tied_triangle(AT_135, b_first)) for b_first in (False, True)]
        while len(sims) < 200:
            s = hub_simplex(rng, rng.randint(2, 6))
            if s is not None:
                sims.append(s)
        at_vertex = 0
        for s in sims:
            want, got = unscreened_vertex(s), fermat_torricelli(s)
            if want is None:
                assert got not in s.vertices
            else:
                assert got == want
                at_vertex += 1
        assert at_vertex >= 40 and len(sims) - at_vertex >= 40


def decimal_summed_distance(pts, point):
    return sum(sum((Decimal(a) - Decimal(b)) ** 2 for a, b in zip(p, point)).sqrt() for p in pts)


def test_jump_change_is_the_change_in_summed_distance():
    # against the summed distances of the same float points, in 60-digit decimals
    rng = random.Random(1413)
    for _ in range(200):
        n = rng.randint(2, 6)
        pts = [tuple(rng.uniform(-1, 1) for _ in range(n)) for _ in range(n + 1)]
        x = tuple(rng.uniform(-0.5, 0.5) for _ in range(n))
        step = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-4, -1) for _ in range(n)]
        jump = [b * rng.uniform(0.5, 20) for b in step]
        new = tuple(a + b for a, b in zip(x, step))
        y = tuple(a + b for a, b in zip(new, jump))
        dists = [math.dist(p, x) for p in pts]
        ydists, newdists = [math.dist(p, y) for p in pts], [math.dist(p, new) for p in pts]
        got = _jump_change(jump, step, _units(x, list(zip(*pts)), dists), dists, ydists, newdists)
        with localcontext() as ctx:
            ctx.prec = 60
            error = abs(Decimal(got) - (decimal_summed_distance(pts, y) - decimal_summed_distance(pts, new)))
        # the rounding of new = x + step and y = new + jump moves each term by a few 1e-16
        assert error <= Decimal(2e-15 * (n + 1))


def test_fermat_raises_at_its_step_cap(monkeypatch):
    # next to an almost-120-degree vertex the iteration needs more than five steps
    e = 3 - Fraction(1, 10**6)
    s = embed(sdm_triangle(1, 1, e))
    fermat_torricelli(s)
    monkeypatch.setattr(geometry, "FT_MAX_ITER", 5)
    with pytest.raises(geometry.ConvergenceError) as info:
        fermat_torricelli(s)
    assert str(info.value) == "Fermat-Torricelli iteration did not reach gradient norm 1.0e-10 in 5 steps"


# two long sides 2**500 over a base 2**-500: the base facet's determinant over the largest is 2**-2000
THIN = sdm_triangle(2**1000, 2**1000, Fraction(1, 2**1000))
# squared sides 1, 1 + 10**-400 and 4 + 10**-400: vertex 2 at height 10**-200 over the line of the first side
LOW = sdm_triangle(1, 4 + Fraction(1, 10**400), 1 + Fraction(1, 10**400))


def test_thin_triangle_has_positive_incenter_weights(tmp_path, capsys):
    from simplexkite.cayley import _facet_dets
    from simplexkite.cli import main

    dets = _facet_dets(THIN)
    weights = [geometry._root(k, max(dets)) for k in dets]
    assert weights[0] == 2.0**-1000 and weights[1:] == [1.0, 1.0]  # each as exact as its root
    point, radius = incenter(embed(THIN))
    # r = 2 area / perimeter = b sqrt(L**2 - b**2 / 4) / (2 L + b), L = 2**500 and b = 2**-500
    assert math.isclose(radius, 2.0**-501, rel_tol=1e-15)
    assert point[1] == radius
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(THIN.to_json()))
    assert main(["classify", str(path)]) == 0
    capsys.readouterr()


def test_low_triangle_keeps_its_height_and_inradius():
    s = embed(LOW)
    assert s.vertices == ((0.0, 0.0), (1.0, 0.0), (2.0, 1e-200))
    point, radius = incenter(s)
    # the area is 10**-200 / 2 and the perimeter 4 to within 10**-400
    assert radius == 2.5e-201 and point[1] == radius


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**3000), st.integers(1, 2**3000), st.integers(-1100, 1100))
def test_root_matches_math_sqrt_on_normal_ratios(p, q, shift):
    p, q = (p << shift, q) if shift >= 0 else (p, q << -shift)
    ratio = Fraction(p, q)
    if sys.float_info.min <= ratio <= sys.float_info.max:
        assert geometry._root(p, q) == math.sqrt(p / q)


@settings(max_examples=300, deadline=None)
@given(st.integers(2**60, 2**61), st.integers(2**60, 2**61), st.integers(1023, 2000))
def test_root_of_a_subnormal_ratio_is_within_one_ulp(p, q, shift):
    q <<= shift + 1  # p / q in (2**-2002, 2**-1022): below the normal floats, its root a normal float
    assert Fraction(p, q) < Fraction(sys.float_info.min)
    root = geometry._root(p, q)
    ulp = Fraction(math.ulp(root))
    assert (Fraction(root) - ulp) ** 2 < Fraction(p, q) < (Fraction(root) + ulp) ** 2


def _old_root(p, q):
    """`geometry._root(p, q)` as it was before it took the factor p / q."""
    e = (p.bit_length() - q.bit_length()) // 2
    return math.ldexp(math.sqrt((p << -2 * e) / q if e < 0 else p / (q << 2 * e)), e)


def _is_normal_or_zero(x) -> bool:
    return x == 0 or sys.float_info.min <= abs(x) <= sys.float_info.max


BIG = st.integers(1, 2**3000)
SIGNED = st.one_of(st.just(0), BIG, BIG.map(lambda x: -x))
SHIFT = st.integers(-1100, 1100)


def _shifted(top, bottom, shift):
    return (top << shift, bottom) if shift >= 0 else (top, bottom << -shift)


@settings(max_examples=400, deadline=None)
@given(BIG, BIG, SHIFT, SIGNED, BIG, SHIFT)
@example(3, 1, 0, -2, 7, 0)
@example(1, 3, 0, 0, 5, 0)
def test_root_is_the_float_expression_on_normal_factors(a, b, s, p, q, t):
    (a, b), (p, q) = _shifted(a, b, s), _shifted(p, q, t)
    if _is_normal_or_zero(Fraction(p, q)) and _is_normal_or_zero(Fraction(a, b)):
        expected = p / q * math.sqrt(a / b)
        if _is_normal_or_zero(expected):
            assert geometry._root(a, b, p, q).hex() == expected.hex()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**1000), st.integers(1, 2**1000), st.integers(-1000, 1000))
def test_root_of_one_factor_is_the_old_square_root(a, b, shift):
    a, b = _shifted(a, b, shift)  # a / b within 2**±2000, normal or not, so its root is a normal float
    assert geometry._root(a, b) == geometry._root(a, b, 1, 1) == _old_root(a, b)


MID = st.integers(1, 2**200)


@settings(max_examples=300, deadline=None)
@given(MID, MID, st.one_of(st.just(0), MID, MID.map(lambda x: -x)), MID, st.integers(1100, 2000),
       st.integers(-60, 60), st.booleans())
def test_root_of_factors_outside_the_floats_keeps_their_digits(a, b, p, q, j, tilt, flip):
    # p / q and a / b lie within 2**±200, so p / q * math.sqrt(a / b) is a normal float; moving one
    # ratio out of the floats by 2**j and the other the opposite way by 4**i, i = j + tilt, moves
    # the product by 2**±tilt alone, and _root gives the moved bits
    i = j + tilt
    expected = math.ldexp(p / q * math.sqrt(a / b), -tilt if flip else tilt)
    moved = (a, b << 2 * i, p << j, q) if flip else (a << 2 * i, b, p, q << j)
    assert not _is_normal_or_zero(Fraction(moved[0], moved[1]))
    root = geometry._root(*moved)
    assert root.hex() == expected.hex()
    # four correctly rounded steps, p / q, a / b, the root and the product, each within 2**-53
    # relative, so the result is within 3.5 * 2**-53 of p / q * sqrt(a / b) (to first order)
    with localcontext() as ctx:
        ctx.prec = 60
        exact = Decimal(moved[2]) / Decimal(moved[3]) * (Decimal(moved[0]) / Decimal(moved[1])).sqrt()
        assert abs(Decimal(root) - exact) <= Decimal(3.6) * Decimal(2) ** -53 * abs(exact)


@pytest.mark.parametrize("args", [(1, 1, 2**1024, 1), (2**2100, 1, 1, 1), (2**1000, 1, 2**600, 1),
                                  (1, 2**100, -(2**1100), 1), (2**2, 1, 2**1023, 1)])
def test_root_above_the_largest_float_is_refused(args):
    a, b, p, q = args
    assert Fraction(p, q) ** 2 * Fraction(a, b) > Fraction(sys.float_info.max) ** 2
    with pytest.raises(ValueError, match=r"leaves the float range; the exact results \(classify --exact\)"):
        geometry._root(a, b, p, q)


def points_sdm(points):
    return SquaredDistanceMatrix([[sum((x - y) ** 2 for x, y in zip(p, q)) for q in points] for p in points])


def slanted_tetrahedron(h):
    """(0, 0, 0), (1, 0, 0), (2, h, 0) and (0, 1, 1): the first three nearly on a line."""
    return points_sdm([(0, 0, 0), (1, 0, 0), (2, h, 0), (0, 1, 1)])


# third vertices about 10**20 out, seen from B = (1, 0) at 135 degrees from A = (0, 0), so that B is the Fermat point,
# or at 4.4e-11 radians under 120 degrees, along the Pell convergent 70226 / 40545 of sqrt(3), so that it lies 1.3e-10
# from B
AT_135 = (10**20 + 1, 10**20)
UNDER_120 = (1 + 40545 * 10**15, 70226 * 10**15)


def tied_triangle(c, b_first):
    """A, B and c, with A's and B's summed distances rounding to one float."""
    return points_sdm([(1, 0), (0, 0), c] if b_first else [(0, 0), (1, 0), c])


# squared sides 1, 1 + 10**-400 and 4 + 10**-400: vertex 2 at (-1, 10**-200), the circumcenter at height 10**200
BACK = sdm_triangle(1, 1 + Fraction(1, 10**400), 4 + Fraction(1, 10**400))
# four shapes of height h: two triangles, a tetrahedron over a near-line and one over a near-face
NEAR_FLAT = {
    "back": lambda h: points_sdm([(0, 0), (1, 0), (-1, h)]),
    "forward": lambda h: points_sdm([(0, 0), (1, 0), (2, h)]),
    "slanted": slanted_tetrahedron,
    "low apex": lambda h: points_sdm([(0, 0, 0), (1, 0, 0), (0, 1, 0), (Fraction(1, 3), Fraction(1, 3), h)]),
}


def run_cli(command, d, directory):
    from simplexkite.cli import main

    path = directory / "matrix.json"
    path.write_text(json.dumps(d.to_json()))
    return main([command, str(path)])


def test_far_circumcenter_of_a_low_triangle(tmp_path, capsys):
    s = embed(BACK)
    assert s.vertices == ((0.0, 0.0), (1.0, 0.0), (-1.0, 1e-200))
    assert circumcenter(s) == ((0.5, 1e200), 1e200)
    assert [run_cli(command, BACK, tmp_path) for command in ("classify", "centers")] == [0, 0]
    capsys.readouterr()


def test_far_circumcenter_of_a_slanted_tetrahedron(tmp_path, capsys):
    d = slanted_tetrahedron(Fraction(1, 10**200))
    assert [run_cli(command, d, tmp_path) for command in ("classify", "centers")] == [0, 0]
    capsys.readouterr()
    d = slanted_tetrahedron(Fraction(1, 10**350))
    assert embed(d).vertices[2] == (2.0, 0.0, 0.0)  # the height rounds to 0.0 below the subnormals
    assert run_cli("embed", d, tmp_path) == 0
    capsys.readouterr()
    assert run_cli("classify", d, tmp_path) == 1  # its circumcenter, about 10**350 out, is no float
    assert "leaves the float range; the exact results (classify --exact)" in capsys.readouterr().err


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(NEAR_FLAT)), st.integers(1, 400))
def test_near_flat_simplices_are_answered_or_refused(shape, k):
    d = NEAR_FLAT[shape](Fraction(1, 10**k))
    with tempfile.TemporaryDirectory() as directory:
        for command in ("classify", "embed"):
            assert run_cli(command, d, pathlib.Path(directory)) in (0, 1)


def check_fermat_point(s, monkeypatch):
    """The Fermat point within 10 000 steps, its summed distance, in 60-digit decimals, not above a vertex's."""
    # every step reads the unit vectors once, so counting `_units` calls bounds the steps
    steps = []
    monkeypatch.setattr(geometry, "_units", lambda *args: steps.append(1) or _units(*args))
    f = fermat_torricelli(s)
    assert len(steps) <= 10_000
    # the summed distance f is convex, so f(x) - f(v) <= |grad f(x)| |x - v| for every vertex v, and the gradient
    # test allows that much: on the h = 10**-11 tetrahedron x lies 3.1e-21 above vertex 1, whose pull exceeds 1
    # by 5.8e-12, less than the test
    with localcontext() as ctx:
        ctx.prec = 60
        here = decimal_summed_distance(s.vertices, f)
        for v in s.vertices:
            slack = Decimal(geometry.FT_GRADIENT_TOL) * decimal_summed_distance([v], f)
            assert here <= decimal_summed_distance(s.vertices, v) + slack


@pytest.mark.parametrize(
    "d",
    [THIN] + [slanted_tetrahedron(Fraction(1, 10**k)) for k in range(6, 13)]
    + [tied_triangle(UNDER_120, b_first) for b_first in (False, True)],
    ids=["thin"] + ["slanted h=1e-%d" % k for k in range(6, 13)] + ["tied sums, A first", "tied sums, B first"])
def test_fermat_point_next_to_a_vertex_in_10000_steps(d, monkeypatch):
    # the minimizer lies by the short edge of the thin triangle, inside 1e-12 diameters of both its vertices, and
    # about 0.43 h from (1, 0, 0) on the tetrahedron, where vertex 0's frame cannot place it finely enough; on the
    # tied triangle only the certificates' norms tell B's frame from A's
    check_fermat_point(embed(d), monkeypatch)


def test_fermat_point_of_near_flat_simplices(monkeypatch):
    for make in NEAR_FLAT.values():
        for k in range(1, 401, 3):
            check_fermat_point(embed(make(Fraction(1, 10**k))), monkeypatch)


def far_cloud(rng, n):
    """n rational points of spread about 10 at about 10**4 from a vertex at the origin."""
    pts = [[Fraction(0)] * n] + [[Fraction(rng.randint(-40, 40), 4) + 10**4 for _ in range(n)] for _ in range(n)]
    return points_sdm(pts)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["cloud", "hub", "far"]), st.integers(0, 2**32), st.integers(2, 6), st.data())
def test_fermat_point_does_not_depend_on_labels(kind, seed, n, data):
    # the iteration's frame is the tied-least-sum vertex of least pull norm, which a relabelling permutes
    rng = random.Random(seed)
    if kind == "hub":
        hub = hub_simplex(rng, n)
        assume(hub is not None)
        d = hub.source
    else:
        d = (random_point_sdm if kind == "cloud" else far_cloud)(rng, n)
        assume(is_realizable(d).status is Realizability.NONDEGENERATE)
    perm = data.draw(st.permutations(range(n + 1)))
    s, t = embed(d), embed(d.permuted(perm))
    f, g = fermat_torricelli(s), fermat_torricelli(t)
    diameter = max(math.dist(p, q) for p in s.vertices for q in s.vertices)
    for i, j in enumerate(perm):
        assert abs(math.dist(g, t.vertices[i]) - math.dist(f, s.vertices[j])) <= 1e-9 * diameter


def test_circumcenter_of_a_frame_with_a_reversed_axis():
    # vertex 2 below the first axis: the frame embed builds, its second axis reversed
    s = EmbeddedSimplex([[0, 0], [1, 0], [0, -1]], sdm_triangle(1, 1, 2))
    center, radius = circumcenter(s)
    assert center == (0.5, -0.5)
    assert [math.dist(center, v) for v in s.vertices] == [radius] * 3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7), st.data())
def test_circumcenter_follows_reversed_axes(seed, n, data):
    s = embed(random_point_sdm(random.Random(seed), n))
    signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
    turned = EmbeddedSimplex([list(map(operator.mul, v, signs)) for v in s.vertices], s.source)
    center, radius = circumcenter(s)
    assert circumcenter(turned) == (tuple(map(operator.mul, center, signs)), radius)


def test_circumcenter_reads_a_reversed_axis_whose_diagonal_rounds_to_zero():
    # vertex 2 at height 2**-1100 over the first axis rounds onto it, so only vertex 3, on the other
    # side, shows which way the second axis points; the circumcenter is about 2**100 out along it
    d = points_sdm([(0, 0, 0), (Fraction(1, 2**500), 0, 0), (Fraction(1, 2**499), Fraction(1, 2**1100), 0), (0, -1, 1)])
    s = embed(d)
    assert s.vertices[2:] == ((2.0**-499, 0.0, 0.0), (0.0, -1.0, 1.0))
    (x, y, z), radius = circumcenter(s)
    assert math.isclose(y, 2.0**100, rel_tol=1e-12)
    turned = EmbeddedSimplex(s.vertices[:3] + ((0.0, 1.0, 1.0),), d)  # vertex 2 keeps its +0.0
    assert circumcenter(turned) == ((x, -y, z), radius)
