"""The float center distances of `coincidence_report`, read off the kept Gram
elimination with no vertex coordinates.

They are held to the exact verdicts (0.0 exactly where a coincidence
holds), to the numpy oracle wherever `embed` accepts the matrix, and to
60-digit decimals on near-flat, far-out and short-edge simplices, where
each must also lie within its own error bound.
"""

import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import float_oracle
import simplexkite.cayley as cayley
import simplexkite.centers as centers
import simplexkite.geometry as geometry
from simplexkite import (
    EmbeddedSimplex,
    Realizability,
    SquaredDistanceMatrix,
    circumcenter_barycentrics,
    coincidence_report,
    embed,
    equiareal_prekite_solve,
    facet_volumes_sq,
    gram_ldl,
    is_realizable,
    two_apexed,
)
from simplexkite.cayley import _centroid_offset, _diameter, _frame, _rounded_root
from simplexkite.cli import main
from test_centers import _GOLDEN, _NEAR_REGULAR, _SIMPLICES
from test_geometry import BACK, THIN, points_sdm, slanted_tetrahedron

# (0, 0), (1, 0), (1 + 10**-10, 10**-10): a short edge next to a long one, far from the first vertex
SHORT = points_sdm([(0, 0), (1, 0), (1 + Fraction(1, 10**10), Fraction(1, 10**10))])

# every realizable equiareal pre-kite PK[n; 1; x*t, y*s] for n = 3..9, where I = G and Q differs
_EQUIAREAL = [cand.prekite().to_sdm() for n in range(3, 10) for s in range(1, n // 2 + 1) if 2 * s != n
              for cand in equiareal_prekite_solve(n, n - s, s) if cand.realizable and cand.equiareal_verified]
_PREKITES = st.tuples(st.sampled_from(_EQUIAREAL), st.fractions(Fraction(1, 9), 9), st.randoms()).map(
    lambda args: args[0].scaled(args[1]).permuted(args[2].sample(range(args[0].n + 1), args[0].n + 1)))


def _relabelled(d, rng):
    """d scaled by a rational in [1/6, 30] and its vertices permuted, as the reports benchmark builds its pre-kites."""
    lam = Fraction(rng.randint(1, 30), rng.choice((1, 2, 3, 4, 6)))
    return d.scaled(lam).permuted(rng.sample(range(d.n + 1), d.n + 1))


_RNG = random.Random(0)
# the kite with one odd squared edge n / (n - 2) has all facets of one volume, so I = G there
_KITES = {"kite n=%d" % n: two_apexed(n, 1, Fraction(n, n - 2)).to_sdm() for n in range(4, 9)}
# inputs where Q = I or I = G holds exactly, so every distance is 0.0 or |Q - G|
_DECIDED = {"equiareal prekite n=%d #%d" % (d.n, i): _relabelled(d, _RNG) for i, d in enumerate(_EQUIAREAL)}
_DECIDED.update(_KITES)
_DECIDED.update({"regular n=%d" % n: SquaredDistanceMatrix.regular(n) for n in (2, 3, 6)})


def _with(*cases):
    """The test with the golden cases, the near-regular simplices and cases as explicit examples."""
    def add(test):
        for d in [*_GOLDEN.values(), *_NEAR_REGULAR, *cases]:
            test = example(d)(test)
        return test
    return add


def _nondegenerate(d):
    return d is not None and is_realizable(d).status is Realizability.NONDEGENERATE


def _dec(q) -> Decimal:
    q = Fraction(q)
    return Decimal(q.numerator) / Decimal(q.denominator)


def decimal_distances(d) -> dict:
    """qg, qi and ig in 60-digit decimals, from the exact Gram LDL^T, the exact
    circumcenter barycentrics and the square roots of the exact facet volumes."""
    n = d.n
    with localcontext() as ctx:
        ctx.prec = 60
        lower, pivots = gram_ldl(d)
        roots = [_dec(p).sqrt() for p in pivots]

        def exact_point(bary):
            return [_dec(sum(bary[i + 1] * lower[i][k] for i in range(n))) * roots[k] for k in range(n)]

        g = exact_point([Fraction(1, n + 1)] * (n + 1))
        q = exact_point(circumcenter_barycentrics(d))
        areas = [_dec(v).sqrt() for v in facet_volumes_sq(d)]
        total = sum(areas)
        vertices = [[_dec(lower[i][k]) * roots[k] for k in range(n)] for i in range(n)]
        i = [sum(a / total * v[k] for a, v in zip(areas[1:], vertices)) for k in range(n)]

        def dist(a, b):
            return sum((x - y) ** 2 for x, y in zip(a, b)).sqrt()

        return {"qg": dist(q, g), "qi": dist(q, i), "ig": dist(i, g)}


@pytest.mark.parametrize("name", ["embed", "centroid", "circumcenter", "incenter", "_pull"])
def test_the_report_reads_no_coordinates(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("the report called geometry.%s" % name)

    # patched where it is defined and under the same name in centers, should centers ever import it
    monkeypatch.setattr(geometry, name, refuse)
    monkeypatch.setattr(centers, name, refuse, raising=False)
    monkeypatch.setattr(EmbeddedSimplex, "__init__", lambda *args: refuse())
    for d in [*_GOLDEN.values(), SHORT, BACK, THIN, slanted_tetrahedron(Fraction(1, 10**9))]:
        assert set(coincidence_report(d, with_floats=True).center_distances) == {"qg", "qi", "ig"}


@pytest.mark.parametrize("d, frames", [*((d, 0) for d in _DECIDED.values()), (_GOLDEN["cloud n=5"], 1)],
                         ids=[*_DECIDED, "cloud n=5"])
def test_the_frame_is_read_only_where_no_coincidence_decides(monkeypatch, d, frames):
    calls = []

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return inner(*args)
        monkeypatch.setattr(module, name, counted)

    count(centers, "_frame")
    count(cayley, "_incenter_weights")
    rep = coincidence_report(d, with_floats=True)
    assert (rep.qi_coincide or rep.ig_coincide) == (frames == 0)
    assert calls == ["_frame", "_incenter_weights"] * frames


@settings(max_examples=150, deadline=None)
@given(st.one_of(_SIMPLICES, _PREKITES))
@_with(SHORT, BACK, THIN, *_KITES.values())
def test_a_distance_is_zero_exactly_when_its_verdict_holds(d):
    if not _nondegenerate(d):
        return
    rep = coincidence_report(d, with_floats=True)
    verdicts = {"qg": rep.qg_coincide, "qi": rep.qi_coincide, "ig": rep.ig_coincide}
    assert {name: value == 0.0 for name, value in rep.center_distances.items()} == verdicts
    # where one coincidence holds, the other two distances are one
    distances = rep.center_distances
    if rep.ig_coincide:
        assert distances["qi"] == distances["qg"]
    if rep.qi_coincide:
        assert distances["ig"] == distances["qg"]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_SIMPLICES, _PREKITES))
@_with()  # numpy's norms overflow on the 2**1000 and 10**-400 triangles, and embed refuses the short edge
def test_the_distances_agree_with_the_numpy_oracle(d):
    if not _nondegenerate(d):
        return
    try:
        s = embed(d)
    except ValueError:
        return  # no coordinates to compare with: the short-edge triangle
    pts = np.array(s.vertices)
    g = pts.mean(axis=0)
    q, _ = float_oracle.circumcenter(pts)
    i, _ = float_oracle.incenter(pts, d)
    oracle = {"qg": np.linalg.norm(q - g), "qi": np.linalg.norm(q - i), "ig": np.linalg.norm(i - g)}
    distances = coincidence_report(d, with_floats=True).center_distances
    diam = _diameter(d)
    for name, value in distances.items():
        assert abs(value - oracle[name]) <= 1e-12 * max(diam, value), name


# the near-line tetrahedron at every height 10**-1..10**-200, whose circumcenter lies up to 10**200 out; the thin
# 2**1000 / 2**-1000 triangle; the 10**-400 triangle, whose circumcenter is 10**200 out; the short-edge triangle
DECIMAL_CASES = {"slanted h=1e-%d" % k: slanted_tetrahedron(Fraction(1, 10**k)) for k in range(1, 201)}
DECIMAL_CASES.update({"thin": THIN, "10**-400": BACK, "short edge": SHORT})


@pytest.mark.parametrize("d", list(DECIMAL_CASES.values()), ids=list(DECIMAL_CASES))
def test_each_distance_lies_within_its_bound_of_60_digits(d):
    rep = coincidence_report(d, with_floats=True)
    values, bounds, _ = centers._center_floats(d, rep.qg_coincide, rep.qi_coincide, rep.ig_coincide)
    assert values == rep.center_distances
    exact = decimal_distances(d)
    diam = _diameter(d)
    for name, value in values.items():
        error = abs(Decimal(value) - exact[name])
        assert error <= Decimal(bounds[name]), name
        assert bounds[name] <= 1e-12 * max(diam, value), name


def test_the_qg_distance_is_correctly_rounded_on_the_decimal_cases():
    for d in DECIMAL_CASES.values():
        exact = decimal_distances(d)["qg"]
        value = _centroid_offset(d)
        below, above = math.nextafter(value, 0.0), math.nextafter(value, math.inf)
        assert abs(Decimal(value) - exact) <= min(abs(Decimal(below) - exact), abs(Decimal(above) - exact))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**300), st.integers(1, 2**300), st.integers(-600, 600))
@example(2, 1, 0)
@example(1, 3, 0)
@example(4, 1, 0)
def test_rounded_root_is_the_nearest_float(a, b, shift):
    a, b = (a << shift, b) if shift >= 0 else (a, b << -shift)
    value = _rounded_root(a, b)
    if a == 0:
        assert value == 0.0
        return
    if not 2.0**-1022 <= value <= 2.0**1000:
        return
    # the exact root lies between the midpoints to the neighbouring floats
    low = (Fraction(math.nextafter(value, 0.0)) + Fraction(value)) / 2
    high = (Fraction(value) + Fraction(math.nextafter(value, math.inf))) / 2
    assert low * low <= Fraction(a, b) <= high * high


def test_rounded_root_above_the_floats_is_refused():
    with pytest.raises(ValueError, match="leaves the float range"):
        _rounded_root(2**2100, 1)


def test_a_bound_above_the_tolerance_is_refused(monkeypatch, tmp_path, capsys):
    # with no error allowed, every distance that is not exactly zero is refused; the regular simplex, all zeros, is not
    monkeypatch.setattr(centers, "TOL_DISTANCE", 0.0)
    with pytest.raises(ValueError, match="may be off by"):
        coincidence_report(_GOLDEN["cloud n=5"], with_floats=True)
    assert coincidence_report(SquaredDistanceMatrix.regular(4), with_floats=True).center_distances == {
        "qg": 0.0, "qi": 0.0, "ig": 0.0}
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(_GOLDEN["cloud n=5"].to_json()))
    assert main(["classify", str(path)]) == 1
    assert "may be off by" in capsys.readouterr().err


def test_a_far_circumcenter_is_a_value_error():
    # at height 10**-350 the circumcenter lies about 10**350 out: no float, refused by each exit
    d = slanted_tetrahedron(Fraction(1, 10**350))
    with pytest.raises(ValueError, match="leaves the float range"):
        _centroid_offset(d)
    with pytest.raises(ValueError, match="leaves the float range"):
        _frame(d)


@pytest.mark.parametrize("far", [(1, 0), (3, 7), (-250, 1000), (10**6, -10**6)])
@pytest.mark.parametrize("short", [(1, 2), (-3, 2), (5, -1)])
def test_a_short_edge_far_out_is_answered(tmp_path, capsys, far, short):
    # an edge from the origin to the far vertex, then a short edge about 10**-10 long from there, not at right angles
    # to it: no single float frame keeps both accurate, so embed and centers refuse, while classify reads its
    # distances off the elimination
    e = Fraction(1, 10**10)
    d = points_sdm([(0, 0), far, (far[0] + short[0] * e, far[1] + short[1] * e)])
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(d.to_json()))
    assert [main([command, str(path)]) for command in ("classify", "embed", "centers")] == [0, 1, 1]
    distances = json.loads(capsys.readouterr().out)["coincidence"]["center_distances"]
    exact = decimal_distances(d)
    for name, value in distances.items():
        assert abs(Decimal(value) - exact[name]) <= Decimal(1e-12 * _diameter(d)), name
