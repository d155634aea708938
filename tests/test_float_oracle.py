"""The float centers against the numpy oracle in `float_oracle.py`.

The package reads the circumcenter and incenter off the exact Gram
elimination; the oracle solves for them in coordinates.  They must agree
within 1e-9 of the simplex's diameter, and the oracle's incenter checks
must hold, on clouds, exterior circumcenters, vertex Fermat points,
family members and equiareal pre-kites, n = 1..12.  On the same cases
the circumcenter, the incenter and inradius and the embedding error must
equal, bit for bit, `float()` of the exact rationals they come from,
taken through the public Fraction API.  Every float sum in the package
is `math.fsum`, so the same holds on every supported Python.
"""

import ast
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

import float_oracle
import simplexkite.geometry as geometry
from simplexkite import (
    PreKite,
    Realizability,
    SquaredDistanceMatrix,
    center_set,
    centroid,
    circumcenter,
    circumcenter_barycentrics,
    embed,
    equiareal_prekite_solve,
    facet_volumes_sq,
    fermat_torricelli,
    gram_ldl,
    incenter,
    is_realizable,
    matrix_from_beta,
    sum_distances,
    volume_sq,
)

F = Fraction


def points_sdm(pts):
    """The matrix of points P/q given as (integer vector P, denominator q),
    or None unless it is a nondegenerate simplex."""
    rows = [[F(sum((a * r - b * q) ** 2 for a, b in zip(p, s)), (q * r) ** 2) for s, r in pts] for p, q in pts]
    if not all(rows[i][j] for i in range(len(pts)) for j in range(i)):
        return None
    d = SquaredDistanceMatrix(rows)
    return d if is_realizable(d).status is Realizability.NONDEGENERATE else None


def clouds(rng, count):
    """Random points of Q^n with mixed denominators, n = 1..12."""
    out = []
    while len(out) < count:
        n = 1 + len(out) % 12
        pts = []
        for _ in range(n + 1):
            q = rng.randint(1, 7)
            pts.append(([rng.randint(-9 * q, 9 * q) for _ in range(n)], q))
        d = points_sdm(pts)
        if d is not None:
            out.append(d)
    return out


def near_vertex_clouds(rng, count):
    """Vertex 0 at the origin and the others spread around it, so that their
    unit pulls nearly cancel: many of these have vertex 0 as Fermat point."""
    out = []
    while len(out) < count:
        n = 2 + len(out) % 11
        # n * 4 * (c - mean(c) + jitter / 4), over the denominator 4n
        centers = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        sums = [sum(col) for col in zip(*centers)]
        others = [([4 * (n * c - t) + n * rng.randint(-3, 3) for c, t in zip(p, sums)], 4 * n) for p in centers]
        d = points_sdm([([0] * n, 1)] + others)
        if d is not None:
            out.append(d)
    return out


def family_members(rng):
    out = []
    for family in ("orthocentric", "circumscriptible", "isodynamic", "tetra_isogonic"):
        for n in range(2, 9):
            for _ in range(4):
                lo = 1 if family == "orthocentric" else 4
                d = matrix_from_beta(family, [F(rng.randint(lo, 20), rng.randint(1, 3)) for _ in range(n + 1)])
                if is_realizable(d).status is Realizability.NONDEGENERATE:
                    out.append(d)
    return out


def equiareal_prekites():
    out = [PreKite(4, 1, (1, 1, 1, 2)).to_sdm()]
    for n in range(3, 13):
        for s in range(1, n // 2 + 1):
            if n - s != s:
                out += [c.prekite().to_sdm() for c in equiareal_prekite_solve(n, n - s, s) if c.realizable]
    return out


def corpus():
    rng = random.Random(97)
    return (
        clouds(rng, 300)
        + near_vertex_clouds(rng, 120)
        + family_members(rng)
        + equiareal_prekites()
        + [SquaredDistanceMatrix.regular(n) for n in range(1, 13)]
    )


def test_centers_match_the_oracle():
    cases = corpus()
    assert len(cases) >= 500
    exterior = vertex_fermat = 0
    for d in cases:
        s = embed(d)
        pts = np.asarray(s.vertices)
        limit = 1e-9 * max(math.dist(p, q) for p, q in combinations(s.vertices, 2))

        got = [centroid(s), *circumcenter(s), *incenter(s), fermat_torricelli(s)]
        want = [pts.mean(axis=0), *float_oracle.circumcenter(pts), *float_oracle.incenter(pts, d),
                float_oracle.fermat_torricelli(pts)]
        for have, expected in zip(got, want):
            assert np.linalg.norm(np.asarray(have) - expected) <= limit

        exterior += min(circumcenter_barycentrics(d)) < 0
        vertex_fermat += any(got[-1] == v for v in s.vertices)
    assert exterior >= 100 and vertex_fermat >= 30


def reference_circumcenter(s):
    """Coordinate k is float(y_k) times coordinate k of vertex k+1, with y = L^T x
    the exact circumcenter in the frame of the Gram LDL^T, x its barycentrics
    past vertex 0."""
    lower, _ = gram_ldl(s.source)
    x = circumcenter_barycentrics(s.source)[1:]
    ys = [sum(row[k] * w for row, w in zip(lower, x)) for k in range(s.n)]
    center = tuple(float(y) * v[k] for k, (y, v) in enumerate(zip(ys, s.vertices[1:])))
    return center, math.dist(center, s.vertices[0])


def reference_incenter(s):
    """The weights sqrt(float(F_j**2 / max F**2)) over their correctly rounded
    sum, and the inradius n sqrt(float(V**2 / max F**2)) over the same sum."""
    volumes = facet_volumes_sq(s.source)
    largest = max(volumes)
    roots = [math.sqrt(float(v / largest)) for v in volumes]
    total = math.fsum(roots)
    weights = [r / total for r in roots]
    point = tuple(math.fsum(w * c for w, c in zip(weights, col)) for col in zip(*s.vertices))
    return point, s.n * math.sqrt(float(volume_sq(s.source) / largest)) / total


def reference_error(s):
    """Largest relative error of the float squared distances, each a correctly
    rounded sum, against float(Fraction) of the exact ones (desk-scale input,
    so no power-of-two scaling)."""
    err = 0.0
    for i, j in combinations(range(s.n + 1), 2):
        have = math.fsum((a - b) * (a - b) for a, b in zip(s.vertices[i], s.vertices[j]))
        want = float(s.source.a[i][j])
        err = max(err, abs(have - want) / want)
    return err


def test_floats_are_bit_identical_to_float_of_the_exact_values():
    for d in corpus():
        s = embed(d)
        assert circumcenter(s) == reference_circumcenter(s)
        if d.n > 1:
            assert incenter(s) == reference_incenter(s)
        assert s.max_rel_error == reference_error(s)


# `math.fsum` rounds the exact sum of its floats once, which the builtin `sum`
# does only from Python 3.12 on; the exact sums below are of Fractions


def test_centroid_rounds_each_coordinate_sum_once():
    for d in corpus():
        s = embed(d)
        want = tuple(float(sum(map(Fraction, col))) / (s.n + 1) for col in zip(*s.vertices))
        assert centroid(s) == want


def test_summed_distance_rounds_once():
    for d in corpus():
        s = embed(d)
        point = centroid(s)
        assert sum_distances(s, point) == float(sum(Fraction(math.dist(v, point)) for v in s.vertices))


def test_no_float_sum_is_the_builtin(monkeypatch):
    # the builtin `sum` is compensated only from Python 3.12 on, so one call of it would
    # give a float output that depends on the version; a module global shadows the builtin
    def refuse(*args):
        raise AssertionError("builtin sum called in the float layer")

    jumps = []
    jump_change = geometry._jump_change

    def counted_jump_change(*args):
        jumps.append(args)
        return jump_change(*args)

    monkeypatch.setattr(geometry, "sum", refuse, raising=False)
    monkeypatch.setattr(geometry, "_jump_change", counted_jump_change)
    # next to vertex 0, where the averaging extends its steps by their geometric series
    near = SquaredDistanceMatrix([[0, 1, 1], [1, 0, 3 - F(1, 10**9)], [1, 3 - F(1, 10**9), 0]])
    for d in corpus() + [near]:
        s = embed(d)
        center_set(s)
        incenter(s)
        sum_distances(s, fermat_torricelli(s))
    assert jumps
    # and in the source, for the vertex step-off, which none of these inputs reaches
    tree = ast.parse(Path(geometry.__file__).read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "sum"]
