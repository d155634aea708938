"""The float centers against the numpy oracle in `float_oracle.py`.

The package reads the circumcenter and incenter off the exact Gram
elimination; the oracle solves for them in coordinates.  They must agree
within 1e-9 of the simplex's diameter, and the oracle's incenter checks
must hold, on clouds, exterior circumcenters, vertex Fermat points,
family members and equiareal pre-kites, n = 1..12.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

import float_oracle
from simplexkite import (
    PreKite,
    Realizability,
    SquaredDistanceMatrix,
    centroid,
    circumcenter,
    circumcenter_barycentrics,
    embed,
    equiareal_prekite_solve,
    fermat_torricelli,
    incenter,
    is_realizable,
    matrix_from_beta,
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


def test_centers_match_the_oracle():
    rng = random.Random(97)
    cases = (
        clouds(rng, 300)
        + near_vertex_clouds(rng, 120)
        + family_members(rng)
        + equiareal_prekites()
        + [SquaredDistanceMatrix.regular(n) for n in range(1, 13)]
    )
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
