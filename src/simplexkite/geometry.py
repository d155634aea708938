"""Floating-point realization of distance matrices and the four centers.

This is the only module that leaves exact arithmetic, and it needs only
`math`; points are tuples of floats.  A matrix is embedded by factoring
its exact Gram matrix (exact LDL^T, converted to floats only at the very
end).  Every float leaves the exact data as one correctly rounded
division of the integers the Gram elimination holds, and no Fraction is
built.  The circumcenter and incenter are read off the Gram elimination
that certified the simplex, not solved for in floats: the incenter's
barycentrics are the facet volumes over their sum, and the
circumcenter's coordinates in the embedding frame are exact rationals
times the frame's scales.  The centroid is the vertex mean, and the
Fermat-Torricelli point is found by re-weighted averaging.

Every float sum is `math.fsum`, which is correctly rounded, so each
float output is the same on every supported Python; the builtin `sum`,
compensated only from Python 3.12 on, is not used here.

Default tolerances are generous for double precision at desk scale:
embedding round-trip 1e-9 relative, and a 1e-10 gradient norm for the
Fermat-Torricelli iteration.  A tolerance that is not finite and > 0
raises ValueError.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, repeat
from math import fsum
from operator import add, mul, sub, truediv

from .cayley import (
    SquaredDistanceMatrix,
    _circumcenter_weights,
    _facet_dets,
    _gram_elimination,
    _top_exponent,
    require_nondegenerate,
)
from .exact import Record, _positive_tol

TOL_EMBED = 1e-9
FT_GRADIENT_TOL = 1e-10
FT_MAX_ITER = 100_000

Point = tuple[float, ...]


class ConvergenceError(RuntimeError):
    """Iteration budget ran out before the convergence test was met."""


class EmbeddedSimplex:
    """Coordinates realizing a squared-distance matrix in the frame `embed`
    builds: vertex 0 at the origin and vertex i in the first i coordinates.
    A NaN or infinite coordinate is refused before the round-trip check,
    which a NaN would pass, since no comparison is true for it."""

    __slots__ = ("n", "vertices", "source", "max_rel_error")

    def __init__(self, vertices, source: SquaredDistanceMatrix, tol: float = TOL_EMBED):
        _positive_tol(tol)
        pts = tuple(tuple(map(float, row)) for row in vertices)
        if len(pts) != source.n + 1 or any(len(p) != source.n for p in pts):
            raise ValueError("expected n+1 vertices of dimension n")
        if any(any(p[i:]) for i, p in enumerate(pts)):  # a float is true when != 0.0
            raise ValueError("vertex i must lie in the first i coordinates")
        if not all(map(math.isfinite, chain.from_iterable(pts))):
            raise ValueError("vertex coordinates must be finite")
        err = 0.0
        # coordinates over 2**k and squared distances over 4**k put the largest below 2**1021,
        # so no float sum of squares overflows; a power of two moves no relative error
        k = max(0, (_top_exponent(source) - 1019) // 2)
        scaled = [[math.ldexp(x, -k) for x in p] for p in pts] if k else pts
        dist, den = source._dist, source._den << 2 * k
        # for i < j only the first j coordinates can differ; the rest would add 0.0
        heads = [p[:j] for j, p in enumerate(scaled)]
        for i, p in enumerate(scaled):
            for q, want in zip(heads[i + 1:], map(truediv, dist[i][i + 1:], repeat(den))):
                diff = list(map(sub, p, q))
                rel = abs(fsum(map(mul, diff, diff)) - want) / want
                if rel > err:
                    err = rel
        if err > tol:
            raise ValueError(
                "coordinates do not reproduce the distance matrix "
                "(relative error %.3e exceeds %.1e)" % (err, tol)
            )
        self.n = source.n
        self.vertices = pts
        self.source = source
        self.max_rel_error = err

    def __repr__(self):
        return "EmbeddedSimplex(n=%d, max_rel_error=%.2e)" % (self.n, self.max_rel_error)


def embed(d: SquaredDistanceMatrix, tol: float = TOL_EMBED) -> EmbeddedSimplex:
    """Realize a nondegenerate matrix as coordinates in R^n.

    Degenerate or non-Euclidean input raises with the realizability
    verdict attached.  Then, unless the smallest squared distance is at
    least `sys.float_info.min` = 2**-1022 and the largest at most
    `sys.float_info.max` (compared exactly, on the cleared integers), it
    raises ValueError.  The exact LDL^T factors of the Gram matrix
    (`gram_ldl`) are read off its kept elimination, each rounded to a
    float once, and floats enter only when the factors are multiplied out.
    The round-trip check runs at a power-of-two scale, so its sums of
    squares cannot overflow at the top of the range.  A tolerance that is
    not finite and > 0 raises ValueError first.
    """
    _positive_tol(tol)
    require_nondegenerate(d)
    g = _gram_elimination(d)
    dist, den = d._dist, d._den
    lo = min(min(row[i + 1:]) for i, row in enumerate(dist[:-1]))
    if not (den <= lo << 1022 and max(map(max, dist)) <= int(sys.float_info.max) * den):
        raise ValueError(
            "squared distances leave the float range; the exact results "
            "(classify --exact) do not need floats"
        )
    # int / int rounds correctly, as float(Fraction) does
    scale = [math.sqrt(cur / (prev * g.scale)) for prev, cur in zip([1] + g.minors, g.minors)]
    rows = [(0.0,) * d.n]
    for i in range(d.n):
        below = [g.rows[k][i] / g.minors[k] * scale[k] for k in range(i)]
        rows.append(below + [scale[i]] + [0.0] * (d.n - 1 - i))
    return EmbeddedSimplex(rows, d, tol=tol)


def centroid(s: EmbeddedSimplex) -> Point:
    """Arithmetic mean of the vertices."""
    return tuple(map(truediv, map(fsum, zip(*s.vertices)), repeat(len(s.vertices))))


def circumcenter(s: EmbeddedSimplex) -> tuple[Point, float]:
    """Equidistant point and its radius (the float distance to vertex 0).

    Coordinate k is y_k times coordinate k of vertex k+1, which is
    sqrt(D_k) of the Gram LDL^T, with y the exact circumcenter in that
    frame.  2 G x = g and G = L D L^T give y = L^T x = D^-1 L^-1 g / 2, and
    the Gram elimination carries s g, A's diagonal, as its last column, to
    L^-1 (s g) times the leading minors, so y_k = b'_k / (2 minors[k]),
    one correctly rounded division, once the circumcenter has passed its
    Cayley-Menger certificate (`_circumcenter_weights`).  A far circumcenter has
    huge barycentrics x, whose float image through the vertices would
    cancel; y does not.
    """
    _circumcenter_weights(s.source)
    g = _gram_elimination(s.source)
    ys = [row[-1] / (2 * m) for row, m in zip(g.rows, g.minors)]
    center = tuple(y * v[k] for k, (y, v) in enumerate(zip(ys, s.vertices[1:])))
    return center, math.dist(center, s.vertices[0])


def incenter(s: EmbeddedSimplex) -> tuple[Point, float]:
    """Facet-volume-weighted vertex average and the inradius n V / sum F_j.

    The weights F_j / sum F leave exact arithmetic as square roots of the
    ratios F_j**2 / max F**2 = det_k / max det (`_facet_dets`), each one
    correctly rounded division of integers, so the facet volumes
    themselves never need to fit a float.  So is (V / max F)**2 =
    det(A) / (s n**2 max det), A = s*G the scaled Gram matrix.  The
    insphere touches facet j inside it exactly when the weight of vertex j
    is positive, at distance n V / sum F from the incenter for every j; a
    weight that is not a positive finite float raises RuntimeError.  A
    segment's two facets are points, det 1 each, so its incenter is its
    midpoint and its inradius half its length.
    """
    dets = _facet_dets(s.source)
    largest = max(dets)
    roots = [math.sqrt(k / largest) for k in dets]
    total = fsum(roots)
    weights = [r / total for r in roots]
    if not all(0.0 < w < math.inf for w in weights):
        raise RuntimeError("incenter weights are not all positive finite floats")
    g = _gram_elimination(s.source)
    radius = s.n * math.sqrt(g.minors[-1] / (g.scale * s.n**2 * largest)) / total
    return tuple(fsum(map(mul, weights, col)) for col in zip(*s.vertices)), radius


def sum_distances(s: EmbeddedSimplex, point) -> float:
    """Sum of distances from a point to all vertices."""
    return fsum(math.dist(v, point) for v in s.vertices)


def _units(x, cols, dists) -> list[list[float]]:
    """The unit vectors from x towards the points, as coordinate columns,
    given the points' coordinate columns, with dists[i] = |points[i] - x|."""
    return [[(c - a) / r for c, r in zip(col, dists)] for a, col in zip(x, cols)]


def _pull(x, cols, dists) -> list[float]:
    """Sum of the unit vectors from x towards the points (`_units`)."""
    return list(map(fsum, _units(x, cols, dists)))


def _jump_change(jump, step, units, dists, ydists, newdists) -> float:
    """f(y) - f(new), f the summed vertex distance, for new = x + step and
    y = new + jump, given the unit columns at x (`_units`) and the distances
    from the vertices p to x, y and new.  It is summed term by term as
    (|p - y|**2 - |p - new|**2) / (|p - y| + |p - new|), whose numerator is
    jump.(jump + 2 step) - 2 |p - x| jump.u_p, as p - new = |p - x| u_p - step,
    so it does not cancel next to a vertex."""
    lead = fsum(map(mul, jump, map(add, jump, map(add, step, step))))
    return fsum((lead - 2.0 * r * fsum(map(mul, jump, u))) / (q + t)
               for r, u, q, t in zip(dists, zip(*units), ydists, newdists))


def _vertex_pull(pts, k: int, row) -> tuple[float, list[float]]:
    """Norm and direction of the combined unit pulls on vertex k of the
    other vertices, given row[i] = |pts[i] - pts[k]|."""
    pull = _pull(pts[k], zip(*(pts[:k] + pts[k + 1:])), row[:k] + row[k + 1:])
    return math.hypot(*pull), pull


def fermat_torricelli(s: EmbeddedSimplex, tol: float = FT_GRADIENT_TOL) -> Point:
    """Minimizer of the summed vertex distances.

    The objective is convex, and a vertex is the global minimizer
    exactly when the combined unit pull of the other vertices has norm
    at most 1; that certificate is checked for every vertex first.  A
    vertex that passes it, with norm at most 1 + eps, has a summed distance
    within eps * diameter <= eps * f* of the minimum f*, so not above the
    centroid's by more than that; a vertex whose summed distance exceeds
    the centroid's by a factor 1 + 1e-9 cannot pass, and its certificate
    is not computed.
    Otherwise the minimizer is interior and is found by Weiszfeld's
    re-weighted averaging started at the centroid, accepted once the
    objective gradient norm drops to tol.  Each step is taken from x, as
    the summed unit pull towards the vertices over sum 1 / |p - x|, so next
    to a vertex it is not lost to the rounding of the vertex coordinates.
    An iterate that lands on a (necessarily non-optimal) vertex is stepped
    off along the pull, whose norm the certificate has shown to exceed 1.

    Next to a vertex the averaging has one slow mode, with steps shrinking by a
    ratio near 1; after a step that shrank along the last one, the rest of their
    geometric series is added when that lowers the summed distance, compared per vertex.
    A tolerance that is not finite and > 0 raises ValueError.
    """
    _positive_tol(tol)
    pts = s.vertices
    table = [[math.dist(p, q) for q in pts] for p in pts]
    x = centroid(s)
    dists = [math.dist(p, x) for p in pts]
    bound = (1.0 + 1e-9) * fsum(dists)
    for k, row in enumerate(table):
        if fsum(row) <= bound and _vertex_pull(pts, k, row)[0] <= 1.0 + 1e-12:
            return pts[k]
    vertex_snap = 1e-12 * max(map(max, table))
    cols = list(zip(*pts))
    step = ()  # the last averaging step, () when there is none to extend
    for _ in range(FT_MAX_ITER):
        near = min(dists)
        if near <= vertex_snap:
            k = dists.index(near)
            pull_norm, pull = _vertex_pull(pts, k, table[k])
            inv = fsum(1.0 / r for i, r in enumerate(table[k]) if i != k)
            off = (pull_norm - 1.0) / inv
            x = tuple(a + off * (c / pull_norm) for a, c in zip(pts[k], pull))
            dists, step = [math.dist(p, x) for p in pts], ()
            continue
        units = _units(x, cols, dists)
        pull = list(map(fsum, units))  # the objective's gradient, negated
        if math.hypot(*pull) <= tol:
            return x
        total = fsum(1.0 / r for r in dists)
        last, step = step, [c / total for c in pull]
        new = tuple(map(add, x, step))
        newdists = [math.dist(p, new) for p in pts]
        along, norm = fsum(map(mul, step, last)), fsum(map(mul, last, last))
        if 0.0 < along < norm:
            # steps that keep shrinking by the ratio along / norm sum to this jump more
            jump = [b * (along / (norm - along)) for b in step]
            y = tuple(map(add, new, jump))
            ydists = [math.dist(p, y) for p in pts]
            if _jump_change(jump, step, units, dists, ydists, newdists) < 0.0:
                x, dists, step = y, ydists, ()
                continue
        x, dists = new, newdists
    raise ConvergenceError(
        "Fermat-Torricelli iteration did not reach gradient norm %.1e in %d steps"
        % (tol, FT_MAX_ITER)
    )


class CenterSet(Record):
    """The four classical centers of an embedded simplex, with both radii."""

    __slots__ = ("centroid", "circumcenter", "incenter", "fermat", "circumradius", "inradius")

    centroid: Point
    circumcenter: Point
    incenter: Point
    fermat: Point
    circumradius: float
    inradius: float


def center_set(s: EmbeddedSimplex, ft_tol: float = FT_GRADIENT_TOL) -> CenterSet:
    """Compute all four centers in one go."""
    _positive_tol(ft_tol, "ft_tol")
    g = centroid(s)
    q, radius = circumcenter(s)
    i, inradius = incenter(s)
    f = fermat_torricelli(s, tol=ft_tol)
    return CenterSet(
        centroid=g,
        circumcenter=q,
        incenter=i,
        fermat=f,
        circumradius=radius,
        inradius=inradius,
    )
