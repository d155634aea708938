"""Floating-point realization of distance matrices and the four centers.

This module and the float family recoveries of `families` are where
the package leaves exact arithmetic; this one needs only `math`, and
points are tuples of floats.  A matrix is embedded by reading its exact
Gram LDL^T off the kept Gram elimination, and no Fraction is built.
Every float read off that elimination leaves it through one exit,
`_root(a, b, p, q)` = p / q * sqrt(a / b) of its integers: `embed`'s
coordinates, the circumcenter's, and `incenter`'s weights and inradius.
It takes each factor at a power-of-two scale first, the root by
`_scaled_sqrt` and p / q by `_times`, so these exits keep their digits
at any scale: a ratio whose float would underflow or overflow still
gives its share of the product, where that product is a float, and a
product above the largest float raises ValueError.  `embed` makes the
same two steps, with one root per column of coordinates.
The circumcenter and incenter are read off the Gram elimination
that certified the simplex, not solved for in floats: the incenter's
barycentrics are the facet volumes over their sum, and the
circumcenter's coordinates in the embedding frame are exact rationals
times the frame's scales.  The centroid is the vertex mean.  The
Fermat-Torricelli point is a vertex when one of least summed distance,
up to rounding, passes its certificate; otherwise it is found by
re-weighted averaging in the frame of the one whose certificate failed
by least, where the floats are densest next to that vertex.

Every float sum is `math.fsum`, which is correctly rounded, so each
float output is the same on every supported Python; the builtin `sum`,
compensated only from Python 3.12 on, is not used here.

The embedding round trip is held to a fixed 1e-9 relative error
(`TOL_EMBED`), and the Fermat-Torricelli iteration to a fixed 1e-10
gradient norm (`FT_GRADIENT_TOL`), a sum of unit vectors and so the same
at every scale.  The matrix is exact, so no function here takes a
tolerance: a tolerance is an argument only where float input arrives
from outside.
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
from .exact import Record

TOL_EMBED = 1e-9
FT_GRADIENT_TOL = 1e-10
FT_MAX_ITER = 100_000
_BEYOND_FLOATS = "%s the float range; the exact results (classify --exact) do not need floats"

Point = tuple[float, ...]


def _scaled_sqrt(a: int, b: int) -> tuple[float, int]:
    """sqrt(a / b) for integers a, b > 0 as (r, e), the root r * 2**e.

    a / b is moved into [1/4, 4) by a power of four read from the bit
    lengths of a and b, as `relation._sqrt` scales its input, so r lies in
    [1/2, 2) and no ratio rounds to 0, to a subnormal or to infinity
    before its root is taken.
    """
    e = (a.bit_length() - b.bit_length()) // 2
    return math.sqrt((a << -2 * e) / b if e < 0 else a / (b << 2 * e)), e


def _times(p: int, q: int, root: tuple[float, int]) -> float:
    """p / q * r * 2**e for integers p and q > 0 and root = (r, e) from
    `_scaled_sqrt`: p / q is moved into (1/2, 2) by a power of two read
    from the bit lengths, and the product is moved back by the matching
    power of two.  A result above the largest float raises ValueError."""
    f = p.bit_length() - q.bit_length()
    try:
        return math.ldexp(((p << -f) / q if f < 0 else p / (q << f)) * root[0], root[1] + f)
    except OverflowError:
        raise ValueError(_BEYOND_FLOATS % "a coordinate leaves") from None


def _root(a: int, b: int, p: int = 1, q: int = 1) -> float:
    """p / q * sqrt(a / b) for integers p and a, b, q > 0, at any magnitude.

    Each factor is taken at a power-of-two scale (`_scaled_sqrt`,
    `_times`), so no factor rounds to 0, to a subnormal or to infinity
    before the product is formed.  The bits equal p / q * math.sqrt(a / b)
    wherever p / q, a / b and the result are normal floats: int / int
    rounds correctly, and a power of two moves no bit of a normal float.
    A result above the largest float raises ValueError.
    """
    return _times(p, q, _scaled_sqrt(a, b))


class ConvergenceError(RuntimeError):
    """Iteration budget ran out before the convergence test was met."""


class EmbeddedSimplex(Record):
    """Coordinates realizing a squared-distance matrix in the frame `embed`
    builds, or in one that reverses some of its axes: vertex 0 at the origin
    and vertex i in the first i coordinates, a frozen record (`exact.Record`).
    A NaN or infinite coordinate is refused before the round-trip check,
    which a NaN would pass, since no comparison is true for it.  The
    coordinates must reproduce every squared distance to a relative error
    of at most `TOL_EMBED`, a fixed 1e-9; the largest is kept as
    `max_rel_error`."""

    __slots__ = ("n", "vertices", "source", "max_rel_error")

    def __init__(self, vertices, source: SquaredDistanceMatrix):
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
        if err > TOL_EMBED:
            raise ValueError(
                "coordinates do not reproduce the distance matrix "
                "(relative error %.3e exceeds %.1e)" % (err, TOL_EMBED)
            )
        self._fill(source.n, pts, source, err)

    def to_json(self) -> dict:
        """What the `embed` command prints: the dimension, the vertices and
        the round-trip error; the source matrix is the command's input."""
        return {"n": self.n, "vertices": [list(row) for row in self.vertices], "max_rel_error": self.max_rel_error}


def embed(d: SquaredDistanceMatrix) -> EmbeddedSimplex:
    """Realize a nondegenerate matrix as coordinates in R^n.

    Degenerate or non-Euclidean input raises with the realizability
    verdict attached.  Then, unless the smallest squared distance is at
    least `sys.float_info.min` = 2**-1022 and the largest at most
    `sys.float_info.max` (compared exactly, on the cleared integers), it
    raises ValueError.  Coordinate k of vertex i+1 is L_ik sqrt(D_k) of
    the Gram LDL^T, read off the kept elimination as p / q * sqrt(a / b)
    with p = rows[k][i], q = m_k, a = m_k and b = m_(k-1) s, m the leading
    minors and s the Gram scale; on the diagonal rows[k][k] is m_k, so
    L_kk = 1 and the coordinate is sqrt(D_k) > 0, the column's root
    itself.  It is `_root`'s two steps, with the root of D_k
    (`_scaled_sqrt`) taken once per column and `_times` per coordinate
    below the diagonal, so the bits are `_root`'s: on the diagonal
    `_times` would multiply by m_k / m_k = 1.0.  The
    round-trip check runs at a power-of-two scale, so its sums of squares
    cannot overflow at the top of the range.
    """
    require_nondegenerate(d)
    g = _gram_elimination(d)
    dist, den = d._dist, d._den
    lo = min(min(row[i + 1:]) for i, row in enumerate(dist[:-1]))
    if not (den <= lo << 1022 and max(map(max, dist)) <= int(sys.float_info.max) * den):
        raise ValueError(_BEYOND_FLOATS % "squared distances leave")
    # coordinate k, from pivot row k: 0 on vertices 0..k, then L_ik sqrt(D_k) on vertex i+1 for i = k..n-1
    roots = [_scaled_sqrt(m, prev * g.scale) for prev, m in zip([1] + g.minors, g.minors)]
    cols = [[0.0] * (k + 1) + [math.ldexp(*root)] + [_times(x, m, root) for x in top[k + 1:d.n]]
            for k, (root, m, top) in enumerate(zip(roots, g.minors, g.rows))]
    return EmbeddedSimplex(list(zip(*cols)), d)


def centroid(s: EmbeddedSimplex) -> Point:
    """Arithmetic mean of the vertices."""
    return tuple(map(truediv, map(fsum, zip(*s.vertices)), repeat(len(s.vertices))))


def circumcenter(s: EmbeddedSimplex) -> tuple[Point, float]:
    """Equidistant point and its radius (the float distance to vertex 0).

    Coordinate k is y_k sqrt(D_k), with G = L D L^T the Gram LDL^T and y
    the exact circumcenter in the frame `embed` builds.  2 G x = g and
    G = L D L^T give y = L^T x = D^-1 L^-1 g / 2, and the Gram elimination
    carries s g, A's diagonal, as its last column, to L^-1 (s g) times the
    leading minors, so y_k = b'_k / (2 m_k), and coordinate k is the one
    float `_root(m_k, m_(k-1) s, b'_k, 2 m_k)`, once the circumcenter has
    passed its Cayley-Menger certificate (`_circumcenter_weights`).  A
    far circumcenter has huge barycentrics x, whose float image through
    the vertices would cancel; y does not.  A coordinate above the
    largest float raises ValueError.  The vertices may reverse axes of
    that frame: axis k is read as reversed, and coordinate k negated,
    when vertex k+1 has a negative coordinate k, where L_kk sqrt(D_k) is
    positive.  Where that coordinate rounds to 0.0, the vertex i+1
    farthest along axis k is read instead, against the sign of its exact
    L_ik, rows[k][i]; where every vertex has 0.0 there, either side is
    equidistant.
    """
    _circumcenter_weights(s.source)
    g = _gram_elimination(s.source)
    center = []
    for k, (prev, m, top) in enumerate(zip([1] + g.minors, g.minors, g.rows)):
        # > 0 where axis k points as in embed's frame: vertex k+1's coordinate k, or, where that rounds
        # to 0.0, the farthest vertex's, signed by its exact L_ik
        rest = zip(s.vertices[k + 2:], top[k + 1:])
        side = s.vertices[k + 1][k] or max((v[k] if x > 0 else -v[k] for v, x in rest), key=abs, default=0.0)
        center.append(_root(m, prev * g.scale, -top[-1] if side < 0 else top[-1], 2 * m))
    return tuple(center), math.dist(center, s.vertices[0])


def incenter(s: EmbeddedSimplex) -> tuple[Point, float]:
    """Facet-volume-weighted vertex average and the inradius n V / sum F_j.

    The weights F_j / sum F leave exact arithmetic as square roots of the
    ratios F_j**2 / max F**2 = det_k / max det (`_facet_dets`), each one
    `_root` of integers, so the facet volumes themselves never need to
    fit a float.  So is (V / max F)**2 =
    det(A) / (s n**2 max det), A = s*G the scaled Gram matrix.  The
    insphere touches facet j inside it exactly when the weight of vertex j
    is positive, at distance n V / sum F from the incenter for every j; a
    weight that is not a positive finite float raises RuntimeError.  A
    segment's two facets are points, det 1 each, so its incenter is its
    midpoint and its inradius half its length.
    """
    dets = _facet_dets(s.source)
    largest = max(dets)
    roots = [_root(k, largest) for k in dets]
    total = fsum(roots)
    weights = [r / total for r in roots]
    if not all(0.0 < w < math.inf for w in weights):
        raise RuntimeError("incenter weights are not all positive finite floats")
    g = _gram_elimination(s.source)
    radius = s.n * _root(g.minors[-1], g.scale * s.n**2 * largest) / total
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


def fermat_torricelli(s: EmbeddedSimplex) -> Point:
    """Minimizer of the summed vertex distances.

    The objective is convex, and a vertex is the global minimizer
    exactly when the combined unit pull of the other vertices has norm
    at most 1.  A vertex minimizer has the least summed distance of all
    points, so only a vertex whose float sum is within 1 + 1e-9 times the
    least can be one, ties under rounding included; of these the one of
    least norm is the answer when that norm is at most 1 + 1e-12.
    Otherwise the minimizer is interior and is found by Weiszfeld's
    re-weighted averaging started at the centroid, accepted once the
    objective gradient norm drops to `FT_GRADIENT_TOL`, a fixed bound on a
    sum of unit vectors; the simplex comes from an exact matrix, so there
    is no tolerance argument.  The iteration runs in the frame of that
    vertex of least norm: every vertex and the centroid are translated by
    it, and the answer back.  A minimizer next to a vertex leaves its norm
    just above 1, and there the floats are densest.  Each step is taken from x, as
    the summed unit pull towards the vertices over sum 1 / |p - x|, so next
    to a vertex it is not lost to the rounding of the vertex coordinates.
    An iterate that lands exactly on a (necessarily non-optimal) vertex is
    stepped off along the pull, whose norm then exceeds 1.

    Next to a vertex the averaging has one slow mode, with steps shrinking by a
    ratio near 1; after a step that shrank along the last one, the rest of their
    geometric series is added when that lowers the summed distance, compared per vertex.
    """
    table = [[math.dist(p, q) for q in s.vertices] for p in s.vertices]
    bound = (1.0 + 1e-9) * min(map(fsum, table))
    norm, k = min((_vertex_pull(s.vertices, k, row)[0], k) for k, row in enumerate(table) if fsum(row) <= bound)
    if norm <= 1.0 + 1e-12:
        return s.vertices[k]
    base = s.vertices[k]
    pts = [tuple(map(sub, p, base)) for p in s.vertices]
    x = tuple(map(sub, centroid(s), base))
    dists = [math.dist(p, x) for p in pts]
    cols = list(zip(*pts))
    step = ()  # the last averaging step, () when there is none to extend
    for _ in range(FT_MAX_ITER):
        if 0.0 in dists:
            k = dists.index(0.0)
            pull_norm, pull = _vertex_pull(pts, k, table[k])
            inv = fsum(1.0 / r for i, r in enumerate(table[k]) if i != k)
            off = (pull_norm - 1.0) / inv
            x = tuple(a + off * (c / pull_norm) for a, c in zip(pts[k], pull))
            dists, step = [math.dist(p, x) for p in pts], ()
            continue
        units = _units(x, cols, dists)
        pull = list(map(fsum, units))  # the objective's gradient, negated
        if math.hypot(*pull) <= FT_GRADIENT_TOL:
            return tuple(map(add, x, base))
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
        % (FT_GRADIENT_TOL, FT_MAX_ITER)
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


def center_set(s: EmbeddedSimplex) -> CenterSet:
    """Compute all four centers in one go; the Fermat-Torricelli point is
    held to `FT_GRADIENT_TOL`."""
    g = centroid(s)
    q, radius = circumcenter(s)
    i, inradius = incenter(s)
    f = fermat_torricelli(s)
    return CenterSet(
        centroid=g,
        circumcenter=q,
        incenter=i,
        fermat=f,
        circumradius=radius,
        inradius=inradius,
    )
