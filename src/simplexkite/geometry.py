"""Floating-point realization of distance matrices and the four centers.

This module and the float family recoveries of `families` are where
the package leaves exact arithmetic for points; this one needs only
`math`, and points are tuples of floats.  It reads no field of the kept
Gram elimination and builds no Fraction: `cayley`, the one reader of
that elimination's float frame, hands it the frame's columns
(`_axes`), each over every vertex, each coordinate 0.0 or a scale-safe
product of exact integers and its axis's root, so `embed`'s vertices are
the columns' rows; the circumcenter's coordinates in that frame
(`_circumcenter_axes`); the incenter's weights and inradius
(`_incenter_weights`); the sums that make the centroid and the incenter
of the vertices' columns (`_mean`, `_push`); and Kuhn's pull, the summed
unit vectors that the Fermat-Torricelli point is held to (`_pull`,
`_units`).  So the circumcenter and incenter are read off the Gram
elimination that certified the simplex, not solved for in floats, and
the centroid and incenter are the sums `cayley._frame` takes too, so
where no exact coincidence decides it, `classify`'s |Q - I| and |I - G|
are the distances between the points printed here.  A value whose
float would underflow or overflow on the way still gives its share of a
product that is a float, and a product above the largest float raises
ValueError.  The Fermat-Torricelli point is a vertex when one of least
summed distance, up to rounding, passes its certificate; otherwise it is
found by re-weighted averaging in the frame of the one whose certificate
failed by least, where the floats are densest next to that vertex.

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
from itertools import chain, repeat
from math import fsum
from operator import add, mul, sub, truediv

from .cayley import (
    _BEYOND_FLOATS,
    FT_GRADIENT_TOL,
    SquaredDistanceMatrix,
    _axes,
    _circumcenter_axes,
    _diameter,
    _incenter_weights,
    _mean,
    _pull,
    _push,
    _top_exponent,
    _units,
    require_nondegenerate,
)
from .exact import Record

TOL_EMBED = 1e-9
FT_MAX_ITER = 100_000

Point = tuple[float, ...]


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
    verdict attached.  Then, unless the largest squared distance fits the
    floats (`cayley._diameter`, the one float-range check) and the
    smallest is at least `sys.float_info.min` = 2**-1022 (compared
    exactly, on the cleared integers), it raises ValueError.  The vertices
    are the rows of the Gram LDL^T frame's columns (`cayley._axes`):
    vertex 0 at the origin, and coordinate k of vertex i+1 is 0.0 for
    i < k and otherwise L_ik sqrt(D_k), one scale-safe product of exact
    integers and the column's root.  The round-trip check runs at a
    power-of-two scale, so its sums of squares cannot overflow at the top
    of the range.
    """
    require_nondegenerate(d)
    _diameter(d)
    lo = min(min(row[i + 1:]) for i, row in enumerate(d._dist[:-1]))
    if d._den > lo << 1022:
        raise ValueError(_BEYOND_FLOATS % "squared distances leave")
    _, cols = _axes(d)
    return EmbeddedSimplex(list(zip(*cols)), d)


def centroid(s: EmbeddedSimplex) -> Point:
    """Arithmetic mean of the vertices, the mean of each coordinate column
    (`cayley._mean`), the sum `cayley._frame` reads G by."""
    return _mean(zip(*s.vertices))


def circumcenter(s: EmbeddedSimplex) -> tuple[Point, float]:
    """Equidistant point and its radius (the float distance to vertex 0).

    The coordinates are the circumcenter's in the Gram LDL^T frame
    (`cayley._circumcenter_axes`, exact rationals times the frame's
    roots), read once the circumcenter has passed its Cayley-Menger
    certificate.  The vertices may reverse axes of that frame: axis k is
    read as reversed, and coordinate k negated, when the vertex farthest
    along it in the frame's column k (`cayley._axes`) lies on the other
    side of 0 in s; where every vertex has 0.0 there, either side is
    equidistant.
    """
    roots, cols = _axes(s.source)
    center = []
    for k, (col, z) in enumerate(zip(cols, _circumcenter_axes(s.source, roots))):
        frame, own = max(zip(col, (v[k] for v in s.vertices)), key=lambda pair: abs(pair[0]))
        center.append(-z if (frame < 0) != (own < 0) else z)
    return tuple(center), math.dist(center, s.vertices[0])


def incenter(s: EmbeddedSimplex) -> tuple[Point, float]:
    """Facet-volume-weighted vertex average and the inradius n V / sum F_j.

    The average is the weights pushed through the vertex columns
    (`cayley._push`), the sum `cayley._frame` reads I by.  The weights
    F_j / sum F and the inradius leave exact arithmetic as square roots
    of ratios of the facet Gram determinants and det(A)
    (`cayley._incenter_weights`), so the facet volumes themselves never
    need to fit a float.  The insphere touches facet j inside it exactly
    when the weight of vertex j is positive, at distance n V / sum F from
    the incenter for every j.  Each weight lies in [0, 1], so one that is
    0.0 has underflowed, and raises ValueError, pointing to the exact
    results, which need no floats.  A segment's two facets are points,
    det 1 each, so its incenter is its midpoint and its inradius half its
    length.
    """
    weights, radius = _incenter_weights(s.source)
    if 0.0 in weights:
        raise ValueError(_BEYOND_FLOATS % "an incenter weight leaves")
    return _push(weights, zip(*s.vertices)), radius


def sum_distances(s: EmbeddedSimplex, point) -> float:
    """Sum of distances from a point to all vertices."""
    return fsum(math.dist(v, point) for v in s.vertices)


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
