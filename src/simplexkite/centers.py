"""Exact center-coincidence predicates, and the float center distances.

The three classical coincidences are decided exactly from the distance
matrix alone: circumcenter = centroid is equivalent to well-distributed
edge lengths, incenter = centroid to equal facet volumes, and
circumcenter = incenter to equal facet circumradii together with an
interior circumcenter.

The Fermat-Torricelli point F follows from these.  At a point X that is
not a vertex, X = F exactly when the unit vectors from X to the vertices
sum to 0, that is, when X's barycentrics are proportional to
1/|p_j - X| (Edmonds, Hajja and Martini, "Coincidences of simplex
centers and related facial structures", 2005).  The centroid,
circumcenter and incenter are never vertices, so F = G exactly when G
is equidistant from the vertices, and F = Q exactly when Q's
barycentrics are equal: each holds exactly when Q = G.  F = I holds
exactly when G, Q and I all coincide, once any two of them do, and in a
triangle, whose incenter sees a side at 90 degrees plus half the
opposite angle and F sees each at 120, only when it is equilateral;
otherwise it is read off the float incenter by the gradient test that
`fermat_torricelli` accepts its own answer by: Kuhn's summed unit
vectors, `cayley._pull`, held to `FT_GRADIENT_TOL`.

The float distances between G, Q and I, and that gradient test, read no
vertex coordinates and call nothing of `geometry`, which this module does
not import.  Each center is read in the frame of the Gram LDL^T that the
kept elimination holds (`cayley._frame`), axis k scaled by sqrt(D_k):
Q's coordinates there are exact rationals times that scale; G's are the
means of the frame's columns, whose rows are `geometry.embed`'s
vertices, and I's its float barycentrics pushed through them, so G, Q
and I are the points the `centers` command prints.  |Q - G| is one
`cayley._root` of the exact rational R**2 - 1^T D 1 / (2 (n+1)**2)
(Leibniz), within 1.5 ulps.
Where Q = I or I = G holds exactly, every distance is 0.0 or |Q - G|, so
the frame is not read at all.  The diameter (`cayley._diameter`, the
one check that the squared distances fit the floats) is read either
way.  Each distance carries a bound
on its error, built from the same sums, and one whose bound exceeds
`TOL_DISTANCE` of the diameter or of itself raises ValueError.  The
gradient test carries none: next to a vertex, a unit vector from the
float incenter is no better than the float differences it is read from,
in this frame as in coordinates.

A general simplex's facet determinants and circumcenter weights come
from its Gram elimination (`cayley._facet_dets`,
`cayley._circumcenter_weights`).  Non-Euclidean input is refused by the
one realizability gate there (`cayley._euclidean`), which every
predicate calls; this module checks only that a predicate has facets to
compare, n >= 2.  The pre-kite solver, `equiareal_scan` and
`prekite_equiradial_residual` live in `prekite`, with its closed forms,
and this module does not import it.
"""

from __future__ import annotations

import math

from .cayley import (
    FT_GRADIENT_TOL,
    SquaredDistanceMatrix,
    _centroid_offset,
    _circumcenter_weights,
    _diameter,
    _euclidean,
    _facet_dets,
    _frame,
    _pull,
    facet_circumradii_sq,
    facet_volumes_sq,
    require_nondegenerate,
)
from .exact import Record, _at_least

TOL_DISTANCE = 1e-9
_U = 2.0**-53  # the unit roundoff: a correctly rounded operation moves a normal float by at most this share
_TINY = 2.0**-1070  # more than any absolute error a subnormal result adds


def _check_predicate_input(d: SquaredDistanceMatrix) -> bool:
    """Refuse n < 2; then the realizability gate (`cayley._euclidean`):
    whether d is nondegenerate, so its facets' integers (`_facet_dets`,
    `_circumcenter_weights`) exist."""
    _at_least(d.n, 2, "predicate")
    return _euclidean(d)


def is_well_distributed(d: SquaredDistanceMatrix) -> bool:
    """Whether all facets have the same sum of squared edge lengths.

    Equivalent to the per-vertex sums being equal, since each facet sum
    is the total minus the sum at the deleted vertex.  They are compared
    as the row sums of the cleared integer distances.
    """
    _check_predicate_input(d)
    sums = list(map(sum, d._dist))
    return sums.count(sums[0]) == len(sums)


def is_equiareal(d: SquaredDistanceMatrix) -> bool:
    """Whether all facets have equal volume (exact, via squared volumes).

    A nondegenerate simplex compares its facet determinants det_k, which
    share one denominator; flat input compares `facet_volumes_sq`.
    """
    vols = _facet_dets(d) if _check_predicate_input(d) else facet_volumes_sq(d)
    return vols.count(vols[0]) == len(vols)


def is_equiradial(d: SquaredDistanceMatrix) -> bool:
    """Whether all facets have equal circumradius (exact).

    A nondegenerate simplex has R_k**2 = R**2 - (w_k h_k)**2, with w the
    circumcenter's barycentrics and h_k**2 = det(A) / (s det_k) the squared
    height over facet k (`facet_circumradii_sq`).  R**2 and det(A) / s are
    shared by every facet, so R_k = R_0 is W_k**2 det_0 == W_0**2 det_k on
    the kept integers W = 2 det(A) w (`_circumcenter_weights`) and det_k
    (`_facet_dets`), and its facets are never degenerate.  So a degenerate
    facet can only occur on flat input, whose facets are eliminated one by
    one; such a facet has no circumradius and raises DegenerateSimplexError.
    """
    if not _check_predicate_input(d):
        radii = facet_circumradii_sq(d)
        return radii.count(radii[0]) == len(radii)
    weights, dets = _circumcenter_weights(d), _facet_dets(d)
    first = weights[0] ** 2
    return all(w * w * dets[0] == first * k for w, k in zip(weights, dets))


def is_circumcenter_interior(d: SquaredDistanceMatrix) -> bool:
    """Whether the circumcenter lies strictly inside the simplex: whether
    its barycentrics times 2 det(A) > 0, as `_circumcenter_weights` keeps them,
    are all positive.  Degenerate or non-Euclidean input raises with the
    verdict attached."""
    return min(_circumcenter_weights(d)) > 0


def _center_floats(d: SquaredDistanceMatrix, qg: bool, qi: bool, ig: bool) -> tuple[dict, dict, float | None]:
    """(distances, bounds, pull): the float distances qg, qi and ig between
    the centroid G, circumcenter Q and incenter I of a nondegenerate d,
    a bound on the error of each, and the norm of the summed unit vectors
    from I to the vertices, None where the exact verdicts decide F = I (any
    of qg, qi and ig, or a triangle).

    The distances follow the exact coincidences (qg, qi, ig): a distance
    is 0.0 exactly when its coincidence holds, and where one holds the
    other two are one distance.  |Q - G| is one root of an exact rational
    (`cayley._centroid_offset`), which errs by at most 1.5 u of itself, u
    the unit roundoff, and carries the bound 2 u of itself; the diameter
    is read once (`cayley._diameter`, the one check that the squared
    distances fit the floats).  So where qi or ig holds, every distance
    is 0.0 or |Q - G|.  Otherwise |I - G| and |Q - I| are read off the
    centers' coordinates in the Gram LDL^T frame (`cayley._frame`), and
    so is the pull, Kuhn's summed unit vectors (`cayley._pull`), which
    carries no bound; |Q - I| and, unless Q = G, |I - G| are then the
    distances between the Q, I and G that `geometry.center_set` gives for
    `embed`'s vertices, bit for bit.  A distinct pair that rounds to 0.0
    gets the least positive float, within its bound.  The bounds hold to
    first order in the unit roundoff u: each column entry errs by at most
    3.5 u of itself (`cayley._axes`), so a coordinate of I, or of G, the
    column mean, errs by at most 12 u of the largest entry of its column
    (the spread), those of Q by 3 u of their norm, and a distance by 2 u
    more of itself: |I - G| by two spreads, |Q - I| by one.  A bound above
    `TOL_DISTANCE` of the larger of the diameter and the distance raises
    ValueError, and so does a float I that falls on a vertex, where no unit
    vector points to that vertex.
    """
    offset = _centroid_offset(d)
    diam = _diameter(d)
    pairs = {"qg": (offset, 2 * _U * offset)}
    if qi or ig:
        pairs["ig"] = (0.0, 0.0) if ig else pairs["qg"]
        pairs["qi"] = (0.0, 0.0) if qi else pairs["qg"]
    else:
        cols, zg, zq, zi = _frame(d)
        spread = 12 * _U * math.hypot(*[max(map(abs, col)) for col in cols]) + d.n * _TINY
        qi_value, ig_value = math.dist(zq, zi), math.dist(zg, zi)
        pairs["qi"] = (qi_value, spread + 3 * _U * math.hypot(*zq) + 2 * _U * qi_value)
        pairs["ig"] = pairs["qi"] if qg else (ig_value, 2 * spread + 2 * _U * ig_value)
    values, bounds = {}, {}
    for name, coincide in (("qg", qg), ("qi", qi), ("ig", ig)):
        value, bound = pairs[name]
        if bound > TOL_DISTANCE * max(diam, value):
            raise ValueError("the float distance %s = %r may be off by %.3e, more than %.1e of the diameter %r"
                             % (name, value, bound, TOL_DISTANCE, diam))
        values[name] = math.nextafter(0.0, 1.0) if value == 0.0 and not coincide else value
        bounds[name] = bound
    pull = None
    if not (qg or qi or ig or d.n == 2):
        lengths = [math.dist(v, zi) for v in zip(*cols)]
        if 0.0 in lengths:
            raise ValueError("the float incenter falls on vertex %d, where the Fermat gradient test has no float answer; "
                             "the exact results (classify --exact) do not need floats" % lengths.index(0.0))
        pull = math.hypot(*_pull(zi, cols, lengths))
    return values, bounds, pull


class CoincidenceReport(Record, defaults=(None, None)):
    """Exact coincidence verdicts, with optional float parts attached.

    With floats, `fermat_coincidences` holds the Fermat flags fg, fq and
    fi: fg and fq are `qg_coincide`, exact; fi is exact in a triangle and
    when any of the three exact coincidences holds, and otherwise the
    Fermat gradient test at the float incenter.  `center_distances` holds
    the float distances qg, qi and ig between the centers, read in the
    Gram LDL^T frame without vertex coordinates (`_center_floats`); each
    is 0.0 exactly when its exact coincidence holds.
    """

    __slots__ = (
        "well_distributed", "equiradial", "equiareal", "circumcenter_interior",
        "qg_coincide", "qi_coincide", "ig_coincide", "fermat_coincidences", "center_distances",
    )

    well_distributed: bool
    equiradial: bool
    equiareal: bool
    circumcenter_interior: bool
    qg_coincide: bool
    qi_coincide: bool
    ig_coincide: bool
    fermat_coincidences: dict | None
    center_distances: dict | None

    def to_json(self) -> dict:
        """The fields, without the float parts that were not taken."""
        return {name: value for name, value in super().to_json().items() if value is not None}


def coincidence_report(d: SquaredDistanceMatrix, with_floats: bool = False) -> CoincidenceReport:
    """Exact coincidence report for a nondegenerate simplex.

    When with_floats is set, the pairwise distances of the centroid,
    circumcenter and incenter and the Fermat flags are attached, read off
    the kept Gram elimination without vertex coordinates
    (`_center_floats`).  The float frame (`cayley._frame`) is read only
    when no exact coincidence decides the distances, that is, when
    neither Q = I nor I = G holds; otherwise they are 0.0 or |Q - G|.
    Where it is read, qi is the distance between the Q and I that the
    `centers` command prints, and so is ig between its G and I, unless
    Q = G holds, where ig is qi.  Squared distances outside the floats
    raise ValueError either way (`cayley._diameter` owns that check), as
    does a distance whose error bound is not small against the diameter or
    itself, or that leaves the floats.
    F = I is decided without the Fermat point: by the exact verdicts in a
    triangle and when any two of G, Q and I coincide, and otherwise by
    whether the summed unit vectors from the float incenter to the
    vertices (`cayley._pull`, which `fermat_torricelli` reads too) have
    norm at most `FT_GRADIENT_TOL`; a float incenter that
    falls on a vertex raises ValueError.  Degenerate or non-Euclidean
    input raises with the verdict attached.
    """
    require_nondegenerate(d)
    well = is_well_distributed(d)
    radial = is_equiradial(d)
    areal = is_equiareal(d)
    interior = is_circumcenter_interior(d)
    qg, qi, ig = well, radial and interior, areal
    fermat = None
    distances = None
    if with_floats:
        distances, _, pull = _center_floats(d, qg, qi, ig)
        fi = qg and qi and ig if pull is None else pull <= FT_GRADIENT_TOL
        fermat = {"fg": qg, "fq": qg, "fi": fi}
    return CoincidenceReport(
        well_distributed=well,
        equiradial=radial,
        equiareal=areal,
        circumcenter_interior=interior,
        qg_coincide=qg,
        qi_coincide=qi,
        ig_coincide=ig,
        fermat_coincidences=fermat,
        center_distances=distances,
    )
