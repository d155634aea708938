"""Exact center-coincidence predicates.

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
`fermat_torricelli` accepts its own answer by.

A general simplex's facet determinants and circumcenter weights come
from its Gram elimination (`cayley._facet_dets`,
`cayley._circumcenter_weights`).  The pre-kite solver, `equiareal_scan`
and `prekite_equiradial_residual` live in `prekite`, with its closed
forms, and this module does not import it.
"""

from __future__ import annotations

import math

from .cayley import (
    NonEuclideanError,
    Realizability,
    SquaredDistanceMatrix,
    _circumcenter_weights,
    _facet_dets,
    _gram_elimination,
    facet_circumradii_sq,
    facet_volumes_sq,
    is_realizable,
    require_nondegenerate,
)
from .exact import Record
from .geometry import FT_GRADIENT_TOL, _pull, centroid, circumcenter, embed, incenter


def _check_predicate_input(d: SquaredDistanceMatrix) -> bool:
    """Refuse n < 2, and non-Euclidean distances with the verdict; flat input
    passes.  Whether d is nondegenerate, so its facets' integers
    (`_facet_dets`, `_circumcenter_weights`) exist."""
    if d.n < 2:
        raise ValueError("predicate needs n >= 2")
    verdict = is_realizable(d)
    if verdict.status is Realizability.NON_EUCLIDEAN:
        raise NonEuclideanError("distances are not Euclidean", verdict=verdict)
    return verdict.status is Realizability.NONDEGENERATE


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

    A nondegenerate simplex has R_k**2 = (-corner det_k - w_k**2) / (4 s
    det(A) det_k) (`facet_circumradii_sq`), so R_k = R_0 is (-corner det_k - w_k**2)
    det_0 == (-corner det_0 - w_0**2) det_k on its integers, and its facets
    are never degenerate.  So a degenerate facet can only occur on flat
    input, whose facets are eliminated one by one; such a facet has no
    circumradius and raises DegenerateSimplexError.
    """
    if not _check_predicate_input(d):
        radii = facet_circumradii_sq(d)
        return all(r == radii[0] for r in radii)
    weights, dets = _circumcenter_weights(d), _facet_dets(d)
    corner = _gram_elimination(d).corner
    first = -corner * dets[0] - weights[0] ** 2
    return all((-corner * k - w * w) * dets[0] == first * k for w, k in zip(weights, dets))


def is_circumcenter_interior(d: SquaredDistanceMatrix) -> bool:
    """Whether the circumcenter lies strictly inside the simplex: whether
    its barycentrics times 2 det(A) > 0, as `_circumcenter_weights` keeps them,
    are all positive.  Degenerate or non-Euclidean input raises with the
    verdict attached."""
    return min(_circumcenter_weights(d)) > 0


class CoincidenceReport(Record, defaults=(None, None)):
    """Exact coincidence verdicts, with optional float parts attached.

    With floats, `fermat_coincidences` holds the Fermat flags fg, fq and
    fi: fg and fq are `qg_coincide`, exact; fi is exact in a triangle and
    when any of the three exact coincidences holds, and otherwise the
    Fermat gradient test at the float incenter.  `center_distances` holds
    the float distances qg, qi and ig between the embedded centers.
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

    When with_floats is set, the simplex is embedded, and the pairwise
    distances of its centroid, circumcenter and incenter and the Fermat
    flags are attached.  F = I is decided without the Fermat point: by
    the exact verdicts in a triangle and when any two of G, Q and I
    coincide, and otherwise by whether the summed unit vectors from the
    float incenter to the vertices have norm at most `FT_GRADIENT_TOL`.
    Degenerate or non-Euclidean input raises with the verdict attached.
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
        s = embed(d)
        g = centroid(s)
        q, _ = circumcenter(s)
        i, _ = incenter(s)
        distances = {"qg": math.dist(q, g), "qi": math.dist(q, i), "ig": math.dist(i, g)}
        if qg or qi or ig or d.n == 2:
            fi = qg and qi and ig
        else:
            pts = s.vertices
            fi = math.hypot(*_pull(i, zip(*pts), [math.dist(p, i) for p in pts])) <= FT_GRADIENT_TOL
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
