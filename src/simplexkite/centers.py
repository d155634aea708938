"""Exact center-coincidence predicates.

The three classical coincidences are decided exactly from the distance
matrix alone: circumcenter = centroid is equivalent to well-distributed
edge lengths, incenter = centroid to equal facet volumes, and
circumcenter = incenter to equal facet circumradii together with an
interior circumcenter.  Fermat-Torricelli coincidences have no exact
characterization here and are reported only as float experiments.

A general simplex's facet determinants come from its Gram elimination
(`cayley._facet_integers`).  A pre-kite's need no matrix: with lambda =
diag - off and mu = diag + (m-1)*off, det [[C, T], [L^T, U]] of an m x m
uniform block U with k border rows and columns is lambda**(m-k-1) *
det [[lambda*C - T L^T, -T 1], [off * (L 1)^T, mu]], whose k = 0, 1 and
2 instances are the uniform, the inner Cayley-Menger and the
Cayley-Menger determinant.  So the equal-facet-volume pre-kite solver,
`equiareal_scan` and `prekite_equiradial_residual` live in `prekite`,
with that form, and this module does not import it.
"""

from __future__ import annotations

import math

from .cayley import (
    NonEuclideanError,
    Realizability,
    SquaredDistanceMatrix,
    _facet_integers,
    _gram_elimination,
    facet_circumradii_sq,
    facet_volumes_sq,
    is_realizable,
    require_nondegenerate,
)
from .exact import Record, _positive_tol
from .geometry import TOL_CENTER, center_set, embed


def _check_predicate_input(d: SquaredDistanceMatrix) -> bool:
    """Refuse n < 2, and non-Euclidean distances with the verdict; flat input
    passes.  Whether d is nondegenerate, so its facets' integers
    (`_facet_integers`) exist."""
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
    vols = _facet_integers(d).dets if _check_predicate_input(d) else facet_volumes_sq(d)
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
    weights, dets = _facet_integers(d)
    corner = _gram_elimination(d).corner
    first = -corner * dets[0] - weights[0] ** 2
    return all((-corner * k - w * w) * dets[0] == first * k for w, k in zip(weights, dets))


def is_circumcenter_interior(d: SquaredDistanceMatrix) -> bool:
    """Whether the circumcenter lies strictly inside the simplex: whether
    its barycentrics times 2 det(A) > 0, as `_facet_integers` keeps them,
    are all positive.  Degenerate or non-Euclidean input raises with the
    verdict attached."""
    return min(_facet_integers(d).weights) > 0


class CoincidenceReport(Record, defaults=(None, None)):
    """Exact coincidence verdicts, with optional float cross-checks attached."""

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
        """The fields, without the float cross-checks that were not taken."""
        out = {name: value for name, value in super().to_json().items() if value is not None}
        if self.fermat_coincidences is not None:
            out["fermat_note"] = "float-based, experimental"
        return out


def coincidence_report(
    d: SquaredDistanceMatrix,
    with_floats: bool = False,
    tol_center: float | None = None,
) -> CoincidenceReport:
    """Exact coincidence report for a nondegenerate simplex.

    When with_floats is set, the simplex is embedded and the pairwise
    center distances are attached, including the experimental
    Fermat-Torricelli coincidence flags.  A tol_center that is not
    finite and > 0 raises ValueError; degenerate or non-Euclidean input
    raises next, with the verdict attached.
    """
    if tol_center is not None:
        _positive_tol(tol_center, "tol_center")
    require_nondegenerate(d)
    well = is_well_distributed(d)
    radial = is_equiradial(d)
    areal = is_equiareal(d)
    interior = is_circumcenter_interior(d)
    fermat = None
    distances = None
    if with_floats:
        tol = TOL_CENTER if tol_center is None else tol_center
        cs = center_set(embed(d))
        pairs = {
            "qg": (cs.circumcenter, cs.centroid),
            "qi": (cs.circumcenter, cs.incenter),
            "ig": (cs.incenter, cs.centroid),
            "fg": (cs.fermat, cs.centroid),
            "fq": (cs.fermat, cs.circumcenter),
            "fi": (cs.fermat, cs.incenter),
        }
        distances = {key: math.dist(p, q) for key, (p, q) in pairs.items()}
        fermat = {key: distances[key] <= tol * (1.0 + cs.circumradius) for key in ("fg", "fq", "fi")}
    return CoincidenceReport(
        well_distributed=well,
        equiradial=radial,
        equiareal=areal,
        circumcenter_interior=interior,
        qg_coincide=well,
        qi_coincide=radial and interior,
        ig_coincide=areal,
        fermat_coincidences=fermat,
        center_distances=distances,
    )
