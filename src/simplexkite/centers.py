"""Exact center-coincidence predicates and the equiareal pre-kite solver.

The three classical coincidences are decided exactly from the distance
matrix alone: circumcenter = centroid is equivalent to well-distributed
edge lengths, incenter = centroid to equal facet volumes, and
circumcenter = incenter to equal facet circumradii together with an
interior circumcenter.  Fermat-Torricelli coincidences have no exact
characterization here and are reported only as float experiments.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cayley import (
    NonEuclideanError,
    Realizability,
    SquaredDistanceMatrix,
    _facet_integers,
    facet_circumradii_sq,
    facet_volumes_sq,
    is_realizable,
    require_nondegenerate,
)
from .exact import Record, _positive_tol
from .geometry import TOL_CENTER, center_set, embed
from .prekite import PreKite, pk_cm_det, pk_facets_equiareal

_EQUIAREAL_CLAIM = "no non-regular equiareal pre-kite exists below dimension 6"


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
    weights, corner, _, dets = _facet_integers(d)
    first = -corner * dets[0] - weights[0] ** 2
    return all((-corner * k - w * w) * dets[0] == first * k for w, k in zip(weights, dets))


def prekite_equiradial_residual(pk: PreKite, j: int) -> Fraction:
    """Residual whose vanishing makes facet j coradial with the base facet.

    With s1 = u + sum(v) and s2 = u**2 + sum(v**2):

        2*(s1 - n*u)*v_j - (s1**2 + s2 - 2*n*s1*u + n*(n-1)*u**2)

    This is the cross-multiplied equality of the two facet circumradii,
    cleared of the common sign and power-of-u factors.
    """
    if pk.n < 3:
        raise ValueError("residual needs n >= 3")
    if not 1 <= j <= pk.n:
        raise IndexError("apex edge index out of range")
    n, u, s1, s2 = pk.n, pk.u, pk.sum1, pk.sum2
    vj = pk.v[j - 1]
    return 2 * (s1 - n * u) * vj - (s1**2 + s2 - 2 * n * s1 * u + n * (n - 1) * u**2)


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


class EquiarealCandidate(Record):
    """A pre-kite PK[n; u; x*t, y*s] solving the equal-facet-volume conditions.

    t of the apex edges carry squared value x and the remaining s carry
    y; u is normalized to 1 (the conditions are homogeneous).  The
    realizability verdict and an independent facet-volume check, both
    read off the pre-kite closed forms, are recorded alongside.
    """

    __slots__ = ("n", "t", "s", "x", "y", "u", "realizable", "degenerate", "equiareal_verified", "regular")

    n: int
    t: int
    s: int
    x: Fraction
    y: Fraction
    u: Fraction
    realizable: bool
    degenerate: bool
    equiareal_verified: bool
    regular: bool

    def prekite(self) -> PreKite:
        return PreKite(self.n, self.u, (self.x,) * self.t + (self.y,) * self.s)


def equiareal_prekite_solve(n: int, t: int, s: int) -> list[EquiarealCandidate]:
    """Solve the two equal-facet-volume conditions for PK[n; 1; x*t, y*s].

    The conditions are (i) n*u**2 - s1**2 + (n-1)*s2 - n*x**2 + 2*s1*x = 0
    and (ii) (t-s)*(y-x) = 2*u.  Substituting (ii) into (i) cancels the
    quadratic term, so there is exactly one candidate (x, y) per (t, s)
    with t != s; t = s would force u = 0 and is rejected.  Both parameters
    are positive: with u = 1 and delta = 2/(t-s), 2(n-1)x = 2(n-1) -
    2s*delta + (t-1)s*delta**2, which is at least 2(t-1) when t - s >= 2
    and equals 4s(t-1) when t - s = 1, so x > 0 and y = x + delta > 0.
    The list holds that one candidate.  It is decided on
    the pre-kite closed forms, with no matrix: the regular base facet is
    a nondegenerate simplex, so the Gram matrix has at most one
    eigenvalue <= 0, and the sign of (-1)**(n+1) times the Cayley-Menger
    determinant, that of the Gram determinant, is the realizability
    verdict; the candidate is re-verified as equiareal by comparing its
    facets' Cayley-Menger determinants, independent of the two conditions.
    """
    if n < 3:
        raise ValueError("solver needs n >= 3")
    if t + s != n or s < 1 or t < s:
        raise ValueError("need t + s = n with t >= s >= 1")
    if t == s:
        raise ValueError("t = s admits no solution: condition (ii) would force u = 0")
    u = Fraction(1)
    delta = 2 * u / (t - s)
    x = (n * u**2 - (u + s * delta) ** 2 + (n - 1) * u**2 + (n - 1) * s * delta**2) / (
        2 * (n - 1) * u
    )
    y = x + delta
    pk = PreKite(n, u, (x,) * t + (y,) * s)
    gram_det_sign = (-1) ** (n + 1) * pk_cm_det(pk)
    candidate = EquiarealCandidate(
        n=n,
        t=t,
        s=s,
        x=x,
        y=y,
        u=u,
        realizable=gram_det_sign > 0,
        degenerate=gram_det_sign == 0,
        equiareal_verified=pk_facets_equiareal(pk),
        regular=x == y == u,
    )
    return [candidate]


def equiareal_scan(n: int) -> dict:
    """Scan all (t, s) splits at dimension n and compare with the classical claim.

    The classical statement is that non-regular equiareal pre-kites
    exist only from dimension 6 up.  The scan reports what the exact
    facet-volume computation certifies; when the two disagree the
    disagreement is recorded as a note, never silently dropped.
    """
    if not 3 <= n <= 12:
        raise ValueError("scan supports 3 <= n <= 12")
    rows = []
    found_nonregular = False
    for s in range(1, n // 2 + 1):
        t = n - s
        if t == s:
            rows.append(
                {
                    "t": t,
                    "s": s,
                    "status": "no-solution",
                    "reason": "t = s forces u = 0",
                }
            )
            continue
        (cand,) = equiareal_prekite_solve(n, t, s)
        status = "realizable" if cand.realizable else ("degenerate" if cand.degenerate else "non-euclidean")
        rows.append({"t": t, "s": s, "status": status, **cand.to_json()})
        if cand.realizable and cand.equiareal_verified and not cand.regular:
            found_nonregular = True
    claim_expects_found = n >= 6
    agrees = found_nonregular == claim_expects_found
    notes = []
    if not agrees:
        if found_nonregular:
            notes.append(
                "exact facet-volume check certifies a non-regular equiareal "
                "pre-kite at n=%d, although the classical threshold says none "
                "exist below dimension 6 (squared-length parameters)" % n
            )
        else:
            notes.append(
                "no non-regular equiareal pre-kite found at n=%d although the "
                "classical threshold expects one" % n
            )
    return {
        "n": n,
        "rows": rows,
        "any_nonregular_equiareal": found_nonregular,
        "threshold_claim": _EQUIAREAL_CLAIM,
        "claim_agrees": agrees,
        "notes": notes,
    }
