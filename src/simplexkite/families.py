"""Recognition of the four special simplex families by weight recovery.

Each family is characterized by a vector of per-vertex weights beta
that reproduces every edge through a fixed two-argument form:

    orthocentric      squared edge = beta_i + beta_j      (beta real)
    circumscriptible  edge length  = beta_i + beta_j      (beta > 0)
    isodynamic        squared edge = beta_i * beta_j      (beta > 0)
    tetra_isogonic    squared edge = beta_i**2 + beta_i*beta_j + beta_j**2

The weights are unique when they exist, so membership testing reduces
to recovering a candidate from a few entries and verifying every pair.
The orthocentric recovery is exact rational; the other three involve
square roots and run in floating point with a relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cayley import SquaredDistanceMatrix, require_nondegenerate
from .exact import as_scalar, scalar_str
from .prekite import ApexReport, find_apexes

TOL_FAMILY = 1e-9

FAMILY_NAMES = ("orthocentric", "circumscriptible", "isodynamic", "tetra_isogonic")


@dataclass(frozen=True)
class BetaVector:
    """Recovered weights for one family, with the worst pair defect."""

    family: str
    beta: tuple
    residual: object  # Fraction for the exact family, float otherwise

    def to_json(self) -> dict:
        if self.family == "orthocentric":
            beta = [scalar_str(b) for b in self.beta]
            residual = scalar_str(self.residual)
        else:
            beta = [float(b) for b in self.beta]
            residual = float(self.residual)
        return {"family": self.family, "beta": beta, "residual": residual}


def recover_orthocentric(d: SquaredDistanceMatrix) -> BetaVector | None:
    """Exact recovery of weights with squared edge = beta_i + beta_j."""
    size = d.n + 1
    beta = []
    for i in range(size):
        j, k = [m for m in range(size) if m != i][:2]
        beta.append((d.a[i][j] + d.a[i][k] - d.a[j][k]) / 2)
    worst = max(
        abs(d.a[i][j] - beta[i] - beta[j])
        for i in range(size)
        for j in range(i + 1, size)
    )
    if worst != 0:
        return None
    return BetaVector(family="orthocentric", beta=tuple(beta), residual=Fraction(0))


def _float_lengths(d: SquaredDistanceMatrix):
    size = d.n + 1
    return [[math.sqrt(float(d.a[i][j])) if i != j else 0.0 for j in range(size)] for i in range(size)]


def recover_circumscriptible(d: SquaredDistanceMatrix, tol: float = TOL_FAMILY) -> BetaVector | None:
    """Recovery of positive weights with edge length = beta_i + beta_j."""
    size = d.n + 1
    ell = _float_lengths(d)
    scale = max(max(row) for row in ell)
    beta = []
    for i in range(size):
        j, k = [m for m in range(size) if m != i][:2]
        beta.append((ell[i][j] + ell[i][k] - ell[j][k]) / 2)
    if any(b <= 0 for b in beta):
        return None
    worst = max(
        abs(ell[i][j] - beta[i] - beta[j])
        for i in range(size)
        for j in range(i + 1, size)
    )
    residual = worst / scale
    if residual > tol:
        return None
    return BetaVector(family="circumscriptible", beta=tuple(beta), residual=residual)


def recover_isodynamic(d: SquaredDistanceMatrix, tol: float = TOL_FAMILY) -> BetaVector | None:
    """Recovery of positive weights with squared edge = beta_i * beta_j."""
    size = d.n + 1
    a = [[float(x) for x in row] for row in d.a]
    scale = max(max(row) for row in a)
    beta = []
    for i in range(size):
        j, k = [m for m in range(size) if m != i][:2]
        beta.append(math.sqrt(a[i][j] * a[i][k] / a[j][k]))
    worst = max(
        abs(a[i][j] - beta[i] * beta[j])
        for i in range(size)
        for j in range(i + 1, size)
    )
    residual = worst / scale
    if residual > tol:
        return None
    return BetaVector(family="isodynamic", beta=tuple(beta), residual=residual)


def _tetra_candidates(a) -> list[list[float]]:
    """Candidate weight triples for vertices 0, 1, 2.

    Writing s = beta_0 + beta_1 + beta_2, the differences of the three
    edges at the triple are (beta_1 - beta_2)*s and (beta_0 - beta_2)*s,
    which turns the remaining edge equation into a quadratic in s**2.
    Both positive roots are returned for verification downstream.
    """
    p_num = a[0][1] - a[0][2]
    q_num = a[0][1] - a[1][2]
    big_a = 2 * p_num - q_num
    big_b = -p_num - q_num
    coeff2 = 3.0
    coeff1 = 3 * (p_num - 2 * q_num) - 9 * a[1][2]
    coeff0 = big_a**2 + big_a * big_b + big_b**2
    disc = coeff1**2 - 4 * coeff2 * coeff0
    if disc < 0:
        return []
    sq = math.sqrt(disc)
    out = []
    for w in ((-coeff1 + sq) / (2 * coeff2), (-coeff1 - sq) / (2 * coeff2)):
        if w <= 0:
            continue
        s = math.sqrt(w)
        b2 = (s - p_num / s - q_num / s) / 3
        b1 = b2 + p_num / s
        b0 = b2 + q_num / s
        out.append([b0, b1, b2])
    return out


def recover_tetra_isogonic(d: SquaredDistanceMatrix, tol: float = TOL_FAMILY) -> BetaVector | None:
    """Recovery of positive weights with squared edge = b_i**2 + b_i*b_j + b_j**2.

    The triple (0, 1, 2) pins the candidate weights via the quadratic
    reduction above; the remaining weights follow one by one from the
    edges at vertex 0, and every pair is verified at the end.
    """
    size = d.n + 1
    a = [[float(x) for x in row] for row in d.a]
    scale = max(max(row) for row in a)
    for triple in _tetra_candidates(a):
        if any(b <= 0 for b in triple):
            continue
        beta = list(triple)
        ok = True
        for m in range(3, size):
            disc = 4 * a[0][m] - 3 * beta[0] ** 2
            if disc <= 0:
                ok = False
                break
            bm = (-beta[0] + math.sqrt(disc)) / 2
            if bm <= 0:
                ok = False
                break
            beta.append(bm)
        if not ok:
            continue
        worst = max(
            abs(a[i][j] - (beta[i] ** 2 + beta[i] * beta[j] + beta[j] ** 2))
            for i in range(size)
            for j in range(i + 1, size)
        )
        residual = worst / scale
        if residual <= tol:
            return BetaVector(family="tetra_isogonic", beta=tuple(beta), residual=residual)
    return None


def matrix_from_beta(family: str, beta) -> SquaredDistanceMatrix:
    """Build the squared-distance matrix a family weight vector induces.

    Exact when the weights are rational.  The result is not guaranteed
    to be realizable; check it before treating it as a simplex.
    """
    if family not in FAMILY_NAMES:
        raise ValueError("unknown family %r" % family)
    weights = [as_scalar(b) for b in beta]
    if len(weights) < 3:
        raise ValueError("need at least three weights")
    if family != "orthocentric" and any(b <= 0 for b in weights):
        raise ValueError("%s weights must be positive" % family)
    size = len(weights)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            bi, bj = weights[i], weights[j]
            if family == "orthocentric":
                val = bi + bj
            elif family == "circumscriptible":
                val = (bi + bj) ** 2
            elif family == "isodynamic":
                val = bi * bj
            else:
                val = bi**2 + bi * bj + bj**2
            rows[i][j] = rows[j][i] = val
    return SquaredDistanceMatrix(rows)


@dataclass(frozen=True)
class ClassificationReport:
    """Apex census plus the four family verdicts for one simplex."""

    realizable: str
    apex_report: ApexReport
    families: dict
    kite_consistent: bool

    def to_json(self) -> dict:
        fams = {}
        for name in FAMILY_NAMES:
            vec = self.families[name]
            entry = {"member": vec is not None}
            if vec is not None:
                entry.update(vec.to_json())
                entry.pop("family")
            else:
                entry["beta"] = None
                entry["residual"] = None
            fams[name] = entry
        return {
            "realizable": self.realizable,
            "apexes": list(self.apex_report.apexes),
            "kite": self.apex_report.is_kite,
            "regular": self.apex_report.is_regular,
            "families": fams,
            "kite_consistent": self.kite_consistent,
        }


def classify(d: SquaredDistanceMatrix, tol: float = TOL_FAMILY) -> ClassificationReport:
    """Run apex enumeration and all four family recoveries.

    Requires a genuine (nondegenerate) simplex.  The report also records
    whether the expected containment held: for n >= 3, a pre-kite that
    belongs to any family must be a kite.
    """
    verdict = require_nondegenerate(d)
    apex_report = find_apexes(d)
    families = {
        "orthocentric": recover_orthocentric(d),
        "circumscriptible": recover_circumscriptible(d, tol=tol),
        "isodynamic": recover_isodynamic(d, tol=tol),
        "tetra_isogonic": recover_tetra_isogonic(d, tol=tol),
    }
    any_member = any(v is not None for v in families.values())
    is_prekite = bool(apex_report.apexes)
    kite_consistent = not (
        d.n >= 3 and any_member and is_prekite and not apex_report.is_kite
    )
    return ClassificationReport(
        realizable=verdict.status.value,
        apex_report=apex_report,
        families=families,
        kite_consistent=kite_consistent,
    )
