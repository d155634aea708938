"""Recognition of the four special simplex families by weight recovery.

Each family is a vector of per-vertex weights beta that gives every
squared edge through one two-argument form, held in the table `_FORMS`:

    orthocentric      beta_i + beta_j                        (beta real)
    circumscriptible  (beta_i + beta_j)**2                   (beta > 0)
    isodynamic        beta_i * beta_j                        (beta > 0)
    tetra_isogonic    beta_i**2 + beta_i*beta_j + beta_j**2  (beta > 0)

`matrix_from_beta` builds from the table.  The weights are unique when
they exist, so each recovery takes a candidate from a few entries and
verifies every pair against the same form (the circumscriptible one on
edge lengths, l_ij = beta_i + beta_j), refusing at the first pair that
fails.  The orthocentric recovery is exact, on the matrix's cleared
integer distances; the other three take square roots and run in floating
point with a relative tolerance, on the matrix scaled by a power of four
(`_floats`) so that any magnitude within the float range is handled.

`classify` also takes the apex census (`find_apexes`): which vertices
face a regular facet, that is, which vertices make the simplex a
pre-kite.  It compares integers only and needs no determinant; the
pre-kite closed forms stay in `prekite`, which this module does not
import.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .cayley import SquaredDistanceMatrix, _top_exponent, require_nondegenerate
from .exact import Record, _positive_tol, as_scalar

TOL_FAMILY = 1e-9

_FORMS = {
    "orthocentric": lambda bi, bj: bi + bj,
    "circumscriptible": lambda bi, bj: (bi + bj) ** 2,
    "isodynamic": lambda bi, bj: bi * bj,
    "tetra_isogonic": lambda bi, bj: bi**2 + bi * bj + bj**2,
}


class BetaVector(Record):
    """Recovered weights for one family, with the worst pair defect."""

    __slots__ = ("family", "beta", "residual")

    family: str
    beta: tuple
    residual: object  # Fraction for the exact family, float otherwise


def _check_size(d: SquaredDistanceMatrix):
    """Each recovery reads a triangle of edges, so a segment has none."""
    if d.n < 2:
        raise ValueError("family recovery needs n >= 2")


def _per_vertex(x, rule) -> list:
    """rule(x_ij, x_ik, x_jk) for each vertex i, j and k its first two other vertices."""
    others = [(1, 2), (0, 2)] + [(0, 1)] * (len(x) - 2)
    return [rule(x[i][j], x[i][k], x[j][k]) for i, (j, k) in enumerate(others)]


def _half_sum(x_ij, x_ik, x_jk):
    """beta_i of an additive family, x_ij = beta_i + beta_j."""
    return (x_ij + x_ik - x_jk) / 2


def _off_form(family):
    """The pair defect x_ij - form(beta_i, beta_j) of the family's form."""
    form = _FORMS[family]
    return lambda x, bi, bj: x - form(bi, bj)


def _accept(family, x, beta, defect, tol, k) -> BetaVector | None:
    """The weights, times 2**k, when every pair defect |defect(x_ij, beta_i,
    beta_j)|, i < j, relative to the largest entry of x, is at most tol; else
    None, at the first pair that is not (a NaN never is).  The residual is
    the largest relative defect: dividing by the positive top entry keeps
    the order, so it is the worst defect over the top entry."""
    top = max(map(max, x))
    residual = 0.0
    for i, (row, b_i) in enumerate(zip(x, beta)):
        for x_ij, b_j in zip(row[i + 1:], beta[i + 1:]):
            r = abs(defect(x_ij, b_i, b_j)) / top
            if not r <= tol:
                return None
            if r > residual:
                residual = r
    return BetaVector(family=family, beta=tuple(math.ldexp(b, k) for b in beta), residual=residual)


def _floats(d: SquaredDistanceMatrix) -> tuple[list[list[float]], int]:
    """(x, k): the matrix divided by 4**k as floats, with k = e // 2 for the
    exponent e of the largest entry (`_top_exponent`), so that it lands in
    (1/2, 4).  Each float is one correctly rounded division of cleared
    integers, and the result is kept on d, so the three recoveries share it;
    they only read it.

    Every family weight scales as the square root of the entries, so the
    weights of x times 2**k are those of d, and the residual, relative to
    the largest entry, is unchanged.  Power-of-two scaling commutes with
    the rounding of +, -, *, / and sqrt in the normal range, so the result
    depends on d only up to that power of four.  Against converting d
    unscaled, only `**` (libm's pow, not correctly rounded, in the
    tetra-isogonic recovery) can move a last bit.  Entries that span more
    than the float range within one matrix, or weights beyond it, still
    under- or overflow; they are out of scope.
    """
    if d._floats is None:
        k = _top_exponent(d) // 2
        num, den = 1 << max(-2 * k, 0), d._den << max(2 * k, 0)
        # int / int rounds correctly, as float(Fraction) does
        d._floats = [[x * num / den for x in row] for row in d._dist], k
    return d._floats


def recover_orthocentric(d: SquaredDistanceMatrix) -> BetaVector | None:
    """Exact recovery of weights with squared edge = beta_i + beta_j.

    On the cleared integers x = c*D the doubled weights b_i = 2c beta_i
    are integers, and every pair must satisfy 2 x_ij = b_i + b_j.
    """
    _check_size(d)
    x, size = d._dist, d.n + 1
    b = _per_vertex(x, lambda x_ij, x_ik, x_jk: x_ij + x_ik - x_jk)
    if any(2 * x[i][j] != b[i] + b[j] for i in range(size) for j in range(i + 1, size)):
        return None
    beta = tuple(Fraction(v, 2 * d._den) for v in b)
    return BetaVector(family="orthocentric", beta=beta, residual=Fraction(0))


def recover_circumscriptible(d: SquaredDistanceMatrix, tol: float = TOL_FAMILY) -> BetaVector | None:
    """Recovery of positive weights with edge length = beta_i + beta_j."""
    _positive_tol(tol)
    _check_size(d)
    a, k = _floats(d)
    ell = [list(map(math.sqrt, row)) for row in a]
    beta = _per_vertex(ell, _half_sum)
    if any(b <= 0 for b in beta):
        return None
    return _accept("circumscriptible", ell, beta, lambda x, bi, bj: x - bi - bj, tol, k)


def _ratio_root(x_ij, x_ik, x_jk):
    """beta_i of the isodynamic family, x_ij = beta_i * beta_j.  An entry
    that underflowed to 0.0 gives inf, as IEEE division would, and the
    pair check then refuses the weights."""
    return math.sqrt(x_ij * x_ik / x_jk) if x_jk else math.inf


def recover_isodynamic(d: SquaredDistanceMatrix, tol: float = TOL_FAMILY) -> BetaVector | None:
    """Recovery of positive weights with squared edge = beta_i * beta_j."""
    _positive_tol(tol)
    _check_size(d)
    a, k = _floats(d)
    beta = _per_vertex(a, _ratio_root)
    return _accept("isodynamic", a, beta, _off_form("isodynamic"), tol, k)


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
    _positive_tol(tol)
    _check_size(d)
    a, k = _floats(d)
    for triple in _tetra_candidates(a):
        if any(b <= 0 for b in triple):
            continue
        beta = list(triple)
        for m in range(3, d.n + 1):
            disc = 4 * a[0][m] - 3 * beta[0] ** 2
            if disc <= 0:
                break
            bm = (-beta[0] + math.sqrt(disc)) / 2
            if bm <= 0:
                break
            beta.append(bm)
        else:
            if (vec := _accept("tetra_isogonic", a, beta, _off_form("tetra_isogonic"), tol, k)) is not None:
                return vec
    return None


def matrix_from_beta(family: str, beta) -> SquaredDistanceMatrix:
    """Build the squared-distance matrix a family weight vector induces.

    Exact when the weights are rational.  The result is not guaranteed
    to be realizable; check it before treating it as a simplex.
    """
    if family not in _FORMS:
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
            rows[i][j] = rows[j][i] = _FORMS[family](weights[i], weights[j])
    return SquaredDistanceMatrix(rows)


class ApexReport(Record):
    """Which vertices face a regular facet, plus kite/regular flags."""

    __slots__ = ("apexes", "is_kite", "is_regular")

    apexes: tuple[int, ...]
    is_kite: bool
    is_regular: bool

    def to_json(self) -> dict:
        return {
            "apexes": list(self.apexes),
            "kite": self.is_kite,
            "regular": self.is_regular,
        }


def find_apexes(d: SquaredDistanceMatrix) -> ApexReport:
    """Enumerate apexes: vertices whose opposite facet has all edges equal.

    The kite flag is set when some apex has all of its own edges equal
    as well; the regular flag when every entry of the matrix is equal.
    For n = 2 every vertex is trivially an apex (facets are segments).

    The facet opposite vertex k is regular exactly when its C(n, 2) edges
    all take the value v of one of them, edge ((k+1) % size, (k+2) % size):
    when counts[v] - dist[k].count(v), the edges of value v less those at
    k, is C(n, 2) (v > 0, so row k's diagonal 0 is never counted).  One
    count of each value decides every vertex, so the census is O(n**2).
    At n = 2 the facet is that one edge, and every vertex is marked.
    """
    if d.n < 2:
        raise ValueError("apex enumeration needs n >= 2")
    size, dist = d.n + 1, d._dist  # the cleared integers compare as the entries do
    counts = Counter(x for i, row in enumerate(dist) for x in row[i + 1:])
    values = [dist[(k + 1) % size][(k + 2) % size] for k in range(size)]  # of an edge of the facet opposite k
    apexes = [k for k, v in enumerate(values) if counts[v] - dist[k].count(v) == d.n * (d.n - 1) // 2]
    is_kite = any(
        len({dist[j][i] for i in range(size) if i != j}) == 1 for j in apexes
    )
    return ApexReport(
        apexes=tuple(apexes),
        is_kite=is_kite,
        is_regular=len(counts) == 1,
    )


class ClassificationReport(Record):
    """Apex census plus the four family verdicts for one simplex."""

    __slots__ = ("realizable", "apex_report", "families", "kite_consistent")

    realizable: str
    apex_report: ApexReport
    families: dict
    kite_consistent: bool

    def to_json(self) -> dict:
        fams = {}
        for name, vec in self.families.items():
            entry = {"beta": None, "residual": None} if vec is None else vec.to_json()
            entry.pop("family", None)
            fams[name] = {"member": vec is not None, **entry}
        return {
            "realizable": self.realizable,
            **self.apex_report.to_json(),
            "families": fams,
            "kite_consistent": self.kite_consistent,
        }


def classify(d: SquaredDistanceMatrix, tol: float = TOL_FAMILY) -> ClassificationReport:
    """Run apex enumeration and all four family recoveries.

    Requires a genuine (nondegenerate) simplex.  The report also records
    whether the expected containment held: for n >= 3, a pre-kite that
    belongs to any family must be a kite.  A tolerance that is not finite
    and > 0 raises ValueError.
    """
    _positive_tol(tol)
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
