"""Cayley-Menger machinery for simplices given by squared distances.

A simplex on n+1 vertices is described by its matrix of squared
pairwise distances.  Everything here is exact: determinants, squared
volume, squared circumradius, and the Gram-based realizability verdict.

A matrix clears its distances of their common denominator c once, at
construction, and keeps the integer form c*D; every exact step reads
it.  Volume, circumradius, circumcenter, verdict and every facet's
volume and circumradius all come from one integer symmetric elimination
of the Gram matrix G of edge vectors (`_gram_elimination`).  A matrix
is a frozen record (`exact.Record`) whose fields are `n` and `a`; it
keeps that elimination and the integers read off it for the
circumcenter (`_circumcenter_weights`) and for the facets
(`_facet_dets`), each in its own private slot, filled once on first use
with `object.__setattr__`, so a caller of the circumcenter alone never
pays for the facets, and no assignment can change the entries a kept
result was read from; it keeps no facet matrix and builds no Fraction to
keep: each function builds only the Fractions of the value it returns.
The elimination runs on [A | b], A = s*G the scaled integer Gram matrix
and b its diagonal carried as one more column, which the symmetric
kernel eliminates alongside and never pivots on.  Its pivot signs give the
inertia of G, and its last leading minor gives det(G) = (n!)**2 * V**2.
The carried column b' and the kept minors give the corner -b^T adj(A) b
of the bordered [[A, b], [b^T, 0]] by the O(n) fold `linalg._fold`,
which is -4 s det(A) R**2, and back substitution with b' gives the
circumcenter.  With b = e_j the corner is the principal minor
adj(A)[j][j], the scaled Gram determinant of the facet opposite vertex
j+1; all unit vectors are swept at once (`_unit_sweeps`) by
`linalg._resume`, which reads row i of the swept identity, adj(A_i) e_i
for the leading (i+1)-block A_i (Cramer's rule), off the kept echelon
rows by back substitution, and are folded by `linalg._corners`.  So
this module keeps no elimination arithmetic: the kernel, every replay
of what it kept and the corner fold are `linalg`'s.  The facet opposite
vertex 0 has 1^T adj(A) 1, by the unimodular change of base to vertex
1.  Each facet's circumradius then follows from Pythagoras: R_k**2 = R**2 -
(w_k * h_k)**2, with w the circumcenter's barycentrics and h_k = n V /
F_k the height over facet k.  A report builds and eliminates no facet
matrices.

The same pass decides realizability, and one gate (`_euclidean`) reads
its verdict: every volume, radius, center and facet value, and every
coincidence verdict of `centers`, refuses non-Euclidean input with
NonEuclideanError, the verdict attached, so a number is returned only
for data that pass has certified.  Flat input passes the gate; a value
that needs a nondegenerate simplex then raises DegenerateSimplexError
(`require_nondegenerate`), and the facet values take each facet on its
own.  `cm_det`, `inner_cm_det`, `cm_matrix`, `gram_matrix`,
`is_realizable` and `facet_sdm` answer for any matrix.

This module also owns every exit by which a float leaves these
integers, and is the one reader of the float frame, for `geometry` and
for the float distances of `centers`, which does not import `geometry`.
Every such float is a root taken by `_scaled_sqrt`, the one square root
here, scaled by an exact ratio (`_times`): `_root(a, b, p, q)` = p / q *
sqrt(a / b), at a power-of-two scale, so that each factor keeps its
digits at any magnitude, and with it |Q - G| (`_centroid_offset`); the
columns of the Gram LDL^T frame, each over every vertex and each
coordinate 0.0 or one `_times` of its axis's root (`_axes`), whose rows
are the vertices `geometry.embed` builds; the circumcenter's coordinates
in that frame (`_circumcenter_axes`), which `geometry.circumcenter`
prints; the incenter's float barycentrics and the inradius
(`_incenter_weights`); and the diameter, whose reading is the one check
that the squared distances fit the floats (`_diameter`).  It owns the
float sums over the frame's columns too: the centroid, their means
(`_mean`), the incenter, its barycentrics pushed through them (`_push`),
so `_frame`, which reads G, Q and I with no vertex list, and
`geometry.centroid` and `geometry.incenter` take one sum each; and
Kuhn's pull, the summed unit vectors towards the vertices (`_pull`),
with `FT_GRADIENT_TOL`, the fixed bound on it at which both
`geometry.fermat_torricelli` and the fi flag of `centers` take a point as
the Fermat-Torricelli point.  A result above the largest float raises
ValueError.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations
from operator import mul, neg

from .exact import Record, _cleared, _from_json, _integer, _scalars, as_scalar
from .linalg import ExactMatrix, _back_substitute, _bareiss, _fold, _resume, _signature, exact_determinant

# the fixed bound on a sum of unit vectors at which a point is taken as the Fermat-Torricelli point
FT_GRADIENT_TOL = 1e-10
_BEYOND_FLOATS = "%s the float range; the exact results (classify --exact) do not need floats"


class Realizability(enum.Enum):
    NONDEGENERATE = "nondegenerate"
    DEGENERATE = "degenerate"
    NON_EUCLIDEAN = "non-euclidean"


class RealizabilityError(ValueError):
    """Input is not realizable in the way the operation requires."""

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class DegenerateSimplexError(RealizabilityError):
    pass


class NonEuclideanError(RealizabilityError):
    pass


class RealizabilityVerdict(Record):
    """How a squared-distance matrix is realized, with the inertia of its Gram matrix."""

    __slots__ = ("status", "gram_inertia")

    status: Realizability
    gram_inertia: tuple[int, int, int]


class SquaredDistanceMatrix(Record):
    """Symmetric matrix of squared vertex distances of an n-simplex.

    The diagonal is zero and every off-diagonal entry is a positive
    exact rational.  `n` is the simplex dimension, so the matrix is
    (n+1) x (n+1).  The constructor checks the entries on their cleared
    integer form c*D, which it keeps with c for every exact step.  The
    fields are `n` and `a`; the rest are private slots (`exact.Record`),
    the kept integers and four results kept on first use, each written
    once, so the matrix compares, hashes and writes its JSON by its
    entries alone.
    """

    __slots__ = ("n", "a", "_dist", "_den", "_gram", "_weights", "_dets", "_floats")

    def __init__(self, entries: Iterable[Iterable]):
        table = tuple(map(_scalars, entries))
        m = len(table)
        if m < 2 or any(len(row) != m for row in table):
            raise ValueError("expected a square matrix with at least two vertices")
        dist, scales = _cleared(table, common=True)
        for i, row in enumerate(dist):
            if row[i] != 0:
                raise ValueError("diagonal entries must be zero")
            for j in range(i + 1, m):
                if row[j] != dist[j][i]:
                    raise ValueError("matrix must be symmetric")
                if row[j] <= 0:
                    raise ValueError("off-diagonal entries must be positive")
        # c*D, the distances cleared of their common denominator c, and c; then the results of
        # `_gram_elimination`, `_circumcenter_weights`, `_facet_dets` and `families._floats`
        self._fill(m - 1, table, dist, scales[0], None, None, None, None)

    @classmethod
    def regular(cls, n: int, side_sq=1) -> "SquaredDistanceMatrix":
        """The regular n-simplex with all squared edges equal to side_sq."""
        u = as_scalar(side_sq)
        m = _integer(n, "dimension") + 1
        return cls([[0 if i == j else u for j in range(m)] for i in range(m)])

    @classmethod
    def from_json(cls, payload) -> "SquaredDistanceMatrix":
        """Parse {"n": int, "a": [[scalar-text]]}; the full symmetric matrix is required.

        Entries may also be bare integers; booleans are refused.  Every
        malformed payload raises ValueError (`exact._from_json`).
        """
        def build(fields):
            n, rows = fields["n"], fields["a"]
            arrays = isinstance(rows, list) and all(isinstance(row, list) for row in rows)
            if isinstance(n, bool) or not isinstance(n, int) or not arrays:
                raise ValueError('"n" must be an integer and "a" an array of arrays')
            if len(rows) != n + 1:
                raise ValueError('"a" must have n+1 rows')
            return cls(rows)

        return _from_json(payload, '"n" and "a"', build, "matrix entry")

    def __repr__(self):
        return "SquaredDistanceMatrix(n=%d)" % self.n

    def scaled(self, factor) -> "SquaredDistanceMatrix":
        lam = as_scalar(factor)
        return SquaredDistanceMatrix(
            [[x * lam for x in row] for row in self.a]
        )

    def permuted(self, perm) -> "SquaredDistanceMatrix":
        """Relabel vertices by the permutation perm (perm[i] = old index)."""
        perm = [_integer(p, "vertex index") for p in perm]
        if sorted(perm) != list(range(self.n + 1)):
            raise ValueError("not a permutation of the vertices")
        return SquaredDistanceMatrix(
            [[self.a[perm[i]][perm[j]] for j in range(self.n + 1)] for i in range(self.n + 1)]
        )

    def is_regular(self) -> bool:
        vals = {self.a[i][j] for i in range(self.n + 1) for j in range(i + 1, self.n + 1)}
        return len(vals) == 1

    def edges(self):
        """Iterate (i, j, squared distance) over vertex pairs i < j."""
        for i, j in combinations(range(self.n + 1), 2):
            yield i, j, self.a[i][j]


def cm_matrix(d: SquaredDistanceMatrix) -> ExactMatrix:
    """The (n+2) x (n+2) bordered matrix: zero corner, ones border, distances inside."""
    size = d.n + 2
    rows = [[0] + [1] * (size - 1)]
    for i in range(d.n + 1):
        rows.append([1] + list(d.a[i]))
    return ExactMatrix(rows)


def cm_det(d: SquaredDistanceMatrix) -> Fraction:
    """Cayley-Menger determinant (with the ones border).

    Read off the Gram elimination: det(CM) = (-1)**(n+1) * 2**n * det(G).
    """
    return (-1) ** (d.n + 1) * 2**d.n * _gram_det(d)


def inner_cm_det(d: SquaredDistanceMatrix) -> Fraction:
    """Determinant of the bare (n+1) x (n+1) squared-distance matrix."""
    return exact_determinant(ExactMatrix(d.a))


def volume_sq(d: SquaredDistanceMatrix) -> Fraction:
    """Exact squared volume det(G) / (n!)**2, built once from the scaled
    Gram elimination (`_gram_det`).

    Zero for degenerate (flat) configurations.  Distances that are not
    Euclidean raise NonEuclideanError carrying the realizability
    verdict (`_euclidean`), read from the same elimination as the
    determinant, so an even number of negative Gram eigenvalues cannot
    pass as a volume.
    """
    _euclidean(d)
    return _gram_det(d, math.factorial(d.n) ** 2)


def circumradius_sq(d: SquaredDistanceMatrix) -> Fraction:
    """Exact squared circumradius g^T G^-1 g / 4, with g the diagonal of G.

    The bordered matrix B = [[G, g], [g^T, 0]] has det(B) =
    -det(G) * g^T G^-1 g, the corner the Gram elimination keeps.
    Degenerate or non-Euclidean input raises with the verdict attached.
    """
    require_nondegenerate(d)
    g = _gram_elimination(d)
    return Fraction(-g.corner, 4 * g.scale * g.minors[-1])


def circumcenter_barycentrics(d: SquaredDistanceMatrix) -> tuple[Fraction, ...]:
    """Exact barycentric coordinates of the circumcenter.

    The circumcenter is p0 + sum x_i (p_i - p0) with 2 G x = g, g the
    diagonal of G, so its barycentrics are w = (1 - sum x, x), certified
    against the Cayley-Menger system before they are returned.
    Degenerate or non-Euclidean input raises with the verdict attached.
    """
    det = _gram_elimination(d).minors[-1]
    return tuple(Fraction(w, 2 * det) for w in _circumcenter_weights(d))


def gram_matrix(d: SquaredDistanceMatrix) -> ExactMatrix:
    """Gram matrix of edge vectors out of vertex 0.

    G[i][j] = (a[0][i] + a[0][j] - a[i][j]) / 2 for 1 <= i, j <= n.
    """
    return ExactMatrix([[Fraction(x, 2 * d._den) for x in row] for row in _scaled_gram(d._dist)])


def _scaled_gram(dist: list[list[int]]) -> list[list[int]]:
    """The Gram matrix as the integer matrix A = s*G, from the cleared
    distances c*D, where c is their common denominator and s = 2*c."""
    top = dist[0]
    return [[top[i] + top[j] - row[j] for j in range(1, len(top))] for i, row in enumerate(dist) if i]


def _top_exponent(d: SquaredDistanceMatrix) -> int:
    """e with the largest squared distance in (2**(e - 1), 2**(e + 1)), from the
    bit lengths of its reduced numerator and denominator; floats scale by it."""
    top = max(map(max, d._dist))
    g = math.gcd(top, d._den)
    return (top // g).bit_length() - (d._den // g).bit_length()


def _scaled_sqrt(a: int, b: int) -> tuple[float, int]:
    """sqrt(a / b) for integers a >= 0 and b > 0 as (r, e), the root r * 2**e.

    a / b is moved into [1/4, 4) by a power of four read from the bit
    lengths of a and b, as `relation._sqrt` scales its input, so r lies in
    [1/2, 2) and no ratio rounds to 0, to a subnormal or to infinity
    before its root is taken.
    """
    e = (a.bit_length() - b.bit_length()) // 2
    return math.sqrt((a << -2 * e) / b if e < 0 else a / (b << 2 * e)), e


def _times(p: int, q: int, root: tuple[float, int]) -> float:
    """p / q * r * 2**e for integers p and q > 0 and root = (r, e) from
    `_scaled_sqrt`: p / q is moved into (1/2, 2) by a power of two read from
    the bit lengths, so the division is correctly rounded at any magnitude,
    and the product is moved back by the matching power of two.  A result
    above the largest float raises ValueError."""
    f = p.bit_length() - q.bit_length()
    x = (p << -f) / q if f < 0 else p / (q << f)
    try:
        return math.ldexp(x * root[0], root[1] + f)
    except OverflowError:
        raise ValueError(_BEYOND_FLOATS % "a coordinate leaves") from None


def _root(a: int, b: int, p: int = 1, q: int = 1) -> float:
    """p / q * sqrt(a / b) for integers p, a >= 0 and b, q > 0, at any magnitude.

    Each factor is taken at a power-of-two scale (`_scaled_sqrt`,
    `_times`), so no factor rounds to 0, to a subnormal or to infinity
    before the product is formed.  The bits equal p / q * math.sqrt(a / b)
    wherever p / q, a / b and the result are normal floats: int / int
    rounds correctly, and a power of two moves no bit of a normal float.
    A result above the largest float raises ValueError.
    """
    return _times(p, q, _scaled_sqrt(a, b))


class _Gram(Record):
    """The integer symmetric elimination of [A | b], A = s*G and b its
    diagonal, kept on the matrix."""

    __slots__ = ("rows", "minors", "scale", "verdict", "corner")

    rows: list[list[int]]  # [A | b] after `_bareiss`: the echelon rows in the upper triangle, b' in column n
    minors: list[int]  # the pivots, A's leading principal minors
    scale: int  # s
    verdict: RealizabilityVerdict
    corner: int  # -b^T adj(A) b = -4 s det(A) R**2, folded from b'; read only when nondegenerate


def _gram_elimination(d: SquaredDistanceMatrix) -> _Gram:
    """The integer symmetric elimination of the scaled Gram matrix A = s*G
    with its diagonal b = 2 (c D)[0][1:] as column n, run once and kept on
    d; callers only read it.  A has the inertia of G.  The corner
    -b^T adj(A) b = det [[A, b], [b^T, 0]] is folded from the carried b'
    over the minors (`linalg._fold`).  That is exact only without pivot
    moves, so the corner is read only for nondegenerate d.
    """
    if d._gram is None:
        rows = _scaled_gram(d._dist)
        for i, row in enumerate(rows):
            row.append(row[i])
        minors, _ = _bareiss(rows, symmetric=True)
        sig = _signature(minors, d.n)
        status = Realizability.NON_EUCLIDEAN if sig[1] else (
            Realizability.DEGENERATE if sig[2] else Realizability.NONDEGENERATE)
        verdict = RealizabilityVerdict(status=status, gram_inertia=sig)
        corner = _fold(minors, [row[-1] for row in rows])
        object.__setattr__(d, "_gram", _Gram(rows, minors, 2 * d._den, verdict, corner))
    return d._gram


def _unit_sweeps(d: SquaredDistanceMatrix) -> tuple[list[list[int]], list[int]]:
    """(rows, corners): the columns of I an elimination of [A | I] would
    leave, read off the kept elimination by `linalg._resume`, and their
    corners -adj(A)[j][j]: rows[i] holds row i's entries for
    columns 0..i, and e_j's column is [0] * j + [rows[i][j] for i >= j].
    Anything but nondegenerate input raises."""
    require_nondegenerate(d)
    g = _gram_elimination(d)
    return _resume(g.rows, g.minors)


def _gram_det(d: SquaredDistanceMatrix, den: int = 1) -> Fraction:
    """det(G) / den from the leading minors of the scaled Gram elimination,
    det(A) / (s**n den) as one Fraction, 0 when flat."""
    g = _gram_elimination(d)
    return Fraction(g.minors[-1], g.scale**d.n * den) if len(g.minors) == d.n else Fraction(0)


def is_realizable(d: SquaredDistanceMatrix) -> RealizabilityVerdict:
    """Classify the matrix by the inertia of its Gram matrix.

    Positive definite means a genuine n-dimensional simplex; positive
    semidefinite with rank loss means a flat (degenerate) configuration;
    any negative eigenvalue means the numbers are not Euclidean
    distances at all.  The verdict does not depend on which vertex the
    edge vectors start from.
    """
    return _gram_elimination(d).verdict


def _euclidean(d: SquaredDistanceMatrix) -> bool:
    """Whether d is nondegenerate; non-Euclidean d raises NonEuclideanError
    with the verdict attached.  The one realizability gate: every function
    that reads a number or a verdict off the Gram elimination calls it,
    directly or through `require_nondegenerate`, and flat input passes."""
    verdict = is_realizable(d)
    if verdict.status is Realizability.NON_EUCLIDEAN:
        raise NonEuclideanError("distances are not Euclidean", verdict=verdict)
    return verdict.status is Realizability.NONDEGENERATE


def require_nondegenerate(d: SquaredDistanceMatrix) -> RealizabilityVerdict:
    """Return the verdict, raising the matching error unless nondegenerate."""
    verdict = is_realizable(d)
    if not _euclidean(d):
        raise DegenerateSimplexError("simplex is degenerate (zero volume)", verdict=verdict)
    return verdict


def gram_ldl(d: SquaredDistanceMatrix):
    """Exact LDL^T factors (L, D) of the Gram matrix of a nondegenerate simplex.

    L is unit lower triangular and D holds the positive pivots, so that
    gram_matrix(d) == L * diag(D) * L^T.  Degenerate or non-Euclidean
    input raises with the verdict attached.
    """
    require_nondegenerate(d)
    g = _gram_elimination(d)
    lower = [
        [Fraction(g.rows[k][i], g.minors[k]) if k < i else Fraction(int(k == i)) for k in range(d.n)]
        for i in range(d.n)
    ]
    return lower, [Fraction(cur, prev * g.scale) for prev, cur in zip([1] + g.minors, g.minors)]


def facet_sdm(d: SquaredDistanceMatrix, j: int) -> SquaredDistanceMatrix:
    """The facet opposite vertex j: delete row and column j.

    Each call builds a new matrix for facet j alone, with its own
    elimination to come; d keeps no facet matrix."""
    if d.n < 2:
        raise ValueError("facets of a 1-simplex are single points")
    if not 0 <= _integer(j, "vertex index") <= d.n:
        raise IndexError("vertex index out of range")
    keep = [i for i in range(d.n + 1) if i != j]
    return SquaredDistanceMatrix([[d.a[p][q] for q in keep] for p in keep])


def _circumcenter_weights(d: SquaredDistanceMatrix) -> tuple[int, ...]:
    """W = 2 det(A) w, w the circumcenter's barycentrics, computed once and
    kept on d.

    Back substitution on the echelon rows of A with the carried diagonal b'
    (`_gram_elimination`) gives the integers det(A) G^-1 g = 2 det(A) x,
    and with them w = (1 - sum x, x), certified against the Cayley-Menger
    system: sum w = 1 holds by construction, and every entry of D w must
    equal 2 R**2, read off the kept corner.  No facet is touched.  Anything
    but nondegenerate input raises with the verdict attached.
    """
    if d._weights is None:
        require_nondegenerate(d)
        g = _gram_elimination(d)
        det = g.minors[-1]
        y = _back_substitute(g.rows, det, [row[-1] for row in g.rows])
        weights = (2 * det - sum(y), *y)
        # c D is integral and s = 2c, so (c D)(2 det(A) w) = 4c det(A) R**2 = -corner / 2.
        if any(2 * sum(map(mul, row, weights)) != -g.corner for row in d._dist):
            raise RuntimeError("circumcenter fails the Cayley-Menger certificate")
        object.__setattr__(d, "_weights", weights)
    return d._weights


def _facet_dets(d: SquaredDistanceMatrix) -> tuple[int, ...]:
    """det_k, facet k's Gram determinant scaled like A = s*G, for k = 0..n,
    computed once and kept on d.

    det_k = adj(A)[k-1][k-1] for k >= 1, the corners of all unit vectors
    e_(k-1) read off the kept elimination at once (`_unit_sweeps`: row i
    of the swept identity is adj(A_i) e_i, by back substitution),
    and det_0 = 1^T adj(A) 1; the summed adjugate column is certified,
    A adj(A) 1 = det(A) 1, in O(n**2) integers.  Anything but
    nondegenerate input raises with the verdict attached.
    """
    if d._dets is None:
        units, corners = _unit_sweeps(d)
        top = d._dist[0]
        g = _gram_elimination(d)
        det = g.minors[-1]
        y = _back_substitute(g.rows, det, list(map(sum, units)))  # adj(A) 1
        # A = s*G has entries t_i + t_j - (c D)_ij, with t the cleared distances from vertex 0
        total = sum(y)
        cross = sum(map(mul, top[1:], y))
        if any(t * total + cross - sum(map(mul, row[1:], y)) != det for t, row in zip(top[1:], d._dist[1:])):
            raise RuntimeError("facet determinants fail the adjugate certificate")
        object.__setattr__(d, "_dets", (total, *map(neg, corners)))
    return d._dets


def facet_volumes_sq(d: SquaredDistanceMatrix) -> tuple[Fraction, ...]:
    """Squared volumes of the facets, entry j opposite vertex j.

    Non-Euclidean input raises NonEuclideanError with the verdict
    attached (`_euclidean`), although its facets may be Euclidean.  For a
    nondegenerate simplex of dimension n >= 2 each is read off the kept
    facet Gram determinant det_k, scaled like A = s*G (`_facet_dets`):
    V_k**2 = det_k / (s**(n-1) ((n-1)!)**2).  Flat input has a singular
    Gram matrix, so each facet is eliminated on its own (`facet_sdm`,
    `volume_sq`); `facet_sdm` refuses a segment.
    """
    if not _euclidean(d) or d.n < 2:
        return tuple(volume_sq(facet_sdm(d, j)) for j in range(d.n + 1))
    den = _gram_elimination(d).scale ** (d.n - 1) * math.factorial(d.n - 1) ** 2
    return tuple(Fraction(k, den) for k in _facet_dets(d))


def facet_circumradii_sq(d: SquaredDistanceMatrix) -> tuple[Fraction, ...]:
    """Squared circumradii of the facets, entry j opposite vertex j.

    Non-Euclidean input raises NonEuclideanError with the verdict
    attached (`_euclidean`), although its facets may be Euclidean.  For a
    nondegenerate simplex of dimension n >= 2 each follows from the
    circumsphere by Pythagoras.  The circumcenter lies at signed distance
    w_k h_k from facet k's hyperplane and projects onto the facet's
    circumcenter, and h_k**2 = det(A) / (s det_k), so R_k**2 = R**2 -
    w_k**2 det(A) / (s det_k), read off the kept integers
    (`_circumcenter_weights`, `_facet_dets`) and the kept corner as
    (-corner det_k - W_k**2) / (4 s det(A) det_k), W = 2 det(A) w.  Flat
    input has no circumsphere, so each facet is eliminated on its own
    (`facet_sdm`, `circumradius_sq`), and a degenerate facet raises;
    `facet_sdm` refuses a segment.
    """
    if not _euclidean(d) or d.n < 2:
        return tuple(circumradius_sq(facet_sdm(d, j)) for j in range(d.n + 1))
    weights, dets = _circumcenter_weights(d), _facet_dets(d)
    g = _gram_elimination(d)
    den = 4 * g.scale * g.minors[-1]  # 4 s det(A)
    return tuple(Fraction(-g.corner * k - w * w, den * k) for w, k in zip(weights, dets))


def _incenter_weights(d: SquaredDistanceMatrix) -> tuple[list[float], float]:
    """The incenter's barycentrics F_j / sum F as floats, and the inradius
    n V / sum F.

    They leave exact arithmetic as square roots of the ratios
    F_j**2 / max F**2 = det_k / max det (`_facet_dets`), each one `_root`
    of integers, so the facet volumes themselves never need to fit a
    float.  So does (V / max F)**2 = det(A) / (s n**2 max det), A = s*G,
    as one `_root`, and the inradius is n V / max F over sum F / max F.
    Anything but nondegenerate input raises with the verdict attached."""
    dets = _facet_dets(d)
    largest = max(dets)
    roots = [_root(k, largest) for k in dets]
    total = math.fsum(roots)
    g = _gram_elimination(d)
    return [r / total for r in roots], d.n * _root(g.minors[-1], g.scale * d.n**2 * largest) / total


def _centroid_offset(d: SquaredDistanceMatrix) -> float:
    """|Q - G|, the distance from the circumcenter to the centroid, as one
    `_root` of the exact R**2 - 1^T D 1 / (2 (n+1)**2) (Leibniz), so it is
    0.0 exactly when the simplex is well distributed.  Wherever it is a
    normal float it errs by at most 1.5 u of itself, u = 2**-53 the unit
    roundoff, so by at most 1.5 ulps: the ratio rounds once, an error the
    root halves, and the root once.  R**2 is read off the kept corner,
    -4 s det(A) R**2 with s = 2c, and 1^T D 1 is the sum of the cleared
    c*D over c.  Anything but nondegenerate input raises with the verdict
    attached; a distance above the largest float raises ValueError."""
    require_nondegenerate(d)
    g = _gram_elimination(d)
    det, square = g.minors[-1], (d.n + 1) ** 2
    return _root(-g.corner * square - 4 * det * sum(map(sum, d._dist)), 8 * d._den * det * square)


def _diameter(d: SquaredDistanceMatrix) -> float:
    """The largest distance as a float, the one check that the squared
    distances fit the floats: a largest squared distance that is no normal
    float raises ValueError.  `centers` reads it once for its center
    distances, and `geometry.embed` for its vertices."""
    top = max(map(max, d._dist))
    if not (d._den <= top << 1022 and top <= int(sys.float_info.max) * d._den):
        raise ValueError(_BEYOND_FLOATS % "squared distances leave")
    return _root(top, d._den)


def _axes(d: SquaredDistanceMatrix) -> tuple[list[tuple[float, int]], list[list[float]]]:
    """(roots, columns): the frame of the Gram LDL^T of a nondegenerate d,
    read off the kept elimination, the one reader of its columns.

    Vertex i+1 lies at L_ik sqrt(D_k) on axis k, with L_ik = rows[k][i] / m_k
    and D_k = m_k / (m_(k-1) s), m the leading minors and s the Gram scale;
    vertex 0 and the vertices 1..k lie at 0 on axis k.  Root k is
    sqrt(D_k) as `_scaled_sqrt` gives it, taken once per axis, and column
    k holds coordinate k of every vertex 0..n: 0.0 for the vertices 0..k,
    and for the vertices k+1..n one `_times` of the root each, so no
    factor leaves the floats and no reader needs to know where a column
    starts; on the diagonal rows[k][k] = m_k, so the coordinate is the
    root itself.  A normal entry errs by at most 3.5 u of itself to first
    order, u = 2**-53 the unit roundoff: the two ratios, the root and the
    product each round once; a subnormal one errs by at most 2**-1075
    more.  A coordinate above the largest float raises ValueError.
    """
    g = _gram_elimination(d)
    roots = [_scaled_sqrt(m, prev * g.scale) for prev, m in zip([1] + g.minors, g.minors)]
    return roots, [[0.0] * (k + 1) + [_times(t, m, root) for t in row[k:d.n]]
                   for k, (row, m, root) in enumerate(zip(g.rows, g.minors, roots))]


def _circumcenter_axes(d: SquaredDistanceMatrix, roots: list[tuple[float, int]]) -> list[float]:
    """The circumcenter's coordinates in the frame of `_axes`, given its
    roots, once the circumcenter has passed its Cayley-Menger certificate
    (`_circumcenter_weights`).

    2 G x = g and G = L D L^T give y = L^T x = D^-1 L^-1 g / 2 in that
    frame, and the elimination carries s g, A's diagonal, as its last
    column, to L^-1 (s g) times the leading minors, so coordinate k is
    b'_k / (2 m_k) times root k, one `_times`.  A far circumcenter has huge
    barycentrics x, whose float image through the vertices would cancel; y
    does not.  A coordinate above the largest float raises ValueError.
    """
    _circumcenter_weights(d)
    g = _gram_elimination(d)
    return [_times(row[-1], 2 * m, root) for row, m, root in zip(g.rows, g.minors, roots)]


def _mean(cols) -> tuple[float, ...]:
    """The centroid: the mean of each coordinate column, `math.fsum` over its length."""
    return tuple(math.fsum(col) / len(col) for col in cols)


def _push(weights, cols) -> tuple[float, ...]:
    """The point of the given barycentric weights: each coordinate column
    summed against them by `math.fsum`."""
    return tuple(math.fsum(map(mul, col, weights)) for col in cols)


def _frame(d: SquaredDistanceMatrix) -> tuple[list[list[float]], tuple[float, ...], list[float], tuple[float, ...]]:
    """(columns, G, Q, I): the vertex columns of `_axes` and the centroid,
    circumcenter and incenter in its frame, with no vertex list.

    G is the columns' mean (`_mean`), and I its float barycentrics
    (`_incenter_weights`) pushed through the columns (`_push`): the same
    sums `geometry.centroid` and `geometry.incenter` take over the
    vertices that `embed` builds from the same columns.  Q's coordinates
    are `_circumcenter_axes`, b'_k / (2 m_k) times root k.  So G, Q and I
    here are the points `centers` prints.  `centers` reads it only where
    no exact coincidence decides the distances, and checks the float range
    first (`_diameter`).  Anything but nondegenerate input raises with the
    verdict attached, and a coordinate above the largest float raises
    ValueError.
    """
    require_nondegenerate(d)
    roots, cols = _axes(d)
    zq = _circumcenter_axes(d, roots)
    weights, _ = _incenter_weights(d)
    return cols, _mean(cols), zq, _push(weights, cols)


def _units(x, cols, dists) -> list[list[float]]:
    """The unit vectors from x towards the points, as coordinate columns,
    given the points' coordinate columns, with dists[i] = |points[i] - x|."""
    return [[(c - a) / r for c, r in zip(col, dists)] for a, col in zip(x, cols)]


def _pull(x, cols, dists) -> list[float]:
    """Sum of the unit vectors from x towards the points (`_units`), the
    negated gradient of their summed distance at x: Kuhn's condition for
    the Fermat-Torricelli point, held to `FT_GRADIENT_TOL` by
    `geometry.fermat_torricelli` and, at the float incenter, by the fi
    flag of `centers`."""
    return list(map(math.fsum, _units(x, cols, dists)))
