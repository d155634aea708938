"""Cayley-Menger machinery for simplices given by squared distances.

A simplex on n+1 vertices is described by its matrix of squared
pairwise distances.  Everything here is exact: determinants, squared
volume, squared circumradius, and the Gram-based realizability verdict.

A matrix clears its distances of their common denominator c once, at
construction, and keeps the integer form c*D; every exact step reads
it.  Volume, circumradius, circumcenter, verdict and every facet's
volume and circumradius all come from one integer symmetric elimination
of the Gram matrix G of edge vectors (`_gram_elimination`).  A matrix
keeps that elimination and the integers read off it for the
circumsphere and the facets (`_facet_integers`), each filled on first
use; it keeps no facet matrix and builds no Fraction to keep: each
function builds only the Fractions of the value it returns.  The
elimination's pivot signs give the inertia of G, and its last leading minor gives
det(G) = (n!)**2 * V**2.  Any vector b swept
through the kept pivots (`_sweep`) gives -b^T adj(A) b, A = s*G the
scaled integer Gram matrix.  With b the diagonal of A that is R**2, and
back substitution gives the circumcenter.  With b = e_j it is the
principal minor adj(A)[j][j], the scaled Gram determinant of the facet
opposite vertex j+1.  The facet opposite vertex 0 has 1^T adj(A) 1, by
the unimodular change of base to vertex 1.  Each facet's circumradius
then follows from Pythagoras: R_k**2 = R**2 - (w_k * h_k)**2, with w
the circumcenter's barycentrics and h_k = n V / F_k the height over
facet k.  So a number is returned only for data the same pass has
certified, and a report builds and eliminates no facet matrices.
"""

from __future__ import annotations

import enum
import json
import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple

from .exact import Record, _cleared, _wire, as_scalar
from .linalg import ExactMatrix, _back_substitute, _bareiss, _signature, exact_determinant


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


class SquaredDistanceMatrix:
    """Symmetric matrix of squared vertex distances of an n-simplex.

    The diagonal is zero and every off-diagonal entry is a positive
    exact rational.  `n` is the simplex dimension, so the matrix is
    (n+1) x (n+1).  The constructor checks the entries on their cleared
    integer form c*D, which it keeps with c for every exact step.
    """

    __slots__ = ("n", "a", "_dist", "_den", "_gram", "_integers", "_floats")

    def __init__(self, entries: Iterable[Iterable]):
        table = tuple(tuple(as_scalar(x) for x in row) for row in entries)
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
        self.n = m - 1
        self.a = table
        self._dist = dist  # c*D, the distances cleared of their common denominator c
        self._den = scales[0]  # c
        self._gram = None  # the `_gram_elimination` result, filled on first use
        self._integers = None  # the `_facet_integers` result, filled on first use
        self._floats = None  # the `families._floats` result, filled on first use

    @classmethod
    def regular(cls, n: int, side_sq=1) -> "SquaredDistanceMatrix":
        """The regular n-simplex with all squared edges equal to side_sq."""
        u = as_scalar(side_sq)
        return cls([[0 if i == j else u for j in range(n + 1)] for i in range(n + 1)])

    @classmethod
    def from_json(cls, payload) -> "SquaredDistanceMatrix":
        """Parse {"n": int, "a": [[scalar-text]]}; the full symmetric matrix is required.

        Entries may also be bare integers; booleans are refused.  Every
        malformed payload raises ValueError.
        """
        if isinstance(payload, str):
            payload = json.loads(payload)
        if not isinstance(payload, dict) or "n" not in payload or "a" not in payload:
            raise ValueError('expected an object with fields "n" and "a"')
        n = payload["n"]
        rows = payload["a"]
        if isinstance(n, bool) or not isinstance(n, int) or not isinstance(rows, list):
            raise ValueError('"n" must be an integer and "a" a matrix')
        if len(rows) != n + 1:
            raise ValueError('"a" must have n+1 rows')
        try:
            return cls(rows)
        except TypeError as exc:
            raise ValueError("invalid matrix entry: %s" % exc) from exc

    def to_json(self) -> dict:
        return {"n": self.n, "a": _wire(self.a)}

    def __eq__(self, other):
        return isinstance(other, SquaredDistanceMatrix) and self.a == other.a

    def __hash__(self):
        return hash(self.a)

    def __repr__(self):
        return "SquaredDistanceMatrix(n=%d)" % self.n

    def scaled(self, factor) -> "SquaredDistanceMatrix":
        lam = as_scalar(factor)
        return SquaredDistanceMatrix(
            [[x * lam for x in row] for row in self.a]
        )

    def permuted(self, perm) -> "SquaredDistanceMatrix":
        """Relabel vertices by the permutation perm (perm[i] = old index)."""
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
    g = _gram_elimination(d)
    return (-1) ** (d.n + 1) * 2**d.n * _gram_det(g.minors, g.scale, d.n)


def inner_cm_det(d: SquaredDistanceMatrix) -> Fraction:
    """Determinant of the bare (n+1) x (n+1) squared-distance matrix."""
    return exact_determinant(ExactMatrix(d.a))


def volume_sq(d: SquaredDistanceMatrix) -> Fraction:
    """Exact squared volume det(G) / (n!)**2.

    Zero for degenerate (flat) configurations.  Distances that are not
    Euclidean raise NonEuclideanError carrying the realizability
    verdict, read from the same elimination as the determinant, so an
    even number of negative Gram eigenvalues cannot pass as a volume.
    """
    g = _gram_elimination(d)
    if g.verdict.status is Realizability.NON_EUCLIDEAN:
        raise NonEuclideanError("distances are not Euclidean; no volume", verdict=g.verdict)
    return _gram_det(g.minors, g.scale, d.n) / math.factorial(d.n) ** 2


def circumradius_sq(d: SquaredDistanceMatrix) -> Fraction:
    """Exact squared circumradius g^T G^-1 g / 4, with g the diagonal of G.

    The bordered matrix B = [[G, g], [g^T, 0]] has det(B) =
    -det(G) * g^T G^-1 g, which `_sweep` reads off the Gram elimination.
    Degenerate or non-Euclidean input raises with the verdict attached.
    """
    g = _gram_elimination(d)
    _, corner = _sweep(d, [2 * t for t in d._dist[0][1:]])
    return Fraction(-corner, 4 * g.scale * g.minors[-1])


def circumcenter_barycentrics(d: SquaredDistanceMatrix) -> tuple[Fraction, ...]:
    """Exact barycentric coordinates of the circumcenter.

    The circumcenter is p0 + sum x_i (p_i - p0) with 2 G x = g, g the
    diagonal of G, so its barycentrics are w = (1 - sum x, x), certified
    against the Cayley-Menger system before they are returned.
    Degenerate or non-Euclidean input raises with the verdict attached.
    """
    det = _gram_elimination(d).minors[-1]
    return tuple(Fraction(w, 2 * det) for w in _facet_integers(d).weights)


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


class _Gram(NamedTuple):
    """The integer symmetric elimination of A = s*G, kept on the matrix."""

    rows: list[list[int]]  # A after `_bareiss`: the echelon rows in the upper triangle
    minors: list[int]  # the pivots, A's leading principal minors
    scale: int  # s
    verdict: RealizabilityVerdict


def _gram_elimination(d: SquaredDistanceMatrix) -> _Gram:
    """The integer symmetric elimination of the scaled Gram matrix A = s*G,
    run once and kept on d; callers only read it.  A has the inertia of G.
    """
    if d._gram is None:
        rows = _scaled_gram(d._dist)
        minors, _ = _bareiss(rows, symmetric=True)
        sig = _signature(minors, d.n)
        status = Realizability.NON_EUCLIDEAN if sig[1] else (
            Realizability.DEGENERATE if sig[2] else Realizability.NONDEGENERATE)
        verdict = RealizabilityVerdict(status=status, gram_inertia=sig)
        d._gram = _Gram(rows, minors, 2 * d._den, verdict)
    return d._gram


def _sweep(d: SquaredDistanceMatrix, b: list[int]) -> tuple[list[int], int]:
    """(b', corner): the last column the elimination would leave on the
    bordered [[A, b], [b^T, 0]]: b' = the right-hand side of the echelon rows
    of [A | b], corner = -b^T adj(A) b.  It replays the border's Bareiss
    updates through the kept pivot rows in O(n**2), exact only without pivot
    moves, so anything but nondegenerate input raises.  Leading zeros of b
    stay zero, and the steps over them only carry the rest to the leading
    minor there, so the replay starts at the first nonzero entry."""
    require_nondegenerate(d)
    g = _gram_elimination(d)
    rows, minors, n = g.rows, g.minors, d.n
    start = 0
    while start < n and not b[start]:
        start += 1
    prev = minors[start - 1] if start else 1
    b = [0] * start + [x * prev for x in b[start:]]
    corner = 0
    for k in range(start, n):
        pivot, top, bk = minors[k], rows[k], b[k]
        for i in range(k + 1, n):
            b[i] = (pivot * b[i] - top[i] * bk) // prev
        corner = (pivot * corner - bk * bk) // prev
        prev = pivot
    return b, corner


def _gram_det(minors, scale: int, n: int) -> Fraction:
    """det(G) from the leading minors of the scaled Gram elimination."""
    return Fraction(minors[-1], scale**n) if len(minors) == n else Fraction(0)


def is_realizable(d: SquaredDistanceMatrix) -> RealizabilityVerdict:
    """Classify the matrix by the inertia of its Gram matrix.

    Positive definite means a genuine n-dimensional simplex; positive
    semidefinite with rank loss means a flat (degenerate) configuration;
    any negative eigenvalue means the numbers are not Euclidean
    distances at all.  The verdict does not depend on which vertex the
    edge vectors start from.
    """
    return _gram_elimination(d).verdict


def require_nondegenerate(d: SquaredDistanceMatrix) -> RealizabilityVerdict:
    """Return the verdict, raising the matching error unless nondegenerate."""
    verdict = is_realizable(d)
    if verdict.status is Realizability.DEGENERATE:
        raise DegenerateSimplexError("simplex is degenerate (zero volume)", verdict=verdict)
    if verdict.status is Realizability.NON_EUCLIDEAN:
        raise NonEuclideanError("distances are not Euclidean", verdict=verdict)
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
    if not 0 <= j <= d.n:
        raise IndexError("vertex index out of range")
    keep = [i for i in range(d.n + 1) if i != j]
    return SquaredDistanceMatrix([[d.a[p][q] for q in keep] for p in keep])


class _Integers(NamedTuple):
    """The circumsphere and the facets as integers, kept on the matrix."""

    weights: tuple[int, ...]  # 2 det(A) w, w the circumcenter's barycentrics
    corner: int  # -4 s det(A) R**2
    swept: list[int]  # the right-hand side `_sweep` carries A's diagonal to
    dets: tuple[int, ...]  # det_k, facet k's Gram determinant scaled like A = s*G


def _facet_integers(d: SquaredDistanceMatrix) -> _Integers:
    """The integers every circumsphere and facet invariant is read from,
    computed once and kept on d.

    A's diagonal is 2 (c D)[0][i], i >= 1, and its sweep gives the corner
    -b^T adj(A) b.  Back substitution on the echelon rows of A with the
    swept right-hand side gives the integers det(A) G^-1 g = 2 det(A) x,
    and with them w = (1 - sum x, x), certified against the Cayley-Menger
    system: sum w = 1 holds by construction, and every entry of D w must
    equal 2 R**2.  The facet determinants are det_k = adj(A)[k-1][k-1] for
    k >= 1, by sweeping e_(k-1), and det_0 = 1^T adj(A) 1; the summed
    adjugate column is certified, A adj(A) 1 = det(A) 1, in O(n**2)
    integers.  Anything but nondegenerate input raises with the verdict
    attached.
    """
    if d._integers is None:
        top, n = d._dist[0], d.n
        swept, corner = _sweep(d, [2 * t for t in top[1:]])
        g = _gram_elimination(d)
        det = g.minors[-1]
        y = _back_substitute(g.rows, det, swept)
        weights = (2 * det - sum(y), *y)
        # c D is integral and s = 2c, so (c D)(2 det(A) w) = 4c det(A) R**2 = -corner / 2.
        if any(2 * sum(x * w for x, w in zip(row, weights)) != -corner for row in d._dist):
            raise RuntimeError("circumcenter fails the Cayley-Menger certificate")
        sweeps = [_sweep(d, [int(i == j) for i in range(n)]) for j in range(n)]
        y = _back_substitute(g.rows, det, [sum(col) for col in zip(*(b for b, _ in sweeps))])  # adj(A) 1
        # A = s*G has entries t_i + t_j - (c D)_ij, with t the cleared distances from vertex 0
        total = sum(y)
        cross = sum(t * x for t, x in zip(top[1:], y))
        if any(t * total + cross - sum(x * v for x, v in zip(row[1:], y)) != det
               for t, row in zip(top[1:], d._dist[1:])):
            raise RuntimeError("facet determinants fail the adjugate certificate")
        d._integers = _Integers(weights, corner, swept, (total, *(-c for _, c in sweeps)))
    return d._integers


def facet_volumes_sq(d: SquaredDistanceMatrix) -> tuple[Fraction, ...]:
    """Squared volumes of the facets, entry j opposite vertex j.

    For a nondegenerate simplex of dimension n >= 2 each is read off the
    kept facet Gram determinant det_k, scaled like A = s*G
    (`_facet_integers`): V_k**2 = det_k / (s**(n-1) ((n-1)!)**2).  Flat
    input has a singular Gram matrix, so each facet is eliminated on its
    own (`facet_sdm`, `volume_sq`); `facet_sdm` refuses a segment.
    """
    if d.n < 2 or is_realizable(d).status is not Realizability.NONDEGENERATE:
        return tuple(volume_sq(facet_sdm(d, j)) for j in range(d.n + 1))
    den = _gram_elimination(d).scale ** (d.n - 1) * math.factorial(d.n - 1) ** 2
    return tuple(Fraction(k, den) for k in _facet_integers(d).dets)


def facet_circumradii_sq(d: SquaredDistanceMatrix) -> tuple[Fraction, ...]:
    """Squared circumradii of the facets, entry j opposite vertex j.

    For a nondegenerate simplex of dimension n >= 2 each follows from the
    circumsphere by Pythagoras.  The circumcenter lies at signed distance
    w_k h_k from facet k's hyperplane and projects onto the facet's
    circumcenter, and h_k**2 = det(A) / (s det_k), so R_k**2 = R**2 -
    w_k**2 det(A) / (s det_k), read off the kept integers
    (`_facet_integers`) as (-corner det_k - W_k**2) / (4 s det(A) det_k),
    W = 2 det(A) w.  Flat input has no circumsphere, so each facet is
    eliminated on its own (`facet_sdm`, `circumradius_sq`), and a
    degenerate facet raises; `facet_sdm` refuses a segment.
    """
    if d.n < 2 or is_realizable(d).status is not Realizability.NONDEGENERATE:
        return tuple(circumradius_sq(facet_sdm(d, j)) for j in range(d.n + 1))
    weights, corner, _, dets = _facet_integers(d)
    g = _gram_elimination(d)
    den = 4 * g.scale * g.minors[-1]  # 4 s det(A)
    return tuple(Fraction(-corner * k - w * w, den * k) for w, k in zip(weights, dets))
