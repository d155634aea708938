"""Cayley-Menger machinery for simplices given by squared distances.

A simplex on n+1 vertices is described by its matrix of squared
pairwise distances.  Everything here is exact: determinants, squared
volume, squared circumradius, and the Gram-based realizability verdict.

Volume, circumradius, circumcenter and verdict all come from one integer
symmetric elimination of the Gram matrix G of edge vectors
(`_gram_elimination`), run at most once per matrix and kept on it: its
pivot signs give the inertia of G, its last leading minor gives
det(G) = (n!)**2 * V**2, and a sweep of G's diagonal through its pivots
gives R**2 and, by back substitution, the circumcenter.  So a number is
returned only for data the same pass has certified.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .exact import (
    ExactMatrix,
    _back_substitute,
    _bareiss,
    _cleared,
    _signature,
    as_scalar,
    exact_determinant,
    scalar_str,
)


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


@dataclass(frozen=True)
class RealizabilityVerdict:
    status: Realizability
    gram_inertia: tuple[int, int, int]

    def to_json(self) -> dict:
        return {"status": self.status.value, "gram_inertia": list(self.gram_inertia)}


class SquaredDistanceMatrix:
    """Symmetric matrix of squared vertex distances of an n-simplex.

    The diagonal is zero and every off-diagonal entry is a positive
    exact rational.  `n` is the simplex dimension, so the matrix is
    (n+1) x (n+1).
    """

    __slots__ = ("n", "a", "_gram", "_facets")

    def __init__(self, entries: Iterable[Iterable]):
        table = tuple(tuple(as_scalar(x) for x in row) for row in entries)
        m = len(table)
        if m < 2 or any(len(row) != m for row in table):
            raise ValueError("expected a square matrix with at least two vertices")
        for i in range(m):
            if table[i][i] != 0:
                raise ValueError("diagonal entries must be zero")
            for j in range(i + 1, m):
                if table[i][j] != table[j][i]:
                    raise ValueError("matrix must be symmetric")
                if table[i][j] <= 0:
                    raise ValueError("off-diagonal entries must be positive")
        self.n = m - 1
        self.a = table
        self._gram = None  # the `_gram_elimination` result, filled on first use
        self._facets = None  # the `facet_sdm` results, filled on first use

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
        return {
            "n": self.n,
            "a": [[scalar_str(x) for x in row] for row in self.a],
        }

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
    _, minors, scale, _, _ = _gram_elimination(d)
    return (-1) ** (d.n + 1) * 2**d.n * _gram_det(minors, scale, d.n)


def inner_cm_det(d: SquaredDistanceMatrix) -> Fraction:
    """Determinant of the bare (n+1) x (n+1) squared-distance matrix."""
    return exact_determinant(ExactMatrix(d.a))


def volume_sq_from_cm_det(c, n: int) -> Fraction:
    """Squared n-volume from a Cayley-Menger determinant:
    (-1)**(n+1) * c / (2**n * (n!)**2).

    The bare formula, with no realizability check: a negative result
    means the determinant did not come from Euclidean data.
    """
    return (-1) ** (n + 1) * c / (2**n * Fraction(math.factorial(n)) ** 2)


def volume_sq(d: SquaredDistanceMatrix) -> Fraction:
    """Exact squared volume det(G) / (n!)**2.

    Zero for degenerate (flat) configurations.  Distances that are not
    Euclidean raise NonEuclideanError carrying the realizability
    verdict, read from the same elimination as the determinant, so an
    even number of negative Gram eigenvalues cannot pass as a volume.
    """
    _, minors, scale, verdict, _ = _gram_elimination(d)
    if verdict.status is Realizability.NON_EUCLIDEAN:
        raise NonEuclideanError("distances are not Euclidean; no volume", verdict=verdict)
    return _gram_det(minors, scale, d.n) / math.factorial(d.n) ** 2


def circumradius_sq(d: SquaredDistanceMatrix) -> Fraction:
    """Exact squared circumradius g^T G^-1 g / 4, with g the diagonal of G.

    The bordered matrix B = [[G, g], [g^T, 0]] has det(B) =
    -det(G) * g^T G^-1 g, which `_diagonal_sweep` reads off the Gram
    elimination.  Degenerate or non-Euclidean input raises with the
    verdict attached.
    """
    _, corner = _diagonal_sweep(d)
    _, minors, scale, _, _ = _gram_elimination(d)
    return Fraction(-corner, 4 * scale * minors[-1])


def circumcenter_barycentrics(d: SquaredDistanceMatrix) -> tuple[Fraction, ...]:
    """Exact barycentric coordinates of the circumcenter.

    The circumcenter is p0 + sum x_i (p_i - p0) with 2 G x = g, g the
    diagonal of G, so its barycentrics are w = (1 - sum x, x).  Back
    substitution on the echelon rows of A = s*G, with the right-hand side
    that `_diagonal_sweep` carries s*g to, gives the integers
    det(A) G^-1 g = 2 det(A) x.  w is certified against the Cayley-Menger
    system: sum w = 1 holds by construction, and every entry of D w must
    equal 2 R**2.  Degenerate or non-Euclidean input raises with the
    verdict attached.
    """
    rhs, corner = _diagonal_sweep(d)
    rows, minors, _, _, _ = _gram_elimination(d)
    det = minors[-1]
    y = _back_substitute(rows, det, rhs)
    weights = [2 * det - sum(y)] + y  # 2 det(A) w
    # c D is integral and s = 2c, so (c D)(2 det(A) w) = 4c det(A) R**2 = -corner / 2.
    dist, _ = _cleared(d.a, common=True)
    if any(2 * sum(x * w for x, w in zip(row, weights)) != -corner for row in dist):
        raise RuntimeError("circumcenter fails the Cayley-Menger certificate")
    return tuple(Fraction(w, 2 * det) for w in weights)


def gram_matrix(d: SquaredDistanceMatrix) -> ExactMatrix:
    """Gram matrix of edge vectors out of vertex 0.

    G[i][j] = (a[0][i] + a[0][j] - a[i][j]) / 2 for 1 <= i, j <= n.
    """
    rows, scale = _scaled_gram(d)
    return ExactMatrix([[Fraction(x, scale) for x in row] for row in rows])


def _scaled_gram(d: SquaredDistanceMatrix) -> tuple[list[list[int]], int]:
    """(A, s): the Gram matrix as the integer matrix A = s*G.

    s = 2*c, where c is the common denominator of the distances.
    """
    a, scales = _cleared(d.a, common=True)
    top = a[0]
    return [[top[i] + top[j] - a[i][j] for j in range(1, d.n + 1)] for i in range(1, d.n + 1)], 2 * scales[0]


def _gram_elimination(d: SquaredDistanceMatrix):
    """The integer symmetric elimination of the scaled Gram matrix A = s*G,
    run once and kept on d; callers only read it.

    A has the inertia of G.  Returns (rows, minors, s, verdict, diag),
    where diag is A's diagonal from before the elimination.
    """
    if d._gram is None:
        rows, scale = _scaled_gram(d)
        diag = [row[i] for i, row in enumerate(rows)]
        minors, _ = _bareiss(rows, symmetric=True)
        sig = _signature(minors, d.n)
        status = Realizability.NON_EUCLIDEAN if sig[1] else (
            Realizability.DEGENERATE if sig[2] else Realizability.NONDEGENERATE)
        d._gram = rows, minors, scale, RealizabilityVerdict(status=status, gram_inertia=sig), diag
    return d._gram


def _diagonal_sweep(d: SquaredDistanceMatrix) -> tuple[list[int], int]:
    """(b, corner): the last column the elimination would leave on the bordered
    [[A, g], [g^T, 0]], g the diagonal of A: b = the right-hand side of the
    echelon rows of [A | g], corner = -det(A) * g^T A^-1 g.  It replays the
    border's Bareiss updates through the kept pivot rows in O(n**2), exact
    only without pivot moves, so anything but nondegenerate input raises."""
    require_nondegenerate(d)
    rows, minors, _, _, diag = _gram_elimination(d)
    b, corner, prev = list(diag), 0, 1
    for k, pivot in enumerate(minors):
        top, bk = rows[k], b[k]
        for i in range(k + 1, d.n):
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
    return _gram_elimination(d)[3]


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
    rows, minors, scale, _, _ = _gram_elimination(d)
    lower = [
        [Fraction(rows[k][i], minors[k]) if k < i else Fraction(int(k == i)) for k in range(d.n)]
        for i in range(d.n)
    ]
    return lower, [Fraction(cur, prev * scale) for prev, cur in zip([1] + minors, minors)]


def facet_sdm(d: SquaredDistanceMatrix, j: int) -> SquaredDistanceMatrix:
    """The facet opposite vertex j: delete row and column j.

    All facets are built once and kept on d, so every caller gets the same
    object and with it the facet's kept elimination."""
    if d.n < 2:
        raise ValueError("facets of a 1-simplex are single points")
    if not 0 <= j <= d.n:
        raise IndexError("vertex index out of range")
    if d._facets is None:
        keeps = [[i for i in range(d.n + 1) if i != k] for k in range(d.n + 1)]
        d._facets = tuple(SquaredDistanceMatrix([[d.a[p][q] for q in keep] for p in keep]) for keep in keeps)
    return d._facets[j]
