"""Dense exact linear algebra: the elimination kernel.

Everything here is exact; no floating point is ever involved.  One
integer elimination, `_bareiss`, serves determinants, inertia, linear
solves and the Gram LDL^T factors: rational input is cleared of
denominators (`exact._cleared`) and eliminated by Bareiss's
fraction-free method, whose every division is an exact integer `//`.
Each pass takes two pivots, k and k+1, from Sylvester's identity on the
3x3 bordered minor over rows k, k+1, i and columns k, k+1, j, so every
entry below is visited once per two steps; a pass takes one pivot when
fewer than three rows remain or pivot k+1 would be zero.  The minors,
the sign and the echelon rows left behind (on and right of the
diagonal) are those of one pivot per step.  The cofactor determinant,
`exact._det` on the matrix's rows (the package's one cofactor
expansion), is kept as an independent oracle for it and for every
closed form.

Only `cayley` imports this module; `exact` hands out its public names
on first access, so a process whose command needs no elimination
neither imports nor compiles it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul

from .exact import _cleared, _det, _integer, as_scalar


class SingularMatrixError(ValueError):
    """Raised when a linear solve meets a singular matrix."""


class ExactMatrix:
    """Immutable square matrix of exact rationals."""

    __slots__ = ("order", "rows")

    def __init__(self, rows: Iterable[Iterable]):
        table = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        order = len(table)
        if any(len(row) != order for row in table):
            raise ValueError("matrix must be square")
        self.order = order
        self.rows = table

    @classmethod
    def identity(cls, order: int) -> "ExactMatrix":
        if _integer(order, "order") < 0:
            raise ValueError("order must be nonnegative, got %r" % order)
        return cls([[1 if i == j else 0 for j in range(order)] for i in range(order)])

    def __getitem__(self, i: int):
        return self.rows[i]

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return "ExactMatrix[%s]" % body

    def is_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.order)
            for j in range(i + 1, self.order)
        )


def _bareiss(a: list[list[int]], symmetric: bool = False):
    """Integer Bareiss elimination of the rows `a`, in place.

    Every row may give a pivot; columns past the last row (a right-hand
    side) are eliminated alongside.  Returns (minors, sign): minors[k] is
    the pivot of step k, the (k+1)-th leading minor of the permuted
    matrix, and elimination stops at the first step without a pivot.
    Rows are swapped to find a pivot (sign is their parity) unless
    `symmetric`, which keeps the matrix congruent to the input, updates
    only the upper triangle and leaves the LDL^T multipliers as
    L[i][k] = a[k][i] / minors[k].

    A pass takes pivots k and k+1 together.  With prev the pivot before
    them, c2 = row k+1 after step k (its lead c0 is pivot k+1) and c1 the
    2x2 minors of rows k, k+1 on columns j, k+1 over prev, Sylvester's
    identity gives entry (i, j) two steps on as the 3x3 bordered minor on
    rows k, k+1, i and columns k, k+1, j over prev**2, that is
    (a[i][j]*c0 - a[i][k]*c1[j] - a[i][k+1]*c2[j]) // prev, with a[i][k]
    and a[i][k+1] read as a[k][i] and a[k+1][i] when `symmetric`: 3
    products and 1 exact division per entry instead of 4 and 2.
    When c0 is 0, or fewer than three rows remain, the pass takes one
    step, so pivots move at the same k as with one pivot per step and the
    minors, the sign and the echelon rows on and right of the diagonal are
    the same; only entries left of it, which no caller reads, differ.
    """
    rows = len(a)
    minors = []
    sign = 1
    prev = 1
    k = 0
    while k < rows:
        if symmetric:
            if a[k][k] == 0 and not _symmetric_pivot(a, k):
                break
        else:
            p = next((r for r in range(k, rows) if a[r][k]), None)
            if p is None:
                break
            if p != k:
                a[k], a[p] = a[p], a[k]
                sign = -sign
        top = a[k]
        pivot = top[k]
        minors.append(pivot)
        c0 = 0
        if k + 2 < rows:
            nxt = a[k + 1]
            f = top[k + 1] if symmetric else nxt[k]
            c2 = [(pivot * x - f * y) // prev for x, y in zip(nxt[k + 1:], top[k + 1:])]
            c0 = c2[0]
        if c0:
            g, h = nxt[k + 1], top[k + 1]
            c1 = [(y * g - h * x) // prev for x, y in zip(nxt[k + 2:], top[k + 2:])]
            for i in range(k + 2, rows):
                row = a[i]
                u, v, lo = (top[i], nxt[i], i) if symmetric else (row[k], row[k + 1], k + 2)
                s = lo - k - 2
                row[lo:] = [(x * c0 - u * y - v * z) // prev
                            for x, y, z in zip(row[lo:], c1[s:], c2[s + 1:])]
            nxt[k + 1:] = c2
            minors.append(c0)
            prev = c0
            k += 2
        else:
            for i in range(k + 1, rows):
                row = a[i]
                f, lo = (top[i], i) if symmetric else (row[k], k + 1)
                row[lo:] = [(pivot * x - f * y) // prev for x, y in zip(row[lo:], top[lo:])]
            prev = pivot
            k += 1
    return minors, sign


def _symmetric_pivot(a, k: int) -> bool:
    """Move a nonzero pivot to a[k][k] by an integer unimodular congruence
    on indices >= k, so the minors taken and the exact divisions to come
    are unchanged.  An all-zero live diagonal is repaired by adding row and
    column j to i, making a[i][i] = 2*a[i][j].  False if the block is zero.
    """
    rows = len(a)
    for r in range(k, rows):  # refresh the lower triangle the updates skip
        for c in range(r + 1, rows):
            a[c][r] = a[r][c]
    p = next((p for p in range(k, rows) if a[p][p]), None)
    if p is None:
        pair = next(((i, j) for i in range(k, rows) for j in range(i + 1, rows) if a[i][j]), None)
        if pair is None:
            return False
        p, j = pair
        a[p] = [x + y for x, y in zip(a[p], a[j])]
        for row in a:
            row[p] += row[j]
    a[k], a[p] = a[p], a[k]
    for row in a:
        row[k], row[p] = row[p], row[k]
    return True


def _signature(minors: list[int], order: int) -> tuple[int, int, int]:
    """Inertia from symmetric elimination: LDL^T pivot k is minors[k] / minors[k-1]."""
    neg = sum(1 for prev, cur in zip([1] + minors, minors) if (prev < 0) != (cur < 0))
    return len(minors) - neg, neg, order - len(minors)


def exact_determinant(m: ExactMatrix) -> Fraction:
    """Exact determinant by integer Bareiss elimination (1 for the empty matrix)."""
    a, scales = _cleared(m.rows)
    minors, sign = _bareiss(a)
    if len(minors) < m.order:
        return Fraction(0)
    return Fraction(sign * (minors[-1] if minors else 1), math.prod(scales))


def determinant_by_cofactors(m: ExactMatrix) -> Fraction:
    """Exact determinant by first-row cofactor expansion (`exact._det`).

    Exponential in the order; meant as an independent brute-force oracle
    for small matrices, not for production-size work.
    """
    return Fraction(_det(m.rows))


def inertia(m: ExactMatrix) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric matrix, exactly.

    One common denominator keeps the matrix symmetric and its inertia.
    """
    if not m.is_symmetric():
        raise ValueError("inertia requires a symmetric matrix")
    minors, _ = _bareiss(_cleared(m.rows, common=True)[0], symmetric=True)
    return _signature(minors, m.order)


def solve_linear(m: ExactMatrix, rhs: Sequence) -> tuple[Fraction, ...]:
    """Solve m x = rhs exactly; raises SingularMatrixError when singular."""
    n = m.order
    b = [as_scalar(v) for v in rhs]
    if len(b) != n:
        raise ValueError("right-hand side length does not match matrix order")
    a, _ = _cleared([row + (x,) for row, x in zip(m.rows, b)])
    minors, _ = _bareiss(a)
    if len(minors) < n:
        raise SingularMatrixError("matrix is singular")
    det = minors[-1] if minors else 1
    return tuple(Fraction(v, det) for v in _back_substitute(a, det, [row[n] for row in a[:n]]))


def _back_substitute(a: list[list[int]], det: int, rhs: list[int]) -> list[int]:
    """y = det * x from the first n = len(rhs) rows of `a` after an n-step
    `_bareiss` of M (det = det(M)), rhs being the right-hand side b as the
    same elimination left it.  Only entries of M on and right of the
    diagonal are read, so the symmetric mode serves too.  y is integral
    (Cramer's rule), so every division is exact."""
    n = len(rhs)
    y = [0] * n
    for i in reversed(range(n)):
        row = a[i]
        y[i] = (det * rhs[i] - sum(map(mul, row[i + 1:n], y[i + 1:]))) // row[i]
    return y
