"""Dense exact linear algebra: the elimination kernel.

Everything here is exact; no floating point is ever involved.  One
integer elimination, `_bareiss`, serves determinants, inertia, linear
solves and the Gram LDL^T factors: rational input is cleared of
denominators (`exact._cleared`) and eliminated by Bareiss's
fraction-free method, whose every division is an exact integer `//`.
Each pass takes three pivots, k, k+1 and k+2, from Sylvester's identity
on the 4x4 bordered minor over rows k..k+2, i and columns k..k+2, j, so
every entry below is visited once per three steps; a pass takes one
pivot when fewer than four rows remain or pivot k+1 or k+2 would be
zero.  The minors, the sign and the echelon rows left behind (on and
right of the diagonal) are those of one pivot per step.  The block
stops at three: against the two-pivot pass it replaced, a four-pivot
prototype took 0.904 of the kernel time on a Gram elimination at n = 30
but 1.08 at n = 6, a three-pivot one 0.918 and 1.013.  The cofactor
determinant, `exact._det` on the matrix's rows (the package's one
cofactor expansion), is kept as an independent oracle for it and for
every closed form.

A kept symmetric elimination is replayed here too, and nowhere else:
`_resume` reads the columns of I, as an elimination of [A | I] would
leave them, off its kept rows by back substitution (row i is
adj(A_i) e_i by Cramer's rule, A_i the leading (i+1)-block), which
carries any further columns too, as a product, and `_corners` folds
swept columns c into their corners -c^T adj(A) c, a row at a time, as
`_fold` folds one column.

Only `cayley` imports this module; `exact` hands out its public names
on first access, so a process whose command needs no elimination
neither imports nor compiles it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import zip_longest
from operator import mul

from .exact import Record, _cleared, _det, _integer, _scalars


class SingularMatrixError(ValueError):
    """Raised when a linear solve meets a singular matrix."""


class ExactMatrix(Record):
    """Immutable square matrix of exact rationals, a frozen record (`exact.Record`)."""

    __slots__ = ("order", "rows")

    def __init__(self, rows: Iterable[Iterable]):
        table = tuple(map(_scalars, rows))
        order = len(table)
        if any(len(row) != order for row in table):
            raise ValueError("matrix must be square")
        self._fill(order, table)

    @classmethod
    def identity(cls, order: int) -> "ExactMatrix":
        if _integer(order, "order") < 0:
            raise ValueError("order must be nonnegative, got %r" % order)
        return cls([[1 if i == j else 0 for j in range(order)] for i in range(order)])

    def __getitem__(self, i: int):
        return self.rows[i]

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

    A pass takes pivots k, k+1 and k+2 together, prev being the pivot
    before them.  It first brings rows k+1 and k+2 to levels k+1 and k+2
    as one pivot per step would: b1 = row k+1 and b2 = row k+2 after step
    k, each (m_k row - row[k] a[k]) // prev, then c2 = (m_(k+1) b2 - b2[k+1]
    b1) // m_k; b1 and c2 are the echelon rows k+1 and k+2, and their
    leads are m_(k+1) and m_(k+2).  Back-substituting in that 3x3 echelon
    block gives, for each column j, w2 = c2, w1 = (m_(k+2) b1 - b1[k+2]
    w2) // m_(k+1) and w0 = (m_(k+2) a[k] - a[k][k+1] w1 - a[k][k+2] w2)
    // m_k (the adjugate of the pivot block times column j, over prev**2).
    Sylvester's identity then gives entry (i, j) three steps on as the
    4x4 bordered minor on rows k..k+2, i and columns k..k+2, j over
    prev**3, that is (m_(k+2) a[i][j] - u0 w0[j] - u1 w1[j] - u2 w2[j])
    // prev with u = a[i][k..k+2], read as a[k..k+2][i] from the pivot
    rows, before they are overwritten, when `symmetric`: 4 products and 1
    exact division per entry per three steps, where one pivot per step
    takes 6 and 3.
    When m_(k+1) or m_(k+2) is 0, or fewer than four rows remain, the
    pass takes one step, so pivots move at the same k as with one pivot
    per step and the minors, the sign and the echelon rows on and right
    of the diagonal are the same; only entries left of it, which no
    caller reads, differ.
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
        m2 = 0
        if k + 3 < rows:
            nxt, third = a[k + 1], a[k + 2]
            f1, f2 = (top[k + 1], top[k + 2]) if symmetric else (nxt[k], third[k])
            b1 = [(pivot * x - f1 * y) // prev for x, y in zip(nxt[k + 1:], top[k + 1:])]
            m1 = b1[0]
            if m1:
                b2 = [(pivot * x - f2 * y) // prev for x, y in zip(third[k + 2:], top[k + 2:])]
                g = b1[1] if symmetric else (pivot * third[k + 1] - f2 * top[k + 1]) // prev
                c2 = [(m1 * x - g * y) // pivot for x, y in zip(b2, b1[1:])]
                m2 = c2[0]
        if m2:
            w2 = c2[1:]
            h = b1[1]
            w1 = [(m2 * x - h * y) // m1 for x, y in zip(b1[2:], w2)]
            h1, h2 = top[k + 1], top[k + 2]
            w0 = [(m2 * x - h1 * y - h2 * z) // pivot for x, y, z in zip(top[k + 3:], w1, w2)]
            for i in range(k + 3, rows):
                row = a[i]
                if symmetric:
                    u0, u1, u2, lo = top[i], nxt[i], third[i], i
                else:
                    u0, u1, u2, lo = row[k], row[k + 1], row[k + 2], k + 3
                s = lo - k - 3
                row[lo:] = [(m2 * x - u0 * p - u1 * q - u2 * r) // prev
                            for x, p, q, r in zip(row[lo:], w0[s:], w1[s:], w2[s:])]
            nxt[k + 1:] = b1
            third[k + 2:] = c2
            minors += (m1, m2)
            prev = m2
            k += 3
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
    b = _scalars(rhs)
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


def _resume(rows: list[list[int]], minors: list[int]) -> tuple[list[list[int]], list[int]]:
    """(swept, corners): the columns of I as an elimination of [A | I]
    would leave them, read off the kept rows and minors of a
    nondegenerate `_bareiss(..., symmetric=True)` of A without redoing
    it, and their corners -e_j^T adj(A) e_j = -adj(A)[j][j] (`_corners`).

    Entry j of row i of the swept identity is the determinant of the
    leading (i+1)-block A_i with its last column replaced by e_j, so by
    Cramer's rule and the symmetry of A the row is adj(A_i) e_i, the z
    with A_i z = m_i e_i (m_k the leading minors).  Its last entry is
    m_(i-1), and the kept echelon rows 0..i-1, cut at column i, are A_i's
    first i rows eliminated, with right-hand sides 0, so back
    substitution through them gives the rest, z_k = -(rows[k][k+1..i] .
    z[k+1..i]) / m_k, each division exact because z is integral: n**2/2
    dot products and exact divisions in all.  swept[i] holds row i's
    entries for columns 0..i, and e_j's column is [0] * j + [swept[i][j]
    for i >= j].
    Further integer columns C need no sweep of their own: an elimination
    acts on the columns linearly, so one of [A | C] leaves swept[i] . C
    (the dot product of swept[i] with each column, over its first i+1
    entries) in row i, and `_corners` of those rows are their corners.
    This is the back substitution of `_back_substitute`, rows 0..i-1 with
    right-hand sides -rows[k][i] m_(i-1), but it keeps its own loop: it
    cuts each row's tail once for all n sweeps, where `_back_substitute`
    would cut it again in every sweep.  Row i as
    `_back_substitute(rows, 1, ...)` gives the same bits and took
    1.27-1.32x as long at n = 4..12 (40 random integer simplices per n,
    best of 7 passes, CPython 3.11).
    """
    tails = [row[k + 1:] for k, row in enumerate(rows)]
    swept = []
    for i, lead in zip(range(len(minors)), [1] + minors):
        z = [lead]  # entries k+1..i of the row, so it meets each tail from its start
        for k in reversed(range(i)):
            z.insert(0, -(sum(map(mul, tails[k], z)) // minors[k]))
        swept.append(z)
    return swept, _corners(minors, swept)


def _corners(minors: list[int], swept: list[list[int]]) -> list[int]:
    """The corners -c^T adj(A) c of columns c swept through a
    nondegenerate elimination of A, given row by row as `_resume` leaves
    them (a short row's rest is 0), folded a row at a time as `_fold`
    folds one column, so a column's fold starts at the first row that
    holds it."""
    corners = []
    for prev, pivot, row in zip([1] + minors, minors, swept):
        corners = [(pivot * c - y * y) // prev for c, y in zip_longest(corners, row, fillvalue=0)]
    return corners


def _fold(minors: list[int], column: Iterable[int]) -> int:
    """The corner -c^T adj(A) c = det [[A, c], [c^T, 0]] of one column c
    from its swept entries c' and A's leading minors m_k: the bordered
    matrix's border row is c^T, so by symmetry step k updates the corner
    with c'_k alone, corner = (m_k corner - c'_k**2) // m_(k-1).  Exact
    only without pivot moves, so only for nondegenerate A.  It gives bit
    for bit what `_corners(minors, [[y] for y in c])[0]` gives, and is kept
    beside it because it is the kernel's hot path: on 200 `volumes` items
    of seed 7 the general fold took 22 us against 9.5 us here (CPython
    3.11, 2-vCPU host), about 3% of an item."""
    corner = 0
    for prev, pivot, y in zip([1] + minors, minors, column):
        corner = (pivot * corner - y * y) // prev
    return corner
