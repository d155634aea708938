"""Closed forms for uniform and border-augmented uniform determinants.

A *uniform* matrix has one value on the diagonal and another everywhere
else.  A *bordered uniform* matrix additionally replaces the first row
and column by arbitrary vectors (with a free corner entry).  Both
determinants collapse to short polynomial expressions in the entry sums,
which is what makes the distance-matrix formulas elsewhere in this
package possible.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Record, as_scalar
from .linalg import ExactMatrix


def uniform_det(n: int, off, diag) -> Fraction:
    """Determinant of the n x n matrix with `diag` on the diagonal and `off` elsewhere.

    Equals ((n-1)*off + diag) * (diag - off)**(n-1).
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    a = as_scalar(off)
    b = as_scalar(diag)
    return ((n - 1) * a + b) * (b - a) ** (n - 1)


def uniform_matrix(n: int, off, diag) -> ExactMatrix:
    """The n x n uniform matrix itself, for oracle checks."""
    if n < 1:
        raise ValueError("order must be at least 1")
    a = as_scalar(off)
    b = as_scalar(diag)
    return ExactMatrix([[b if i == j else a for j in range(n)] for i in range(n)])


class BorderedUniform(Record):
    """An (n+1) x (n+1) uniform matrix with replaced first row and column.

    corner sits at position (0,0), `left` fills the rest of column 0,
    `top` the rest of row 0, and the trailing n x n block is uniform with
    `off` off the diagonal and `diag` on it.
    """

    __slots__ = ("n", "corner", "left", "top", "off", "diag")

    n: int
    corner: Fraction
    left: tuple[Fraction, ...]
    top: tuple[Fraction, ...]
    off: Fraction
    diag: Fraction

    def __init__(self, n, corner, left, top, off, diag):
        if n < 1:
            raise ValueError("order parameter must be at least 1")
        left = tuple(as_scalar(x) for x in left)
        top = tuple(as_scalar(y) for y in top)
        if len(left) != n or len(top) != n:
            raise ValueError("border vectors must have exactly n entries")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "corner", as_scalar(corner))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "off", as_scalar(off))
        object.__setattr__(self, "diag", as_scalar(diag))

    def matrix(self) -> ExactMatrix:
        """Assemble the full (n+1) x (n+1) matrix."""
        rows = [[self.corner] + list(self.top)]
        for i in range(self.n):
            row = [self.left[i]]
            row += [self.diag if i == j else self.off for j in range(self.n)]
            rows.append(row)
        return ExactMatrix(rows)


def bordered_uniform_det(spec: BorderedUniform) -> Fraction:
    """Closed-form determinant of a bordered uniform matrix.

    With sums L = sum(left), T = sum(top), P = sum(left[j]*top[j]):

        (diag-off)**(n-2) * [ ((n-1)off + diag) * (corner*(diag-off) - P)
                              + off * L * T ]

    The n = 1 matrix is 2 x 2 and is handled directly as
    corner*diag - left[0]*top[0], which is also the induction base the
    general form collapses to.
    """
    n = spec.n
    a = spec.off
    b = spec.diag
    if n == 1:
        return spec.corner * b - spec.left[0] * spec.top[0]
    sum_left = sum(spec.left)
    sum_top = sum(spec.top)
    sum_pair = sum(x * y for x, y in zip(spec.left, spec.top))
    core = ((n - 1) * a + b) * (spec.corner * (b - a) - sum_pair) + a * sum_left * sum_top
    return (b - a) ** (n - 2) * core
