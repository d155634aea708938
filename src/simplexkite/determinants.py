"""Uniform and border-augmented uniform determinants, by one closed form.

A *uniform* matrix has one value on the diagonal and another everywhere
else.  A *bordered uniform* matrix additionally replaces the first row
and column by arbitrary vectors (with a free corner entry).  Both are
instances of the package's one closed form (`prekite._bordered_uniform`):
an m x m uniform block U with k border rows T, k border columns L and a
k x k corner C has

    det [[C, T], [L^T, U]] = lambda**(m-k-1) * det [[lambda*C - T L^T, -T 1],
                                                    [off * (L 1)^T,    mu  ]]

with lambda = diag - off and mu = diag + (m-1)*off.  The uniform
determinant is its k = 0 instance, mu * lambda**(m-1); the bordered one
is k = 1, which needs only the sums of the two borders and of their
products.  The pre-kite Cayley-Menger determinants are k = 1 and 2.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Record, _integer, as_scalar
from .linalg import ExactMatrix
from .prekite import _bordered_rows, _bordered_uniform


def _order(n) -> int:
    if _integer(n, "order") < 1:
        raise ValueError("order must be at least 1")
    return n


def uniform_det(n: int, off, diag) -> Fraction:
    """Determinant of the n x n matrix with `diag` on the diagonal and `off` elsewhere.

    Equals ((n-1)*off + diag) * (diag - off)**(n-1), the k = 0 form.
    """
    return _bordered_uniform((), (), (), (), _order(n), as_scalar(off), as_scalar(diag))


def uniform_matrix(n: int, off, diag) -> ExactMatrix:
    """The n x n uniform matrix itself, for oracle checks."""
    return ExactMatrix(_bordered_rows((), (), (), _order(n), as_scalar(off), as_scalar(diag)))


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
        if _integer(n, "order parameter") < 1:
            raise ValueError("order parameter must be at least 1")
        left = tuple(as_scalar(x) for x in left)
        top = tuple(as_scalar(y) for y in top)
        if len(left) != n or len(top) != n:
            raise ValueError("border vectors must have exactly n entries")
        self._fill(n, as_scalar(corner), left, top, as_scalar(off), as_scalar(diag))

    def matrix(self) -> ExactMatrix:
        """Assemble the full (n+1) x (n+1) matrix."""
        return ExactMatrix(_bordered_rows(((self.corner,),), (self.top,), (self.left,), self.n, self.off, self.diag))


def bordered_uniform_det(spec: BorderedUniform) -> Fraction:
    """Closed-form determinant of a bordered uniform matrix, the k = 1 form.

    With sums L = sum(left), T = sum(top), P = sum(left[j]*top[j]) it is

        (diag-off)**(n-2) * [ ((n-1)off + diag) * (corner*(diag-off) - P)
                              + off * L * T ]

    The n = 1 matrix is 2 x 2 and is handled directly as
    corner*diag - left[0]*top[0], which also holds where diag = off.
    """
    if spec.n == 1:
        return spec.corner * spec.diag - spec.left[0] * spec.top[0]
    cross = sum(x * y for x, y in zip(spec.left, spec.top))
    return _bordered_uniform(((spec.corner,),), ((cross,),), (sum(spec.top),), (sum(spec.left),), spec.n, spec.off, spec.diag)
