"""The regular-simplex point-distance relation and the Pompeiu classifier.

For a regular n-simplex of edge length t0 and any point P in its affine
hull, the n+2 numbers t0, t1, ..., t_{n+1} (edge length plus the vertex
distances) satisfy

    (n+1) * sum(t_j**4)  ==  (sum(t_j**2))**2.

Everything here works on the squared quantities internally.  The same
relation, read as a quadratic in one unknown squared distance, powers
the missing-distance solver, and its n = 2 case yields the Pompeiu
triangle classifier.

Every entry point reads its inputs through `_read`, which refuses NaN,
infinity, text and bytes, takes each int, Fraction or float at its exact
value and clears them of one common denominator (`exact._cleared`), so the
residual, the Pompeiu invariants, the solver's discriminant and the
circumsphere comparison are integer expressions, always exact; a
Fraction is built only for a value that is returned and for the
solver's root.  Exact input gets them exact, and a verdict compares
them with zero: no tolerance and no float.  Float input gets each as
one float relative to the fourth power of the largest length
(`_relative`), the number a tolerance bounds, so a verdict compares the
value the function returns, and does not depend on the magnitude of
the input; each default lives here.  A tolerance that is not finite
and > 0 raises ValueError, for exact input too.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from numbers import Rational

from .exact import Record, _cleared, _integer, _positive_tol

_POMPEIU_TOL = 1e-12
_RELATION_TOL = 1e-9
_BEYOND_FLOATS = "a root lies beyond the float range"

VALID_TRIANGLE = "valid_triangle"
DEGENERATE_ON_CIRCLE = "degenerate_on_circle"
INCONSISTENT = "inconsistent"


def _checked(value):
    """value when exact, else float(value), refused when NaN or infinite.
    Text is refused rather than read as a number."""
    if isinstance(value, Rational):
        return value
    if isinstance(value, (str, bytes, bytearray)):
        raise ValueError("expected a number, got %r" % (value,))
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("float inputs must be finite")
    return value


def _numbers(values) -> list:
    """values as a list; bytes and bytearray are refused rather than read as
    their byte values, and text is refused entry by entry (`_checked`)."""
    if isinstance(values, (bytes, bytearray)):
        raise ValueError("expected a sequence of numbers, got %r" % (values,))
    return list(values)


def _read(values) -> tuple[list[int], int, bool]:
    """(ints, den, exact): ints, Fractions and floats as integers over their
    one common denominator den, and whether every one was exact.  A float is
    taken at its exact binary value; NaN and infinity are refused."""
    values = _numbers(values)
    (ints,), (den,) = _cleared([[Fraction(_checked(v)) for v in values]], common=True)
    return ints, den, all(isinstance(v, Rational) for v in values)


def _relative(value: int, squares, den: int, exact):
    """A quartic of the lengths whose squares are the integers `squares` over
    den, given as the integer value over den**2: a Fraction for exact input,
    else one float relative to the fourth power of the largest length, which
    is one int / int division, correctly rounded."""
    if exact:
        return Fraction(value, den * den)
    top = max(squares) or 1  # every length 0: the quartic is 0 too
    return value / (top * top)


def _float(q) -> float:
    """float(q), refused when q != 0 lies outside the normal float range,
    where it would round to infinity, to 0 or to a subnormal float that
    has lost digits."""
    if q and not sys.float_info.min <= abs(q) <= sys.float_info.max:
        raise ValueError(_BEYOND_FLOATS)
    return float(q)


def _sqrt(q) -> Fraction:
    """The square root of q >= 0 to float precision, at any magnitude.

    q is scaled by a power of four, from the bit lengths of its exact
    numerator and denominator as `cayley._top_exponent` scales matrices,
    and its float root by the matching power of two, so nothing rounds
    to 0 or to infinity; float(_sqrt(q)) is math.sqrt(float(q)) wherever
    float(q) is a normal float.  It is the power-of-four scaling of
    `cayley._scaled_sqrt`, kept as a copy of its own: `rel` and `pompeiu`
    import only `exact` and this module, so that neither loads `cayley`
    nor the elimination of `linalg` that comes with it.
    """
    q = Fraction(q)
    e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    return Fraction(math.sqrt(q / Fraction(4) ** e)) * Fraction(2) ** e


def _float_sqrt(q) -> float:
    """math.sqrt(float(q)) for q >= 0, also where q lies beyond the float
    range; a root outside the normal float range is refused."""
    return _float(_sqrt(q))


class DistanceTuple(Record):
    """Edge length t0 of a regular n-simplex and distances to its n+1 vertices."""

    __slots__ = ("n", "t0", "t")

    n: int
    t0: object
    t: tuple

    def __init__(self, n, t0, t):
        _integer(n, "dimension", 1)
        t = tuple(_numbers(t))
        if len(t) != n + 1:
            raise ValueError("expected n+1 vertex distances")
        tuple(map(_checked, (t0, *t)))  # NaN and infinity refused, no Fraction built
        if t0 <= 0:
            raise ValueError("edge length must be positive")
        if any(x < 0 for x in t):
            raise ValueError("distances must be nonnegative")
        self._fill(n, t0, t)


def _residual(n: int, squares, den, exact):
    total = sum(squares)
    return _relative((n + 1) * sum(q * q for q in squares) - total * total, squares, den, exact)


def relation_residual_from_squares(n: int, squares) -> object:
    """Residual (n+1)*sum(q**2) - (sum q)**2 over the n+2 squared values, each >= 0.

    Exact (Fraction) when every input is rational, else one float
    relative to the square of the largest squared value.
    """
    squares, den, exact = _read(squares)
    if len(squares) != _integer(n, "dimension") + 2:
        raise ValueError("expected n+2 squared values (edge first)")
    if min(squares) < 0:
        raise ValueError("squared values must be nonnegative")
    return _residual(n, squares, den, exact)


def relation_residual(dt: DistanceTuple):
    """Residual of the distance relation for lengths; zero on the affine hull.

    Exact when all the lengths are rational, else one float relative to
    the fourth power of the largest length; for a point genuinely off
    the affine hull the residual is strictly negative.
    """
    lengths, den, exact = _read((dt.t0, *dt.t))
    return _residual(dt.n, [v * v for v in lengths], den * den, exact)


def residual_within_tol(residual, tol: float = _RELATION_TOL) -> bool:
    """Whether a residual `relation_residual` returned, or a Pompeiu
    invariant, is zero: exactly when it is exact, within tol when it is a
    float (relative to the fourth power of the largest length)."""
    _positive_tol(tol)
    return residual == 0 if isinstance(residual, Rational) else abs(residual) <= tol


def relation_holds(dt: DistanceTuple, tol: float = _RELATION_TOL) -> bool:
    """Whether dt's lengths satisfy the distance relation.

    Exact lengths are decided by `relation_residual(dt) == 0`, float ones
    by that relative residual being within tol, so the verdict is the
    same at every magnitude.
    """
    return residual_within_tol(relation_residual(dt), tol)


def _roots(n: int, values, den, exact) -> tuple[list, bool]:
    """The nonnegative roots q of the relation over the squares `values`
    (edge first), integers over den, and q, ascending, and whether they
    are exact: the input exact and the discriminant a rational square.
    Otherwise they are Fractions to float precision."""
    _integer(n, "dimension", 1)
    if len(values) != n + 1:
        raise ValueError("expected the edge square plus n known vertex squares")
    if min(values) < 0 or values[0] <= 0:
        raise ValueError("squared inputs must be nonnegative (edge positive)")
    s1 = sum(values)
    # (n+1)(s2 + q**2) = (s1 + q)**2  <=>  n q**2 - 2 s1 q + c = 0
    c = (n + 1) * sum(v * v for v in values) - s1 * s1
    if s1 * s1 < n * c:
        return [], exact
    disc = Fraction(s1 * s1 - n * c, den * den)
    root = Fraction(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
    if root * root != disc:
        root, exact = _sqrt(disc), False
    hi = (Fraction(s1, den) + root) / n
    # the smaller root from the product c/n of the two, free of the cancellation in s1 - root
    return sorted(q for q in {Fraction(c, n * den * den) / hi, hi} if q >= 0), exact


def solve_missing_distance_squares(n: int, t0_sq, known_sq) -> list:
    """All squared values closing the relation, given the edge square and
    the n known vertex squares.

    Returns 0, 1, or 2 nonnegative roots of the quadratic the relation
    becomes in the unknown square, ascending; exact when the inputs and
    the roots are rational, floats otherwise.  A float root outside the
    normal float range is refused.
    """
    roots, exact = _roots(n, *_read([t0_sq, *_numbers(known_sq)]))
    return roots if exact else [_float(q) for q in roots]


def _open_slot(n: int, t0, known) -> tuple[list, bool]:
    """`_roots` of the squares of t0 and the known distances."""
    known = _numbers(known)
    if len(known) == _integer(n, "dimension") + 1:
        if known.count(None) != 1:
            raise ValueError("exactly one slot must be open")
        known = [v for v in known if v is not None]
    elif len(known) != n or None in known:
        raise ValueError("expected n known distances or n+1 with one None")
    lengths, den, exact = _read([t0, *known])
    if lengths[0] <= 0 or min(lengths) < 0:
        raise ValueError("lengths must be positive (known distances nonnegative)")
    return _roots(n, [v * v for v in lengths], den * den, exact)


def solve_open_slot(n: int, t0, known) -> tuple[list, tuple[float, ...]]:
    """The squared values and the distances filling the one open slot of
    the relation: (`solve_missing_distance_squares` of the squared
    inputs, `solve_missing_distance`), from one solve.  A square outside
    the normal float range is refused, also where its distance is not.
    """
    roots, exact = _open_slot(n, t0, known)
    return roots if exact else [_float(q) for q in roots], tuple(_float_sqrt(q) for q in roots)


def solve_missing_distance(n: int, t0, known) -> tuple[float, ...]:
    """All nonnegative distances filling the one open slot of the relation.

    `known` lists the vertex distances with exactly one None (or may
    simply omit the open slot and have length n).  Returns a sorted
    tuple of 0, 1, or 2 distances, each the correctly rounded root of
    its square, which is computed exactly or to float precision at any
    magnitude; a distance outside the normal float range is refused.
    """
    return tuple(_float_sqrt(q) for q in _open_slot(n, t0, known)[0])


def on_circumsphere_by_sums(n: int, u, sum_sq, tol: float = _RELATION_TOL) -> bool:
    """Whether a point with squared-distance sum `sum_sq` lies on the circumsphere.

    For a regular n-simplex of edge length u the circumsphere is exactly
    the locus where the sum of squared vertex distances equals n*u**2.
    Exact comparison when both inputs are rational.  Otherwise the exact
    values of the inputs are compared within tol relative to n*u**2, so
    the verdict at (2**k * u, 4**k * sum_sq) is that at k = 0; NaN,
    infinity and a negative sum are refused.
    """
    _positive_tol(tol)
    _integer(n, "dimension", 1)
    (u, total), den, exact = _read((u, sum_sq))
    if u <= 0:
        raise ValueError("edge length must be positive")
    if total < 0:
        raise ValueError("squared values must be nonnegative")
    total, target = total * den, n * u * u  # sum_sq and n u**2, as integers over den**2
    p, q = Fraction(tol).as_integer_ratio()
    return total == target if exact else abs(total - target) * q <= p * target


def pompeiu_invariants(a, x, y, z):
    """The two symmetric quartics behind the Pompeiu classification.

    g vanishes exactly when the four numbers can come from a planar
    point and an equilateral triangle of side a; given that, h is
    nonnegative, and vanishes exactly on the circumcircle.  Both are
    exact for exact input, else floats relative to the fourth power of
    the largest input.  The side must be positive and the distances
    nonnegative.
    """
    lengths, den, exact = _read((a, x, y, z))
    if lengths[0] <= 0 or min(lengths) < 0:
        raise ValueError("side must be positive and distances nonnegative")
    squares = [v * v for v in lengths]
    x2, y2, z2 = squares[1:]
    h = 2 * (x2 * y2 + y2 * z2 + z2 * x2) - (x2 * x2 + y2 * y2 + z2 * z2)
    # g is the residual at n = 2; the squares are integers over den**2
    return _residual(2, squares, den * den, exact), _relative(h, squares, den * den, exact)


def pompeiu_verdict(g, h, tol: float = _POMPEIU_TOL) -> str:
    """The Pompeiu verdict on the invariants `pompeiu_invariants` returned:
    exact ones are compared with 0, float ones (relative to the fourth
    power of the largest input) with tol."""
    if not residual_within_tol(g, tol):
        return INCONSISTENT
    return DEGENERATE_ON_CIRCLE if residual_within_tol(h, tol) else VALID_TRIANGLE


def pompeiu_classify(a, x, y, z, tol: float = _POMPEIU_TOL) -> str:
    """Classify three distances against an equilateral triangle of side a.

    Returns "inconsistent" when the four numbers cannot come from a
    planar point at all, "degenerate_on_circle" when the point sits on
    the circumcircle (the distances only close up flat), and
    "valid_triangle" otherwise: `pompeiu_verdict` of `pompeiu_invariants`.
    Exact input is decided exactly.  For float input tol bounds the
    invariants relative to the fourth power of the largest input, so
    the verdict is the same at every magnitude.
    """
    return pompeiu_verdict(*pompeiu_invariants(a, x, y, z), tol)


def equilateral_vertices(a) -> tuple[tuple[float, float], ...]:
    """Vertices of the side-a equilateral triangle centered at the origin.

    The side is read as one float (`_checked`, `_float`): NaN, infinity, a
    nonzero side outside the normal float range and a side that is not
    positive raise ValueError."""
    side = _float(_checked(a))
    if side <= 0.0:
        raise ValueError("side must be positive")
    r = side / math.sqrt(3.0)
    return ((0.0, r), (-side / 2.0, -r / 2.0), (side / 2.0, -r / 2.0))


def pompeiu_from_point(a, point, tol: float = _POMPEIU_TOL):
    """Distances and Pompeiu verdict for a planar point given relative to the center.

    The point is on the circumcircle exactly when its distance from the
    origin is a/sqrt(3), which is when the verdict degenerates.  The side
    is read as `equilateral_vertices` reads it.
    """
    side = _float(_checked(a))
    p = tuple(float(_checked(x)) for x in _numbers(point))
    if len(p) != 2:
        raise ValueError("expected a planar point")
    x, y, z = (math.dist(p, v) for v in equilateral_vertices(side))
    verdict = pompeiu_classify(side, x, y, z, tol=tol)
    return (x, y, z), verdict
