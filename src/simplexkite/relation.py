"""The regular-simplex point-distance relation and the Pompeiu classifier.

For a regular n-simplex of edge length t0 and any point P in its affine
hull, the n+2 numbers t0, t1, ..., t_{n+1} (edge length plus the vertex
distances) satisfy

    (n+1) * sum(t_j**4)  ==  (sum(t_j**2))**2.

Everything here works on the squared quantities internally, so the
computation stays exact whenever the squares are rational.  The same
relation, read as a quadratic in one unknown squared distance, powers
the missing-distance solver, and its n = 2 case yields the Pompeiu
triangle classifier.

Verdicts decide exact input first, by comparing with zero: no
tolerance and no float.  Only float input meets a tolerance, relative
to the fourth power of the largest length, and is decided at a
power-of-two scale of the inputs, so the verdict does not depend on
their magnitude; each default lives here.  A tolerance that is not
finite and > 0 raises ValueError, for exact input too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .exact import Record, _positive_tol

_POMPEIU_TOL = 1e-12
_RELATION_TOL = 1e-9
_BEYOND_FLOATS = "a root lies beyond the float range"

VALID_TRIANGLE = "valid_triangle"
DEGENERATE_ON_CIRCLE = "degenerate_on_circle"
INCONSISTENT = "inconsistent"


def _is_exact(value) -> bool:
    return isinstance(value, Rational)


def _finite(value):
    """A degree-4 quantity, refused when a NaN, infinite or overflowing float input left it non-finite."""
    if not (_is_exact(value) or math.isfinite(value)):
        raise ValueError("float inputs and their fourth powers must be finite")
    return value


def _unit_scaled(values) -> list:
    """The values over the power of two that puts the largest float in
    [1/2, 1), as `families._floats` scales a matrix; exact values stay exact.

    A power of two commutes with the rounding of +, -, * and / in the
    normal range, so a float verdict taken on these values computes what
    it would on the inputs, up to that power, and depends on the inputs
    only up to scale; the fourth power of the largest cannot underflow.
    """
    e = math.frexp(max(float(v) for v in values))[1]
    return [Fraction(v) / Fraction(2) ** e if _is_exact(v) else math.ldexp(v, -e) for v in values]


def _float_sqrt(q) -> float:
    """math.sqrt(float(q)) for q >= 0, also where an exact q lies beyond the float range.

    An exact q is scaled by a power of four, from the bit lengths of its
    numerator and denominator as `cayley._top_exponent` scales matrices,
    and the root by the matching power of two: bit-identical wherever
    float(q) is a normal float.  A root beyond the float range is refused.
    """
    e = 0
    if _is_exact(q) and q:
        e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
        q = Fraction(q) / Fraction(4) ** e
    try:
        return math.ldexp(math.sqrt(q), e)
    except OverflowError:
        raise ValueError(_BEYOND_FLOATS) from None


class DistanceTuple(Record):
    """Edge length t0 of a regular n-simplex and distances to its n+1 vertices."""

    __slots__ = ("n", "t0", "t")

    n: int
    t0: object
    t: tuple

    def __init__(self, n, t0, t):
        n = int(n)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        t = tuple(t)
        if len(t) != n + 1:
            raise ValueError("expected n+1 vertex distances")
        if t0 <= 0:
            raise ValueError("edge length must be positive")
        if any(x < 0 for x in t):
            raise ValueError("distances must be nonnegative")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t", t)


def relation_residual_from_squares(n: int, squares) -> object:
    """Residual (n+1)*sum(q**2) - (sum q)**2 over the n+2 squared values.

    Exact (Fraction) when every input is rational, float otherwise.
    """
    squares = list(squares)
    if len(squares) != n + 2:
        raise ValueError("expected n+2 squared values (edge first)")
    if all(_is_exact(q) for q in squares):
        squares = [Fraction(q) for q in squares]
    try:
        quartic = sum(q * q for q in squares)
        total = sum(squares)
        residual = (n + 1) * quartic - total * total
    except OverflowError:  # an exact value too large to join float arithmetic
        residual = math.inf
    return _finite(residual)


def relation_residual(dt: DistanceTuple):
    """Residual of the distance relation for lengths; zero on the affine hull.

    Exact when all the lengths are rational; for a point genuinely off
    the affine hull the residual is strictly negative.
    """
    squares = [dt.t0 * dt.t0] + [x * x for x in dt.t]
    return relation_residual_from_squares(dt.n, squares)


def residual_is_zero(dt: DistanceTuple, residual, tol: float = _RELATION_TOL) -> bool:
    """Whether `residual`, the relation residual of dt, is zero.

    An exact residual is compared with 0.  A float one counts as zero
    within tol relative to the fourth power of dt's largest length, a
    scale floored at 1e-300.
    """
    _positive_tol(tol)
    if _is_exact(residual):
        return residual == 0
    scale = max(float(v) for v in (dt.t0, *dt.t)) ** 4
    return abs(residual) <= tol * max(scale, 1e-300)


def relation_holds(dt: DistanceTuple, tol: float = _RELATION_TOL) -> bool:
    """Whether dt's lengths satisfy the distance relation.

    Exact lengths are decided by `relation_residual(dt) == 0`.  Float
    ones by `residual_is_zero` at a power-of-two scale of the lengths
    (`_unit_scaled`), so the verdict is the same at every magnitude,
    where the residual itself may underflow.
    """
    _positive_tol(tol)
    residual = relation_residual(dt)
    if _is_exact(residual):
        return residual == 0
    t0, *t = _unit_scaled((dt.t0, *dt.t))
    unit = DistanceTuple(dt.n, t0, t)
    return residual_is_zero(unit, relation_residual(unit), tol)


def solve_missing_distance_squares(n: int, t0_sq, known_sq) -> list:
    """All squared values closing the relation, given the edge square and
    the n known vertex squares.

    Returns 0, 1, or 2 nonnegative roots of the quadratic the relation
    becomes in the unknown square; exact when the inputs are rational.
    An irrational root is a float, refused when beyond the float range.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    values = [t0_sq] + list(known_sq)
    if len(values) != n + 1:
        raise ValueError("expected the edge square plus n known vertex squares")
    if any(v < 0 for v in values) or values[0] <= 0:
        raise ValueError("squared inputs must be nonnegative (edge positive)")
    exact = all(_is_exact(v) for v in values)
    if exact:
        values = [Fraction(v) for v in values]
    try:
        s1 = sum(values)
        s2 = sum(v * v for v in values)
        # (n+1)(s2 + q**2) = (s1 + q)**2  <=>  n q**2 - 2 s1 q + ((n+1) s2 - s1**2) = 0
        disc = (n + 1) * (s1 * s1 - n * s2)
    except OverflowError:  # an exact value too large to join float arithmetic
        disc = math.inf
    disc = _finite(disc)
    if disc < 0:
        return []
    if exact:
        root = Fraction(math.isqrt(disc.numerator)) / math.isqrt(disc.denominator)
        if root * root != disc:
            root = _float_sqrt(disc)
    else:
        root = math.sqrt(disc)
    try:
        q_lo, q_hi = (s1 - root) / n, (s1 + root) / n
    except OverflowError:  # an exact s1 beyond the float range, beside an irrational root
        q_hi = math.inf
    if q_hi == math.inf:
        raise ValueError(_BEYOND_FLOATS)
    out = []
    for q in (q_lo, q_hi):
        if q >= 0 and (not out or q != out[-1]):
            out.append(q)
    return out


def solve_open_slot(n: int, t0, known) -> tuple[list, tuple[float, ...]]:
    """The squared values and the distances filling the one open slot of
    the relation: (`solve_missing_distance_squares` of the squared
    inputs, `solve_missing_distance`), from one solve.
    """
    known = list(known)
    if len(known) == n + 1:
        holes = [i for i, v in enumerate(known) if v is None]
        if len(holes) != 1:
            raise ValueError("exactly one slot must be open")
        known = [v for v in known if v is not None]
    elif len(known) != n or None in known:
        raise ValueError("expected n known distances or n+1 with one None")
    if t0 <= 0 or any(v < 0 for v in known):
        raise ValueError("lengths must be positive (known distances nonnegative)")
    squares = solve_missing_distance_squares(
        n, t0 * t0, [v * v for v in known]
    )
    return squares, tuple(sorted(_float_sqrt(q) for q in squares))


def solve_missing_distance(n: int, t0, known) -> tuple[float, ...]:
    """All nonnegative distances filling the one open slot of the relation.

    `known` lists the vertex distances with exactly one None (or may
    simply omit the open slot and have length n).  Returns a sorted
    tuple of 0, 1, or 2 distances.
    """
    return solve_open_slot(n, t0, known)[1]


def on_circumsphere_by_sums(n: int, u, sum_sq, tol: float = 1e-9) -> bool:
    """Whether a point with squared-distance sum `sum_sq` lies on the circumsphere.

    For a regular n-simplex of edge length u the circumsphere is exactly
    the locus where the sum of squared vertex distances equals n*u**2.
    Exact comparison when both inputs are rational.  Otherwise the exact
    values of the inputs are compared within tol relative to n*u**2, so
    the verdict at (2**k * u, 4**k * sum_sq) is that at k = 0; NaN and
    infinity are refused.
    """
    _positive_tol(tol)
    if not all(_is_exact(x) or math.isfinite(x) for x in (u, sum_sq)):
        raise ValueError("edge length and sum must be finite")
    if u <= 0:
        raise ValueError("edge length must be positive")
    target = n * Fraction(u) ** 2
    if _is_exact(u) and _is_exact(sum_sq):
        return Fraction(sum_sq) == target
    return abs(Fraction(sum_sq) - target) <= Fraction(tol) * target


def pompeiu_invariants(a, x, y, z):
    """The two symmetric quartics behind the Pompeiu classification.

    g vanishes exactly when the four numbers can come from a planar
    point and an equilateral triangle of side a; given that, h is
    nonnegative, and vanishes exactly on the circumcircle.
    """
    values = [a, x, y, z]
    if all(_is_exact(v) for v in values):
        a, x, y, z = (Fraction(v) for v in values)
    a2, x2, y2, z2 = a * a, x * x, y * y, z * z
    try:
        g = 3 * (a2**2 + x2**2 + y2**2 + z2**2) - (a2 + x2 + y2 + z2) ** 2
        h = 2 * (x2 * y2 + y2 * z2 + z2 * x2) - (x2**2 + y2**2 + z2**2)
    except OverflowError:  # a float ** that overflows raises, where * gives inf
        g = h = math.inf
    return _finite(g), _finite(h)


def pompeiu_classify(a, x, y, z, tol: float = _POMPEIU_TOL) -> str:
    """Classify three distances against an equilateral triangle of side a.

    Returns "inconsistent" when the four numbers cannot come from a
    planar point at all, "degenerate_on_circle" when the point sits on
    the circumcircle (the distances only close up flat), and
    "valid_triangle" otherwise.  Exact input is decided exactly.  For
    float input tol is relative to the fourth power of the largest
    input, matching the degree of the invariants, and the invariants
    are taken again at a power-of-two scale of the inputs
    (`_unit_scaled`), so the verdict is the same at every magnitude.
    """
    _positive_tol(tol)
    if a <= 0 or min(x, y, z) < 0:
        raise ValueError("side must be positive and distances nonnegative")
    g, h = pompeiu_invariants(a, x, y, z)
    if _is_exact(g):
        if g != 0:
            return INCONSISTENT
        return DEGENERATE_ON_CIRCLE if h == 0 else VALID_TRIANGLE
    unit = _unit_scaled((a, x, y, z))
    g, h = pompeiu_invariants(*unit)
    scale = max(float(v) for v in unit) ** 4
    if abs(float(g)) > tol * scale:
        return INCONSISTENT
    return DEGENERATE_ON_CIRCLE if abs(float(h)) <= tol * scale else VALID_TRIANGLE


def equilateral_vertices(a) -> tuple[tuple[float, float], ...]:
    """Vertices of the side-a equilateral triangle centered at the origin."""
    r = float(a) / math.sqrt(3.0)
    return ((0.0, r), (-float(a) / 2.0, -r / 2.0), (float(a) / 2.0, -r / 2.0))


def pompeiu_from_point(a, point, tol: float = _POMPEIU_TOL):
    """Distances and Pompeiu verdict for a planar point given relative to the center.

    The point is on the circumcircle exactly when its distance from the
    origin is a/sqrt(3), which is when the verdict degenerates.
    """
    p = tuple(float(x) for x in point)
    if len(p) != 2:
        raise ValueError("expected a planar point")
    x, y, z = (math.dist(p, v) for v in equilateral_vertices(a))
    verdict = pompeiu_classify(float(a), x, y, z, tol=tol)
    return (x, y, z), verdict
