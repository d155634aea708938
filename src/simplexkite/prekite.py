"""Pre-kites: simplices with a regular facet, in squared-length parameters.

A pre-kite is written PK[n; u; v1..vn]: vertex 0 is the apex, every
edge among vertices 1..n has squared length u, and edge (0, i) has
squared length v_i.  All parameters are SQUARED lengths throughout;
callers holding plain lengths must square them first.

The package's closed forms for structured determinants are one
identity, `_bordered_uniform`: an m x m uniform block U (`diag` on its
diagonal, `off` elsewhere) under k border rows T and beside k border
columns L, with a k x k corner C, has

    det [[C, T], [L^T, U]] = lambda**(m-k-1) * det [[lambda*C - T L^T, -T 1],
                                                    [off * (L 1)^T,    mu  ]]

with lambda = diag - off and mu = diag + (m-1)*off, which needs only
the corner, the products T L^T and the sums T 1 and L 1; the (k+1) x
(k+1) determinant on the right is expanded by cofactors with
`exact._det`, the package's one expansion, so no pre-kite command loads
the elimination kernel of `linalg`.  At k = 0 it is `uniform_det`, the
uniform determinant mu * lambda**(m-1); k = 1 is `bordered_uniform_det`,
the determinant of a `BorderedUniform` matrix (one free row and column
beside the block), and the inner Cayley-Menger determinant of
PK[n; u; v] (corner 0, border v, off = u, diag = 0); k = 2 is its
Cayley-Menger determinant (the ones border and v).  Every facet of a
pre-kite is a pre-kite one dimension down, so the two pre-kite forms,
fed the power sums n, sum v_i and sum v_i**2, evaluate those of a
pre-kite and of all its facets without building any matrix.  They run
on the parameters cleared of their common denominator q, in integers,
and divide by the power of q the determinant is homogeneous of once;
they are validated against the generic determinants in tests.
`volume_sq_from_cm_det` and `circumradius_sq_from_cm_dets` turn such
determinants into a squared volume and circumradius, and the
equal-facet-volume solver and scan run on the same forms.  The module
imports only `exact`: nothing here loads `cayley` until `PreKite.to_sdm`
builds a matrix, nor `linalg` until `uniform_matrix` or
`BorderedUniform.matrix` builds an oracle, each with `_bordered_rows`,
the one assembler of the form's matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction

import simplexkite as sk

from .exact import Record, _at_least, _cleared, _det, _from_json, _integer, _scalars, as_scalar

_EQUIAREAL_CLAIM = "no non-regular equiareal pre-kite exists below dimension 6"


def _bordered_uniform(corner, cross, top, left, m: int, off, diag) -> Fraction:
    """det [[C, T], [L^T, U]] for the m x m uniform block U (`diag` on the
    diagonal, `off` elsewhere) with k border rows T and k border columns L
    (the rows of L), from the k x k `corner` C, `cross` = T L^T, `top` = T 1
    and `left` = L 1: lambda**(m-k-1) * det N, N = [[lambda C - cross, -top],
    [off left^T, mu]], with lambda = diag - off and mu = diag + (m-1) off.

    It is det(U) det(C - T U^-1 L^T) with U^-1 = (I - off/mu J) / lambda,
    written so that neither lambda nor mu divides: it holds whenever
    lambda != 0 or m > k.  Scalars are ints or Fractions; the result is
    exact either way.
    """
    lam, mu = diag - off, diag + (m - 1) * off
    rows = [[lam * c - x for c, x in zip(c_row, x_row)] + [-t] for c_row, x_row, t in zip(corner, cross, top)]
    rows.append([off * x for x in left] + [mu])
    power = m - len(top) - 1
    return lam**power * _det(rows) if power >= 0 else Fraction(_det(rows), lam**-power)


def _bordered_rows(corner, top, left, m: int, off, diag) -> list:
    """The rows of [[C, T], [L^T, U]], the matrix `_bordered_uniform` evaluates:
    the k rows of C beside the k border rows T, then the m rows of U, each
    after its entries of the k border columns L."""
    rows = [[*c, *t] for c, t in zip(corner, top)]
    for i in range(m):
        row = [col[i] for col in left] + [off] * m
        row[len(left) + i] = diag
        rows.append(row)
    return rows


def uniform_det(n: int, off, diag) -> Fraction:
    """Determinant of the n x n matrix with `diag` on the diagonal and `off` elsewhere.

    Equals ((n-1)*off + diag) * (diag - off)**(n-1), the k = 0 form.
    """
    return _bordered_uniform((), (), (), (), _integer(n, "order", 1), as_scalar(off), as_scalar(diag))


def uniform_matrix(n: int, off, diag) -> sk.ExactMatrix:
    """The n x n uniform matrix itself, for oracle checks."""
    return sk.ExactMatrix(_bordered_rows((), (), (), _integer(n, "order", 1), as_scalar(off), as_scalar(diag)))


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
        _integer(n, "order parameter", 1)
        left, top = _scalars(left), _scalars(top)
        if len(left) != n or len(top) != n:
            raise ValueError("border vectors must have exactly n entries")
        self._fill(n, as_scalar(corner), left, top, as_scalar(off), as_scalar(diag))

    def matrix(self) -> sk.ExactMatrix:
        """Assemble the full (n+1) x (n+1) matrix."""
        return sk.ExactMatrix(_bordered_rows(((self.corner,),), (self.top,), (self.left,), self.n, self.off, self.diag))


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


class PreKite(Record):
    """Parameter bundle PK[n; u; v1..vn] (squared lengths)."""

    __slots__ = ("n", "u", "v")

    n: int
    u: Fraction
    v: tuple[Fraction, ...]

    def __init__(self, n, u, v):
        if _integer(n, "dimension") < 2:
            raise ValueError("a pre-kite needs dimension n >= 2")
        u = as_scalar(u)
        v = _scalars(v)
        if u <= 0 or any(x <= 0 for x in v):
            raise ValueError("squared edge parameters must be positive")
        if len(v) != n:
            raise ValueError("expected exactly n apex edge parameters")
        self._fill(n, u, v)

    @property
    def sum1(self) -> Fraction:
        """First power sum of all parameters: u + v1 + ... + vn."""
        return self.u + sum(self.v)

    @property
    def sum2(self) -> Fraction:
        """Second power sum: u**2 + v1**2 + ... + vn**2."""
        return self.u**2 + sum(x**2 for x in self.v)

    def to_sdm(self) -> sk.SquaredDistanceMatrix:
        """Squared-distance matrix: a[0][i] = v_i, a[i][j] = u for 1 <= i < j."""
        zero = Fraction(0)
        return sk.SquaredDistanceMatrix(_bordered_rows(((zero,),), (self.v,), (self.v,), self.n, self.u, zero))

    @classmethod
    def from_json(cls, payload) -> "PreKite":
        """Parse {"n": int, "u": scalar-text, "v": [scalar-text]}.

        Every malformed payload raises ValueError (`exact._from_json`).
        """
        def build(fields):
            if not isinstance(fields["v"], list):
                raise ValueError('"v" must be an array')
            return cls(fields["n"], fields["u"], fields["v"])

        return _from_json(payload, '"n", "u", "v"', build, "pre-kite parameter")


def two_apexed(n: int, u, v) -> PreKite:
    """PK[n; u; u,...,u, v]: all edges u except the single odd edge v."""
    u = as_scalar(u)
    return PreKite(n, u, (u,) * (_integer(n, "dimension") - 1) + (as_scalar(v),))


def _sums(n: int, u, v) -> tuple:
    """(n, u, sum v_i, sum v_i**2, q): PK[n; u; v] cleared of the common
    denominator q of its parameters, all ints, as the two forms take it."""
    ((u, *v),), (q,) = _cleared([(u, *v)])
    return n, u, sum(v), sum(x * x for x in v), q


def _cm_form(n: int, u: int, s1: int, s2: int, q: int) -> Fraction:
    """Cayley-Menger determinant of PK[n; u; v], for n >= 1, from `_sums`:
    the k = 2 form, corner [[0, 1], [1, 0]] and the ones border and v
    beside the base block, on the cleared parameters, of which it is q**n
    times.  At n = 1, a segment of squared length v_1, it is 2*v_1."""
    return Fraction(_bordered_uniform(((0, 1), (1, 0)), ((n, s1), (s1, s2)), (n, s1), (n, s1), n, u, 0), q**n)


def _inner_form(n: int, u: int, s1: int, s2: int, q: int) -> Fraction:
    """Inner Cayley-Menger determinant of PK[n; u; v], for n >= 1, from
    `_sums`: the k = 1 form, corner 0 and v beside the base block, on the
    cleared parameters, of which it is q**(n+1) times.  At n = 1 it is
    -v_1**2."""
    return Fraction(_bordered_uniform(((0,),), ((s2,),), (s1,), (s1,), n, u, 0), q ** (n + 1))


def _facet(pk: PreKite, j: int) -> tuple:
    """`_sums` of facet j of PK[n;u;v], itself a pre-kite: facet 0 is the
    regular base PK[n-1; u; u..u], and facet j >= 1 is the pre-kite without
    apex edge j."""
    if not 0 <= _integer(j, "facet index") <= pk.n:
        raise IndexError("facet index out of range")
    return _sums(pk.n - 1, pk.u, (pk.u,) * (pk.n - 1) if j == 0 else pk.v[: j - 1] + pk.v[j:])


def pk_cm_det(pk: PreKite) -> Fraction:
    """Cayley-Menger determinant of PK[n;u;v] (`_cm_form`)."""
    return _cm_form(*_sums(pk.n, pk.u, pk.v))


def pk_inner_cm_det(pk: PreKite) -> Fraction:
    """Inner Cayley-Menger determinant of PK[n;u;v] (`_inner_form`)."""
    return _inner_form(*_sums(pk.n, pk.u, pk.v))


def pk_facet_cm(pk: PreKite, j: int) -> Fraction:
    """Cayley-Menger determinant of the j-th facet of PK[n;u;v] (`_facet`)."""
    return _cm_form(*_facet(pk, j))


def pk_facet_inner_cm(pk: PreKite, j: int) -> Fraction:
    """Inner Cayley-Menger determinant of the j-th facet of PK[n;u;v]."""
    return _inner_form(*_facet(pk, j))


def pk_facets_equiareal(pk: PreKite) -> bool:
    """Whether all n+1 facets of PK[n;u;v] have one volume: facets of one
    dimension do exactly when their Cayley-Menger determinants are equal."""
    return len({pk_facet_cm(pk, j) for j in range(pk.n + 1)}) == 1


def volume_sq_from_cm_det(c, n: int) -> Fraction:
    """Squared n-volume from a Cayley-Menger determinant:
    (-1)**(n+1) * c / (2**n * (n!)**2).

    The bare formula, with no realizability check: a negative result
    means the determinant did not come from Euclidean data.
    """
    return (-1) ** (n + 1) * c / (2**n * Fraction(math.factorial(n)) ** 2)


def circumradius_sq_from_cm_dets(c, dd) -> Fraction:
    """Squared circumradius from a nonzero Cayley-Menger determinant c and
    the inner determinant dd of the same simplex: -dd / (2*c).  A zero c, a
    degenerate simplex, has none and raises ValueError."""
    if c == 0:
        raise ValueError("zero Cayley-Menger determinant: a degenerate simplex has no circumradius")
    return -dd / (2 * c)


def apex_squared_ratio_window(n: int) -> tuple[Fraction, Fraction]:
    """Open interval (0, 2n/(n-1)) for the squared ratio v/u.

    PK[n; u; u,...,u, v] is a nondegenerate simplex exactly when the
    ratio of the squared odd edge to the squared common edge lies
    strictly inside this window; at the upper endpoint the configuration
    flattens (its Cayley-Menger determinant vanishes).
    """
    _integer(n, "dimension", 2)
    return Fraction(0), Fraction(2 * n, n - 1)


def two_apexed_feasible(n: int, u, v) -> bool:
    """Whether squared edges (u everywhere, one odd v) form a real n-simplex."""
    u = as_scalar(u)
    v = as_scalar(v)
    if u <= 0 or v <= 0:
        raise ValueError("squared edge parameters must be positive")
    lo, hi = apex_squared_ratio_window(n)
    return lo < v / u < hi


def prekite_equiradial_residual(pk: PreKite, j: int) -> Fraction:
    """Residual whose vanishing makes facet j coradial with the base facet.

    With s1 = u + sum(v) and s2 = u**2 + sum(v**2):

        2*(s1 - n*u)*v_j - (s1**2 + s2 - 2*n*s1*u + n*(n-1)*u**2)

    This is the cross-multiplied equality of the two facet circumradii,
    cleared of the common sign and power-of-u factors.
    """
    _at_least(pk.n, 3, "residual")
    if not 1 <= _integer(j, "apex edge index") <= pk.n:
        raise IndexError("apex edge index out of range")
    n, u, s1, s2 = pk.n, pk.u, pk.sum1, pk.sum2
    vj = pk.v[j - 1]
    return 2 * (s1 - n * u) * vj - (s1**2 + s2 - 2 * n * s1 * u + n * (n - 1) * u**2)


class EquiarealCandidate(Record):
    """A pre-kite PK[n; u; x*t, y*s] solving the equal-facet-volume conditions.

    t of the apex edges carry squared value x and the remaining s carry
    y; u is normalized to 1 (the conditions are homogeneous).  The
    realizability verdict and an independent facet-volume check, both
    read off the pre-kite closed forms, are recorded alongside.
    """

    __slots__ = ("n", "t", "s", "x", "y", "u", "realizable", "degenerate", "equiareal_verified", "regular")

    n: int
    t: int
    s: int
    x: Fraction
    y: Fraction
    u: Fraction
    realizable: bool
    degenerate: bool
    equiareal_verified: bool
    regular: bool

    def prekite(self) -> PreKite:
        return PreKite(self.n, self.u, (self.x,) * self.t + (self.y,) * self.s)


def equiareal_prekite_solve(n: int, t: int, s: int) -> list[EquiarealCandidate]:
    """Solve the two equal-facet-volume conditions for PK[n; 1; x*t, y*s].

    The conditions are (i) n*u**2 - s1**2 + (n-1)*s2 - n*x**2 + 2*s1*x = 0
    and (ii) (t-s)*(y-x) = 2*u.  Substituting (ii) into (i) cancels the
    quadratic term, so there is exactly one candidate (x, y) per (t, s)
    with t != s; t = s would force u = 0 and is rejected.  Both parameters
    are positive: with u = 1 and delta = 2/(t-s), 2(n-1)x = 2(n-1) -
    2s*delta + (t-1)s*delta**2, which is at least 2(t-1) when t - s >= 2
    and equals 4s(t-1) when t - s = 1, so x > 0 and y = x + delta > 0.
    The list holds that one candidate.  It is decided on
    the pre-kite closed forms, with no matrix: the regular base facet is
    a nondegenerate simplex, so the Gram matrix has at most one
    eigenvalue <= 0, and the sign of (-1)**(n+1) times the Cayley-Menger
    determinant, that of the Gram determinant, is the realizability
    verdict; the candidate is re-verified as equiareal by comparing its
    facets' Cayley-Menger determinants, independent of the two conditions.
    """
    _at_least(_integer(n, "dimension"), 3, "solver")
    if _integer(t, "t") + _integer(s, "s") != n or s < 1 or t < s:
        raise ValueError("need t + s = n with t >= s >= 1")
    if t == s:
        raise ValueError("t = s admits no solution: condition (ii) would force u = 0")
    u = Fraction(1)
    delta = 2 * u / (t - s)
    x = (n * u**2 - (u + s * delta) ** 2 + (n - 1) * u**2 + (n - 1) * s * delta**2) / (
        2 * (n - 1) * u
    )
    y = x + delta
    pk = PreKite(n, u, (x,) * t + (y,) * s)
    gram_det_sign = (-1) ** (n + 1) * pk_cm_det(pk)
    candidate = EquiarealCandidate(
        n=n,
        t=t,
        s=s,
        x=x,
        y=y,
        u=u,
        realizable=gram_det_sign > 0,
        degenerate=gram_det_sign == 0,
        equiareal_verified=pk_facets_equiareal(pk),
        regular=x == y == u,
    )
    return [candidate]


def equiareal_scan(n: int) -> dict:
    """Scan all (t, s) splits at dimension n and compare with the classical claim.

    The classical statement is that non-regular equiareal pre-kites
    exist only from dimension 6 up.  The scan reports what the exact
    facet-volume computation certifies; when the two disagree the
    disagreement is recorded as a note, never silently dropped.
    """
    if not 3 <= _integer(n, "dimension") <= 12:
        raise ValueError("scan supports 3 <= n <= 12")
    rows = []
    found_nonregular = False
    for s in range(1, n // 2 + 1):
        t = n - s
        if t == s:
            rows.append(
                {
                    "t": t,
                    "s": s,
                    "status": "no-solution",
                    "reason": "t = s forces u = 0",
                }
            )
            continue
        (cand,) = equiareal_prekite_solve(n, t, s)
        status = "realizable" if cand.realizable else ("degenerate" if cand.degenerate else "non-euclidean")
        rows.append({"t": t, "s": s, "status": status, **cand.to_json()})
        if cand.realizable and cand.equiareal_verified and not cand.regular:
            found_nonregular = True
    claim_expects_found = n >= 6
    agrees = found_nonregular == claim_expects_found
    notes = []
    if not agrees:
        if found_nonregular:
            notes.append(
                "exact facet-volume check certifies a non-regular equiareal "
                "pre-kite at n=%d, although the classical threshold says none "
                "exist below dimension 6 (squared-length parameters)" % n
            )
        else:
            notes.append(
                "no non-regular equiareal pre-kite found at n=%d although the "
                "classical threshold expects one" % n
            )
    return {
        "n": n,
        "rows": rows,
        "any_nonregular_equiareal": found_nonregular,
        "threshold_claim": _EQUIAREAL_CLAIM,
        "claim_agrees": agrees,
        "notes": notes,
    }
