"""Pre-kites: simplices with a regular facet, in squared-length parameters.

A pre-kite is written PK[n; u; v1..vn]: vertex 0 is the apex, every
edge among vertices 1..n has squared length u, and edge (0, i) has
squared length v_i.  All parameters are SQUARED lengths throughout;
callers holding plain lengths must square them first.

Every facet of a pre-kite is a pre-kite one dimension down, so two
closed forms, the Cayley-Menger determinant and the inner one of
PK[n; u; v], evaluate those of a pre-kite and of all its facets without
building any matrix; they are validated against the generic determinants
in tests.  `volume_sq_from_cm_det` and `circumradius_sq_from_cm_dets`
turn such determinants into a squared volume and circumradius.
Nothing here loads `cayley` until `PreKite.to_sdm` builds a matrix.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import simplexkite as sk

from .exact import Record, as_scalar


class PreKite(Record):
    """Parameter bundle PK[n; u; v1..vn] (squared lengths)."""

    __slots__ = ("n", "u", "v")

    n: int
    u: Fraction
    v: tuple[Fraction, ...]

    def __init__(self, n, u, v):
        n = int(n)
        if n < 2:
            raise ValueError("a pre-kite needs dimension n >= 2")
        u = as_scalar(u)
        v = tuple(as_scalar(x) for x in v)
        if u <= 0 or any(x <= 0 for x in v):
            raise ValueError("squared edge parameters must be positive")
        if len(v) != n:
            raise ValueError("expected exactly n apex edge parameters")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

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
        size = self.n + 1
        rows = [[Fraction(0)] * size for _ in range(size)]
        for i in range(1, size):
            rows[0][i] = rows[i][0] = self.v[i - 1]
            for j in range(i + 1, size):
                rows[i][j] = rows[j][i] = self.u
        return sk.SquaredDistanceMatrix(rows)

    @classmethod
    def from_json(cls, payload) -> "PreKite":
        """Parse {"n": int, "u": scalar-text, "v": [scalar-text]}."""
        if isinstance(payload, str):
            payload = json.loads(payload)
        if not isinstance(payload, dict) or not {"n", "u", "v"} <= set(payload):
            raise ValueError('expected an object with fields "n", "u", "v"')
        return cls(payload["n"], payload["u"], payload["v"])


def two_apexed(n: int, u, v) -> PreKite:
    """PK[n; u; u,...,u, v]: all edges u except the single odd edge v."""
    u = as_scalar(u)
    return PreKite(n, u, (u,) * (n - 1) + (as_scalar(v),))


def _cm_form(n: int, u, v) -> Fraction:
    """Cayley-Menger determinant of PK[n; u; v], for n >= 1:

        (-u)**(n-2) * [ n*(u**2 + sum v_i**2) - (u + sum v_i)**2 ]

    At n = 1, a segment of squared length v_1, it is 2*v_1 for every u.
    """
    s1 = u + sum(v)
    s2 = u**2 + sum(x**2 for x in v)
    return (-u) ** (n - 2) * (n * s2 - s1**2)


def _inner_form(n: int, u, v) -> Fraction:
    """Inner Cayley-Menger determinant of PK[n; u; v], for n >= 1:

        (-u)**(n-1) * [ (n-1)*(sum v_i**2) - (sum v_i)**2 ]

    At n = 1 it is -v_1**2.
    """
    return (-u) ** (n - 1) * ((n - 1) * sum(x**2 for x in v) - sum(v) ** 2)


def _facet(pk: PreKite, j: int) -> tuple:
    """(n-1, u, apex edges) of facet j of PK[n;u;v], itself a pre-kite:
    facet 0 is the regular base PK[n-1; u; u..u], and facet j >= 1 is the
    pre-kite without apex edge j."""
    if not 0 <= j <= pk.n:
        raise IndexError("facet index out of range")
    v = (pk.u,) * (pk.n - 1) if j == 0 else pk.v[: j - 1] + pk.v[j:]
    return pk.n - 1, pk.u, v


def pk_cm_det(pk: PreKite) -> Fraction:
    """Cayley-Menger determinant of PK[n;u;v] (`_cm_form`)."""
    return _cm_form(pk.n, pk.u, pk.v)


def pk_inner_cm_det(pk: PreKite) -> Fraction:
    """Inner Cayley-Menger determinant of PK[n;u;v] (`_inner_form`)."""
    return _inner_form(pk.n, pk.u, pk.v)


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
    the inner determinant dd of the same simplex: -dd / (2*c)."""
    return -dd / (2 * c)


class ApexReport(Record):
    """Which vertices face a regular facet, plus kite/regular flags."""

    __slots__ = ("apexes", "is_kite", "is_regular")

    apexes: tuple[int, ...]
    is_kite: bool
    is_regular: bool

    def to_json(self) -> dict:
        return {
            "apexes": list(self.apexes),
            "kite": self.is_kite,
            "regular": self.is_regular,
        }


def find_apexes(d: sk.SquaredDistanceMatrix) -> ApexReport:
    """Enumerate apexes: vertices whose opposite facet has all edges equal.

    The kite flag is set when some apex has all of its own edges equal
    as well; the regular flag when every entry of the matrix is equal.
    For n = 2 every vertex is trivially an apex (facets are segments).

    A regular facet has C(n, 2) edges of one value, so only a value that
    occurs that often can be a regular facet's, and its apexes are the
    vertices on every edge of another value.  At most two values qualify
    for n >= 3, and both are tried (at n = 3 a kite's base and star tie at
    three edges each), so the census is O(n**2).  At n = 2 every value
    qualifies, and the rule marks every vertex.
    """
    if d.n < 2:
        raise ValueError("apex enumeration needs n >= 2")
    size, dist = d.n + 1, d._dist  # the cleared integers compare as the entries do
    edges = [(i, j, dist[i][j]) for i, j in combinations(range(size), 2)]
    counts = Counter(x for _, _, x in edges)
    apexes = set()
    for value, count in counts.items():
        if count >= d.n * (d.n - 1) // 2:
            common = set(range(size))
            for i, j, x in edges:
                if x != value:
                    common &= {i, j}
            apexes |= common
    is_kite = any(
        len({dist[j][i] for i in range(size) if i != j}) == 1 for j in apexes
    )
    return ApexReport(
        apexes=tuple(sorted(apexes)),
        is_kite=is_kite,
        is_regular=len(counts) == 1,
    )


def apex_squared_ratio_window(n: int) -> tuple[Fraction, Fraction]:
    """Open interval (0, 2n/(n-1)) for the squared ratio v/u.

    PK[n; u; u,...,u, v] is a nondegenerate simplex exactly when the
    ratio of the squared odd edge to the squared common edge lies
    strictly inside this window; at the upper endpoint the configuration
    flattens (its Cayley-Menger determinant vanishes).
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return Fraction(0), Fraction(2 * n, n - 1)


def two_apexed_feasible(n: int, u, v) -> bool:
    """Whether squared edges (u everywhere, one odd v) form a real n-simplex."""
    u = as_scalar(u)
    v = as_scalar(v)
    if u <= 0 or v <= 0:
        raise ValueError("squared edge parameters must be positive")
    lo, hi = apex_squared_ratio_window(n)
    return lo < v / u < hi
