"""Pre-kites: simplices with a regular facet, in squared-length parameters.

A pre-kite is written PK[n; u; v1..vn]: vertex 0 is the apex, every
edge among vertices 1..n has squared length u, and edge (0, i) has
squared length v_i.  All parameters are SQUARED lengths throughout;
callers holding plain lengths must square them first.

The closed forms below evaluate the Cayley-Menger determinants of a
pre-kite and of all its facets without building any matrix, and are
validated against the generic determinants in tests;
`volume_sq_from_cm_det` turns such a determinant into a squared volume.
Nothing here loads `cayley` until `PreKite.to_sdm` builds a matrix.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import simplexkite as sk

from .exact import as_scalar, scalar_str


@dataclass(frozen=True)
class PreKite:
    """Parameter bundle PK[n; u; v1..vn] (squared lengths)."""

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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "u": scalar_str(self.u),
            "v": [scalar_str(x) for x in self.v],
        }


def two_apexed(n: int, u, v) -> PreKite:
    """PK[n; u; u,...,u, v]: all edges u except the single odd edge v."""
    u = as_scalar(u)
    return PreKite(n, u, (u,) * (n - 1) + (as_scalar(v),))


def pk_cm_det(pk: PreKite) -> Fraction:
    """Cayley-Menger determinant of PK[n;u;v]:

        (-u)**(n-2) * [ n*(u**2 + sum v_i**2) - (u + sum v_i)**2 ]
    """
    return (-pk.u) ** (pk.n - 2) * (pk.n * pk.sum2 - pk.sum1**2)


def pk_inner_cm_det(pk: PreKite) -> Fraction:
    """Inner Cayley-Menger determinant of PK[n;u;v]:

        (-u)**(n-1) * [ (n-1)*(sum v_i**2) - (sum v_i)**2 ]
    """
    vsum = sum(pk.v)
    vsq = sum(x**2 for x in pk.v)
    return (-pk.u) ** (pk.n - 1) * ((pk.n - 1) * vsq - vsum**2)


def _check_facet_index(pk: PreKite, j: int):
    if not 0 <= j <= pk.n:
        raise IndexError("facet index out of range")


def pk_facet_cm(pk: PreKite, j: int) -> Fraction:
    """Cayley-Menger determinant of the j-th facet of PK[n;u;v].

    Facet 0 is the regular base, giving (-1)**n * n * u**(n-1); facet
    j >= 1 drops apex edge j and stays a pre-kite one dimension down.
    """
    _check_facet_index(pk, j)
    n, u = pk.n, pk.u
    if j == 0:
        return (-1) ** n * n * u ** (n - 1)
    s1, s2, vj = pk.sum1, pk.sum2, pk.v[j - 1]
    return (-u) ** (n - 3) * (-(s1**2) + (n - 1) * s2 - n * vj**2 + 2 * s1 * vj)


def pk_facet_inner_cm(pk: PreKite, j: int) -> Fraction:
    """Inner Cayley-Menger determinant of the j-th facet of PK[n;u;v]."""
    _check_facet_index(pk, j)
    n, u = pk.n, pk.u
    if j == 0:
        return (-1) ** (n + 1) * u**n * (n - 1)
    s1, s2, vj = pk.sum1, pk.sum2, pk.v[j - 1]
    core = (
        (n - 2) * s2
        - s1**2
        + 2 * s1 * u
        - (n - 1) * u**2
        - (n - 1) * vj**2
        + 2 * s1 * vj
        - 2 * u * vj
    )
    return (-u) ** (n - 2) * core


def volume_sq_from_cm_det(c, n: int) -> Fraction:
    """Squared n-volume from a Cayley-Menger determinant:
    (-1)**(n+1) * c / (2**n * (n!)**2).

    The bare formula, with no realizability check: a negative result
    means the determinant did not come from Euclidean data.
    """
    return (-1) ** (n + 1) * c / (2**n * Fraction(math.factorial(n)) ** 2)


@dataclass(frozen=True)
class ApexReport:
    """Which vertices face a regular facet, plus kite/regular flags."""

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
