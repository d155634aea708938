"""Shared random generators and the kernel-call spy for the test suite.

Everything takes an explicit random.Random so the suites stay
deterministic; the acceptance tests pin their own seeds.
"""

import random
from fractions import Fraction

from simplexkite import PreKite, Realizability, SquaredDistanceMatrix, is_realizable


def rand_fraction(rng: random.Random, lo=1, hi=16, den=4) -> Fraction:
    """Positive rational num/den with num in [lo, hi]."""
    return Fraction(rng.randint(lo, hi), den)


def random_prekite(rng: random.Random, n: int) -> PreKite:
    """A random pre-kite parameter bundle; may or may not be realizable."""
    u = rand_fraction(rng, 2, 12)
    v = tuple(u * Fraction(rng.randint(2, 10), 4) for _ in range(n))
    return PreKite(n, u, v)


def random_realizable_prekite(rng: random.Random, n: int, max_tries=500) -> PreKite:
    """A random pre-kite whose distance matrix is a genuine simplex."""
    for _ in range(max_tries):
        pk = random_prekite(rng, n)
        if is_realizable(pk.to_sdm()).status is Realizability.NONDEGENERATE:
            return pk
    raise RuntimeError("could not sample a realizable pre-kite")


def random_point_sdm(rng: random.Random, n: int, max_tries=200) -> SquaredDistanceMatrix:
    """Exact distance matrix of n+1 random rational points in Q^n."""
    for _ in range(max_tries):
        pts = [
            tuple(Fraction(rng.randint(-12, 12), 4) for _ in range(n))
            for _ in range(n + 1)
        ]
        rows = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
        distinct = True
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                d2 = sum((a - b) ** 2 for a, b in zip(pts[i], pts[j]))
                if d2 == 0:
                    distinct = False
                rows[i][j] = rows[j][i] = d2
        if not distinct:
            continue
        sdm = SquaredDistanceMatrix(rows)
        if is_realizable(sdm).status is Realizability.NONDEGENERATE:
            return sdm
    raise RuntimeError("could not sample a realizable point configuration")


def count_kernel_calls(monkeypatch, name="_bareiss"):
    """Patch the kernel function `name` (the integer elimination by default)
    in every module that calls it; return the call log."""
    import simplexkite.cayley as cayley
    import simplexkite.exact as exact
    import simplexkite.linalg as linalg

    holders = [module for module in (exact, linalg, cayley) if name in vars(module)]
    calls = []
    real = getattr(holders[0], name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in holders:
        monkeypatch.setattr(module, name, spy)
    return calls
