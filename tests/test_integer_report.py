"""The report path after the Gram elimination runs on integers and floats.

`classify` plus a float `coincidence_report` (what `simplexkite classify`
prints) builds no Fraction once the matrix exists, and the three
facet predicates decided on the cleared integers agree with the
Fractions of `facet_volumes_sq`, `facet_circumradii_sq` and
`circumcenter_barycentrics`, on cases where they hold and where they
fail.
"""

import pathlib
import random
from fractions import Fraction

import pytest

import simplexkite
import simplexkite.cayley as cayley
from simplexkite import (
    PreKite,
    Realizability,
    SquaredDistanceMatrix,
    classify,
    coincidence_report,
    circumcenter_barycentrics,
    equiareal_prekite_solve,
    facet_circumradii_sq,
    facet_volumes_sq,
    is_circumcenter_interior,
    is_equiareal,
    is_equiradial,
    is_realizable,
)

F = Fraction


def count_fractions(monkeypatch):
    """Log every Fraction built from here on; return the log."""
    calls = []
    new = Fraction.__new__

    def spy_new(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy_new)
    if "_from_coprime_ints" in vars(Fraction):  # Python 3.12+ builds arithmetic results here, past __new__
        coprime = Fraction._from_coprime_ints.__func__

        def spy_coprime(cls, numerator, denominator):
            calls.append((numerator, denominator))
            return coprime(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(spy_coprime))
    return calls


def cloud(rng, n):
    """A nondegenerate simplex on n+1 random points of Q^n with mixed denominators."""
    while True:
        pts = [[F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)] for _ in range(n + 1)]
        rows = [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in pts] for p in pts]
        if all(rows[i][j] for i in range(n + 1) for j in range(i)):
            d = SquaredDistanceMatrix(rows)
            if is_realizable(d).status is Realizability.NONDEGENERATE:
                return d


@pytest.mark.parametrize("n", range(4, 13))
def test_a_report_builds_no_fraction(monkeypatch, n):
    rng = random.Random(1400 + n)
    for _ in range(3):
        d = cloud(rng, n)
        calls = count_fractions(monkeypatch)
        report = classify(d)
        coincidence = coincidence_report(d, with_floats=True)
        printed = {"classification": report.to_json(), "coincidence": coincidence.to_json()}
        monkeypatch.undo()
        assert not any(vec is not None for vec in report.families.values())
        assert printed["coincidence"]["center_distances"]
        assert calls == []


def disphenoid(p, q, r):
    """The tetrahedron whose opposite edges have squared lengths p, q and r."""
    return SquaredDistanceMatrix([[0, p, q, r], [p, 0, r, q], [q, r, 0, p], [r, q, p, 0]])


def predicate_cases():
    rng = random.Random(1411)
    cases = [SquaredDistanceMatrix.regular(n) for n in range(2, 9)]
    cases += [disphenoid(4, 5, 6), disphenoid(F(9, 2), 5, F(11, 3)), disphenoid(1, 1, F(3, 2))]
    cases += [PreKite(4, 1, (1, 1, 1, 2)).to_sdm(), PreKite(3, 1, (1, 1, 2)).to_sdm()]
    for n in range(3, 10):
        for s in range(1, n // 2 + 1):
            if n - s != s:
                cases += [c.prekite().to_sdm() for c in equiareal_prekite_solve(n, n - s, s) if c.realizable]
    cases += [cloud(rng, rng.randint(2, 8)) for _ in range(60)]
    return cases


def test_integer_predicates_agree_with_the_facet_record():
    seen = {"areal": set(), "radial": set(), "interior": set()}
    for d in predicate_cases():
        want = {
            "areal": len(set(facet_volumes_sq(d))) == 1,
            "radial": len(set(facet_circumradii_sq(d))) == 1,
            "interior": all(w > 0 for w in circumcenter_barycentrics(d)),
        }
        got = {"areal": is_equiareal(d), "radial": is_equiradial(d), "interior": is_circumcenter_interior(d)}
        assert got == want
        for key, value in want.items():
            seen[key].add(value)
    assert all(values == {True, False} for values in seen.values())


def test_disphenoids_are_equifacial():
    for d in (disphenoid(4, 5, 6), disphenoid(F(9, 2), 5, F(11, 3))):
        assert not d.is_regular()
        assert is_equiareal(d) and is_equiradial(d) and is_circumcenter_interior(d)


def test_the_float_recoveries_share_one_float_matrix(monkeypatch):
    import simplexkite.families as families

    calls = []
    real = families._top_exponent
    monkeypatch.setattr(families, "_top_exponent", lambda d: calls.append(d) or real(d))
    d = cloud(random.Random(1412), 6)
    classify(d)
    classify(d)
    assert calls == [d]


def _corner_equiradial(d):
    """The equiradial verdict on R_k**2 = (-corner det_k - W_k**2) / (4 s det(A) det_k), corner included."""
    weights, dets = cayley._circumcenter_weights(d), cayley._facet_dets(d)
    corner = cayley._gram_elimination(d).corner
    first = -corner * dets[0] - weights[0] ** 2
    return all((-corner * k - w * w) * dets[0] == first * k for w, k in zip(weights, dets))


def test_equiradial_verdict_needs_no_corner(monkeypatch):
    # the benchmark's report inputs of seeds 1-3, then pre-kites, kites, disphenoids and regular simplices,
    # the last 60 also scaled and relabelled; the kites PK[n; 1; (n-2)/n, ...] are equiradial without being regular
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "perfbench"))
    from inputs import reports

    rows = []
    for seed in (1, 2, 3):
        warm, items = reports(seed, 30, simplexkite)
        rows += [item["a"] for item in (warm, *items)]
    cases = [SquaredDistanceMatrix(a) for a in rows] + predicate_cases()
    rng = random.Random(1415)
    for n in range(3, 13):
        for _ in range(3):
            pk = PreKite(n, 1, tuple(F(rng.randint(4, 12), rng.randint(4, 6)) for _ in range(n)))
            if is_realizable(pk.to_sdm()).status is Realizability.NONDEGENERATE:
                cases.append(pk.to_sdm())
    cases += [PreKite(n, 1, (F(n - 2, n),) * n).to_sdm() for n in range(4, 13)]
    cases += [d.scaled(F(7, 3)).permuted(list(range(d.n, -1, -1))) for d in cases[-60:]]
    radial = 0
    for d in cases:
        assert is_equiradial(d) == _corner_equiradial(d) == (len(set(facet_circumradii_sq(d))) == 1)
        radial += is_equiradial(d)
    assert len(cases) >= 1900 and radial >= 10
