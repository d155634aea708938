"""The circumsphere and every facet's volume and circumradius read off the
simplex's one Gram elimination and the integers it keeps, checked against
the per-facet path (`facet_sdm` -> `volume_sq` / `circumradius_sq`), which
stays the oracle."""

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplexkite.cayley as cayley
import simplexkite.linalg as linalg
from simplexkite import (
    DegenerateSimplexError,
    NonEuclideanError,
    PreKite,
    Realizability,
    SquaredDistanceMatrix,
    circumcenter,
    circumcenter_barycentrics,
    circumradius_sq,
    classify,
    coincidence_report,
    embed,
    equiareal_prekite_solve,
    facet_circumradii_sq,
    facet_sdm,
    facet_volumes_sq,
    gram_matrix,
    inertia,
    is_circumcenter_interior,
    is_equiareal,
    is_equiradial,
    is_realizable,
    matrix_from_beta,
    solve_linear,
    volume_sq,
)
from simplexkite.cayley import require_nondegenerate
from simplexkite.exact import _det
from conftest import count_kernel_calls, random_prekite, random_realizable_prekite
from test_cayley import _large_cloud
from test_exact import _one_step_bareiss

F = Fraction


def mixed_points(rng, n, lo=-9, hi=9, den=7):
    """Distance matrix of n+1 random points of Q^n with mixed denominators,
    or None when two points coincide."""
    pts = [[F(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(n)] for _ in range(n + 1)]
    rows = [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in pts] for p in pts]
    if not all(rows[i][j] for i in range(n + 1) for j in range(i)):
        return None
    return SquaredDistanceMatrix(rows)


def nondegenerate(d):
    return d is not None and is_realizable(d).status is Realizability.NONDEGENERATE


def oracle(d):
    """(circumcenter, R**2, facet volumes, facet radii) by eliminating each facet."""
    facets = [facet_sdm(d, k) for k in range(d.n + 1)]
    return (
        circumcenter_barycentrics(d),
        circumradius_sq(d),
        tuple(volume_sq(f) for f in facets),
        tuple(circumradius_sq(f) for f in facets),
    )


def carried_column(d, b):
    """(b', corner): the one-step elimination (`_one_step_bareiss`) of
    [A | b], A = s*G the scaled Gram matrix, and the corner -b^T adj(A) b
    folded from its last column b' over the minors."""
    rows = [row + [x] for row, x in zip(cayley._scaled_gram(d._dist), b)]
    minors, _ = _one_step_bareiss(rows, True, linalg._symmetric_pivot, [])
    corner, prev = 0, 1
    for pivot, row in zip(minors, rows):
        corner = (pivot * corner - row[-1] ** 2) // prev
        prev = pivot
    return [row[-1] for row in rows], corner


def read_off(d):
    """(circumcenter, R**2, facet volumes, facet radii) from d's one elimination."""
    return circumcenter_barycentrics(d), circumradius_sq(d), facet_volumes_sq(d), facet_circumradii_sq(d)


def family_members(rng):
    for family in ("orthocentric", "circumscriptible", "isodynamic", "tetra_isogonic"):
        for n in range(2, 8):
            for _ in range(16):
                lo = -3 if family == "orthocentric" else 4
                beta = [F(rng.randint(lo, 20), rng.randint(1, 3)) for _ in range(n + 1)]
                if family == "orthocentric" and any(
                    beta[i] + beta[j] <= 0 for i in range(n + 1) for j in range(i)
                ):
                    continue
                yield matrix_from_beta(family, beta)


def equiareal_prekites():
    """Every realizable equiareal pre-kite candidate n = 3..12, and each permuted."""
    rng = random.Random(71)
    for n in range(3, 13):
        for s in range(1, n // 2 + 1):
            if n - s == s:
                continue
            for cand in equiareal_prekite_solve(n, n - s, s):
                if cand.realizable:
                    d = cand.prekite().to_sdm()
                    perm = list(range(n + 1))
                    rng.shuffle(perm)
                    yield d
                    yield d.permuted(perm)


def test_record_matches_per_facet_oracle():
    rng = random.Random(61)
    clouds = []
    while len(clouds) < 700:
        d = mixed_points(rng, rng.randint(2, 8))
        if nondegenerate(d):
            clouds.append(d)
    members = [d for d in family_members(rng) if nondegenerate(d)]
    equiareal = list(equiareal_prekites())
    prekites = [random_realizable_prekite(rng, rng.randint(2, 7)).to_sdm() for _ in range(80)]
    regular = [SquaredDistanceMatrix.regular(n, F(rng.randint(1, 9), rng.randint(1, 9))) for n in range(2, 11)]
    assert len(members) >= 200 and len(equiareal) >= 10
    cases = clouds + members + equiareal + prekites + regular
    assert len(cases) >= 1000
    exterior = 0
    for d in cases:
        values = read_off(SquaredDistanceMatrix(d.a))
        assert values == oracle(d)
        exterior += min(values[0]) < 0
    assert exterior >= 100


_POINTS = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6), min_size=n, max_size=n),
        min_size=n + 1,
        max_size=n + 1,
    )
)


@settings(max_examples=80, deadline=None)
@given(_POINTS)
def test_record_property(pts):
    rows = [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in pts] for p in pts]
    if not all(rows[i][j] for i in range(len(pts)) for j in range(i)):
        return
    d = SquaredDistanceMatrix(rows)
    if is_realizable(d).status is not Realizability.NONDEGENERATE:
        with pytest.raises(DegenerateSimplexError):
            circumcenter_barycentrics(d)
        assert facet_volumes_sq(d) == tuple(volume_sq(facet_sdm(d, k)) for k in range(d.n + 1))
        return
    assert read_off(SquaredDistanceMatrix(rows)) == oracle(d)


def test_equiareal_witness():
    # PK[4; 1; 1,1,1,2]: not a kite, yet all five facets have V**2 = 1/72;
    # w = (1/2, 0, 0, 0, 1/2) puts the circumcenter on facets 1 to 3
    d = PreKite(4, 1, (1, 1, 1, 2)).to_sdm()
    assert circumcenter_barycentrics(d) == (F(1, 2), 0, 0, 0, F(1, 2))
    assert circumradius_sq(d) == F(1, 2)
    assert facet_volumes_sq(d) == (F(1, 72),) * 5
    assert facet_circumradii_sq(d) == (F(3, 8), F(1, 2), F(1, 2), F(1, 2), F(3, 8))


def test_record_is_kept_and_leaves_the_elimination_alone(monkeypatch):
    rng = random.Random(63)
    calls = count_kernel_calls(monkeypatch)
    for n in range(2, 9):
        rows = mixed_points(rng, n)
        while not nondegenerate(rows):
            rows = mixed_points(rng, n)
        d = SquaredDistanceMatrix(rows.a)
        calls.clear()
        values = read_off(d)
        assert read_off(d) == values
        assert len(calls) == 1
        fresh = SquaredDistanceMatrix(rows.a)
        assert (circumcenter_barycentrics(d), circumradius_sq(d)) == (
            circumcenter_barycentrics(fresh), circumradius_sq(fresh))


def test_report_builds_no_facet_matrix(monkeypatch):
    rng = random.Random(64)
    built = []
    real = SquaredDistanceMatrix.__init__

    def spy(self, entries):
        built.append(self)
        real(self, entries)

    for n in range(2, 11):
        d = mixed_points(rng, n)
        while not nondegenerate(d):
            d = mixed_points(rng, n)
        d = SquaredDistanceMatrix(d.a)
        monkeypatch.setattr(SquaredDistanceMatrix, "__init__", spy)
        classify(d)
        coincidence_report(d, with_floats=True)
        monkeypatch.setattr(SquaredDistanceMatrix, "__init__", real)
        assert built == []


def test_unrealizable_input_raises_like_the_verdict():
    cases = [
        [[0, 1, 4], [1, 0, 1], [4, 1, 0]],  # collinear
        [[0, 1, 4, 1], [1, 0, 1, 2], [4, 1, 0, 5], [1, 2, 5, 0]],  # flat, one facet collinear
        [[0, 1, 9], [1, 0, 1], [9, 1, 0]],  # non-Euclidean triangle
        [[0, 1, 1, 100], [1, 0, 100, 1], [1, 100, 0, 1], [100, 1, 1, 0]],
    ]
    for rows in cases:
        d = SquaredDistanceMatrix(rows)
        with pytest.raises((DegenerateSimplexError, NonEuclideanError)) as expected:
            require_nondegenerate(d)
        with pytest.raises(type(expected.value)) as got:
            circumcenter_barycentrics(d)
        assert got.value.verdict == expected.value.verdict
    segment = SquaredDistanceMatrix([[0, 1], [1, 0]])
    for facets in (facet_volumes_sq, facet_circumradii_sq):
        with pytest.raises(ValueError, match="facets of a 1-simplex are single points"):
            facets(segment)


def test_flat_input_keeps_the_per_facet_path():
    # four coplanar points: a flat 3-simplex whose facets are all triangles
    d = SquaredDistanceMatrix([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
    assert is_realizable(d).status is Realizability.DEGENERATE
    assert facet_volumes_sq(d) == tuple(volume_sq(facet_sdm(d, k)) for k in range(4)) == (F(1, 4),) * 4
    assert facet_circumradii_sq(d) == tuple(circumradius_sq(facet_sdm(d, k)) for k in range(4)) == (F(1, 2),) * 4
    assert is_equiareal(d) and is_equiradial(d)
    # a planar quadrilateral that is not cyclic, and one that is: both flat, no three points collinear
    for pts, radial in (((0, 0), (3, 0), (0, 1), (1, 3)), False), (((0, 0), (3, 0), (0, 1), (1, 2)), True):
        quad = SquaredDistanceMatrix([[(a - c) ** 2 + (b - e) ** 2 for c, e in pts] for a, b in pts])
        assert is_realizable(quad).status is Realizability.DEGENERATE
        assert not is_equiareal(quad)
        assert is_equiradial(quad) is radial
    flat = SquaredDistanceMatrix([[0, 1, 4, 1], [1, 0, 1, 2], [4, 1, 0, 5], [1, 2, 5, 0]])
    assert facet_volumes_sq(flat)[3] == 0
    with pytest.raises(DegenerateSimplexError):
        facet_circumradii_sq(flat)


def test_unit_sweeps_match_one_sweep_per_unit_vector():
    # the batched pass over [A | I] against the one-step elimination of
    # [A | e_j] and the corner fold over its carried column, column by column
    rng = random.Random(73)
    cases = list(equiareal_prekites())
    for n in range(2, 13):
        cases += [mixed_points(rng, n) for _ in range(3)]
        cases.append(random_realizable_prekite(rng, n).to_sdm())
        for family in ("orthocentric", "circumscriptible", "isodynamic", "tetra_isogonic"):
            cases += [matrix_from_beta(family, [F(rng.randint(4, 20), rng.randint(1, 3)) for _ in range(n + 1)])
                      for _ in range(2)]
    cases = [d for d in cases if nondegenerate(d)]
    assert len(cases) >= 100 and {d.n for d in cases} == set(range(2, 13))
    for d in cases:
        rows, corners = cayley._unit_sweeps(d)
        for j in range(d.n):
            swept = [0] * j + [row[j] for row in rows[j:]]
            assert (swept, corners[j]) == carried_column(d, [int(i == j) for i in range(d.n)])


def test_resume_carries_any_columns_as_a_product():
    # `linalg._resume` sweeps the columns of I through the kept elimination; any further
    # columns C then come out as the swept rows times C, with `_corners` of those rows as
    # their corners, each as the one-step elimination of [A | c] leaves it: unit, dense,
    # leading-zero and zero columns, n = 1..12 and one order-40 cloud
    rng = random.Random(77)
    cases = []
    for n in range(1, 13):
        cases += [mixed_points(rng, n) for _ in range(3)]
    cases.append(mixed_points(rng, 40))
    cases = [d for d in cases if nondegenerate(d)]
    assert {d.n for d in cases} == set(range(1, 13)) | {40}
    for d in cases:
        n = d.n
        g = cayley._gram_elimination(d)
        swept, corners = linalg._resume(g.rows, g.minors)
        assert [len(row) for row in swept] == list(range(1, n + 1))
        units = [[int(i == j) for i in range(n)] for j in range(n)]
        leads = [rng.randrange(n) for _ in range(3)]
        columns = units + [[rng.randint(-9, 9) for _ in range(n)] for _ in range(3)] + [
            [0] * z + [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(n - z - 1)] for z in leads] + [[0] * n]
        rows = [[sum(map(mul, row, column)) for column in columns] for row in swept]
        folded = linalg._corners(g.minors, rows)
        for j, column in enumerate(columns):
            assert ([row[j] for row in rows], folded[j]) == carried_column(d, column)
        assert corners == folded[:n]
        # the carried diagonal folds to the kept corner, as one column and as rows of one entry
        assert linalg._corners(g.minors, [row[n:] for row in g.rows]) == [g.corner]
        assert linalg._fold(g.minors, [row[-1] for row in g.rows]) == g.corner


def test_swept_rows_times_the_matrix_are_the_kept_rows():
    # an oracle that runs no sweep: row i of the swept identity times [A | b] is the kept
    # echelon row i on and right of the diagonal, the carried column b' included, and
    # zero left of it, n = 1..12 and the clouds of orders 20, 30 and 40
    rng = random.Random(78)
    cases = list(equiareal_prekites())
    for n in range(1, 13):
        cases += [mixed_points(rng, n) for _ in range(3)]
        if n >= 2:
            cases.append(random_realizable_prekite(rng, n).to_sdm())
            cases += [matrix_from_beta(family, [F(rng.randint(4, 20), rng.randint(1, 3)) for _ in range(n + 1)])
                      for family in ("orthocentric", "circumscriptible", "isodynamic", "tetra_isogonic")]
    cases += [_large_cloud(n)[1] for n in (20, 30, 40)]
    cases = [d for d in cases if nondegenerate(d)]
    assert {d.n for d in cases} == set(range(1, 13)) | {20, 30, 40}
    for d in cases:
        g = cayley._gram_elimination(d)
        bordered = [row + [row[i]] for i, row in enumerate(cayley._scaled_gram(d._dist))]
        swept, _ = linalg._resume(g.rows, g.minors)
        for i, row in enumerate(swept):
            product = [sum(map(mul, row, column)) for column in zip(*bordered)]
            assert product == [0] * i + g.rows[i][i:], (d.n, i)


_POSITIVE_DEFINITE = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n)
).map(lambda m: [[sum(map(mul, p, q)) + (i == j) for j, q in enumerate(m)] for i, p in enumerate(m)])  # M M^T + I


@settings(max_examples=150, deadline=None)
@given(_POSITIVE_DEFINITE)
def test_resumed_corners_are_the_principal_minors(a):
    # corner j is -adj(A)[j][j], minus A's principal minor without row and column j,
    # against the cofactor expansion `exact._det`
    rows = [row[:] for row in a]
    minors, _ = linalg._bareiss(rows, symmetric=True)
    assert len(minors) == len(a)
    _, corners = linalg._resume(rows, minors)
    assert corners == [-_det([r[:j] + r[j + 1:] for k, r in enumerate(a) if k != j]) for j in range(len(a))]


# the collinear and the non-Euclidean triangle, a flat tetrahedron, and a non-Euclidean one whose Gram
# block is [[0, 30], [30, 0]] after the first pivot, so the kernel takes the 2x2 congruence there
UNREALIZABLE = (
    [[0, 1, 4], [1, 0, 1], [4, 1, 0]],
    [[0, 1, 9], [1, 0, 1], [9, 1, 0]],
    [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
    [[0, 1, 4, 4], [1, 0, 1, 9], [4, 1, 0, 1], [4, 9, 1, 0]],
)


def test_carried_column_leaves_the_gram_elimination_as_it_was(monkeypatch):
    # the diagonal carried as column n changes no minor, verdict or square
    # echelon entry; on nondegenerate input the column and its corner are
    # the one-step elimination of [A | b], and the corner gives g^T G^-1 g / 4
    rng = random.Random(75)
    cases = list(equiareal_prekites())[:6] + [SquaredDistanceMatrix(rows) for rows in UNREALIZABLE]
    for n in range(2, 11):
        cases += [mixed_points(rng, n) for _ in range(3)]
        cases += [random_prekite(rng, n).to_sdm() for _ in range(3)]
        for family in ("orthocentric", "circumscriptible", "isodynamic", "tetra_isogonic"):
            cases.append(matrix_from_beta(family, [F(rng.randint(4, 20), rng.randint(1, 3)) for _ in range(n + 1)]))
    moves = []
    real = linalg._symmetric_pivot

    def spy(a, k):
        moves.append(not any(a[i][i] for i in range(k, len(a))))  # an all-zero live diagonal: the congruence
        return real(a, k)

    monkeypatch.setattr(linalg, "_symmetric_pivot", spy)
    seen = set()
    for d in filter(None, cases):
        g = cayley._gram_elimination(d)
        a = cayley._scaled_gram(d._dist)
        assert g.minors == linalg._bareiss(a, symmetric=True)[0]
        assert g.verdict.gram_inertia == inertia(gram_matrix(d))
        assert all(g.rows[k][k:d.n] == a[k][k:] for k in range(len(g.minors)))
        seen.add(g.verdict.status)
        if g.verdict.status is not Realizability.NONDEGENERATE:
            with pytest.raises((DegenerateSimplexError, NonEuclideanError)):
                circumradius_sq(d)
            continue
        diagonal = [2 * t for t in d._dist[0][1:]]
        assert ([row[-1] for row in g.rows], g.corner) == carried_column(d, diagonal)
        gram = gram_matrix(d)
        g_diag = [gram[i][i] for i in range(d.n)]
        assert circumradius_sq(d) == sum(map(mul, g_diag, solve_linear(gram, g_diag))) / 4
    assert seen == set(Realizability) and any(moves)


def test_certificate_catches_a_wrong_adjugate_column(monkeypatch):
    real = cayley._unit_sweeps

    def off_by_one(d):
        rows, corners = real(d)
        rows[-1] = [x + 1 for x in rows[-1]]  # the last entry of every swept e_j
        return rows, corners

    monkeypatch.setattr(cayley, "_unit_sweeps", off_by_one)
    d = PreKite(4, 1, (1, 1, 1, 2)).to_sdm()
    with pytest.raises(RuntimeError, match="adjugate certificate"):
        facet_volumes_sq(d)


def test_certificate_catches_a_wrong_circumcenter():
    d = PreKite(4, 1, (1, 1, 1, 2)).to_sdm()
    cayley._gram_elimination(d).rows[-1][-1] += 1  # the last entry of the carried diagonal, after its corner
    with pytest.raises(RuntimeError, match="Cayley-Menger certificate"):
        circumcenter_barycentrics(d)


def test_circumcenter_readers_run_no_facet_pass(monkeypatch):
    # the circumcenter's weights are kept apart from the facet determinants,
    # so a caller of the circumcenter alone never sweeps the unit vectors
    passes = []
    real = cayley._unit_sweeps
    monkeypatch.setattr(cayley, "_unit_sweeps", lambda d: passes.append(d) or real(d))
    rng = random.Random(76)
    for n in range(2, 9):
        for d in (random_realizable_prekite(rng, n).to_sdm(), mixed_points(rng, n)):
            if not nondegenerate(d):
                continue
            w = circumcenter_barycentrics(d)
            assert is_circumcenter_interior(d) == (min(w) > 0)
            circumcenter(embed(d))
            assert passes == []
            facet_volumes_sq(d)
            assert passes == [d]
            passes.clear()
