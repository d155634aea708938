import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import simplexkite.cayley as cayley
import simplexkite.geometry as geometry
from simplexkite import (
    DegenerateSimplexError,
    NonEuclideanError,
    PreKite,
    Realizability,
    SquaredDistanceMatrix,
    circumcenter_barycentrics,
    circumradius_sq,
    classify,
    cm_det,
    cm_matrix,
    coincidence_report,
    embed,
    equiareal_prekite_solve,
    equiareal_scan,
    centroid,
    circumcenter,
    facet_sdm,
    fermat_torricelli,
    incenter,
    is_circumcenter_interior,
    is_equiareal,
    is_equiradial,
    is_realizable,
    is_well_distributed,
    pk_cm_det,
    prekite_equiradial_residual,
    solve_linear,
    volume_sq,
)
from simplexkite.cayley import require_nondegenerate
from conftest import count_kernel_calls, random_prekite, random_realizable_prekite


def sdm_triangle(x, y, z):
    return SquaredDistanceMatrix([[0, x, y], [x, 0, z], [y, z, 0]])


def mixed_point_sdm(rng, n):
    """A nondegenerate simplex on n+1 random points of Q^n with mixed denominators."""
    while True:
        pts = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)] for _ in range(n + 1)]
        rows = [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in pts] for p in pts]
        if all(rows[i][j] for i in range(n + 1) for j in range(i)):
            d = SquaredDistanceMatrix(rows)
            if is_realizable(d).status is Realizability.NONDEGENERATE:
                return d


# Gram inertia (2, 1, 0) and (2, 2, 0): non-Euclidean, the second with the
# Euclidean sign of det(G)
NON_EUCLIDEAN = (
    [[0, 1, 1, 100], [1, 0, 100, 1], [1, 100, 0, 1], [100, 1, 1, 0]],
    [[0, 15, 28, 17, 9], [15, 0, 2, 26, 30], [28, 2, 0, 18, 30], [17, 26, 18, 0, 1], [9, 30, 30, 1, 0]],
)


class TestPredicates:
    def test_regular_satisfies_all(self):
        d = SquaredDistanceMatrix.regular(4)
        assert is_well_distributed(d)
        assert is_equiradial(d)
        assert is_equiareal(d)

    def test_two_apexed_example_fails_all(self):
        d = PreKite(3, 1, (1, 1, 2)).to_sdm()
        assert not is_well_distributed(d)
        assert not is_equiradial(d)
        assert not is_equiareal(d)

    def test_equiradial_facet_radii_example(self):
        d = PreKite(3, 1, (1, 1, 2)).to_sdm()
        radii = [circumradius_sq(facet_sdm(d, j)) for j in range(4)]
        assert radii == [Fraction(1, 3), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]

    def test_kite_is_not_equiradial(self):
        assert not is_equiradial(PreKite(3, 1, (2, 2, 2)).to_sdm())

    def test_equiareal_prekite_instance(self):
        d = PreKite(4, 1, (1, 1, 1, 2)).to_sdm()
        assert is_equiareal(d)
        assert not is_well_distributed(d)
        assert not is_equiradial(d)

    def test_scaling_invariance(self):
        rng = random.Random(3)
        for _ in range(15):
            d = random_realizable_prekite(rng, rng.randint(3, 5)).to_sdm()
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            scaled = d.scaled(lam)
            assert is_well_distributed(d) == is_well_distributed(scaled)
            assert is_equiradial(d) == is_equiradial(scaled)
            assert is_equiareal(d) == is_equiareal(scaled)

    def test_equiradial_non_euclidean_with_degenerate_facet(self):
        # one facet of this 3-simplex is a collinear triple, but the whole
        # matrix has Gram inertia (2, 1, 0), which is reported first
        rows = [
            [0, 1, 1, 4],
            [1, 0, 4, 1],
            [1, 4, 0, 1],
            [4, 1, 1, 0],
        ]
        d = SquaredDistanceMatrix(rows)
        assert cm_det_nonzero_facets_exist(d)
        with pytest.raises(NonEuclideanError) as exc:
            is_equiradial(d)
        assert exc.value.verdict.gram_inertia == (2, 1, 0)

    def test_equiradial_degenerate_facet_reported(self):
        # a flat Euclidean 3-simplex whose facet {0, 1, 2} is collinear
        d = SquaredDistanceMatrix([[0, 1, 4, 1], [1, 0, 1, 2], [4, 1, 0, 5], [1, 2, 5, 0]])
        assert is_realizable(d).status is Realizability.DEGENERATE
        with pytest.raises(DegenerateSimplexError):
            is_equiradial(d)

    def test_non_euclidean_with_euclidean_facets_raises(self):
        # a regular triangle with an apex at squared distance 3/10 < 1/3,
        # the squared circumradius of the triangle: every facet is Euclidean
        d = PreKite(3, 1, (Fraction(3, 10),) * 3).to_sdm()
        verdict = is_realizable(d)
        assert verdict.gram_inertia == (2, 1, 0)
        assert all(is_realizable(facet_sdm(d, j)).status is not Realizability.NON_EUCLIDEAN for j in range(4))
        for predicate in (is_well_distributed, is_equiareal, is_equiradial):
            with pytest.raises(NonEuclideanError) as exc:
                predicate(d)
            assert exc.value.verdict == verdict


def cm_det_nonzero_facets_exist(d):
    from simplexkite import cm_det

    return any(cm_det(facet_sdm(d, j)) == 0 for j in range(d.n + 1))


class TestEquiradialResidual:
    def test_regular_vanishes(self):
        pk = PreKite(4, 1, (1, 1, 1, 1))
        for j in range(1, 5):
            assert prekite_equiradial_residual(pk, j) == 0

    def test_two_apexed_example(self):
        pk = PreKite(3, 1, (1, 1, 2))
        assert pk.sum1 == 5 and pk.sum2 == 7
        # facets 1 and 2 (radius**2 = 1/2) are not coradial with the base
        assert prekite_equiradial_residual(pk, 1) == -4
        assert prekite_equiradial_residual(pk, 2) == -4
        # facet 3 is the second regular base and shares the base radius 1/3
        assert prekite_equiradial_residual(pk, 3) == 0

    def test_residual_zero_iff_equiradial(self):
        rng = random.Random(7)
        for _ in range(40):
            pk = random_realizable_prekite(rng, rng.randint(3, 5))
            all_zero = all(
                prekite_equiradial_residual(pk, j) == 0 for j in range(1, pk.n + 1)
            )
            assert all_zero == is_equiradial(pk.to_sdm())

    def test_residual_matches_cross_multiplied_radii(self):
        from simplexkite import pk_facet_cm, pk_facet_inner_cm

        rng = random.Random(11)
        for _ in range(40):
            pk = random_prekite(rng, rng.randint(3, 6))
            for j in range(1, pk.n + 1):
                lhs = pk.n * pk_facet_inner_cm(pk, j)
                rhs = (pk.n - 1) * pk_facet_cm(pk, j) * (-1)  # scale factors below
                # direct cross-multiplied equality of the two facet radii
                c0, d0 = pk_facet_cm(pk, 0), pk_facet_inner_cm(pk, 0)
                cj, dj = pk_facet_cm(pk, j), pk_facet_inner_cm(pk, j)
                equal_radii = c0 * dj == cj * d0
                assert (prekite_equiradial_residual(pk, j) == 0) == equal_radii


class TestCircumcenterBarycentrics:
    def test_regular_uniform_weights(self):
        for n in (2, 3, 5):
            bary = circumcenter_barycentrics(SquaredDistanceMatrix.regular(n))
            assert all(w == Fraction(1, n + 1) for w in bary)
            assert sum(bary) == 1

    def test_obtuse_triangle_exterior(self):
        d = sdm_triangle(1, 1, Fraction(7, 2))
        assert not is_circumcenter_interior(d)

    def test_acute_triangle_interior(self):
        assert is_circumcenter_interior(sdm_triangle(2, 2, 1))

    def test_matches_embedded_circumcenter(self):
        rng = random.Random(13)
        for _ in range(10):
            pk = random_realizable_prekite(rng, 3)
            d = pk.to_sdm()
            bary = np.array([float(w) for w in circumcenter_barycentrics(d)])
            s = embed(d)
            q, _ = circumcenter(s)
            assert np.allclose(bary @ s.vertices, q, atol=1e-8)

    def test_matches_cayley_menger_solve(self):
        rng = random.Random(31)
        exterior = 0
        for n in range(2, 9):
            for _ in range(6):
                d = mixed_point_sdm(rng, n)
                bary = circumcenter_barycentrics(d)
                assert bary == solve_linear(cm_matrix(d), [1] + [0] * (n + 1))[1:]
                exterior += min(bary) < 0
        assert exterior >= 10

    def test_one_elimination(self, monkeypatch):
        # mixed_point_sdm has already eliminated d, so count on a fresh copy
        rng = random.Random(32)
        calls = count_kernel_calls(monkeypatch)
        for n in range(1, 8):
            d = SquaredDistanceMatrix(mixed_point_sdm(rng, n).a)
            calls.clear()
            circumcenter_barycentrics(d)
            assert len(calls) == 1

    def test_unrealizable_raises_like_the_verdict(self):
        cases = [sdm_triangle(1, 4, 1), sdm_triangle(1, 9, 1), PreKite(3, 1, (1, 1, 3)).to_sdm()]
        cases += [SquaredDistanceMatrix(rows) for rows in NON_EUCLIDEAN]
        kinds = set()
        for d in cases:
            with pytest.raises((DegenerateSimplexError, NonEuclideanError)) as expected:
                require_nondegenerate(d)
            kinds.add(type(expected.value))
            for f in (circumcenter_barycentrics, coincidence_report):
                with pytest.raises(type(expected.value)) as got:
                    f(d)
                assert got.value.verdict == expected.value.verdict
        assert kinds == {DegenerateSimplexError, NonEuclideanError}


class TestCoincidenceReport:
    def test_regular_all_true(self):
        rep = coincidence_report(SquaredDistanceMatrix.regular(3))
        assert rep.qg_coincide and rep.qi_coincide and rep.ig_coincide
        assert rep.circumcenter_interior
        assert rep.fermat_coincidences is None

    def test_equiareal_prekite(self):
        rep = coincidence_report(PreKite(4, 1, (1, 1, 1, 2)).to_sdm())
        assert rep.ig_coincide
        assert not rep.qg_coincide
        assert not rep.qi_coincide

    def test_kite_all_false(self):
        rep = coincidence_report(PreKite(3, 1, (2, 2, 2)).to_sdm())
        assert not (rep.qg_coincide or rep.qi_coincide or rep.ig_coincide)

    def test_kernel_calls(self, monkeypatch):
        # one elimination of the simplex; the facet radii and volumes are
        # read off its adjugate
        rng = random.Random(33)
        calls = count_kernel_calls(monkeypatch)
        for n in range(2, 9):
            d = SquaredDistanceMatrix(mixed_point_sdm(rng, n).a)
            calls.clear()
            coincidence_report(d)
            assert len(calls) == 1

    def test_classify_and_report_kernel_calls(self, monkeypatch):
        # the reports benchmark item: the floats (embedding and incenter)
        # and the family census read the same eliminations
        rng = random.Random(34)
        calls = count_kernel_calls(monkeypatch)
        for n in range(2, 13):
            d = SquaredDistanceMatrix(mixed_point_sdm(rng, n).a)
            calls.clear()
            classify(d)
            coincidence_report(d, with_floats=True)
            assert len(calls) == 1

    def test_classify_and_report_sweeps(self, monkeypatch):
        # the circumsphere is computed once, as A's diagonal carried through
        # the one kernel call as column n, and kept; the facets k >= 1 cost
        # one batched pass over all unit vectors; the float circumcenter reads
        # the kept column
        rng = random.Random(35)
        columns, passes = [], []
        real_kernel, real_pass = cayley._bareiss, cayley._unit_sweeps

        def kernel(rows, **kwargs):
            columns.append([row[len(rows):] for row in rows])
            return real_kernel(rows, **kwargs)

        monkeypatch.setattr(cayley, "_bareiss", kernel)
        monkeypatch.setattr(cayley, "_unit_sweeps", lambda d: passes.append(d) or real_pass(d))
        for n in range(2, 13):
            d = SquaredDistanceMatrix(mixed_point_sdm(rng, n).a)
            columns.clear()
            passes.clear()
            classify(d)
            coincidence_report(d, with_floats=True)
            assert columns == [[[2 * t] for t in d._dist[0][1:]]]
            assert passes == [d]

    def test_float_cross_check(self):
        for d in (
            SquaredDistanceMatrix.regular(3),
            PreKite(4, 1, (1, 1, 1, 2)).to_sdm(),
            PreKite(3, 1, (2, 2, 2)).to_sdm(),
            PreKite(3, 1, (1, 1, 2)).to_sdm(),
        ):
            rep = coincidence_report(d, with_floats=True)
            s = embed(d)
            _, radius = circumcenter(s)
            tol = 1e-8 * (1.0 + radius)
            assert rep.qg_coincide == (rep.center_distances["qg"] <= tol)
            assert rep.qi_coincide == (rep.center_distances["qi"] <= tol)
            assert rep.ig_coincide == (rep.center_distances["ig"] <= tol)

    def test_json_shape(self):
        rep = coincidence_report(SquaredDistanceMatrix.regular(2), with_floats=True)
        payload = rep.to_json()
        assert "fermat_note" not in payload
        assert payload["fermat_coincidences"] == {"fg": True, "fq": True, "fi": True}
        assert set(payload["center_distances"]) == {"qg", "qi", "ig"}


def _cloud(pts):
    """The distance matrix of the points, or None when two coincide."""
    rows = [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in pts] for p in pts]
    return SquaredDistanceMatrix(rows) if all(rows[i][j] for i in range(len(pts)) for j in range(i)) else None


def _near_regular(n, eps):
    """The regular n-simplex with squared edge (0, 1) scaled by 1 + eps."""
    d = [list(row) for row in SquaredDistanceMatrix.regular(n).a]
    d[0][1] = d[1][0] = 1 + eps
    return SquaredDistanceMatrix(d)


_RATIOS = st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(1), Fraction(5, 4), Fraction(2)])
_SIMPLICES = st.integers(2, 8).flatmap(lambda n: st.one_of(
    st.lists(st.lists(st.fractions(-6, 6, max_denominator=6), min_size=n, max_size=n),
             min_size=n + 1, max_size=n + 1).map(_cloud),
    st.lists(_RATIOS, min_size=n, max_size=n).map(lambda v: PreKite(n, 1, tuple(v)).to_sdm()),
))
_NEAR_REGULAR = [_near_regular(n, eps) for n in range(2, 9) for eps in (0, Fraction(1, 10**6), Fraction(1, 10**12))]
_GOLDEN = {c["name"]: SquaredDistanceMatrix.from_json({"n": len(c["a"]) - 1, "a": c["a"]})
           for c in json.loads(Path(__file__).with_name("report_golden.json").read_text(encoding="utf-8"))}
_KITES = {"kite n=%d v=%s" % (n, v): PreKite(n, 1, (v,) * n).to_sdm() for n in range(3, 8) for v in (Fraction(1, 2), 2, 5)}


# G = I without Q (the equiareal pre-kite), and all three at once off the
# regular simplex (the disphenoid, with opposite edges equal)
_COINCIDENT = [PreKite(4, 1, (1, 1, 1, 2)).to_sdm(),
               SquaredDistanceMatrix([[0, 2, 3, 4], [2, 0, 4, 3], [3, 4, 0, 2], [4, 3, 2, 0]])]


def _with_examples(test):
    for d in _NEAR_REGULAR + _COINCIDENT:
        test = example(d)(test)
    return test


class TestFermatFlags:
    """Off the vertices, X is the Fermat point F exactly when the unit vectors
    from X to the vertices sum to 0, so F = G and F = Q each hold exactly when
    Q = G, and F = I, once two of G, Q and I coincide, exactly when all three do."""

    @settings(max_examples=120, deadline=None)
    @given(_SIMPLICES)
    @_with_examples
    def test_flags_follow_the_theorem(self, d):
        assume(d is not None and is_realizable(d).status is Realizability.NONDEGENERATE)
        rep = coincidence_report(d, with_floats=True)
        qg, qi, ig = rep.qg_coincide, rep.qi_coincide, rep.ig_coincide
        flags = rep.fermat_coincidences
        assert flags["fg"] == flags["fq"] == qg
        if qg or qi or ig or d.n == 2:
            assert flags["fi"] == (qg and qi and ig)

    @pytest.mark.parametrize("eps", [Fraction(1, 10**12), Fraction(1, 10**6)])
    def test_only_the_equilateral_triangle_has_f_at_i(self, eps):
        # F sees each side at 120 degrees and I sees side a at 90 + A/2, so at n = 2
        # F = I only for the equilateral triangle, however near to it; the float
        # gradient test at I passes the edge scaled by 1 + 10**-12
        rep = coincidence_report(_near_regular(2, eps), with_floats=True)
        assert not (rep.qg_coincide or rep.qi_coincide or rep.ig_coincide)
        assert rep.fermat_coincidences == {"fg": False, "fq": False, "fi": False}
        assert coincidence_report(_near_regular(2, 0), with_floats=True).fermat_coincidences == {"fg": True, "fq": True, "fi": True}

    def test_the_report_does_not_iterate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the report ran the Fermat iteration")

        monkeypatch.setattr(geometry, "fermat_torricelli", refuse)
        for d in (_near_regular(8, Fraction(1, 10**6)), PreKite(4, 1, (1, 1, 1, 2)).to_sdm(), _GOLDEN["cloud n=5"]):
            assert set(coincidence_report(d, with_floats=True).fermat_coincidences) == {"fg", "fq", "fi"}

    @pytest.mark.parametrize("d", [*_GOLDEN.values(), *_KITES.values()], ids=[*_GOLDEN, *_KITES])
    def test_generic_fi_matches_the_fermat_point(self, d):
        # the gradient test at the float incenter against the distance from
        # it of the Weiszfeld point, compared at 1e-8 (1 + R)
        s = embed(d)
        i, _ = incenter(s)
        _, radius = circumcenter(s)
        pts = s.vertices
        generic = math.hypot(*geometry._pull(i, zip(*pts), [math.dist(p, i) for p in pts])) <= geometry.FT_GRADIENT_TOL
        assert generic == (math.dist(fermat_torricelli(s), i) <= 1e-8 * (1.0 + radius))
        rep = coincidence_report(d, with_floats=True)
        if not (rep.qg_coincide or rep.qi_coincide or rep.ig_coincide):
            assert rep.fermat_coincidences["fi"] == generic


class TestRegularityTheorems:
    def test_well_distributed_implies_regular(self):
        rng = random.Random(17)
        for _ in range(120):
            d = random_realizable_prekite(rng, rng.randint(2, 6)).to_sdm()
            if is_well_distributed(d):
                assert d.is_regular()

    def test_equiradial_implies_regular(self):
        rng = random.Random(19)
        for _ in range(120):
            d = random_realizable_prekite(rng, rng.randint(2, 6)).to_sdm()
            if is_equiradial(d):
                assert d.is_regular()


class TestEquiarealSolver:
    def test_dimension_six_candidate(self):
        cand = equiareal_prekite_solve(6, 5, 1)[0]
        assert (cand.x, cand.y) == (1, Fraction(3, 2))
        assert cand.realizable and cand.equiareal_verified and not cand.regular

    def test_dimension_four_candidate(self):
        cand = equiareal_prekite_solve(4, 3, 1)[0]
        assert (cand.x, cand.y) == (1, 2)
        assert cand.realizable and cand.equiareal_verified and not cand.regular
        gram_minors_positive(cand)

    def test_five_three_two_is_degenerate(self):
        cand = equiareal_prekite_solve(5, 3, 2)[0]
        assert (cand.x, cand.y) == (2, 4)
        assert cand.degenerate and not cand.realizable

    def test_equal_split_rejected(self):
        with pytest.raises(ValueError):
            equiareal_prekite_solve(6, 3, 3)

    def test_every_split_has_one_positive_candidate(self):
        for n in range(3, 41):
            for s in range(1, (n - 1) // 2 + 1):
                (cand,) = equiareal_prekite_solve(n, n - s, s)
                assert cand.x > 0 and cand.y > 0, (n, s)

    def test_candidates_verified_by_oracle(self):
        for n in range(3, 9):
            for s in range(1, (n - 1) // 2 + 1):
                for cand in equiareal_prekite_solve(n, n - s, s):
                    if cand.realizable:
                        assert cand.equiareal_verified == is_equiareal(
                            cand.prekite().to_sdm()
                        )

    def test_candidates_satisfy_both_conditions_exactly(self):
        for n in range(3, 10):
            for s in range(1, (n - 1) // 2 + 1):
                t = n - s
                for cand in equiareal_prekite_solve(n, t, s):
                    u, x, y = cand.u, cand.x, cand.y
                    s1 = u + t * x + s * y
                    s2 = u * u + t * x * x + s * y * y
                    assert n * u * u - s1 * s1 + (n - 1) * s2 - n * x * x + 2 * s1 * x == 0
                    assert (t - s) * (y - x) == 2 * u

    def test_degenerate_flag_is_the_cm_determinant(self):
        seen = set()
        for n in range(3, 13):
            for s in range(1, (n - 1) // 2 + 1):
                for cand in equiareal_prekite_solve(n, n - s, s):
                    assert cand.degenerate == (cm_det(cand.prekite().to_sdm()) == 0)
                    seen.add(cand.degenerate)
        assert seen == {False, True}

    def test_closed_form_verdicts_match_the_generic_oracle(self):
        for n in range(3, 13):
            for s in range(1, (n - 1) // 2 + 1):
                for cand in equiareal_prekite_solve(n, n - s, s):
                    d = cand.prekite().to_sdm()
                    verdict = is_realizable(d)
                    assert cand.realizable is (verdict.status is Realizability.NONDEGENERATE)
                    assert cand.degenerate is (verdict.gram_inertia[2] > 0)
                    assert cand.equiareal_verified is is_equiareal(d)
                    assert cand.regular is d.is_regular()

    def test_cm_sign_is_the_gram_verdict_of_a_prekite(self):
        # the solver's realizability verdict: the regular base facet leaves one Gram eigenvalue to decide
        rng = random.Random(37)
        seen = set()
        for _ in range(300):
            n = rng.randint(2, 7)
            pk = rng.choice([random_prekite(rng, n), PreKite(n, 1, (1,) * (n - 1) + (Fraction(2 * n, n - 1),))])
            sign = (-1) ** (n + 1) * pk_cm_det(pk)
            status = is_realizable(pk.to_sdm()).status
            want = Realizability.NONDEGENERATE if sign > 0 else Realizability.DEGENERATE if sign == 0 else Realizability.NON_EUCLIDEAN
            assert status is want
            seen.add(status)
        assert seen == set(Realizability)

    def test_scan_shapes(self):
        result = equiareal_scan(6)
        assert result["any_nonregular_equiareal"] and result["claim_agrees"]
        result4 = equiareal_scan(4)
        assert result4["any_nonregular_equiareal"] and not result4["claim_agrees"]
        assert result4["notes"]
        result3 = equiareal_scan(3)
        assert not result3["any_nonregular_equiareal"] and result3["claim_agrees"]


def gram_minors_positive(cand):
    """Leading principal minors of the Gram matrix of the n=4 candidate."""
    from simplexkite import ExactMatrix, exact_determinant, gram_matrix

    g = gram_matrix(cand.prekite().to_sdm())
    minors = [
        exact_determinant(ExactMatrix([row[: k + 1] for row in g.rows[: k + 1]]))
        for k in range(g.order)
    ]
    assert minors == [1, Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)]
