import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexkite import (
    PreKite,
    Realizability,
    SquaredDistanceMatrix,
    apex_squared_ratio_window,
    cm_det,
    facet_sdm,
    find_apexes,
    inner_cm_det,
    is_realizable,
    pk_cm_det,
    pk_facet_cm,
    pk_facet_inner_cm,
    pk_inner_cm_det,
    two_apexed,
    two_apexed_feasible,
)
from conftest import random_prekite, random_realizable_prekite

positive = st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=4)


class TestConstruction:
    def test_triangle_case(self):
        d = PreKite(2, Fraction(5), (Fraction(2), Fraction(3))).to_sdm()
        assert (d.a[0][1], d.a[0][2], d.a[1][2]) == (2, 3, 5)

    def test_regular_when_v_equals_u(self):
        d = PreKite(3, 1, (1, 1, 1)).to_sdm()
        assert d == SquaredDistanceMatrix.regular(3)

    def test_single_long_edge(self):
        d = PreKite(3, 1, (1, 1, 2)).to_sdm()
        long_edges = [(i, j) for i, j, val in d.edges() if val == 2]
        assert long_edges == [(0, 3)]

    def test_validation(self):
        with pytest.raises(ValueError):
            PreKite(1, 1, (1,))
        with pytest.raises(ValueError):
            PreKite(3, 0, (1, 1, 1))
        with pytest.raises(ValueError):
            PreKite(3, 1, (1, 1))

    def test_json_round_trip(self):
        pk = PreKite(3, Fraction(3, 2), (1, 2, Fraction(5, 4)))
        assert PreKite.from_json(pk.to_json()) == pk


class TestClosedForms:
    def test_regular_values(self):
        for n in range(2, 7):
            pk = PreKite(n, 1, (1,) * n)
            assert pk_cm_det(pk) == (-1) ** (n - 1) * (n + 1)

    def test_examples(self):
        assert pk_cm_det(PreKite(3, 1, (1, 1, 2))) == 4
        assert pk_cm_det(PreKite(3, 1, (1, 1, 3))) == 0
        assert pk_inner_cm_det(PreKite(3, 1, (1, 1, 2))) == -4
        assert pk_inner_cm_det(PreKite(3, 1, (1, 1, 1))) == -3

    def test_equal_v_inner_form(self):
        # v all equal to c at n=2 collapses to 2*u*c**2
        for u, c in ((Fraction(1), Fraction(2)), (Fraction(3, 2), Fraction(5, 4))):
            assert pk_inner_cm_det(PreKite(2, u, (c, c))) == 2 * u * c**2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), positive, st.data())
    def test_matches_generic_cayley(self, n, u, data):
        v = data.draw(st.lists(positive, min_size=n, max_size=n))
        pk = PreKite(n, u, v)
        d = pk.to_sdm()
        assert pk_cm_det(pk) == cm_det(d)
        assert pk_inner_cm_det(pk) == inner_cm_det(d)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), positive, st.data())
    def test_facet_forms_match_generic(self, n, u, data):
        v = data.draw(st.lists(positive, min_size=n, max_size=n))
        pk = PreKite(n, u, v)
        d = pk.to_sdm()
        for j in range(n + 1):
            facet = facet_sdm(d, j)
            assert pk_facet_cm(pk, j) == cm_det(facet)
            assert pk_facet_inner_cm(pk, j) == inner_cm_det(facet)

    def test_base_facet_closed_values(self):
        pk = PreKite(4, 1, (1, 1, 1, 2))
        assert pk_facet_cm(pk, 0) == 4
        assert pk_facet_cm(pk, 4) == 4
        assert pk_facet_cm(pk, 1) == 4
        assert pk_facet_inner_cm(pk, 0) == -3
        assert pk_facet_inner_cm(pk, 4) == -3
        assert pk_facet_inner_cm(pk, 1) == inner_cm_det(facet_sdm(pk.to_sdm(), 1))

    def test_every_facet_is_a_prekite(self):
        # the identity the facet forms rest on: facet j >= 1 drops apex edge j,
        # and the base is the regular pre-kite one dimension down
        rng = random.Random(47)
        for n in range(3, 7):
            for _ in range(5):
                pk = random_prekite(rng, n)
                facets = [PreKite(n - 1, pk.u, (pk.u,) * (n - 1))]
                facets += [PreKite(n - 1, pk.u, pk.v[: j - 1] + pk.v[j:]) for j in range(1, n + 1)]
                for j, facet in enumerate(facets):
                    assert pk_facet_cm(pk, j) == pk_cm_det(facet)
                    assert pk_facet_inner_cm(pk, j) == pk_inner_cm_det(facet)

    def test_facet_index_checked(self):
        pk = PreKite(3, 1, (1, 1, 2))
        with pytest.raises(IndexError):
            pk_facet_cm(pk, 4)
        # at n = 2 every facet is an edge: CM determinant 2a, inner -a**2
        pk2 = PreKite(2, 1, (4, 9))
        assert [pk_facet_cm(pk2, j) for j in range(3)] == [2, 18, 8]
        assert [pk_facet_inner_cm(pk2, j) for j in range(3)] == [-1, -81, -16]
        with pytest.raises(IndexError):
            pk_facet_cm(pk2, 3)


def apex_census(d):
    """(apexes, kite, regular) by listing each facet's edge values: the
    O(n**3) oracle for `find_apexes`."""
    size = d.n + 1
    apexes = []
    for j in range(size):
        keep = [i for i in range(size) if i != j]
        if len({d.a[p][q] for p in keep for q in keep if p < q}) <= 1:
            apexes.append(j)
    kite = any(len({d.a[j][i] for i in range(size) if i != j}) == 1 for j in apexes)
    return tuple(apexes), kite, d.is_regular()


class TestApexes:
    def test_two_apexed_example(self):
        report = find_apexes(PreKite(3, 1, (1, 1, 2)).to_sdm())
        assert report.apexes == (0, 3)
        assert not report.is_kite
        assert not report.is_regular

    def test_regular_all_apexes(self):
        report = find_apexes(SquaredDistanceMatrix.regular(3))
        assert report.apexes == (0, 1, 2, 3)
        assert report.is_kite
        assert report.is_regular

    def test_kite(self):
        report = find_apexes(PreKite(3, 1, (2, 2, 2)).to_sdm())
        assert report.apexes == (0,)
        assert report.is_kite

    def test_at_most_two_apexes_when_not_regular(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(3, 6)
            pk = random_realizable_prekite(rng, n)
            report = find_apexes(pk.to_sdm())
            if not report.is_regular:
                assert len(report.apexes) <= 2

    def test_matches_the_per_facet_census(self):
        # permuted pre-kites with edges in {1, 2, 3} and random {1, 2}
        # matrices tie edge counts often, e.g. a kite's base and star at n = 3
        rng = random.Random(38)
        for _ in range(1500):
            n = rng.randint(2, 8)
            if rng.random() < 0.6:
                perm = list(range(n + 1))
                rng.shuffle(perm)
                d = PreKite(n, rng.randint(1, 3), [rng.randint(1, 3) for _ in range(n)]).to_sdm().permuted(perm)
            else:
                rows = [[0] * (n + 1) for _ in range(n + 1)]
                for i in range(n + 1):
                    for j in range(i + 1, n + 1):
                        rows[i][j] = rows[j][i] = rng.randint(1, 2)
                d = SquaredDistanceMatrix(rows)
            report = find_apexes(d)
            assert (report.apexes, report.is_kite, report.is_regular) == apex_census(d)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property_matches_the_per_facet_census(self, data):
        # few-valued matrices tie edge counts often; regular simplices, kites and
        # two-apexed pre-kites have several apexes or an apex with equal edges
        n = data.draw(st.integers(2, 9), label="n")
        kind = data.draw(st.sampled_from(["few-valued", "regular", "kite", "two-apexed"]), label="kind")
        value = st.integers(1, 3)
        if kind == "few-valued":
            top = st.integers(1, 3).flatmap(lambda k: st.integers(1, k))
            upper = data.draw(st.lists(top, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2), label="upper")
            rows = [[0] * (n + 1) for _ in range(n + 1)]
            cells = iter(upper)
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    rows[i][j] = rows[j][i] = next(cells)
            d = SquaredDistanceMatrix(rows)
        elif kind == "regular":
            d = SquaredDistanceMatrix.regular(n, data.draw(value))
        elif kind == "kite":
            d = PreKite(n, data.draw(value), (data.draw(value),) * n).to_sdm()
        else:
            d = two_apexed(n, data.draw(value), data.draw(value)).to_sdm()
        d = d.permuted(data.draw(st.permutations(range(n + 1)), label="perm"))
        report = find_apexes(d)
        assert (report.apexes, report.is_kite, report.is_regular) == apex_census(d)
        if kind == "regular":
            assert report.apexes == tuple(range(n + 1)) and report.is_kite and report.is_regular
        elif kind == "kite":
            assert report.is_kite

    def test_tied_values_both_tried(self):
        # facet {0, 1, 2} is regular at value 1, and the three edges to
        # vertex 3 carry value 2: both values have three edges
        d = SquaredDistanceMatrix([[0, 1, 1, 2], [1, 0, 1, 2], [1, 1, 0, 2], [2, 2, 2, 0]])
        report = find_apexes(d)
        assert report.apexes == (3,)
        assert report.is_kite

    def test_every_facet_of_a_prekite_is_a_prekite(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(3, 6)
            d = random_realizable_prekite(rng, n).to_sdm()
            for j in range(n + 1):
                assert find_apexes(facet_sdm(d, j)).apexes


class TestFeasibilityWindow:
    def test_window_values(self):
        assert apex_squared_ratio_window(2) == (0, 4)
        assert apex_squared_ratio_window(3) == (0, 3)
        assert apex_squared_ratio_window(6) == (0, Fraction(12, 5))

    def test_boundary_is_exactly_degenerate(self):
        for n in range(2, 9):
            hi = apex_squared_ratio_window(n)[1]
            assert pk_cm_det(two_apexed(n, 1, hi)) == 0

    def test_closed_form_boundary_identity(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(3, 7)
            u = Fraction(rng.randint(1, 8), rng.randint(1, 3))
            v = Fraction(rng.randint(1, 12), rng.randint(1, 3))
            assert pk_cm_det(two_apexed(n, u, v)) == (-u) ** (n - 2) * v * ((n - 1) * v - 2 * n * u)

    def test_two_apexed_feasible(self):
        assert two_apexed_feasible(4, 1, 2)
        assert is_realizable(two_apexed(4, 1, 2).to_sdm()).status is Realizability.NONDEGENERATE
        assert not two_apexed_feasible(3, 1, 3)
        assert two_apexed_feasible(3, 1, 1)

    def test_feasibility_agrees_with_gram(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randint(2, 6)
            u = Fraction(rng.randint(1, 6), rng.randint(1, 2))
            v = u * Fraction(rng.randint(1, 14), 4)
            expected = is_realizable(two_apexed(n, u, v).to_sdm()).status is Realizability.NONDEGENERATE
            assert two_apexed_feasible(n, u, v) == expected
