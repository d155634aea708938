import math
import random
from fractions import Fraction

import pytest

from simplexkite import (
    DegenerateSimplexError,
    PreKite,
    Realizability,
    SquaredDistanceMatrix,
    classify,
    find_apexes,
    is_realizable,
    matrix_from_beta,
    recover_circumscriptible,
    recover_isodynamic,
    recover_orthocentric,
    recover_tetra_isogonic,
)

FAMILIES = {
    "orthocentric": recover_orthocentric,
    "circumscriptible": recover_circumscriptible,
    "isodynamic": recover_isodynamic,
    "tetra_isogonic": recover_tetra_isogonic,
}

NOT_A_MEMBER = PreKite(3, 1, (1, 1, 2)).to_sdm()


class TestOrthocentric:
    def test_regular_all_two(self):
        vec = recover_orthocentric(SquaredDistanceMatrix.regular(3, 2))
        assert vec.beta == (1, 1, 1, 1)
        assert vec.residual == 0

    def test_counterexample(self):
        assert recover_orthocentric(NOT_A_MEMBER) is None

    def test_forward_round_trip(self):
        beta = (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
        d = matrix_from_beta("orthocentric", beta)
        assert is_realizable(d).status is Realizability.NONDEGENERATE
        vec = recover_orthocentric(d)
        assert vec.beta == beta

    def test_negative_weight_allowed(self):
        # a right-angle corner gives one zero/negative weight; still a member
        beta = (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
        d = matrix_from_beta("orthocentric", beta)
        vec = recover_orthocentric(d)
        assert vec is not None and vec.beta == beta


class TestCircumscriptible:
    def test_regular_unit(self):
        vec = recover_circumscriptible(SquaredDistanceMatrix.regular(3))
        assert vec.beta == pytest.approx((0.5, 0.5, 0.5, 0.5))

    def test_kite_example(self):
        # base length 2 (squared 4), apex length 3 (squared 9)
        vec = recover_circumscriptible(PreKite(3, 4, (9, 9, 9)).to_sdm())
        assert vec.beta == pytest.approx((2.0, 1.0, 1.0, 1.0))

    def test_counterexample(self):
        assert recover_circumscriptible(NOT_A_MEMBER) is None


class TestIsodynamic:
    def test_regular_unit(self):
        vec = recover_isodynamic(SquaredDistanceMatrix.regular(3))
        assert vec.beta == pytest.approx((1.0, 1.0, 1.0, 1.0))

    def test_kite_example(self):
        d = PreKite(3, 1, (2, 2, 2)).to_sdm()
        assert is_realizable(d).status is Realizability.NONDEGENERATE
        vec = recover_isodynamic(d)
        assert vec.beta == pytest.approx((2.0, 1.0, 1.0, 1.0))

    def test_counterexample(self):
        assert recover_isodynamic(NOT_A_MEMBER) is None


class TestTetraIsogonic:
    def test_regular_scaled(self):
        for c in (1, 2):
            d = SquaredDistanceMatrix.regular(3, 3 * c * c)
            vec = recover_tetra_isogonic(d)
            assert vec.beta == pytest.approx((c,) * 4)

    def test_kite_example(self):
        vec = recover_tetra_isogonic(PreKite(3, 3, (7, 7, 7)).to_sdm())
        assert vec.beta == pytest.approx((2.0, 1.0, 1.0, 1.0))

    def test_counterexample(self):
        assert recover_tetra_isogonic(NOT_A_MEMBER) is None


class TestRoundTrips:
    def sample_beta(self, rng, family, count):
        if family == "orthocentric":
            return tuple(Fraction(rng.randint(1, 12), 4) for _ in range(count))
        return tuple(Fraction(rng.randint(2, 9), 4) for _ in range(count))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_recovery_matches_input(self, family):
        rng = random.Random(hash(family) % 1000)
        recover = FAMILIES[family]
        done = 0
        while done < 30:
            count = rng.randint(3, 6)
            beta = self.sample_beta(rng, family, count)
            d = matrix_from_beta(family, beta)
            if is_realizable(d).status is not Realizability.NONDEGENERATE:
                continue
            vec = recover(d)
            assert vec is not None
            if family == "orthocentric":
                assert vec.beta == beta
                assert vec.residual == 0
            else:
                for got, want in zip(vec.beta, beta):
                    assert float(got) == pytest.approx(float(want), rel=1e-9, abs=1e-9)
                assert vec.residual <= 1e-9
            done += 1

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_member_prekites_are_kites(self, family):
        # constant tails induce pre-kites; the family intersection theorem
        # then forces kite status
        rng = random.Random(len(family))
        done = 0
        while done < 20:
            count = rng.randint(4, 6)
            apex = Fraction(rng.randint(2, 9), 4)
            tail = Fraction(rng.randint(2, 9), 4)
            beta = (apex,) + (tail,) * (count - 1)
            d = matrix_from_beta(family, beta)
            if is_realizable(d).status is not Realizability.NONDEGENERATE:
                continue
            assert FAMILIES[family](d) is not None
            report = find_apexes(d)
            assert report.apexes
            assert report.is_kite
            done += 1

    def test_constant_beta_regular_and_in_all_families(self):
        profiles = {
            "orthocentric": Fraction(3, 2),
            "circumscriptible": Fraction(1, 2),
            "isodynamic": Fraction(2),
            "tetra_isogonic": Fraction(5, 4),
        }
        for family, b in profiles.items():
            d = matrix_from_beta(family, (b,) * 5)
            assert d.is_regular()
            for recover in FAMILIES.values():
                assert recover(d) is not None


class TestClassify:
    def test_tetra_isogonic_kite(self):
        report = classify(PreKite(3, 3, (7, 7, 7)).to_sdm())
        payload = report.to_json()
        assert payload["families"]["tetra_isogonic"]["member"]
        assert payload["kite"]
        assert payload["kite_consistent"]

    def test_two_apexed_no_family(self):
        report = classify(NOT_A_MEMBER)
        payload = report.to_json()
        assert payload["apexes"] == [0, 3]
        assert not any(entry["member"] for entry in payload["families"].values())
        assert payload["kite_consistent"]

    def test_regular_member_of_all(self):
        report = classify(SquaredDistanceMatrix.regular(3))
        payload = report.to_json()
        assert all(entry["member"] for entry in payload["families"].values())
        assert payload["kite"] and payload["regular"]

    def test_rejects_degenerate(self):
        flat = SquaredDistanceMatrix([[0, 1, 4], [1, 0, 1], [4, 1, 0]])
        with pytest.raises(DegenerateSimplexError):
            classify(flat)

    def test_matrix_from_beta_validation(self):
        with pytest.raises(ValueError):
            matrix_from_beta("isodynamic", (1, -1, 2))
        with pytest.raises(ValueError):
            matrix_from_beta("nonsense", (1, 2, 3))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_recovery_refuses_a_segment(family):
    # a 1-simplex has no triangle of edges to read weights from
    with pytest.raises(ValueError, match=r"^family recovery needs n >= 2$"):
        FAMILIES[family](SquaredDistanceMatrix([[0, 1], [1, 0]]))


F = Fraction

# The float recoveries' exact output on fixed members and on the same
# members with entry (0, 1) scaled by 1 + 1e-12: a change in the order of
# any float operation moves some of these bits.
GOLDEN = [
    ("circumscriptible", (F(7, 2), F(1), F(21, 5), F(2), F(1)), False,
     (3.4999999999999996, 0.9999999999999996, 4.2, 2.0, 1.0), 1.1534784671430197e-16),
    ("circumscriptible", (F(7, 2), F(1), F(21, 5), F(2), F(1)), True,
     (3.500000000001125, 1.0000000000011249, 4.199999999998875, 1.9999999999988751, 0.9999999999988751), 2.9223376965068403e-13),
    ("circumscriptible", (F(2), F(3), F(13, 3), F(3)), False,
     (2.0000000000000004, 2.999999999999999, 4.333333333333334, 3.0), 1.211152390500171e-16),
    ("circumscriptible", (F(2), F(3), F(13, 3), F(3)), True,
     (2.00000000000125, 3.0000000000012497, 4.333333333332083, 2.99999999999875), 3.408788403062731e-13),
    ("isodynamic", (F(21, 2), F(5), F(14, 3), F(11, 4), F(8)), False,
     (10.5, 5.0, 4.666666666666666, 2.75, 8.0), 8.458842092382145e-17),
    ("isodynamic", (F(21, 2), F(5), F(14, 3), F(11, 4), F(8)), True,
     (10.500000000005251, 5.0000000000025, 4.666666666664333, 2.749999999998625, 7.999999999996), 4.4451215195468173e-13),
    ("tetra_isogonic", (F(25, 6), F(29, 5), F(3, 2), F(29, 2)), False,
     (4.166666666666666, 5.8, 1.5000000000000007, 14.5), 1.0831774379708225e-17),
    ("tetra_isogonic", (F(25, 6), F(29, 5), F(3, 2), F(29, 2)), True,
     (4.16666666666929, 5.800000000002417, 1.4999999999964029, 14.499999999998193), 3.5987487199142607e-13),
    ("tetra_isogonic", (F(21, 2), F(11, 5), F(9), F(4)), False,
     (10.5, 2.1999999999999993, 9.0, 4.0), 4.97317750313281e-17),
    ("tetra_isogonic", (F(21, 2), F(11, 5), F(9), F(4)), True,
     (10.50000000000295, 2.200000000004681, 8.999999999996895, 3.999999999996013), 4.762314776999978e-13),
]


@pytest.mark.parametrize("family, beta, near, want_beta, want_residual", GOLDEN)
def test_float_recovery_golden(family, beta, near, want_beta, want_residual):
    d = matrix_from_beta(family, beta)
    if near:
        rows = [list(row) for row in d.a]
        rows[0][1] = rows[1][0] = rows[0][1] * (1 + F(1, 10**12))
        d = SquaredDistanceMatrix(rows)
    vec = FAMILIES[family](d)
    assert vec.beta == want_beta
    assert vec.residual == want_residual


def test_nan_residual_is_not_membership():
    # beta_0 underflows to 0.0 and beta_1 overflows to inf, so the (0, 1)
    # defect is inf * 0.0 = nan; NaN must never pass the tolerance test
    tiny, huge = F(1, 10**300), F(10**300)
    d = SquaredDistanceMatrix([[0, 1, tiny], [1, 0, huge], [tiny, huge, 0]])
    assert recover_isodynamic(d) is None


# a regular tetrahedron far outside the float range of its squares, with
# its edge length; each crashed a float recovery before the matrix was
# scaled by a power of four
EXTREME = ((F(10**160), 1e80), (F(10**320), 1e160), (F(1, 10**330), 1e-165))


@pytest.mark.parametrize("side_sq, side", EXTREME)
def test_extreme_magnitudes_classify(side_sq, side):
    report = classify(SquaredDistanceMatrix.regular(3, side_sq))
    assert report.apex_report.is_regular
    assert report.families["orthocentric"].beta == (side_sq / 2,) * 4
    expected = {"circumscriptible": side / 2, "isodynamic": side, "tetra_isogonic": side / math.sqrt(3)}
    for family, beta in expected.items():
        vec = report.families[family]
        assert vec is not None, family
        assert vec.residual <= 1e-15
        assert vec.beta == pytest.approx((beta,) * 4, rel=1e-15)


@pytest.mark.parametrize("family, beta, near, want_beta, want_residual", GOLDEN)
def test_power_of_four_scaling_is_exact(family, beta, near, want_beta, want_residual):
    # scaling the matrix by 4**k scales the weights by exactly 2**k and
    # leaves the residual alone, far beyond the range of unscaled squares
    d = matrix_from_beta(family, beta)
    if near:
        rows = [list(row) for row in d.a]
        rows[0][1] = rows[1][0] = rows[0][1] * (1 + F(1, 10**12))
        d = SquaredDistanceMatrix(rows)
    for k in (-300, -170, -1, 1, 170, 300):
        vec = FAMILIES[family](d.scaled(F(4) ** k))
        assert vec.beta == tuple(math.ldexp(b, k) for b in want_beta)
        assert vec.residual == want_residual
