"""A tolerance is an argument only where float input arrives from
outside: the distance relation and the Pompeiu classifier.  There every
tolerance must be finite and > 0; any other value is refused with
ValueError before any work, instead of silently turning every comparison
false.  A function of an exact matrix (the embedding, the family
recoveries, `classify`, the Fermat-Torricelli point and `center_set`)
holds to its module's fixed constant and takes no tolerance at all."""

import math
import time
from fractions import Fraction

import pytest

from simplexkite import (
    DistanceTuple,
    EmbeddedSimplex,
    SquaredDistanceMatrix,
    center_set,
    classify,
    PreKite,
    embed,
    fermat_torricelli,
    matrix_from_beta,
    on_circumsphere_by_sums,
    pompeiu_classify,
    pompeiu_from_point,
    recover_circumscriptible,
    recover_isodynamic,
    recover_orthocentric,
    recover_tetra_isogonic,
    sum_distances,
)
from simplexkite.families import TOL_FAMILY
from simplexkite.geometry import FT_GRADIENT_TOL, TOL_EMBED, _pull
from simplexkite.relation import pompeiu_verdict, relation_holds, residual_within_tol

BAD = [math.nan, 0.0, -1.0, math.inf, -math.inf, 0]
REGULAR = SquaredDistanceMatrix.regular(3)
TRIANGLE = SquaredDistanceMatrix([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
DT = DistanceTuple(2, 1.0, (0.0, 1.0, 1.0))

CALLS = {
    "pompeiu_classify": lambda tol: pompeiu_classify(1.0, 0.5, 0.5, 0.5, tol=tol),
    "pompeiu_from_point": lambda tol: pompeiu_from_point(1.0, (0.1, 0.2), tol=tol),
    "pompeiu_verdict": lambda tol: pompeiu_verdict(0.0, 0.5, tol=tol),
    "relation_holds": lambda tol: relation_holds(DT, tol=tol),
    "residual_within_tol": lambda tol: residual_within_tol(0.0, tol=tol),
    "on_circumsphere_by_sums": lambda tol: on_circumsphere_by_sums(2, 1.0, 2.0, tol=tol),
}


@pytest.mark.parametrize("tol", BAD, ids=repr)
@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_tolerance_that_is_not_finite_and_positive_is_refused(name, tol):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="must be finite and positive"):
        CALLS[name](tol)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_finite_positive_tolerance_is_taken(name):
    CALLS[name](1e-6)


# each holds to a fixed constant (TOL_EMBED, TOL_FAMILY or FT_GRADIENT_TOL) on exact input
EXACT_INPUT = {
    "embed": lambda: embed(TRIANGLE, tol=1e-6),
    "EmbeddedSimplex": lambda: EmbeddedSimplex([[0, 0], [1, 0], [0, 1]], TRIANGLE, tol=1e-6),
    "classify": lambda: classify(REGULAR, tol=1e-6),
    "recover_circumscriptible": lambda: recover_circumscriptible(REGULAR, tol=1e-6),
    "recover_isodynamic": lambda: recover_isodynamic(REGULAR, tol=1e-6),
    "recover_tetra_isogonic": lambda: recover_tetra_isogonic(REGULAR, tol=1e-6),
    "fermat_torricelli": lambda: fermat_torricelli(embed(REGULAR), tol=1e-6),
    "center_set": lambda: center_set(embed(REGULAR), ft_tol=1e-6),
}


@pytest.mark.parametrize("name", list(EXACT_INPUT))
def test_the_embedding_takes_no_tolerance(name):
    # a tolerance argument is an error, not ignored
    with pytest.raises(TypeError, match="tol"):
        EXACT_INPUT[name]()


@pytest.mark.parametrize("delta, taken", [(0.45e-9, True), (0.55e-9, False)])
def test_the_round_trip_is_held_to_tol_embed(delta, taken):
    # vertex 1 moved to (1 + delta, 0) puts squared side 01 at (1 + delta)**2, a relative error of
    # about 2 delta, just under TOL_EMBED = 1e-9 for the first case and just over it for the second
    assert TOL_EMBED == 1e-9
    vertices = [[0, 0], [1 + delta, 0], [0, 1]]
    if taken:
        assert EmbeddedSimplex(vertices, TRIANGLE).max_rel_error == pytest.approx(2 * delta, rel=1e-6)
    else:
        with pytest.raises(ValueError, match=r"relative error 1\.100e-09 exceeds 1\.0e-09"):
            EmbeddedSimplex(vertices, TRIANGLE)


# each float recovery with the power p it reads a squared edge at: the circumscriptible one
# verifies edge lengths, the other two squared edges
FLOAT_RECOVERIES = {
    "circumscriptible": (recover_circumscriptible, 2),
    "isodynamic": (recover_isodynamic, 1),
    "tetra_isogonic": (recover_tetra_isogonic, 1),
}
# one fixed relative bound serves a matrix of any size and magnitude
SIZES = [(3, 1), (4, Fraction(1, 10**250)), (6, 10**250), (8, 1)]
SIZE_IDS = ["3-unit", "4-tiny", "6-huge", "8-unit"]


def _one_edge_off(n, scale, factor) -> SquaredDistanceMatrix:
    """The regular n-simplex of squared edge `scale` with squared edge (2, 3)
    times `factor`; no recovery reads a candidate weight off that edge."""
    rows = [list(row) for row in SquaredDistanceMatrix.regular(n, scale).a]
    rows[2][3] = rows[3][2] = scale * factor
    return SquaredDistanceMatrix(rows)


@pytest.mark.parametrize("delta, taken", [(Fraction(9, 10**10), True), (Fraction(11, 10**10), False)],
                         ids=["under", "over"])
@pytest.mark.parametrize("n, scale", SIZES, ids=SIZE_IDS)
@pytest.mark.parametrize("family", sorted(FLOAT_RECOVERIES))
def test_a_float_recovery_is_held_to_tol_family(family, n, scale, delta, taken):
    # the (2, 3) pair defect, relative to the largest entry, is delta / (1 + delta):
    # just under TOL_FAMILY = 1e-9 for the first delta and just over it for the second
    assert TOL_FAMILY == 1e-9
    recover, power = FLOAT_RECOVERIES[family]
    vec = recover(_one_edge_off(n, scale, (1 + delta) ** power))
    if not taken:
        assert vec is None
        return
    assert vec.residual == pytest.approx(float(delta / (1 + delta)), rel=1e-6)
    weight = {"circumscriptible": 1 / 2, "isodynamic": 1.0, "tetra_isogonic": 1 / math.sqrt(3)}[family]
    assert vec.beta == pytest.approx((weight * math.sqrt(scale),) * (n + 1), rel=1e-15)


@pytest.mark.parametrize("n, scale", SIZES, ids=SIZE_IDS)
def test_the_orthocentric_recovery_is_exact(n, scale):
    # it compares cleared integers, so no defect is small enough to pass
    assert recover_orthocentric(_one_edge_off(n, scale, 1)).beta == (Fraction(scale, 2),) * (n + 1)
    assert recover_orthocentric(_one_edge_off(n, scale, 1 + Fraction(1, 10**30))) is None


# exact simplices with an interior Fermat-Torricelli point, and one whose point is vertex 0
# (the angle there is about 138.6 degrees)
FERMAT_SHAPES = {
    "scalene triangle": SquaredDistanceMatrix([[0, 4, 9], [4, 0, 7], [9, 7, 0]]),
    "kite": PreKite(3, 3, (7, 7, 7)).to_sdm(),
    "two-apexed pre-kite": PreKite(3, 1, (1, 1, 2)).to_sdm(),
    "orthocentric 5-simplex": matrix_from_beta("orthocentric", (1, 2, 3, 4, 5, 6)),
    "obtuse triangle": SquaredDistanceMatrix([[0, 1, 1], [1, 0, Fraction(7, 2)], [1, Fraction(7, 2), 0]]),
}


@pytest.mark.parametrize("scale, length", [(Fraction(1, 10**200), 1e-100), (1, 1.0), (10**200, 1e100)],
                         ids=["tiny", "unit", "huge"])
@pytest.mark.parametrize("shape", list(FERMAT_SHAPES))
def test_the_fermat_point_is_held_to_ft_gradient_tol(shape, scale, length):
    # the gradient is a sum of unit vectors, so the one fixed bound means the same at every scale
    assert FT_GRADIENT_TOL == 1e-10
    d = FERMAT_SHAPES[shape]
    s = embed(d.scaled(scale))
    f = fermat_torricelli(s)
    assert center_set(s).fermat == f
    if shape == "obtuse triangle":
        assert f == s.vertices[0]
        return
    pts = s.vertices
    assert math.hypot(*_pull(f, zip(*pts), [math.dist(p, f) for p in pts])) <= FT_GRADIENT_TOL
    unit = embed(d)
    assert sum_distances(s, f) == pytest.approx(length * sum_distances(unit, fermat_torricelli(unit)), rel=1e-12)
