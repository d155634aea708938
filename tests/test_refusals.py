"""Every public refusal raises its exception type with its exact message.

One table per module.  Each row names the refusal, calls it, and gives
the exception type and message it must raise.  The two family
recoveries at the end return None instead of raising: their weights do
not exist, so no family is reported.
"""

import json
import math

import pytest

from simplexkite import (
    BorderedUniform,
    DistanceTuple,
    EmbeddedSimplex,
    ExactMatrix,
    PreKite,
    SquaredDistanceMatrix,
    apex_squared_ratio_window,
    equiareal_prekite_solve,
    equiareal_scan,
    equilateral_vertices,
    facet_circumradii_sq,
    facet_sdm,
    facet_volumes_sq,
    find_apexes,
    is_equiareal,
    is_equiradial,
    is_well_distributed,
    matrix_from_beta,
    on_circumsphere_by_sums,
    parse_scalar,
    pk_facet_cm,
    pompeiu_from_point,
    prekite_equiradial_residual,
    recover_circumscriptible,
    recover_tetra_isogonic,
    relation_residual_from_squares,
    solve_linear,
    solve_missing_distance,
    solve_missing_distance_squares,
    two_apexed,
    two_apexed_feasible,
    uniform_det,
    uniform_matrix,
)
from simplexkite.cli import main
from simplexkite.prekite import circumradius_sq_from_cm_dets

SEGMENT = SquaredDistanceMatrix([[0, 1], [1, 0]])
TRIANGLE = SquaredDistanceMatrix.regular(2)
TETRA = SquaredDistanceMatrix.regular(3)
PREKITE = PreKite(4, 1, (1, 1, 1, 2))
NO_FIELDS = 'expected an object with fields "n" and "a"'


def refusal(name, call, error, message):
    return pytest.param(call, error, message, id=name)


CAYLEY = [
    refusal("from_json JSON text without n", lambda: SquaredDistanceMatrix.from_json('{"a": [[0, 1], [1, 0]]}'),
            ValueError, NO_FIELDS),
    refusal("from_json object without a", lambda: SquaredDistanceMatrix.from_json({"n": 1}), ValueError, NO_FIELDS),
    refusal("from_json malformed JSON text", lambda: SquaredDistanceMatrix.from_json("{not json"),
            json.JSONDecodeError, "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    refusal("permuted non-permutation", lambda: TETRA.permuted([0, 0, 1, 2]), ValueError,
            "not a permutation of the vertices"),
    refusal("facet_sdm segment", lambda: facet_sdm(SEGMENT, 0), ValueError, "facets of a 1-simplex are single points"),
    refusal("facet_volumes_sq segment", lambda: facet_volumes_sq(SEGMENT), ValueError,
            "facets of a 1-simplex are single points"),
    refusal("facet_circumradii_sq segment", lambda: facet_circumradii_sq(SEGMENT), ValueError,
            "facets of a 1-simplex are single points"),
    refusal("regular bool dimension", lambda: SquaredDistanceMatrix.regular(True), ValueError,
            "dimension must be an integer, got True"),
    refusal("regular float dimension", lambda: SquaredDistanceMatrix.regular(2.5), ValueError,
            "dimension must be an integer, got 2.5"),
    refusal("facet_sdm float index", lambda: facet_sdm(TRIANGLE, 1.0), ValueError,
            "vertex index must be an integer, got 1.0"),
    refusal("facet_sdm bool index", lambda: facet_sdm(TRIANGLE, True), ValueError,
            "vertex index must be an integer, got True"),
    refusal("permuted bool indices", lambda: TRIANGLE.permuted([True, False, 2]), ValueError,
            "vertex index must be an integer, got True"),
]

GEOMETRY = [
    refusal("EmbeddedSimplex vertex count", lambda: EmbeddedSimplex([(0.0, 0.0), (1.0, 0.0)], TRIANGLE), ValueError,
            "expected n+1 vertices of dimension n"),
    refusal("EmbeddedSimplex vertex frame", lambda: EmbeddedSimplex([(0.0, 0.0), (1.0, 0.5), (0.5, 0.75)], TRIANGLE),
            ValueError, "vertex i must lie in the first i coordinates"),
    refusal("EmbeddedSimplex round trip", lambda: EmbeddedSimplex([(0.0, 0.0), (1.0, 0.0), (0.5, 0.9)], TRIANGLE),
            ValueError, "coordinates do not reproduce the distance matrix (relative error 6.000e-02 exceeds 1.0e-09)"),
    refusal("EmbeddedSimplex NaN coordinate",
            lambda: EmbeddedSimplex([(0.0, 0.0), (math.nan, 0.0), (0.5, 0.8660254037844386)], TRIANGLE),
            ValueError, "vertex coordinates must be finite"),
    refusal("EmbeddedSimplex infinite coordinate",
            lambda: EmbeddedSimplex([(0.0, 0.0), (1.0, 0.0), (0.5, math.inf)], TRIANGLE),
            ValueError, "vertex coordinates must be finite"),
]

FAMILIES = [
    refusal("matrix_from_beta two weights", lambda: matrix_from_beta("isodynamic", [1, 2]), ValueError,
            "need at least three weights"),
    refusal("find_apexes segment", lambda: find_apexes(SEGMENT), ValueError, "apex enumeration needs n >= 2"),
]

PREKITES = [
    refusal("PreKite.from_json JSON text without v", lambda: PreKite.from_json('{"n": 2, "u": "1"}'), ValueError,
            'expected an object with fields "n", "u", "v"'),
    refusal("PreKite.from_json object without u", lambda: PreKite.from_json({"n": 2, "v": ["1", "1"]}), ValueError,
            'expected an object with fields "n", "u", "v"'),
    refusal("apex_squared_ratio_window n = 1", lambda: apex_squared_ratio_window(1), ValueError,
            "dimension must be at least 2"),
    refusal("two_apexed_feasible u = 0", lambda: two_apexed_feasible(3, 0, 1), ValueError,
            "squared edge parameters must be positive"),
    refusal("two_apexed_feasible v < 0", lambda: two_apexed_feasible(3, 1, -1), ValueError,
            "squared edge parameters must be positive"),
    refusal("prekite_equiradial_residual n = 2", lambda: prekite_equiradial_residual(PreKite(2, 1, (1, 1)), 1),
            ValueError, "residual needs n >= 3"),
    refusal("prekite_equiradial_residual j = 0", lambda: prekite_equiradial_residual(PREKITE, 0), IndexError,
            "apex edge index out of range"),
    refusal("prekite_equiradial_residual j = n + 1", lambda: prekite_equiradial_residual(PREKITE, 5), IndexError,
            "apex edge index out of range"),
    refusal("equiareal_prekite_solve n = 2", lambda: equiareal_prekite_solve(2, 1, 1), ValueError,
            "solver needs n >= 3"),
    refusal("equiareal_prekite_solve t + s != n", lambda: equiareal_prekite_solve(5, 3, 1), ValueError,
            "need t + s = n with t >= s >= 1"),
    refusal("equiareal_prekite_solve s = 0", lambda: equiareal_prekite_solve(4, 4, 0), ValueError,
            "need t + s = n with t >= s >= 1"),
    refusal("PreKite float dimension", lambda: PreKite(3.7, 1, (1, 1, 1)), ValueError,
            "dimension must be an integer, got 3.7"),
    refusal("PreKite bool dimension", lambda: PreKite(True, 1, (1,)), ValueError,
            "dimension must be an integer, got True"),
    refusal("PreKite.from_json text dimension", lambda: PreKite.from_json({"n": "3", "u": "1", "v": ["1", "1", "1"]}),
            ValueError, "dimension must be an integer, got '3'"),
    refusal("apex_squared_ratio_window float dimension", lambda: apex_squared_ratio_window(2.5), ValueError,
            "dimension must be an integer, got 2.5"),
    refusal("two_apexed float dimension", lambda: two_apexed(3.0, 1, 2), ValueError,
            "dimension must be an integer, got 3.0"),
    refusal("two_apexed_feasible float dimension", lambda: two_apexed_feasible(3.0, 1, 2), ValueError,
            "dimension must be an integer, got 3.0"),
    refusal("equiareal_scan float dimension", lambda: equiareal_scan(6.0), ValueError,
            "dimension must be an integer, got 6.0"),
    refusal("equiareal_prekite_solve float split", lambda: equiareal_prekite_solve(6, 4.0, 2.0), ValueError,
            "t must be an integer, got 4.0"),
    refusal("pk_facet_cm float index", lambda: pk_facet_cm(PREKITE, 1.0), ValueError,
            "facet index must be an integer, got 1.0"),
    refusal("prekite_equiradial_residual float index", lambda: prekite_equiradial_residual(PREKITE, 1.0), ValueError,
            "apex edge index must be an integer, got 1.0"),
    refusal("circumradius_sq_from_cm_dets zero determinant", lambda: circumradius_sq_from_cm_dets(0, 1), ValueError,
            "zero Cayley-Menger determinant: a degenerate simplex has no circumradius"),
]

CENTERS = [
    *(refusal(f.__name__ + " segment", lambda f=f: f(SEGMENT), ValueError, "predicate needs n >= 2")
      for f in (is_well_distributed, is_equiareal, is_equiradial)),
]

EXACT = [
    refusal("parse_scalar non-string", lambda: parse_scalar(3), ValueError, "scalar text must be a string, got 3"),
    refusal("solve_linear short right-hand side", lambda: solve_linear(ExactMatrix([[1, 0], [0, 1]]), [1]), ValueError,
            "right-hand side length does not match matrix order"),
    refusal("identity bool order", lambda: ExactMatrix.identity(True), ValueError, "order must be an integer, got True"),
    refusal("identity float order", lambda: ExactMatrix.identity(2.0), ValueError, "order must be an integer, got 2.0"),
    refusal("identity negative order", lambda: ExactMatrix.identity(-2), ValueError, "order must be nonnegative, got -2"),
]

DETERMINANTS = [
    refusal("uniform_matrix order 0", lambda: uniform_matrix(0, 1, 2), ValueError, "order must be at least 1"),
    refusal("uniform_det float order", lambda: uniform_det(2.5, 1, 2), ValueError, "order must be an integer, got 2.5"),
    refusal("uniform_det bool order", lambda: uniform_det(True, 1, 2), ValueError, "order must be an integer, got True"),
    refusal("uniform_matrix text order", lambda: uniform_matrix("3", 1, 2), ValueError,
            "order must be an integer, got '3'"),
    refusal("BorderedUniform float order", lambda: BorderedUniform(1.0, 0, (1,), (1,), 1, 2), ValueError,
            "order parameter must be an integer, got 1.0"),
]

RELATION = [
    refusal("relation_residual_from_squares count", lambda: relation_residual_from_squares(2, [1, 1, 1]), ValueError,
            "expected n+2 squared values (edge first)"),
    refusal("relation_residual_from_squares sign", lambda: relation_residual_from_squares(2, [1, 1, 1, -1]),
            ValueError, "squared values must be nonnegative"),
    refusal("relation_residual_from_squares float sign", lambda: relation_residual_from_squares(2, [1.0, 1, 1, -0.5]),
            ValueError, "squared values must be nonnegative"),
    refusal("solve_missing_distance_squares n = 0", lambda: solve_missing_distance_squares(0, 1, []), ValueError,
            "dimension must be at least 1"),
    refusal("solve_missing_distance_squares count", lambda: solve_missing_distance_squares(2, 1, [1]), ValueError,
            "expected the edge square plus n known vertex squares"),
    refusal("solve_missing_distance_squares sign", lambda: solve_missing_distance_squares(2, 1, [1, -1]), ValueError,
            "squared inputs must be nonnegative (edge positive)"),
    refusal("solve_missing_distance_squares edge 0", lambda: solve_missing_distance_squares(2, 0.0, [1, 1]),
            ValueError, "squared inputs must be nonnegative (edge positive)"),
    refusal("on_circumsphere_by_sums n = 0", lambda: on_circumsphere_by_sums(0, 1, 0), ValueError,
            "dimension must be at least 1"),
    refusal("on_circumsphere_by_sums edge 0", lambda: on_circumsphere_by_sums(2, 0, 2), ValueError,
            "edge length must be positive"),
    refusal("on_circumsphere_by_sums exact negative sum", lambda: on_circumsphere_by_sums(2, 1, -2), ValueError,
            "squared values must be nonnegative"),
    refusal("on_circumsphere_by_sums float negative sum", lambda: on_circumsphere_by_sums(2, 1.0, -2.0), ValueError,
            "squared values must be nonnegative"),
    refusal("on_circumsphere_by_sums float dimension", lambda: on_circumsphere_by_sums(2.0, 1, 2), ValueError,
            "dimension must be an integer, got 2.0"),
    refusal("on_circumsphere_by_sums bool dimension", lambda: on_circumsphere_by_sums(True, 1, 2), ValueError,
            "dimension must be an integer, got True"),
    refusal("solve_missing_distance_squares bool dimension", lambda: solve_missing_distance_squares(True, 1, [1]),
            ValueError, "dimension must be an integer, got True"),
    refusal("relation_residual_from_squares float dimension",
            lambda: relation_residual_from_squares(2.0, [1, 1, 1, 1]), ValueError,
            "dimension must be an integer, got 2.0"),
    refusal("solve_missing_distance float dimension", lambda: solve_missing_distance(2.0, 1, [1, 1]), ValueError,
            "dimension must be an integer, got 2.0"),
    refusal("pompeiu_from_point three coordinates", lambda: pompeiu_from_point(1, (0.0, 0.0, 0.0)), ValueError,
            "expected a planar point"),
    refusal("pompeiu_from_point negative side", lambda: pompeiu_from_point(-1, (0.0, 0.0)), ValueError,
            "side must be positive"),
    refusal("equilateral_vertices side 0", lambda: equilateral_vertices(0), ValueError, "side must be positive"),
    refusal("equilateral_vertices side -1", lambda: equilateral_vertices(-1), ValueError, "side must be positive"),
    refusal("DistanceTuple negative distance", lambda: DistanceTuple(2, 1, (1, -1, 1)), ValueError,
            "distances must be nonnegative"),
    refusal("DistanceTuple float dimension", lambda: DistanceTuple(2.5, 1, (1, 1, 1)), ValueError,
            "dimension must be an integer, got 2.5"),
    refusal("DistanceTuple bool dimension", lambda: DistanceTuple(True, 1, (1, 1)), ValueError,
            "dimension must be an integer, got True"),
]


@pytest.mark.parametrize(
    "call, error, message", CAYLEY + GEOMETRY + FAMILIES + PREKITES + CENTERS + EXACT + DETERMINANTS + RELATION
)
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


CLI = [
    pytest.param(["pompeiu", "--tol", "abc", "1", "0", "1", "1"], "argument --tol: invalid float value: 'abc'",
                 id="--tol abc"),
    pytest.param(["rel", "verify", "--n", "2", "--t0", "1"], "rel verify needs --t", id="rel verify without --t"),
]


@pytest.mark.parametrize("argv, message", CLI)
def test_cli_refusal(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_from_json_reads_json_text():
    assert SquaredDistanceMatrix.from_json(json.dumps(TETRA.to_json())) == TETRA
    assert PreKite.from_json(json.dumps(PREKITE.to_json())) == PREKITE


def test_circumscriptible_weight_not_positive_is_no_member():
    # lengths 1, 4, 1: beta_1 = (1 + 1 - 4) / 2 = -1, so no positive weights exist
    assert recover_circumscriptible(SquaredDistanceMatrix([[0, 1, 16], [1, 0, 1], [16, 1, 0]])) is None


def test_tetra_isogonic_negative_discriminant_is_no_member():
    # squared edges 11, 1, 1: the candidate quadratic in s**2 has discriminant -2079
    assert recover_tetra_isogonic(SquaredDistanceMatrix([[0, 11, 1], [11, 0, 1], [1, 1, 0]])) is None
