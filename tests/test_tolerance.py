"""Every library tolerance must be finite and > 0; any other value is
refused with ValueError before any work, instead of spinning to an
iteration cap or silently turning every comparison false."""

import math
import time

import pytest

from simplexkite import (
    DistanceTuple,
    EmbeddedSimplex,
    SquaredDistanceMatrix,
    center_set,
    classify,
    embed,
    fermat_torricelli,
    on_circumsphere_by_sums,
    pompeiu_classify,
    pompeiu_from_point,
    recover_circumscriptible,
    recover_isodynamic,
    recover_tetra_isogonic,
)
from simplexkite.relation import pompeiu_verdict, relation_holds, residual_within_tol

BAD = [math.nan, 0.0, -1.0, math.inf, -math.inf, 0]
REGULAR = SquaredDistanceMatrix.regular(3)
TRIANGLE = SquaredDistanceMatrix([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
DT = DistanceTuple(2, 1.0, (0.0, 1.0, 1.0))

CALLS = {
    "fermat_torricelli": lambda tol: fermat_torricelli(embed(REGULAR), tol=tol),
    "center_set": lambda tol: center_set(embed(REGULAR), ft_tol=tol),
    "classify": lambda tol: classify(REGULAR, tol=tol),
    "recover_circumscriptible": lambda tol: recover_circumscriptible(REGULAR, tol=tol),
    "recover_isodynamic": lambda tol: recover_isodynamic(REGULAR, tol=tol),
    "recover_tetra_isogonic": lambda tol: recover_tetra_isogonic(REGULAR, tol=tol),
    "embed": lambda tol: embed(REGULAR, tol=tol),
    "EmbeddedSimplex": lambda tol: EmbeddedSimplex([[0, 0], [1, 0], [0, 1]], TRIANGLE, tol=tol),
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
