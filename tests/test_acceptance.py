"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; every test is deterministic (fixed seeds).
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from simplexkite import (
    BorderedUniform,
    PreKite,
    Realizability,
    SquaredDistanceMatrix,
    bordered_uniform_det,
    circumradius_sq,
    cm_det,
    embed,
    exact_determinant,
    facet_sdm,
    find_apexes,
    inner_cm_det,
    is_equiradial,
    is_realizable,
    is_well_distributed,
    matrix_from_beta,
    pk_cm_det,
    pk_facet_cm,
    pk_facet_inner_cm,
    pk_inner_cm_det,
    recover_circumscriptible,
    recover_isodynamic,
    recover_orthocentric,
    recover_tetra_isogonic,
    relation_residual_from_squares,
    two_apexed,
    uniform_det,
    uniform_matrix,
)
from simplexkite.cli import main as cli_main
from conftest import random_realizable_prekite


def _report(number, message):
    print("criterion %2d: PASS  %s" % (number, message))


def test_criterion_01_closed_form_determinants():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(500):
        n = rng.randint(1, 6)
        mk = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        a, b = mk(), mk()
        assert uniform_det(n, a, b) == exact_determinant(uniform_matrix(n, a, b))
        spec = BorderedUniform(
            n, mk(), [mk() for _ in range(n)], [mk() for _ in range(n)], mk(), mk()
        )
        assert bordered_uniform_det(spec) == exact_determinant(spec.matrix())
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, "500 random specs, zero error, %.2fs" % elapsed)


def test_criterion_02_prekite_formula_equivalence():
    rng = random.Random(202)
    for _ in range(500):
        n = rng.randint(2, 6)
        u = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        v = [u * Fraction(rng.randint(1, 12), 4) for _ in range(n)]
        pk = PreKite(n, u, v)
        d = pk.to_sdm()
        assert pk_cm_det(pk) == cm_det(d)
        assert pk_inner_cm_det(pk) == inner_cm_det(d)
        for j in range(n + 1):
            facet = facet_sdm(d, j)
            assert pk_facet_cm(pk, j) == cm_det(facet)
            assert pk_facet_inner_cm(pk, j) == inner_cm_det(facet)
    _report(2, "500 random pre-kites match the generic evaluations exactly")


def test_criterion_03_regular_simplex_constants():
    for n in range(2, 9):
        d = SquaredDistanceMatrix.regular(n)
        assert circumradius_sq(d) == Fraction(n, 2 * (n + 1))
        vertices = np.asarray(embed(d).vertices)
        g = vertices[1:].mean(axis=0)
        dist_sq = float(((vertices[0] - g) ** 2).sum())
        expected = (n + 1) / (2 * n)
        assert abs(dist_sq - expected) <= 1e-9 * expected
    _report(3, "circumradius and apex-to-base-centroid constants, n = 2..8")


def test_criterion_04_distance_relation_on_hull_points():
    rng = np.random.default_rng(404)
    for n in range(2, 7):
        s = embed(SquaredDistanceMatrix.regular(n))
        weights = rng.uniform(-1.5, 2.5, size=(1000, n + 1))
        weights /= weights.sum(axis=1, keepdims=True)
        points = weights @ s.vertices
        for p in points:
            dists = np.linalg.norm(s.vertices - p, axis=1)
            squares = [1.0] + [float(t * t) for t in dists]
            residual = relation_residual_from_squares(n, squares)
            scale = max(1.0, float(dists.max())) ** 4
            assert abs(residual) <= 1e-9 * scale
    _report(4, "1000 affine-hull points per n = 2..6, residual <= 1e-9 relative")


def test_criterion_05_feasibility_window_boundary_and_signs():
    for n in range(2, 9):
        boundary = Fraction(2 * n, n - 1)
        assert pk_cm_det(two_apexed(n, 1, boundary)) == 0
        inside = boundary * Fraction(6, 7)
        outside = boundary * Fraction(8, 7)
        sign = Fraction(-1) ** (n + 1)
        assert pk_cm_det(two_apexed(n, 1, inside)) * sign > 0
        assert pk_cm_det(two_apexed(n, 1, outside)) * sign < 0
        assert is_realizable(two_apexed(n, 1, inside).to_sdm()).status is Realizability.NONDEGENERATE
    _report(5, "window boundary exact at 2n/(n-1) and sign-correct, n = 2..8")


def test_criterion_06_pompeiu_inequalities_and_equality_cases():
    from simplexkite import equilateral_vertices

    rng = np.random.default_rng(606)
    buffer_band = 0
    for side in (1.0, 2.5, 1.0 / 3.0):
        verts = equilateral_vertices(side)
        circ = side / math.sqrt(3.0)
        pts = list(rng.uniform(-2.0 * side, 2.0 * side, size=(1000, 2)))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=40)
        pts += [circ * np.array([math.cos(t), math.sin(t)]) for t in angles]
        for p in pts:
            x, y, z = (float(np.linalg.norm(p - v)) for v in verts)
            scale = max(x, y, z, side)
            slack = min(y + z - x, z + x - y, x + y - z)
            assert slack >= -1e-12 * scale  # the inequalities hold non-strictly
            delta = abs(math.hypot(*p) - circ)
            if delta <= 1e-8 * side:
                assert slack <= 1e-10 * scale
            elif delta >= 1e-4 * side:
                assert slack > 1e-10 * scale
            else:
                buffer_band += 1
    assert buffer_band == 0  # no sampled point fell in the undecidable band
    _report(6, "3 x 1040 planar points: triangle inequalities, equality iff on circle")


def test_criterion_07_coincidence_theorems_on_random_prekites():
    rng = random.Random(707)
    wd_hits = eq_hits = 0
    for _ in range(1000):
        n = rng.randint(2, 6)
        d = random_realizable_prekite(rng, n).to_sdm()
        if is_well_distributed(d):
            wd_hits += 1
            assert d.is_regular()
        if is_equiradial(d):
            eq_hits += 1
            assert d.is_regular()
    _report(
        7,
        "1000 realizable pre-kites, zero counterexamples "
        "(well-distributed hits: %d, equiradial hits: %d)" % (wd_hits, eq_hits),
    )


def test_criterion_08_equiareal_scan_verdicts(capsys):
    def scan(n):
        code = cli_main(["equiareal-scan", str(n)])
        out = capsys.readouterr().out
        assert code == 0
        return json.loads(out)

    at6 = scan(6)
    assert at6["any_nonregular_equiareal"] and at6["claim_agrees"]
    row = next(r for r in at6["rows"] if (r["t"], r["s"]) == (5, 1))
    assert row["x"] == "1" and row["y"] == "3/2"
    assert row["realizable"] and row["equiareal_verified"] and not row["regular"]

    at5 = scan(5)
    row = next(r for r in at5["rows"] if (r["t"], r["s"]) == (3, 2))
    assert row["status"] == "degenerate" and not row["realizable"]

    for n in (4, 5):
        res = scan(n)
        s1 = next(r for r in res["rows"] if r["s"] == 1)
        # what the exact facet-volume oracle certifies, reported as-is
        assert s1["realizable"] and s1["equiareal_verified"] and not s1["regular"]
        assert not res["claim_agrees"]
        assert res["notes"], "disagreement must surface as a note, not a failure"

    at3 = scan(3)
    assert not at3["any_nonregular_equiareal"] and at3["claim_agrees"]
    with capsys.disabled():
        _report(8, "scan verdicts at n = 6, (5,3,2), and oracle-reported n = 4, 5")


def test_criterion_09_family_round_trips():
    recoveries = {
        "orthocentric": recover_orthocentric,
        "circumscriptible": recover_circumscriptible,
        "isodynamic": recover_isodynamic,
        "tetra_isogonic": recover_tetra_isogonic,
    }
    rng = random.Random(909)
    for family, recover in sorted(recoveries.items()):
        done = 0
        while done < 200:
            count = rng.randint(4, 7)
            if done % 5 < 2:
                apex = Fraction(rng.randint(2, 9), 4)
                tail = Fraction(rng.randint(2, 9), 4)
                beta = (apex,) + (tail,) * (count - 1)
            else:
                beta = tuple(Fraction(rng.randint(2, 9), 4) for _ in range(count))
            d = matrix_from_beta(family, beta)
            if is_realizable(d).status is not Realizability.NONDEGENERATE:
                continue
            vec = recover(d)
            assert vec is not None
            if family == "orthocentric":
                assert vec.residual == 0
                assert vec.beta == beta
            else:
                assert vec.residual <= 1e-9
                for got, want in zip(vec.beta, beta):
                    assert abs(float(got) - float(want)) <= 1e-9 * max(1.0, float(want))
            report = find_apexes(d)
            if report.apexes and d.n >= 3:
                assert report.is_kite
            done += 1
    _report(9, "4 x 200 weight profiles recovered; member pre-kites are kites")


def test_criterion_10_cli_determinism(tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(PreKite(3, 1, (1, 1, 2)).to_sdm().to_json()))
    invocations = [
        ["classify", str(matrix)],
        ["equiareal-scan", "6"],
        ["prekite-eval", "4", "1", "1", "1", "1", "2"],
        ["rel", "solve", "--n", "2", "--t0", "1", "--known", "0,1"],
        ["centers", str(matrix)],
    ]
    for argv in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "simplexkite"] + argv, capture_output=True
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode
    _report(10, "%d invocations byte-identical across two runs" % len(invocations))
