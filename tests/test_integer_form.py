"""The cleared integer form c*D that a matrix keeps from construction.

Every per-entry exact step of `classify` and `coincidence_report` reads
the integers.  The Fraction versions below are the oracles: the vertex
sums, the orthocentric recovery and the float scaling as they were
computed entry by entry on rationals.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simplexkite import (
    Realizability,
    SquaredDistanceMatrix,
    classify,
    coincidence_report,
    embed,
    find_apexes,
    gram_matrix,
    is_realizable,
    is_well_distributed,
)
from simplexkite.families import BetaVector, _floats, matrix_from_beta, recover_orthocentric
from conftest import count_kernel_calls, random_point_sdm, random_realizable_prekite
from test_prekite import apex_census

RANGE_ERROR = "squared distances leave the float range; the exact results (classify --exact) do not need floats"
TINY = Fraction(sys.float_info.min)
HUGE = Fraction(sys.float_info.max)
STEP = Fraction(1, 2**80)  # far below a float's resolution, so only an exact test sees it


def vertex_square_sums(d):
    """Sum of squared edge lengths meeting each vertex, on the rationals."""
    return [sum(d.a[j][i] for i in range(d.n + 1) if i != j) for j in range(d.n + 1)]


def orthocentric_oracle(d):
    """beta_i = (x_ij + x_ik - x_jk) / 2 on the rationals, every pair checked."""
    x, size = d.a, d.n + 1
    others = [[m for m in range(size) if m != i][:2] for i in range(size)]
    beta = [(x[i][j] + x[i][k] - x[j][k]) / 2 for i, (j, k) in enumerate(others)]
    if any(x[i][j] != beta[i] + beta[j] for i in range(size) for j in range(i + 1, size)):
        return None
    return BetaVector(family="orthocentric", beta=tuple(beta), residual=Fraction(0))


def floats_oracle(d):
    """The matrix over 4**k as floats, k from the largest entry's bit lengths."""
    top = max(max(row[i + 1:]) for i, row in enumerate(d.a[:-1]))
    k = (top.numerator.bit_length() - top.denominator.bit_length()) // 2
    up, down = max(-2 * k, 0), max(2 * k, 0)
    return [[(x.numerator << up) / (x.denominator << down) for x in row] for row in d.a], k


def _symmetric(size, values):
    rows = [[Fraction(0)] * size for _ in range(size)]
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    for (i, j), v in zip(pairs, values):
        rows[i][j] = rows[j][i] = v
    return SquaredDistanceMatrix(rows)


def _circulant(values):
    """Entry (i, j) depends only on the cyclic distance of i and j, so every
    row has the same sum: well distributed whenever it is Euclidean."""
    size = len(values)
    return SquaredDistanceMatrix(
        [[0 if i == j else values[min((i - j) % size, (j - i) % size)] for j in range(size)] for i in range(size)]
    )


_DENOMINATORS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 12])
_RATIONAL = st.builds(Fraction, st.integers(1, 60), _DENOMINATORS)


def _matrices(entries):
    return st.integers(2, 8).flatmap(
        lambda size: st.lists(entries, min_size=size * (size - 1) // 2, max_size=size * (size - 1) // 2).map(
            lambda xs: _symmetric(size, xs)
        )
    )


def _points(dim, count):
    return st.lists(
        st.tuples(*[st.builds(Fraction, st.integers(-12, 12), _DENOMINATORS)] * dim),
        min_size=count, max_size=count, unique=True,
    ).map(lambda pts: SquaredDistanceMatrix(
        [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in pts] for p in pts]))


_CLOUD = st.integers(1, 6).flatmap(lambda n: _points(n, n + 1))
_ANY = st.one_of(
    _matrices(_RATIONAL),
    _CLOUD,
    st.lists(st.builds(Fraction, st.integers(20, 40), _DENOMINATORS), min_size=3, max_size=9).map(_circulant),
)


@settings(max_examples=200, deadline=None)
@given(_ANY)
def test_well_distributed_matches_rational_vertex_sums(d):
    assume(d.n >= 2)
    if is_realizable(d).status is Realizability.NON_EUCLIDEAN:
        return  # refused by the predicate
    sums = vertex_square_sums(d)
    assert is_well_distributed(d) == all(s == sums[0] for s in sums)


def test_well_distributed_cases_occur():
    # the property above sees both verdicts
    assert is_well_distributed(_circulant([Fraction(7, 3), Fraction(5, 2), Fraction(9, 4)]))
    assert not is_well_distributed(SquaredDistanceMatrix([[0, 1, 1], [1, 0, 2], [1, 2, 0]]))


def _orthocentric_member(betas):
    if min(betas) < 0 and sum(sorted(betas)[:2]) <= 0:
        betas = [abs(b) for b in betas]
    return matrix_from_beta("orthocentric", betas)


_BETAS = st.lists(st.builds(Fraction, st.integers(-30, 60), _DENOMINATORS).filter(bool), min_size=3, max_size=10)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_ANY, _BETAS.map(_orthocentric_member)), st.data())
def test_orthocentric_recovery_matches_rational_oracle(d, data):
    assume(d.n >= 2)
    assert recover_orthocentric(d) == orthocentric_oracle(d)
    # a member nudged at one pair is refused by both
    i, j = sorted(data.draw(st.lists(st.integers(0, d.n), min_size=2, max_size=2, unique=True)))
    rows = [list(row) for row in d.a]
    rows[i][j] = rows[j][i] = rows[i][j] + Fraction(1, data.draw(_DENOMINATORS) * 1000)
    nudged = SquaredDistanceMatrix(rows)
    assert recover_orthocentric(nudged) == orthocentric_oracle(nudged)


def test_orthocentric_members_are_recovered():
    d = matrix_from_beta("orthocentric", [Fraction(-1, 3), 1, Fraction(5, 2), Fraction(7, 6)])
    vec = recover_orthocentric(d)
    assert vec is not None and vec == orthocentric_oracle(d)
    assert vec.beta == (Fraction(-1, 3), 1, Fraction(5, 2), Fraction(7, 6))


def _bits(x):
    return [[v.hex() for v in row] for row in x]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 8).flatmap(lambda size: st.lists(
        st.tuples(st.integers(1, 2**70), st.integers(1, 2**70), st.integers(-40, 40)),
        min_size=size * (size - 1) // 2, max_size=size * (size - 1) // 2,
    ).map(lambda xs, size=size: (size, xs))),
    st.integers(-1000, 1000),
)
def test_floats_match_rational_oracle_at_extreme_magnitudes(shape, exponent):
    size, raw = shape
    d = _symmetric(size, [Fraction(p, q) * Fraction(2) ** (exponent + e) for p, q, e in raw])
    x, k = _floats(d)
    want, want_k = floats_oracle(d)
    assert k == want_k
    assert _bits(x) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    _matrices(st.sampled_from([Fraction(1), Fraction(2, 2), Fraction(3, 2), Fraction(1, 3), Fraction(4, 12)])),
    _CLOUD.filter(lambda d: d.n >= 2),
))
def test_apexes_match_census(d):
    assume(d.n >= 2)
    report = find_apexes(d)
    assert (report.apexes, report.is_kite, report.is_regular) == apex_census(d)


def test_apex_census_on_prekites():
    rng = random.Random(81)
    for n in range(2, 9):
        d = random_realizable_prekite(rng, n).to_sdm().scaled(Fraction(5, 7))
        report = find_apexes(d)
        assert report.apexes and (report.apexes, report.is_kite, report.is_regular) == apex_census(d)


def _spread_cloud(noise):
    """Vertex 0 at the origin, vertex 1 at 24 e_1 and the rest near 12 e_1, so
    that the squared edge 0-1 is the largest by a factor of at least 1.4."""
    n = len(noise) + 1
    pts = [(0,) * n, (24,) + (0,) * (n - 1)]
    pts += [(12 + row[0],) + row[1:] for row in noise]
    return SquaredDistanceMatrix([[sum((a - b) ** 2 for a, b in zip(p, q)) for q in pts] for p in pts])


_SPREAD = st.integers(0, 4).flatmap(lambda m: st.lists(
    st.tuples(*[st.integers(-5, 5)] * (m + 1)), min_size=m, max_size=m, unique=True,
)).map(_spread_cloud)


def _extremes(d):
    values = [x for _, _, x in d.edges()]
    return min(values), max(values)


def _bumped(d, target, factor):
    """d with every entry equal to `target` multiplied by `factor`."""
    return SquaredDistanceMatrix([[x * factor if x == target else x for x in row] for row in d.a])


@settings(max_examples=100, deadline=None)
@given(_SPREAD)
def test_embed_accepts_the_float_range_exactly(d):
    assume(is_realizable(d).status is Realizability.NONDEGENERATE)
    lo, hi = _extremes(d)
    at_min = d.scaled(TINY / lo)
    assert _extremes(at_min)[0] == TINY
    assert embed(at_min).max_rel_error <= 1e-9
    at_max = d.scaled(HUGE / hi)
    assert _extremes(at_max)[1] == HUGE
    assert embed(at_max).max_rel_error <= 1e-9


@settings(max_examples=100, deadline=None)
@given(_SPREAD)
def test_embed_refuses_one_rational_step_outside(d):
    assume(is_realizable(d).status is Realizability.NONDEGENERATE)
    lo, hi = _extremes(d)
    at_min = d.scaled(TINY / lo)
    at_max = d.scaled(HUGE / hi)
    cases = [
        at_min.scaled(1 - STEP),  # every entry moves, the largest stays inside
        _bumped(at_min, TINY, 1 - STEP),  # only the smallest entry is outside
        at_max.scaled(1 + STEP),
        _bumped(at_max, HUGE, 1 + STEP),  # only the largest entry is outside
    ]
    for bad in cases:
        assume(is_realizable(bad).status is Realizability.NONDEGENERATE)
        with pytest.raises(ValueError) as exc:
            embed(bad)
        assert str(exc.value) == RANGE_ERROR


def test_embed_with_both_ends_of_the_float_range():
    # a thin isosceles triangle spanning the whole range is accepted,
    # and a step past either end alone is refused
    d = SquaredDistanceMatrix([[0, HUGE, HUGE], [HUGE, 0, TINY], [HUGE, TINY, 0]])
    assert embed(d).max_rel_error <= 1e-9
    for lo, hi in ((TINY * (1 - STEP), HUGE), (TINY, HUGE * (1 + STEP))):
        with pytest.raises(ValueError, match="leave the float range"):
            embed(SquaredDistanceMatrix([[0, hi, hi], [hi, 0, lo], [hi, lo, 0]]))


def test_range_check_follows_the_verdict():
    # a flat matrix outside the float range reports its verdict first
    flat = SquaredDistanceMatrix([[0, 1, 4], [1, 0, 1], [4, 1, 0]]).scaled(Fraction(10) ** 400)
    with pytest.raises(ValueError, match="degenerate"):
        embed(flat)


def _report_cases():
    rng = random.Random(82)
    cases = [random_point_sdm(rng, n) for n in range(2, 10)]
    cases += [random_realizable_prekite(rng, n).to_sdm() for n in range(3, 8)]
    cases.append(matrix_from_beta("orthocentric", [1, 2, Fraction(3, 2), Fraction(5, 3)]))
    cases.append(matrix_from_beta("isodynamic", [1, 2, 3, 4]))
    cases.append(SquaredDistanceMatrix.regular(5, Fraction(2, 3)))
    return cases


def test_matrix_cleared_once_at_construction(monkeypatch):
    calls = count_kernel_calls(monkeypatch, "_cleared")
    for d in _report_cases():
        calls.clear()
        fresh = SquaredDistanceMatrix(d.a)
        assert len(calls) == 1
        classify(fresh)
        coincidence_report(fresh, with_floats=True)
        gram_matrix(fresh)
        assert len(calls) == 1
