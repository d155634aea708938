"""The benchmark's own exact arithmetic and the output checks built on it.

Nothing here imports simplexkite: generation and checking must not
depend on the code under test.  Determinants clear denominators row by
row and then run integer Bareiss elimination with exact `//` division.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def _integer_rows(rows):
    """Scale each row to integers; return the rows and the product of the scales."""
    out, scale = [], 1
    for row in rows:
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        out.append([int(x * lcm) for x in row])
        scale *= lcm
    return out, scale


def determinant(rows) -> Fraction:
    """Exact determinant of a square matrix of ints or Fractions (integer Bareiss)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    a, scale = _integer_rows(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i, aik = a[i], a[i][k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], scale)


def is_positive_definite(rows) -> bool:
    """Whether a symmetric rational matrix is positive definite.

    Bareiss without pivoting leaves the k-th leading principal minor as
    the k-th pivot; scaling by a positive common denominator keeps the
    signs, so Sylvester's criterion reads off directly.
    """
    n = len(rows)
    lcm = 1
    for row in rows:
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    a = [[int(x * lcm) for x in row] for row in rows]
    prev = 1
    for k in range(n):
        if a[k][k] <= 0:
            return False
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return True


def solve(rows, rhs) -> list[Fraction]:
    """Exact solution of a nonsingular rational system (Gauss-Jordan)."""
    n = len(rows)
    a = [list(row) + [b] for row, b in zip(rows, rhs)]
    for k in range(n):
        piv = next(r for r in range(k, n) if a[r][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for r in range(n):
            if r != k and a[r][k] != 0:
                f = a[r][k]
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return [a[i][n] for i in range(n)]


def edge_vectors(points):
    return [[x - y for x, y in zip(p, points[0])] for p in points[1:]]


def volume_sq_from_points(points, scale=1) -> Fraction:
    """(det E / n!)**2 for the n x n matrix E of edge vectors out of point 0,
    with every coordinate divided by `scale`."""
    n = len(points) - 1
    return (determinant(edge_vectors(points)) / scale**n) ** 2 / math.factorial(n) ** 2


def circumradius_sq_from_points(points, scale=1) -> Fraction:
    """Squared circumradius from the equidistance system 2 E c = |e_i|**2."""
    e = [[Fraction(x, scale) for x in row] for row in edge_vectors(points)]
    c = solve([[2 * x for x in row] for row in e], [sum(x * x for x in row) for row in e])
    return sum(x * x for x in c)


def gram(a) -> list[list[Fraction]]:
    """Gram matrix of edge vectors out of vertex 0, from squared distances."""
    m = len(a)
    return [[(a[0][i] + a[0][j] - a[i][j]) / 2 for j in range(1, m)] for i in range(1, m)]


def facet_volume_sqs(a) -> list[Fraction]:
    """Squared volume of each facet, from the facet's own Gram determinant."""
    m = len(a)
    k = m - 2
    out = []
    for j in range(m):
        keep = [i for i in range(m) if i != j]
        sub = [[a[p][q] for q in keep] for p in keep]
        out.append(determinant(gram(sub)) / math.factorial(k) ** 2)
    return out


# --- per-workload output checks; each returns a list of problems -------------


def check_volume(item, out) -> list[str]:
    problems = []
    points, scale = item["points"], item["scale"]
    n = len(points) - 1
    if Fraction(out["volume_sq"]) != volume_sq_from_points(points, scale):
        problems.append("volume_sq differs from the coordinate determinant")
    if out["gram_inertia"] != [n, 0, 0] or out["status"] != "nondegenerate":
        problems.append("verdict %s %s, expected nondegenerate (%d, 0, 0)"
                        % (out["status"], out["gram_inertia"], n))
    if n <= 10 and Fraction(out["circumradius_sq"]) != circumradius_sq_from_points(points, scale):
        problems.append("circumradius_sq differs from the coordinate solve")
    return problems


def check_report(item, out, embed_error) -> list[str]:
    problems = []
    cls, coin = out["classification"], out["coincidence"]
    if cls["realizable"] != "nondegenerate":
        problems.append("classified as %s" % cls["realizable"])
    if item["kind"] == "family" and not cls["families"][item["family"]]["member"]:
        problems.append("%s member not recognised" % item["family"])
    if item["kind"] == "prekite" and not (coin["equiareal"] is coin["ig_coincide"] is True):
        problems.append("equiareal pre-kite not reported equiareal with I = G")
    if item["kind"] == "generic":
        a = item["a"]
        sums = [sum(row) for row in a]
        vols = facet_volume_sqs(a)
        if coin["well_distributed"] != (len(set(sums)) == 1):
            problems.append("well_distributed disagrees with the vertex sums")
        if coin["equiareal"] != (len(set(vols)) == 1):
            problems.append("equiareal disagrees with the facet Gram determinants")
    if not all(math.isfinite(v) for v in coin["center_distances"].values()):
        problems.append("non-finite center distance")
    if not embed_error <= 1e-9:
        problems.append("embed max_rel_error %.3e exceeds 1e-9" % embed_error)
    return problems


def check_cli(code, stdout: bytes, in_process: str) -> list[str]:
    problems = []
    if code != 0:
        problems.append("exit code %d, expected 0" % code)
    text = stdout.decode("utf-8", "replace")
    try:
        json.loads(text)
    except ValueError:
        problems.append("stdout is not JSON")
    if text != in_process:
        problems.append("stdout differs from the in-process cli.main run")
    return problems
