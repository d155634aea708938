"""Seeded inputs for the three workloads.

Every generator takes a `random.Random` built from the workload name and
the seed, so one seed always gives the same inputs.  Items come in
blocks that hold each order or command class in its exact share, and
each block is shuffled, so a run cut off by time keeps the mix and
machine drift hits every class alike.  Every input is distinct within a
run (`equiareal-scan` has one argument and is the one exception; each CLI
item is a fresh process, so a repeat cannot hit an in-process cache).

Degenerate point clouds are rejected here by the benchmark's own
coordinate determinant, and family members by its own Gram check; the
program only supplies `matrix_from_beta` and `equiareal_prekite_solve`.
"""

from __future__ import annotations

import collections
import json
import random
from fractions import Fraction

from checks import determinant, edge_vectors, gram, is_positive_definite

NUMERATOR = 12
DENOMINATORS = (1, 2, 3, 4, 6)
_L = 12  # lcm of DENOMINATORS

# Simplex dimension n of each volumes item, in its share of 40.
VOLUME_BLOCK = (3,) * 8 + (4,) * 8 + (6,) * 8 + (10,) * 6 + (20,) * 5 + (30,) * 5
REPORT_ORDERS = (4, 6, 8, 10, 12)
FAMILIES = ("orthocentric", "circumscriptible", "isodynamic", "tetra_isogonic")
# CLI command classes in their share of 20.
CLI_BLOCK = (
    ("prekite-eval",) * 5
    + ("prekite-feasible",) * 2
    + ("rel",) * 3
    + ("pompeiu",) * 3
    + ("equiareal-scan",)
    + ("embed-centers",) * 3
    + ("classify",) * 3
)
CHEAP = {"prekite-eval", "prekite-feasible", "rel", "pompeiu"}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def _rational(rng, lo, hi) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(DENOMINATORS))


def point_cloud(rng, n):
    """n+1 nondegenerate points in Q^n with mixed denominators.

    Coordinates are p/q with q in DENOMINATORS, kept as the integers
    p * (_L // q), i.e. scaled by _L, so generation runs in integers.
    """
    while True:
        points = [
            [rng.randint(-NUMERATOR, NUMERATOR) * (_L // rng.choice(DENOMINATORS)) for _ in range(n)]
            for _ in range(n + 1)
        ]
        if determinant(edge_vectors(points)) != 0:
            return points


def squared_distances(points):
    """Squared distances of points scaled by _L, as exact rationals."""
    m = len(points)
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            s = sum((x - y) ** 2 for x, y in zip(points[i], points[j]))
            rows[i][j] = rows[j][i] = Fraction(s, _L * _L)
    return rows


def _key(rows):
    return tuple(tuple(row) for row in rows)


def _blocks(rng, block, count):
    for _ in range(count):
        classes = list(block)
        rng.shuffle(classes)
        yield from classes


def volumes(seed: int, blocks: int):
    """Warm-up item and `blocks` blocks of 40 point-cloud items."""
    rng = rng_for("volumes", seed)
    seen = set()

    def item(n, ident):
        while True:
            points = point_cloud(rng, n)
            a = squared_distances(points)
            if _key(a) not in seen:
                seen.add(_key(a))
                return {"id": ident, "label": "n=%d" % n, "points": points, "scale": _L, "a": a}

    warm = item(4, -1)
    return warm, [item(n, i) for i, n in enumerate(_blocks(rng, VOLUME_BLOCK, blocks))]


def _family_member(rng, sk, family, n):
    """A realizable member built from rational weights near 1."""
    while True:
        beta = [1 + Fraction(rng.randint(-6, 6), rng.choice((8, 12, 16, 24))) for _ in range(n + 1)]
        a = [list(row) for row in sk.matrix_from_beta(family, beta).a]
        if is_positive_definite(gram(a)):
            return a


def prekite_candidates(sk):
    """Realizable equiareal pre-kites PK[n; 1; x*t, y*s] per report order."""
    out = {}
    for n in REPORT_ORDERS:
        out[n] = []
        for s in range(1, n // 2 + 1):
            if n - s == s:
                continue
            for cand in sk.equiareal_prekite_solve(n, n - s, s):
                if cand.realizable and cand.equiareal_verified:
                    out[n].append([list(row) for row in cand.prekite().to_sdm().a])
    return out


def _scaled_permuted(rng, a):
    lam = Fraction(rng.randint(1, 30), rng.choice(DENOMINATORS))
    perm = list(range(len(a)))
    rng.shuffle(perm)
    return [[a[p][q] * lam for q in perm] for p in perm]


def reports(seed: int, blocks: int, sk):
    """Warm-up item and `blocks` blocks of 20 simplices (4 per order).

    Per order and block: two generic point clouds, one family member
    (the family rotates) and one equiareal pre-kite, scaled by a random
    rational and with its vertices permuted.
    """
    rng = rng_for("reports", seed)
    candidates = prekite_candidates(sk)
    seen = set()
    block = [(n, kind) for n in REPORT_ORDERS for kind in ("generic", "generic", "family", "prekite")]
    turn = 0

    def item(n, kind, ident):
        nonlocal turn
        while True:
            entry = {"id": ident, "label": "n=%d" % n, "kind": kind}
            if kind == "generic":
                entry["a"] = squared_distances(point_cloud(rng, n))
            elif kind == "family":
                entry["family"] = FAMILIES[turn % len(FAMILIES)]
                entry["a"] = _family_member(rng, sk, entry["family"], n)
            else:
                entry["a"] = _scaled_permuted(rng, rng.choice(candidates[n]))
            if _key(entry["a"]) not in seen:
                seen.add(_key(entry["a"]))
                if kind == "family":
                    turn += 1
                return entry

    warm = item(4, "generic", -1)
    return warm, [item(n, kind, i) for i, (n, kind) in enumerate(_blocks(rng, block, blocks))]


def _ratio_text(rng, lo, hi):
    return str(_rational(rng, lo, hi))


def _prekite_degenerate(n, u, v):
    """Whether PK[n; u; v] has a zero Cayley-Menger determinant (own check)."""
    size = n + 1
    a = [[Fraction(0)] * size for _ in range(size)]
    for i in range(1, size):
        a[0][i] = a[i][0] = v[i - 1]
        for j in range(i + 1, size):
            a[i][j] = a[j][i] = u
    cm = [[Fraction(0)] + [Fraction(1)] * size] + [[Fraction(1)] + row for row in a]
    return determinant(cm) == 0


def cli(seed: int, blocks: int, workdir):
    """`blocks` blocks of 20 CLI invocations, with their matrix files in workdir.

    Each item holds the argv after `python -m simplexkite`, its command
    class (the design label; the numpy-free commands share the class
    `cheap`) and its subcommand.  Degenerate pre-kites
    are skipped, so every command should exit 0.
    """
    rng = rng_for("cli", seed)
    seen = set()
    items = []
    turns = collections.Counter()  # items so far per class, for the rotations
    for ident, cls in enumerate(_blocks(rng, CLI_BLOCK, blocks)):
        turn = turns[cls]
        turns[cls] += 1
        while True:
            if cls == "prekite-eval":
                n = rng.randint(3, 8)
                u = _rational(rng, 1, 20)
                v = [_rational(rng, 1, 20) for _ in range(n)]
                if _prekite_degenerate(n, u, v):
                    continue
                argv = ["prekite-eval", str(n), str(u)] + [str(x) for x in v]
            elif cls == "prekite-feasible":
                argv = ["prekite-feasible", str(rng.randint(2, 12)), _ratio_text(rng, 1, 20), _ratio_text(rng, 1, 40)]
            elif cls == "rel":
                n = rng.randint(2, 8)
                known = [_ratio_text(rng, 0, 30) for _ in range(n + 1)]
                if turn % 2 == 0:
                    known[rng.randrange(n + 1)] = "?"
                    argv = ["rel", "solve", "--n", str(n), "--t0", _ratio_text(rng, 1, 20), "--known", ",".join(known)]
                else:
                    argv = ["rel", "verify", "--n", str(n), "--t0", _ratio_text(rng, 1, 20), "--t", ",".join(known)]
            elif cls == "pompeiu":
                argv = ["pompeiu"] + [_ratio_text(rng, 1, 30) for _ in range(4)]
            elif cls == "equiareal-scan":
                argv = ["equiareal-scan", str((6, 7, 8)[turn % 3])]
            else:
                if cls == "classify":
                    sub, n = "classify", 10
                else:
                    sub, n = ("embed", "centers")[turn % 2], (6, 8, 10)[turn % 3]
                path = workdir / ("m%d.json" % ident)
                argv = [sub, str(path)]
            if cls == "equiareal-scan" or tuple(argv) not in seen:
                break
        if cls in ("classify", "embed-centers"):
            rows = squared_distances(point_cloud(rng, n))
            while _key(rows) in seen:
                rows = squared_distances(point_cloud(rng, n))
            seen.add(_key(rows))
            payload = {"n": n, "a": [[str(x) for x in row] for row in rows]}
            path.write_text(json.dumps(payload), encoding="utf-8")
        seen.add(tuple(argv))
        label = "cheap" if cls in CHEAP else cls
        items.append({"id": ident, "label": label, "sub": argv[0], "argv": argv})
    return items


def wire(item) -> str:
    """The JSON line a worker reads: id, label and the matrix as scalar text."""
    return json.dumps({"id": item["id"], "label": item["label"],
                       "a": [[str(x) for x in row] for row in item["a"]]})
