"""Batch command-line front end.

Subcommands: classify, prekite-eval, prekite-feasible, equiareal-scan,
rel, pompeiu, embed, centers.  Output is JSON (CSV only for the scan
table), byte-identical across repeated runs.  Exit codes: 0 success,
1 bad input, 2 not realizable (or degenerate where nondegeneracy is
required), 3 internal error.

Each command imports the modules it runs when it runs, so a process
loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .exact import parse_scalar, scalar_str

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_REALIZABLE = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _number(text: str):
    """Exact scalar when the text parses as one, float otherwise."""
    try:
        return parse_scalar(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise ValueError("not a number: %r" % text) from None


def _jsonable(value):
    if isinstance(value, Fraction):
        return scalar_str(value)
    return float(value)


def _load_sdm(path: str):
    from .cayley import SquaredDistanceMatrix

    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ValueError("malformed JSON in %s: %s" % (path, exc)) from exc
    try:
        return SquaredDistanceMatrix.from_json(payload)
    except (ValueError, TypeError) as exc:
        raise ValueError("invalid matrix in %s: %s" % (path, exc)) from exc


def _prekite_from_args(args):
    from .prekite import PreKite

    u = parse_scalar(args.u)
    v = [parse_scalar(x) for x in args.v]
    if args.lengths:
        u = u * u
        v = [x * x for x in v]
    return PreKite(args.n, u, v)


def cmd_classify(args):
    from .centers import coincidence_report
    from .families import TOL_FAMILY, classify

    d = _load_sdm(args.matrix)
    tol = args.tol if args.tol is not None else TOL_FAMILY
    report = classify(d, tol=tol)
    coin = coincidence_report(d, with_floats=not args.exact, tol_center=args.tol)
    out = {"classification": report.to_json(), "coincidence": coin.to_json()}
    return _dumps(out), EXIT_OK


def _cm_fields(c, dd, n) -> dict:
    """Determinants, volume and circumradius of an n-simplex from its
    Cayley-Menger determinant c and inner determinant dd."""
    from .prekite import volume_sq_from_cm_det

    degenerate = c == 0
    return {
        "cm_det": scalar_str(c),
        "inner_cm_det": scalar_str(dd),
        "volume_sq": scalar_str(volume_sq_from_cm_det(c, n)),
        "circumradius_sq": None if degenerate else scalar_str(-dd / (2 * c)),
        "degenerate": degenerate,
    }


def cmd_prekite_eval(args):
    from .prekite import pk_cm_det, pk_facet_cm, pk_facet_inner_cm, pk_inner_cm_det

    pk = _prekite_from_args(args)
    n = pk.n
    whole = _cm_fields(pk_cm_det(pk), pk_inner_cm_det(pk), n)
    facets = [
        {"j": j, **_cm_fields(pk_facet_cm(pk, j), pk_facet_inner_cm(pk, j), n - 1)}
        for j in range(n + 1)
    ]
    out = {
        "n": n,
        "u": scalar_str(pk.u),
        "v": [scalar_str(x) for x in pk.v],
        **whole,
        "equiareal": len({row["cm_det"] for row in facets}) == 1,
        "facets": facets,
    }
    return _dumps(out), EXIT_NOT_REALIZABLE if whole["degenerate"] else EXIT_OK


def cmd_prekite_feasible(args):
    from .prekite import apex_squared_ratio_window, two_apexed_feasible

    u = parse_scalar(args.u)
    v = parse_scalar(args.v)
    if args.lengths:
        u, v = u * u, v * v
    if args.n < 2 or u <= 0 or v <= 0:
        raise ValueError("need n >= 2 and positive parameters")
    lo, hi = apex_squared_ratio_window(args.n)
    out = {
        "n": args.n,
        "u": scalar_str(u),
        "v": scalar_str(v),
        "squared_ratio": scalar_str(v / u),
        "window": {"lo": scalar_str(lo), "hi": scalar_str(hi), "open": True},
        "feasible": two_apexed_feasible(args.n, u, v),
    }
    return _dumps(out), EXIT_OK


_SCAN_COLUMNS = (
    "t",
    "s",
    "status",
    "x",
    "y",
    "u",
    "realizable",
    "degenerate",
    "equiareal_verified",
    "regular",
    "reason",
)


def cmd_equiareal_scan(args):
    from .centers import equiareal_scan

    result = equiareal_scan(args.n)
    if args.format == "csv":
        lines = [",".join(_SCAN_COLUMNS)]
        for row in result["rows"]:
            lines.append(",".join(str(row.get(col, "")) for col in _SCAN_COLUMNS))
        return "\n".join(lines), EXIT_OK
    return _dumps(result), EXIT_OK


def _parse_known(text: str, n: int):
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    values = [None if p == "?" else _number(p) for p in parts]
    if len(values) not in (n, n + 1):
        raise ValueError("expected n or n+1 comma-separated distances")
    return values


def cmd_rel(args):
    from .relation import (
        DistanceTuple,
        relation_residual,
        solve_missing_distance,
        solve_missing_distance_squares,
    )

    t0 = _number(args.t0)
    if args.mode == "solve":
        if args.known is None:
            raise ValueError("rel solve needs --known")
        known = _parse_known(args.known, args.n)
        solutions = solve_missing_distance(args.n, t0, known)
        flat = [v for v in known if v is not None]
        squares = solve_missing_distance_squares(
            args.n, t0 * t0, [v * v for v in flat]
        )
        out = {
            "n": args.n,
            "t0": _jsonable(t0),
            "known": [_jsonable(v) for v in flat],
            "solutions": [float(v) for v in solutions],
            "solution_squares": [_jsonable(q) for q in squares],
            "count": len(solutions),
        }
        return _dumps(out), EXIT_OK
    if args.t is None:
        raise ValueError("rel verify needs --t")
    values = _parse_known(args.t, args.n)
    if any(v is None for v in values) or len(values) != args.n + 1:
        raise ValueError("rel verify needs all n+1 distances")
    dt = DistanceTuple(args.n, t0, tuple(values))
    residual = relation_residual(dt)
    tol = args.tol if args.tol is not None else 1e-9
    scale = max([float(t0)] + [float(v) for v in values]) ** 4
    out = {
        "n": args.n,
        "t0": _jsonable(t0),
        "t": [_jsonable(v) for v in values],
        "residual": _jsonable(residual),
        "zero_within_tol": abs(float(residual)) <= tol * max(scale, 1e-300),
    }
    return _dumps(out), EXIT_OK


def cmd_pompeiu(args):
    from .relation import pompeiu_classify, pompeiu_invariants

    a, x, y, z = (_number(v) for v in (args.a, args.x, args.y, args.z))
    tol = args.tol if args.tol is not None else 1e-12
    verdict = pompeiu_classify(a, x, y, z, tol=tol)
    g, h = pompeiu_invariants(a, x, y, z)
    out = {
        "a": _jsonable(a),
        "x": _jsonable(x),
        "y": _jsonable(y),
        "z": _jsonable(z),
        "g": _jsonable(g),
        "h": _jsonable(h),
        "verdict": verdict,
    }
    return _dumps(out), EXIT_OK


def cmd_embed(args):
    from .geometry import embed

    d = _load_sdm(args.matrix)
    s = embed(d)
    out = {
        "n": s.n,
        "vertices": [list(row) for row in s.vertices],
        "max_rel_error": s.max_rel_error,
    }
    return _dumps(out), EXIT_OK


def cmd_centers(args):
    from .geometry import FT_GRADIENT_TOL, center_set, embed

    d = _load_sdm(args.matrix)
    s = embed(d)
    tol = args.tol if args.tol is not None else FT_GRADIENT_TOL
    cs = center_set(s, ft_tol=tol)
    out = {"n": s.n}
    out.update(cs.to_json())
    return _dumps(out), EXIT_OK


_FLAGS = {
    "--exact": {"action": "store_true", "help": "exact output only; skip float cross-checks"},
    "--tol": {"type": float, "default": None, "help": "override the command's float tolerance"},
    "--format": {"choices": ("json", "csv"), "default": "json", "help": "output format of the scan table"},
    "--lengths": {"action": "store_true", "help": "numeric edge inputs are plain lengths; square them on ingestion"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simplexkite", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, flags=()):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = command("classify", cmd_classify, "apex census, family membership, and center coincidences for a matrix file", ("--exact", "--tol"))
    p.add_argument("matrix", help="path to a squared-distance matrix JSON file")

    p = command("prekite-eval", cmd_prekite_eval, "exact determinants, volume, and circumradius of PK[n;u;v], with per-facet values", ("--lengths",))
    p.add_argument("n", type=int)
    p.add_argument("u")
    p.add_argument("v", nargs="+")

    p = command("prekite-feasible", cmd_prekite_feasible, "feasibility window test for the single-odd-edge pre-kite", ("--lengths",))
    p.add_argument("n", type=int)
    p.add_argument("u")
    p.add_argument("v")

    p = command("equiareal-scan", cmd_equiareal_scan, "equal-facet-volume candidates over all (t, s) splits at dimension n", ("--format",))
    p.add_argument("n", type=int)

    p = command("rel", cmd_rel, "solve or verify the regular-simplex distance relation", ("--tol",))
    p.add_argument("mode", choices=("solve", "verify"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t0", required=True)
    p.add_argument("--known", help="solve: comma-separated known distances, '?' for the open slot")
    p.add_argument("--t", help="verify: comma-separated distances to all n+1 vertices")

    p = command("pompeiu", cmd_pompeiu, "classify three distances against an equilateral triangle", ("--tol",))
    p.add_argument("a")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("z")

    p = command("embed", cmd_embed, "coordinates realizing a matrix file")
    p.add_argument("matrix")

    p = command("centers", cmd_centers, "the four centers of the simplex in a matrix file", ("--tol",))
    p.add_argument("matrix")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text, code = args.func(args)
        if text:
            print(text)
        return code
    except (ValueError, OSError) as exc:
        from .cayley import RealizabilityError  # only an error path loads cayley to name it

        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NOT_REALIZABLE if isinstance(exc, RealizabilityError) else EXIT_BAD_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


def entry():  # console-script wrapper
    sys.exit(main())
