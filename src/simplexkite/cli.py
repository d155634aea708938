"""Batch command-line front end.

Subcommands: classify, prekite-eval, prekite-feasible, equiareal-scan,
rel, pompeiu, embed, centers.  Output is JSON (CSV only for the scan
table), byte-identical across repeated runs.  Exit codes: 0 success,
1 bad input, 2 not realizable (or degenerate where nondegeneracy is
required), 3 internal error.

Each command reads what it runs off the package (`sk.<name>`), whose
export table imports the defining module on first access, so a process
loads only what its subcommand needs.

This layer only parses, calls and prints.  Every number and verdict it
prints comes from a library call: exact scalars reach JSON through one
hook that writes their wire form, and --tol (finite and positive) is
passed on only when it is given, so each default tolerance lives with
the function it tunes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import simplexkite as sk

from .exact import parse_scalar, scalar_str

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_REALIZABLE = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _dumps(obj) -> str:
    # json calls the hook only for what it cannot write, and an exact scalar is the one such value
    return json.dumps(obj, indent=2, sort_keys=True, default=scalar_str)


def _tol(args, name="tol") -> dict:
    """The --tol keyword for a library call: none unless --tol was given."""
    return {} if args.tol is None else {name: args.tol}


def _number(text: str):
    """Exact scalar when the text parses as one, float otherwise."""
    try:
        return parse_scalar(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise ValueError("not a number: %r" % text) from None


def _load_sdm(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ValueError("malformed JSON in %s: %s" % (path, exc)) from exc
    try:
        return sk.SquaredDistanceMatrix.from_json(payload)
    except (ValueError, TypeError) as exc:
        raise ValueError("invalid matrix in %s: %s" % (path, exc)) from exc


def _squared(args, texts) -> list:
    """The exact parameters in texts, squared when --lengths gives plain lengths."""
    values = [parse_scalar(text) for text in texts]
    if not args.lengths:
        return values
    if any(x <= 0 for x in values):
        raise ValueError("plain lengths must be positive")
    return [x * x for x in values]


def _finite_positive(text: str) -> float:
    """The type of --tol: a float, finite and > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % text) from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be finite and positive: %r" % text)
    return value


def cmd_classify(args):
    d = _load_sdm(args.matrix)
    report = sk.classify(d, **_tol(args))
    coin = sk.coincidence_report(d, with_floats=not args.exact, **_tol(args, "tol_center"))
    out = {"classification": report.to_json(), "coincidence": coin.to_json()}
    return _dumps(out), EXIT_OK


def _cm_fields(c, dd, n) -> dict:
    """Determinants, volume and circumradius of an n-simplex from its
    Cayley-Menger determinant c and inner determinant dd."""
    degenerate = c == 0
    return {
        "cm_det": c,
        "inner_cm_det": dd,
        "volume_sq": sk.prekite.volume_sq_from_cm_det(c, n),
        "circumradius_sq": None if degenerate else sk.prekite.circumradius_sq_from_cm_dets(c, dd),
        "degenerate": degenerate,
    }


def cmd_prekite_eval(args):
    u, *v = _squared(args, [args.u, *args.v])
    pk = sk.PreKite(args.n, u, v)
    n = pk.n
    whole = _cm_fields(sk.pk_cm_det(pk), sk.pk_inner_cm_det(pk), n)
    facets = [
        {"j": j, **_cm_fields(sk.pk_facet_cm(pk, j), sk.pk_facet_inner_cm(pk, j), n - 1)}
        for j in range(n + 1)
    ]
    out = {
        **pk.to_json(),
        **whole,
        "equiareal": sk.prekite.pk_facets_equiareal(pk),
        "facets": facets,
    }
    return _dumps(out), EXIT_NOT_REALIZABLE if whole["degenerate"] else EXIT_OK


def cmd_prekite_feasible(args):
    u, v = _squared(args, [args.u, args.v])
    if args.n < 2 or u <= 0 or v <= 0:
        raise ValueError("need n >= 2 and positive parameters")
    lo, hi = sk.apex_squared_ratio_window(args.n)
    out = {
        "n": args.n,
        "u": u,
        "v": v,
        "squared_ratio": v / u,
        "window": {"lo": lo, "hi": hi, "open": True},
        "feasible": sk.two_apexed_feasible(args.n, u, v),
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
    result = sk.equiareal_scan(args.n)
    if args.format == "csv":
        lines = [",".join(_SCAN_COLUMNS)]
        for row in result["rows"]:
            lines.append(",".join(str(row.get(col, "")) for col in _SCAN_COLUMNS))
        return "\n".join(lines), EXIT_OK
    return _dumps(result), EXIT_OK


def _parse_known(text: str, n: int):
    parts = [p.strip() for p in text.split(",")]
    if "" in parts:
        raise ValueError("empty field in comma-separated distances: %r" % text)
    values = [None if p == "?" else _number(p) for p in parts]
    if len(values) not in (n, n + 1):
        raise ValueError("expected n or n+1 comma-separated distances")
    return values


def cmd_rel(args):
    t0 = _number(args.t0)
    if args.mode == "solve":
        if args.tol is not None:
            raise ValueError("rel solve does not read --tol")
        if args.t is not None:
            raise ValueError("rel solve does not read --t")
        if args.known is None:
            raise ValueError("rel solve needs --known")
        known = _parse_known(args.known, args.n)
        squares, solutions = sk.relation.solve_open_slot(args.n, t0, known)
        out = {
            "n": args.n,
            "t0": t0,
            "known": [v for v in known if v is not None],
            "solutions": solutions,
            "solution_squares": squares,
            "count": len(solutions),
        }
        return _dumps(out), EXIT_OK
    if args.known is not None:
        raise ValueError("rel verify does not read --known")
    if args.t is None:
        raise ValueError("rel verify needs --t")
    values = _parse_known(args.t, args.n)
    if any(v is None for v in values) or len(values) != args.n + 1:
        raise ValueError("rel verify needs all n+1 distances")
    dt = sk.DistanceTuple(args.n, t0, tuple(values))
    residual = sk.relation_residual(dt)
    out = {
        "n": args.n,
        "t0": t0,
        "t": values,
        "residual": residual,
        "zero_within_tol": sk.relation.residual_within_tol(residual, **_tol(args)),
    }
    return _dumps(out), EXIT_OK


def cmd_pompeiu(args):
    a, x, y, z = (_number(v) for v in (args.a, args.x, args.y, args.z))
    g, h = sk.relation.pompeiu_invariants(a, x, y, z)
    verdict = sk.relation.pompeiu_verdict(g, h, **_tol(args))
    out = {"a": a, "x": x, "y": y, "z": z, "g": g, "h": h, "verdict": verdict}
    return _dumps(out), EXIT_OK


def cmd_embed(args):
    d = _load_sdm(args.matrix)
    s = sk.embed(d)
    out = {
        "n": s.n,
        "vertices": [list(row) for row in s.vertices],
        "max_rel_error": s.max_rel_error,
    }
    return _dumps(out), EXIT_OK


def cmd_centers(args):
    d = _load_sdm(args.matrix)
    s = sk.embed(d)
    cs = sk.center_set(s, **_tol(args, "ft_tol"))
    out = {"n": s.n}
    out.update(cs.to_json())
    return _dumps(out), EXIT_OK


_FLAGS = {
    "--exact": {"action": "store_true", "help": "exact output only; skip float cross-checks"},
    "--tol": {"type": _finite_positive, "default": None, "help": "override the command's float tolerance"},
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
        print("error: %s" % exc, file=sys.stderr)
        # only an error path loads cayley to name the class
        return EXIT_NOT_REALIZABLE if isinstance(exc, sk.RealizabilityError) else EXIT_BAD_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


def entry():  # console-script wrapper
    sys.exit(main())
