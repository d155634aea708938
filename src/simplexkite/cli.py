"""Batch command-line front end.

Subcommands: classify, prekite-eval, prekite-feasible, equiareal-scan,
rel, pompeiu, embed, centers.  Output is JSON (CSV only for the scan
table), byte-identical across repeated runs.  Exit codes: 0 success,
1 bad input, 2 not realizable (or degenerate where nondegeneracy is
required), 3 internal error.

Each command reads what it runs off the package (`sk.<name>`), whose
export table imports the defining module on first access, so a process
loads only what its subcommand needs.  Its argv is read from one table,
`_COMMANDS`, rather than by argparse, whose import (with `gettext`, and
`locale` once it parses) and nine parsers no command needs: `_parse`
walks argv once and refuses bad input in argparse's words.  An option
may stand anywhere after the subcommand, but only spelled in full.

This layer only parses, calls and prints.  Every number and verdict it
prints comes from a library call: exact scalars reach JSON through one
hook that writes their wire form.  A tolerance is an option only where
float input arrives from outside, in `rel verify` and `pompeiu`; a
matrix file is exact, so `classify` and `centers` take none.  --tol
(finite and positive) is passed on only when it is given, so each
default tolerance lives with the function it tunes.
"""

from __future__ import annotations

import json
import math
import re
import sys
from types import SimpleNamespace

import simplexkite as sk

from .exact import parse_scalar, scalar_str

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_REALIZABLE = 2
EXIT_INTERNAL = 3


def _dumps(obj) -> str:
    # json calls the hook only for what it cannot write, and an exact scalar is the one such value
    return json.dumps(obj, indent=2, sort_keys=True, default=scalar_str)


def _tol(args) -> dict:
    """The --tol keyword for a library call: none unless --tol was given."""
    return {} if args.tol is None else {"tol": args.tol}


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


def cmd_classify(args):
    d = _load_sdm(args.matrix)
    report = sk.classify(d)
    coin = sk.coincidence_report(d, with_floats=not args.exact)
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


_SCAN_COLUMNS = ("t", "s", "status", "x", "y", "u", "realizable", "degenerate", "equiareal_verified", "regular", "reason")


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


# the flags each mode of rel reads, the one it needs first; the others are refused
_REL_FLAGS = {"solve": ("known",), "verify": ("t", "tol")}


def cmd_rel(args):
    t0 = _number(args.t0)
    reads = _REL_FLAGS[args.mode]
    for flag in ("tol", "t", "known"):
        if flag not in reads and getattr(args, flag) is not None:
            raise ValueError("rel %s does not read --%s" % (args.mode, flag))
    if getattr(args, reads[0]) is None:
        raise ValueError("rel %s needs --%s" % (args.mode, reads[0]))
    if args.mode == "solve":
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
    return _dumps(sk.embed(d).to_json()), EXIT_OK


def cmd_centers(args):
    d = _load_sdm(args.matrix)
    s = sk.embed(d)
    cs = sk.center_set(s)
    out = {"n": s.n}
    out.update(cs.to_json())
    return _dumps(out), EXIT_OK


# flag: (converter, help); None marks a flag that takes no value, a tuple the choices
_FLAGS = {
    "--exact": (None, "exact output only; skip float cross-checks"),
    "--tol": (float, "override the tolerance of the command's float input (finite, > 0)"),
    "--format": (("json", "csv"), "output format of the scan table: json (the default) or csv"),
    "--lengths": (None, "numeric edge inputs are plain lengths; square them on ingestion"),
    "--n": (int, "dimension of the regular simplex (required)"),
    "--t0": (str, "edge length of the regular simplex (required)"),
    "--known": (str, "solve: comma-separated known distances, '?' for the open slot"),
    "--t": (str, "verify: comma-separated distances to all n+1 vertices"),
}
_REQUIRED = ("--n", "--t0")
_HELP = ("-h", "--help")

# subcommand: (function, help, positionals, the flags it reads); a positional is
# (name, converter), and the converter `list` marks v, which takes one or more values
_COMMANDS = {
    "classify": (cmd_classify, "apex census, family membership, and center coincidences for a matrix file", (("matrix", str),), ("--exact",)),
    "prekite-eval": (cmd_prekite_eval, "exact determinants, volume, and circumradius of PK[n;u;v], with per-facet values", (("n", int), ("u", str), ("v", list)), ("--lengths",)),
    "prekite-feasible": (cmd_prekite_feasible, "feasibility window test for the single-odd-edge pre-kite", (("n", int), ("u", str), ("v", str)), ("--lengths",)),
    "equiareal-scan": (cmd_equiareal_scan, "equal-facet-volume candidates over all (t, s) splits at dimension n", (("n", int),), ("--format",)),
    "rel": (cmd_rel, "solve or verify the regular-simplex distance relation", (("mode", ("solve", "verify")),), ("--tol", "--n", "--t0", "--known", "--t")),
    "pompeiu": (cmd_pompeiu, "classify three distances against an equilateral triangle", (("a", str), ("x", str), ("y", str), ("z", str)), ("--tol",)),
    "embed": (cmd_embed, "coordinates realizing a matrix file", (("matrix", str),), ()),
    "centers": (cmd_centers, "the four centers of the simplex in a matrix file", (("matrix", str),), ()),
}
# the program itself: one positional, the subcommand, whose own argv follows it
_PROGRAM = (None, None, (("command", tuple(_COMMANDS)),), ())

_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(arg: str, flags):
    """(flag, the value given after '=' or None) for an option, None for a
    positional.  argparse's rule: a word that starts with '-' is an option
    unless it is '-' or '--', or names no flag and is a negative number or
    holds a space; an unknown option comes back whole."""
    name, eq, value = arg.partition("=")
    if arg in flags or not eq or name not in flags:
        name, value = arg, None
    if arg in ("-", "--") or not arg.startswith("-") or name not in flags and (_NEGATIVE.match(arg) or " " in arg):
        return None
    return name, value


def _convert(name: str, convert, text: str):
    """Argument `name` read from text by its converter (a tuple: its choices).
    The one float option, --tol, must also be finite and > 0."""
    try:
        if isinstance(convert, tuple) and text not in convert:
            raise ValueError("invalid choice: %r (choose from %s)" % (text, ", ".join(map(repr, convert))))
        value = text if isinstance(convert, tuple) else convert(text)
    except ValueError as exc:
        raise ValueError("argument %s: %s" % (name, exc if isinstance(convert, tuple) else "invalid %s value: %r" % (convert.__name__, text))) from None
    if convert is float and not 0 < value < math.inf:
        raise ValueError("argument %s: must be finite and positive: %r" % (name, text))
    return value


def _usage(name) -> str:
    """The -h text of the program (name None) or of one subcommand, from the table."""
    if name is None:
        rows = ["  %-17s %s" % (command, spec[1]) for command, spec in _COMMANDS.items()]
        return "usage: simplexkite <command> [options]\n\ncommands:\n%s\n\nRun 'simplexkite <command> -h' for its options." % "\n".join(rows)
    _, text, positionals, own = _COMMANDS[name]
    words = ["{%s}" % ",".join(c) if isinstance(c, tuple) else "%s [%s ...]" % (p, p) if c is list else p for p, c in positionals]
    rows = ["  %-16s %s" % (f if _FLAGS[f][0] is None else "%s %s" % (f, f[2:].upper()), _FLAGS[f][1]) for f in own]
    rows.append("  -h, --help       show this help")
    return "usage: simplexkite %s [options] %s\n\n%s\n\noptions:\n%s" % (name, " ".join(words), text, "\n".join(rows))


def _parse(argv, name=None, extras=()) -> SimpleNamespace:
    """The arguments in argv as argparse read them, but that an option may
    stand anywhere after the subcommand, inside v's list too, and must be
    spelled in full.  Without `name`, argv starts with the program's own
    options.  `func` is the command's function, or for -h one that gives
    the help text.  ValueError in argparse's words for bad input."""
    func, _, positionals, own = _COMMANDS[name] if name else _PROGRAM
    flags, extras, filled, last_fill, ended, i = own + _HELP, list(extras), 0, -1, False, 0
    args = SimpleNamespace(func=func, **{f[2:]: None if _FLAGS[f][0] else False for f in own})
    while i < len(argv):
        arg, i = argv[i], i + 1
        option = None if ended else _option(arg, flags)
        if arg == "--" and not ended:
            ended = True  # unrecognized, as argparse had it, unless it follows a positional or one is open
            if filled == len(positionals) and last_fill != i - 1:
                extras.append(arg)
        elif option is None and filled < len(positionals):
            key, convert = positionals[filled]
            setattr(args, key, [*getattr(args, key, []), arg] if convert is list else _convert(key, convert, arg))
            filled, last_fill = filled + (convert is not list), i
            if name is None:
                return _parse(argv[i:], arg, extras)
        elif option is None or option[0] not in flags:
            extras.append(arg)
        elif option[0] in _HELP or _FLAGS[option[0]][0] is None:
            if option[1] is not None:
                raise ValueError("argument %s: ignored explicit argument %r" % ("-h/--help" if option[0] in _HELP else option[0], option[1]))
            if option[0] in _HELP:
                return SimpleNamespace(func=lambda args: (_usage(name), EXIT_OK))
            setattr(args, option[0][2:], True)
        else:
            flag, value = option
            if value is None and (i == len(argv) or argv[i] == "--" or _option(argv[i], flags)):
                raise ValueError("argument %s: expected one argument" % flag)
            if value is None:
                value, i = argv[i], i + 1
            setattr(args, flag[2:], _convert(flag, _FLAGS[flag][0], value))
    missing = [key for key, _ in positionals if not hasattr(args, key)] + [f for f in _REQUIRED if f in own and getattr(args, f[2:]) is None]
    if missing or extras:
        raise ValueError("the following arguments are required: " + ", ".join(missing) if missing else "unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
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
