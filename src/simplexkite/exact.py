"""Exact rational scalars, the frozen record, the wire form and the cofactor expansion.

Everything here is exact; no floating point is ever involved.  A scalar
is a `Fraction`, read from and written as the wire text "p/q"
(`parse_scalar`, `scalar_str`); `_cleared` turns rational rows into
integer rows over their denominators, the form every exact computation
of the package works on.

Every module of the package imports this one, so each job that several
of them share has its one owner here: `Record`, the frozen base of the
result and value classes, whose `_fill` sets the fields wherever a class
writes its own `__init__`; `_scalars`, the one reader of a sequence of
scalars; `_positive_tol`, the one check of a float tolerance, which
only functions of float input take (exact input is decided exactly);
`_integer`, the one check of an order or dimension;
`_at_least`, the one refusal of a dimension below what a function needs;
and `_det`, the one cofactor expansion, which evaluates the small corner
determinant of `prekite`'s closed forms and is, on a matrix's rows,
`linalg.determinant_by_cofactors`, the oracle of the elimination.

The elimination kernel (`ExactMatrix`, the determinants, `inertia`,
`solve_linear`) lives in `linalg`, which only the modules that
eliminate import.  Its public names still read from here (PEP 562), so
`simplexkite.exact.inertia` is `simplexkite.linalg.inertia`, and a
command that eliminates nothing neither imports nor compiles it.
"""

from __future__ import annotations

import importlib
import math
import re
from enum import Enum
from fractions import Fraction

Scalar = Fraction

_SCALAR_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class Record:
    """Frozen record whose fields are the names in the subclass's `__slots__`.

    A subclass gets an `__init__` taking its slots in order, generated
    once when the class is made; `defaults` in the class statement gives
    the last ones defaults, as `collections.namedtuple` does.  A subclass
    may write its own `__init__`, which checks its arguments and passes
    every slot in order to `_fill`, generated with the same body: the one
    setter of the slots, each set with `object.__setattr__`, as unpickling
    does.  Records compare equal, and hash, by type and fields, repr as
    `Name(field=value, ...)`, refuse assignment and deletion, and pickle
    and copy: what `dataclass(frozen=True)` gives, without importing
    `dataclasses`, whose import of `inspect` and its dependencies would
    slow the start of every process.  `to_json` writes each field under
    its name, in the wire form of `_wire`.

    A slot whose name starts with `_` is private state, not a field: `_fill`
    sets it and pickle and copy keep it, but `__match_args__`, equality,
    hash, repr and `to_json` leave it out.  A value kept on first use (the
    Gram elimination of a `cayley.SquaredDistanceMatrix`) is such a slot,
    written once with `object.__setattr__`.
    """

    __slots__ = ()

    def __init_subclass__(cls, defaults=(), **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        cls.__match_args__ = tuple(name for name in fields if name[0] != "_")
        # one call per slot, unrolled: a loop over the slots took a matrix's _fill three times as long
        code = "(self, %s):" % ", ".join(fields) + "".join("\n    _set(self, %r, %s)" % (name, name) for name in fields)
        scope = {"_set": object.__setattr__}
        exec("def _fill%s\ndef __init__%s" % (code, code), scope)
        cls._fill = scope["_fill"]
        if "__init__" not in cls.__dict__:
            init = scope["__init__"]
            init.__defaults__ = tuple(defaults) or None
            init.__qualname__ = cls.__qualname__ + ".__init__"
            cls.__init__ = init

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__match_args__)
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a frozen record" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a frozen record" % name)

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        self._fill(*state)

    def to_json(self) -> dict:
        return {name: _wire(getattr(self, name)) for name in self.__match_args__}


_PLAIN = (int, float, str)


def _wire(value):
    """JSON-ready form of a field value: an exact scalar as its "p/q" text,
    tuples and lists as lists and dicts as dicts of wire forms, and an enum
    member as its value; anything else as is.  A record whose field holds a
    record (`families.ClassificationReport`, `geometry.EmbeddedSimplex`)
    writes its own `to_json`.
    """
    if isinstance(value, _PLAIN):  # first, as the ABC check for Fraction is slow on other values
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_wire(x) for x in value]
    if isinstance(value, dict):
        return {key: _wire(x) for key, x in value.items()}
    if isinstance(value, Enum):
        return value.value
    return value


def as_scalar(value) -> Fraction:
    """Coerce an int, Fraction, or scalar text to an exact rational.

    Floats are refused deliberately: the exact core never guesses what a
    float was meant to be.  Booleans are refused too, although Python
    counts them as integers.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError("expected an exact scalar, got %s" % type(value).__name__)


def _scalars(values) -> tuple:
    """The entries of a sequence as a tuple of exact scalars (`as_scalar`).

    Text, bytes and bytearray are refused with TypeError rather than read
    one character or one byte at a time.  A tuple of plain Fractions is
    returned as it is.  Every sequence of scalars is read with this: the
    rows of `SquaredDistanceMatrix` and `ExactMatrix`, a pre-kite's apex
    parameters, a bordered uniform's border and a family's weights.
    """
    if isinstance(values, (str, bytes, bytearray)):
        raise TypeError("expected a sequence of exact scalars, got %s" % type(values).__name__)
    values = tuple(values)
    return values if set(map(type, values)) <= {Fraction} else tuple(map(as_scalar, values))


def _positive_tol(tol) -> None:
    """Refuse a tolerance that is not finite and > 0 with ValueError.  Each
    function that takes one calls this before any work: a NaN, zero or
    negative tolerance fails every comparison, and an infinite one passes
    every comparison."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive, got %r" % (tol,))


def _integer(value, name: str) -> int:
    """value when it is an int; ValueError naming it otherwise.  Orders and
    dimensions are read with this, so a bool, a float or text is refused
    rather than truncated or compared as a count."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    return value


def _at_least(n: int, least: int, what: str) -> None:
    """Refuse a dimension n below `least` with ValueError "<what> needs n >= <least>"."""
    if n < least:
        raise ValueError("%s needs n >= %d" % (what, least))


def parse_scalar(text: str) -> Fraction:
    """Parse the wire form of a scalar: a decimal integer or "p/q" with q > 0."""
    if not isinstance(text, str):
        raise ValueError("scalar text must be a string, got %r" % (text,))
    stripped = text.strip()
    if not _SCALAR_RE.match(stripped):
        raise ValueError("not a valid scalar: %r" % text)
    if "/" in stripped:
        num, den = stripped.split("/")
        if int(den) == 0:
            raise ValueError("zero denominator in scalar: %r" % text)
        return Fraction(int(num), int(den))
    return Fraction(int(stripped))


def scalar_str(value) -> str:
    """Canonical wire form of a scalar ("p/q" with q > 0, or a plain integer)."""
    return str(as_scalar(value))


def _cleared(rows, common: bool = False):
    """Integer rows, each rational row times the lcm of its denominators
    (with `common`, one lcm for all rows).  Returns (rows, scales)."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]  # both parts in one call
    if common:
        scales = [math.lcm(*[q for row in ratios for _, q in row])] * len(rows)
    else:
        scales = [math.lcm(*[q for _, q in row]) for row in ratios]
    return [[p * (s // q) for p, q in row] for row, s in zip(ratios, scales)], scales


def _det(rows):
    """Determinant of a small square matrix of ints or Fractions, by
    expansion along its first row, skipping its zero entries; 1 for the
    empty matrix.  Exponential in the order: it serves the (k+1) x (k+1)
    corner of `prekite._bordered_uniform`, which would otherwise load the
    elimination into every pre-kite command, and the brute-force oracle
    `linalg.determinant_by_cofactors`."""
    if len(rows) <= 1:
        return rows[0][0] if rows else 1
    return sum((-x if j % 2 else x) * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


_KERNEL = ("ExactMatrix", "SingularMatrixError", "determinant_by_cofactors", "exact_determinant", "inertia", "solve_linear")


def __getattr__(name):
    if name not in _KERNEL:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module(".linalg", __package__), name)
