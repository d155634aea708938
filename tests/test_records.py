"""The value semantics every record class keeps: construction by position
and keyword, equality and hash by type and fields, the `Name(field=value)`
repr, refused assignment, pickle and copy round trips, a JSON form that
needs no hook, and construction no dearer than a frozen dataclass of the
same fields.
"""

import copy
import gc
import json
import pickle
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest

from simplexkite import (
    ApexReport,
    BetaVector,
    BorderedUniform,
    CenterSet,
    ClassificationReport,
    CoincidenceReport,
    DistanceTuple,
    EquiarealCandidate,
    PreKite,
    Realizability,
    RealizabilityVerdict,
)

F = Fraction
APEX = ApexReport((0, 3), True, False)

# each class, its field names in order, and two field tuples that differ in one field
RECORDS = [
    (RealizabilityVerdict, ("status", "gram_inertia"),
     (Realizability.NONDEGENERATE, (3, 0, 1)), (Realizability.DEGENERATE, (3, 0, 1))),
    (CoincidenceReport, ("well_distributed", "equiradial", "equiareal", "circumcenter_interior", "qg_coincide",
                         "qi_coincide", "ig_coincide", "fermat_coincidences", "center_distances"),
     (True,) * 7 + (None, None), (True,) * 6 + (False, None, None)),
    (EquiarealCandidate, ("n", "t", "s", "x", "y", "u", "realizable", "degenerate", "equiareal_verified", "regular"),
     (4, 2, 2, F(3, 2), F(1), F(1), True, False, True, False), (4, 2, 2, F(3, 2), F(1), F(1), True, False, True, True)),
    (BorderedUniform, ("n", "corner", "left", "top", "off", "diag"),
     (2, F(1), (F(1), F(2)), (F(3), F(4)), F(1), F(2)), (2, F(0), (F(1), F(2)), (F(3), F(4)), F(1), F(2))),
    (BetaVector, ("family", "beta", "residual"),
     ("orthocentric", (F(1), F(2), F(3)), F(0)), ("orthocentric", (F(1), F(2), F(4)), F(0))),
    (ClassificationReport, ("realizable", "apex_report", "families", "kite_consistent"),
     ("nondegenerate", APEX, {"orthocentric": None}, True), ("nondegenerate", APEX, {"orthocentric": None}, False)),
    (CenterSet, ("centroid", "circumcenter", "incenter", "fermat", "circumradius", "inradius"),
     ((0.0, 0.0),) * 4 + (1.0, 0.5), ((0.0, 0.0),) * 4 + (1.0, 0.25)),
    (PreKite, ("n", "u", "v"), (2, F(1), (F(1), F(2))), (2, F(1), (F(1), F(3)))),
    (ApexReport, ("apexes", "is_kite", "is_regular"), ((0, 3), True, False), ((0, 3), False, False)),
    (DistanceTuple, ("n", "t0", "t"), (2, 1, (0, 1, 1)), (2, 1, (1, 0, 1))),
]
UNHASHABLE = {ClassificationReport}  # a dict field
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
def test_construction_and_equality(cls, names, values, other):
    rec = cls(*values)
    assert tuple(getattr(rec, name) for name in names) == values
    assert cls.__match_args__ == names
    assert cls(**dict(zip(names, values))) == rec
    assert cls(*other) != rec
    assert rec != values and rec.__eq__(values) is NotImplemented
    assert rec.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
def test_hash(cls, names, values, other):
    rec = cls(*values)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(cls(**dict(zip(names, values))))
        assert len({rec, cls(*values), cls(*other)}) == 2


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
def test_repr(cls, names, values, other):
    body = ", ".join("%s=%r" % (name, value) for name, value in zip(names, values))
    assert repr(cls(*values)) == "%s(%s)" % (cls.__qualname__, body)


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
def test_assignment_is_refused(cls, names, values, other):
    rec = cls(*values)
    for name in (names[0], names[-1], "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, values[0])
    with pytest.raises(AttributeError):
        delattr(rec, names[0])
    assert rec == cls(*values)


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
def test_pickle_and_copy(cls, names, values, other):
    rec = cls(*values)
    copies = [pickle.loads(pickle.dumps(rec, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(rec), copy.deepcopy(rec)]
    for twin in copies:
        assert type(twin) is cls
        assert twin == rec
        assert tuple(getattr(twin, name) for name in names) == values
        with pytest.raises(AttributeError):
            setattr(twin, names[0], values[0])


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
def test_to_json_needs_no_hook(cls, names, values, other):
    payload = cls(*values).to_json()
    assert json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize(
    "record, expected",
    [
        (RealizabilityVerdict(Realizability.NONDEGENERATE, (3, 0, 1)),
         {"status": "nondegenerate", "gram_inertia": [3, 0, 1]}),
        (EquiarealCandidate(4, 3, 1, F(3, 2), F(1, 4), F(1), True, False, True, False),
         {"n": 4, "t": 3, "s": 1, "x": "3/2", "y": "1/4", "u": "1",
          "realizable": True, "degenerate": False, "equiareal_verified": True, "regular": False}),
        (BetaVector("orthocentric", (F(1), F(1, 2), F(-3)), F(0)),
         {"family": "orthocentric", "beta": ["1", "1/2", "-3"], "residual": "0"}),
        (BetaVector("isodynamic", (1.0, 0.5, 2.25), 1e-17),
         {"family": "isodynamic", "beta": [1.0, 0.5, 2.25], "residual": 1e-17}),
        (CenterSet((0.0, 0.5), (0.25, 0.5), (0.125, 0.0), (0.0, 1.0), 1.5, 0.25),
         {"centroid": [0.0, 0.5], "circumcenter": [0.25, 0.5], "incenter": [0.125, 0.0],
          "fermat": [0.0, 1.0], "circumradius": 1.5, "inradius": 0.25}),
    ],
    ids=["RealizabilityVerdict", "EquiarealCandidate", "BetaVector-exact", "BetaVector-float", "CenterSet"],
)
def test_to_json_wire_form(record, expected):
    assert record.to_json() == expected


def test_coincidence_report_defaults():
    rec = CoincidenceReport(True, False, True, False, True, False, True)
    assert rec.fermat_coincidences is None and rec.center_distances is None
    assert rec == CoincidenceReport(*(True, False) * 3, True, fermat_coincidences=None)
    assert CoincidenceReport(*(True,) * 7, center_distances={"qg": 0.0}).center_distances == {"qg": 0.0}


@pytest.mark.parametrize(
    "cls, values, message",
    [
        (PreKite, (1, 1, (1,)), "n >= 2"),
        (PreKite, (2, 0, (1, 1)), "positive"),
        (PreKite, (2, 1, (1,)), "exactly n"),
        (DistanceTuple, (0, 1, (1,)), "at least 1"),
        (DistanceTuple, (2, 1, (1, 1)), "n\\+1"),
        (DistanceTuple, (2, 0, (1, 1, 1)), "positive"),
        (BorderedUniform, (0, 1, (), (), 1, 2), "at least 1"),
        (BorderedUniform, (2, 1, (1,), (1, 2), 1, 2), "exactly n"),
    ],
)
def test_custom_constructors_keep_their_checks(cls, values, message):
    with pytest.raises(ValueError, match=message):
        cls(*values)


def test_custom_constructors_normalize():
    assert PreKite(2, "1/2", [1, "3"]).v == (F(1), F(3))
    assert BorderedUniform(1, "2", [1], ["1/2"], 0, 1).top == (F(1, 2),)
    assert DistanceTuple(1, 1, [0, 1]).t == (0, 1)


@dataclass(frozen=True)
class _Verdict:
    status: object
    gram_inertia: object


@dataclass(frozen=True)
class _Report:
    well_distributed: bool
    equiradial: bool
    equiareal: bool
    circumcenter_interior: bool
    qg_coincide: bool
    qi_coincide: bool
    ig_coincide: bool
    fermat_coincidences: dict | None = None
    center_distances: dict | None = None


def _opcodes(make) -> int:
    """Bytecode instructions that make() runs, counted on sys.settrace opcode events."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    previous = sys.gettrace()
    collecting = gc.isenabled()
    gc.disable()  # a collection inside make() would count the finalizers and weakref callbacks it runs
    sys.settrace(trace)
    try:
        make()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return count


@pytest.mark.parametrize(
    "record, reference, args",
    [
        (RealizabilityVerdict, _Verdict, "(Realizability.NONDEGENERATE, (3, 0, 1))"),
        (CoincidenceReport, _Report, "(True, True, True, True, True, True, True)"),
    ],
    ids=["RealizabilityVerdict", "CoincidenceReport"],
)
def test_construction_costs_no_more_than_a_frozen_dataclass(record, reference, args):
    # executed bytecode, not time: the same count on every run, whatever the load of the machine
    def executed(cls):
        make = eval("lambda: cls%s" % args, {"cls": cls, "Realizability": Realizability})
        _opcodes(make)  # Python 3.12 can miss every opcode of the first trace a process sets
        return _opcodes(make)

    ours, theirs = executed(record), executed(reference)
    assert 0 < ours <= 1.2 * theirs, (ours, theirs)
