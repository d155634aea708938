"""The three value classes, `SquaredDistanceMatrix`, `ExactMatrix` and
`EmbeddedSimplex`, are frozen records (`exact.Record`): no attribute can be
assigned or deleted, a private slot (a name starting with `_`) is kept
state that equality, hash, `__match_args__` and `to_json` leave out, and
pickle and copy keep it.
"""

import copy
import json
import pickle
from fractions import Fraction

import pytest

from simplexkite import (
    EmbeddedSimplex,
    ExactMatrix,
    SquaredDistanceMatrix,
    circumcenter_barycentrics,
    embed,
    facet_volumes_sq,
    volume_sq,
)
from simplexkite.cli import main
from simplexkite.exact import Record

F = Fraction
SLOTS = ("n", "a", "_dist", "_den", "_gram", "_weights", "_dets", "_floats")


def _kept_matrix():
    """The regular unit tetrahedron with its elimination, circumcenter weights
    and facet determinants kept."""
    d = SquaredDistanceMatrix.regular(3)
    volume_sq(d)
    circumcenter_barycentrics(d)
    facet_volumes_sq(d)
    assert None not in (d._gram, d._weights, d._dets)
    return d


def _values():
    d = _kept_matrix()
    return [d, ExactMatrix([[1, F(1, 2)], [0, -3]]), embed(d)]


@pytest.mark.parametrize("cls", [SquaredDistanceMatrix, ExactMatrix, EmbeddedSimplex])
def test_value_classes_are_records_without_their_own_equality(cls):
    assert issubclass(cls, Record)
    for name in ("__eq__", "__hash__", "__setattr__", "__delattr__"):
        assert name not in vars(cls)
    assert "to_json" not in vars(SquaredDistanceMatrix)


@pytest.mark.parametrize("value", _values(), ids=["SquaredDistanceMatrix", "ExactMatrix", "EmbeddedSimplex"])
def test_every_attribute_refuses_assignment_and_deletion(value):
    before = copy.deepcopy(value)
    for name in (*type(value).__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == before
    assert all(getattr(value, name) == getattr(before, name) for name in type(value).__slots__)


def test_reassigned_entries_cannot_outlive_a_kept_elimination():
    d = SquaredDistanceMatrix.regular(2)
    assert volume_sq(d) == F(3, 16)
    with pytest.raises(AttributeError):
        d.a = ((0, 1, 100), (1, 0, 1), (100, 1, 0))
    with pytest.raises(AttributeError):
        d._gram = None
    assert volume_sq(d) == F(3, 16)
    assert d.to_json() == {"n": 2, "a": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]}


def test_private_slots_stay_out_of_equality_hash_and_json():
    d, fresh = _kept_matrix(), SquaredDistanceMatrix.regular(3)
    assert fresh._gram is None
    assert d == fresh and hash(d) == hash(fresh) and len({d, fresh}) == 1
    assert d.to_json() == fresh.to_json() == {"n": 3, "a": [[str(int(i != j)) for j in range(4)] for i in range(4)]}
    assert SquaredDistanceMatrix.__match_args__ == ("n", "a")
    assert ExactMatrix.__match_args__ == ("order", "rows")
    assert EmbeddedSimplex.__match_args__ == ("n", "vertices", "source", "max_rel_error")
    assert d != SquaredDistanceMatrix.regular(3, 2)


def test_pickle_and_deepcopy_keep_the_kept_results():
    d = _kept_matrix()
    twins = [pickle.loads(pickle.dumps(d, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    twins.append(copy.deepcopy(d))
    for twin in twins:
        assert type(twin) is SquaredDistanceMatrix and twin is not d
        assert (twin.n, twin.a) == (d.n, d.a)
        assert twin._gram == d._gram and twin._gram is not None
        assert tuple(getattr(twin, name) for name in SLOTS) == tuple(getattr(d, name) for name in SLOTS)
        with pytest.raises(AttributeError):
            twin.a = d.a
        assert volume_sq(twin) == F(1, 72)


def test_embedded_simplex_json_is_what_embed_prints(tmp_path, capsys):
    d = SquaredDistanceMatrix([[0, 1, F(5, 2), 3], [1, 0, 2, F(9, 4)], [F(5, 2), 2, 0, 1], [3, F(9, 4), 1, 0]])
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(d.to_json()))
    assert main(["embed", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(embed(d).to_json(), indent=2, sort_keys=True) + "\n"
    assert set(embed(d).to_json()) == {"n", "vertices", "max_rel_error"}
