"""One report's outputs, value for value, as `report_golden.json` recorded them.

Each case is a matrix (a generic point cloud at n = 2..12, a member of
each family at three orders, or an equiareal pre-kite at n = 6..12,
scaled by a rational) with `classify(d).to_json()`,
`coincidence_report(d, with_floats=True).to_json()` and the vertices and
`max_rel_error` of `embed(d)`, compared exactly, floats included.
Python 3.12 made float `sum()` compensated, which moves last bits of the
centers and the embedding's round-trip error, so a value that differs
across that line is recorded once per side, under `split`: 3.10 and
3.11 agree, as do 3.12 and 3.13.  A newer Python whose values differ
gets its own variant; the comparison never takes a tolerance.
"""

import json
import sys
from pathlib import Path

import pytest

from simplexkite import SquaredDistanceMatrix, classify, coincidence_report, embed

GOLDEN = json.loads(Path(__file__).with_name("report_golden.json").read_text(encoding="utf-8"))
VARIANT = "before_3_12" if sys.version_info < (3, 12) else "from_3_12"


def _text(value) -> str:
    """The JSON text, so that a float compares by its repr, -0.0 apart from 0.0."""
    return json.dumps(value, sort_keys=True)


def _outputs(d: SquaredDistanceMatrix) -> dict:
    e = embed(d)
    return {
        "classify": classify(d).to_json(),
        "coincidence": coincidence_report(d, with_floats=True).to_json(),
        "vertices": e.vertices,
        "max_rel_error": e.max_rel_error,
    }


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: case["name"])
def test_report_is_value_identical(case):
    expected = {**case["same"], **case["split"][VARIANT]}
    d = SquaredDistanceMatrix.from_json({"n": len(case["a"]) - 1, "a": case["a"]})
    assert _text(_outputs(d)) == _text(expected)


def test_the_cases_cover_every_order_and_family():
    orders = {len(case["a"]) - 1 for case in GOLDEN}
    assert orders == set(range(2, 13))
    members = {name for case in GOLDEN
               for name, verdict in case["same"]["classify"]["families"].items()
               if verdict["member"] and len(case["a"]) > 3}
    assert members == {"orthocentric", "circumscriptible", "isodynamic", "tetra_isogonic"}
