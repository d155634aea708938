"""`rel` and `pompeiu` print, byte for byte, what `relation_golden.json` recorded.

The file holds exact input with rational, irrational and no roots, float
input at the scales 1e-300, 1e-150, 1, 1e150 and 1e300 (refusals
included), mixed exact and float input, and the `--tol` cases, each with
its exit code, stdout and stderr.
"""

import json
from pathlib import Path

import pytest

from simplexkite.cli import main

GOLDEN = json.loads(Path(__file__).with_name("relation_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"])[:72])
def test_output_is_byte_identical(capsys, case):
    code = main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])
