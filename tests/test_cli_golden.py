"""Every subcommand's argv handling, byte for byte, as `cli_golden.json` recorded it.

The file holds each subcommand's valid forms (`--flag value`,
`--flag=value`, a flag before, between and after the positionals, `--`,
negative positionals, a repeated option) and every parse error: no or
an unknown command, missing positionals and options, unrecognized
arguments, an option without its value, an invalid int, choice or
tolerance, and a store-true flag given a value.  Each case has its exit
code, stdout and stderr, recorded when argparse read argv.  A case with
a `changed` note records a deliberate change since, the note saying
what argparse did, or what the command printed before.  `@matrix` stands
for a file holding the regular tetrahedron, in argv and in the output.
"""

import json
from pathlib import Path

import pytest

from simplexkite import SquaredDistanceMatrix
from simplexkite.cli import main

GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"])[:72] or "(empty)")
def test_output_is_byte_identical(capsys, tmp_path, case):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(SquaredDistanceMatrix.regular(3).to_json()))
    code = main([str(matrix) if a == "@matrix" else a for a in case["argv"]])
    out, err = (text.replace(str(matrix), "@matrix") for text in capsys.readouterr())
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])
