import json
import subprocess
import sys
from fractions import Fraction

import pytest

from simplexkite import (
    DistanceTuple,
    PreKite,
    SquaredDistanceMatrix,
    facet_volumes_sq,
    relation_residual,
    scalar_str,
    volume_sq,
)
from simplexkite.cli import _COMMANDS, main


@pytest.fixture
def run(capsys):
    def _run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    return _run


def write_matrix(tmp_path, d, name="matrix.json"):
    path = tmp_path / name
    path.write_text(json.dumps(d.to_json()))
    return str(path)


REGULAR3 = SquaredDistanceMatrix.regular(3)
TWO_APEXED = PreKite(3, 1, (1, 1, 2)).to_sdm()
BIG = "1" + "0" * 400  # an exact integer beyond the float range


class TestClassify:
    def test_regular(self, run, tmp_path):
        code, out = run(["classify", write_matrix(tmp_path, REGULAR3)])
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"]["regular"]
        assert payload["coincidence"]["qg_coincide"]
        assert payload["coincidence"]["center_distances"]["ig"] < 1e-9

    def test_two_apexed_no_family(self, run, tmp_path):
        code, out = run(["classify", write_matrix(tmp_path, TWO_APEXED)])
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"]["apexes"] == [0, 3]
        members = [f["member"] for f in payload["classification"]["families"].values()]
        assert not any(members)

    def test_exact_flag_drops_floats(self, run, tmp_path):
        code, out = run(["classify", write_matrix(tmp_path, REGULAR3), "--exact"])
        assert code == 0
        payload = json.loads(out)
        assert "center_distances" not in payload["coincidence"]

    def test_asymmetric_is_bad_input(self, run, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "a": [["0", "1"], ["2", "0"]]}))
        code, _ = run(["classify", str(path)])
        assert code == 1

    def test_malformed_json_is_bad_input(self, run, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(["classify", str(path)])
        assert code == 1

    def test_missing_file_is_bad_input(self, run, tmp_path):
        code, _ = run(["classify", str(tmp_path / "absent.json")])
        assert code == 1

    def test_non_euclidean_exit(self, run, tmp_path):
        bad = SquaredDistanceMatrix([[0, 1, 9], [1, 0, 1], [9, 1, 0]])
        code, _ = run(["classify", write_matrix(tmp_path, bad)])
        assert code == 2

    def test_degenerate_exit(self, run, tmp_path):
        flat = SquaredDistanceMatrix([[0, 1, 4], [1, 0, 1], [4, 1, 0]])
        code, _ = run(["classify", write_matrix(tmp_path, flat)])
        assert code == 2


class TestPrekiteEval:
    def test_values(self, run):
        code, out = run(["prekite-eval", "3", "1", "1", "1", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["cm_det"] == "4"
        assert payload["inner_cm_det"] == "-4"
        assert payload["circumradius_sq"] == "1/2"
        assert not payload["degenerate"]

    def test_boundary_flags_degenerate(self, run):
        code, out = run(["prekite-eval", "3", "1", "1", "1", "3"])
        assert code == 2
        payload = json.loads(out)
        assert payload["cm_det"] == "0"
        assert payload["degenerate"]
        assert payload["circumradius_sq"] is None

    def test_equiareal_flag(self, run):
        code, out = run(["prekite-eval", "4", "1", "1", "1", "1", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["equiareal"]
        assert all(f["cm_det"] == "4" for f in payload["facets"])

    def test_lengths_flag_squares_inputs(self, run):
        code, out = run(["prekite-eval", "3", "1", "--lengths", "1", "1", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["v"] == ["1", "1", "4"]

    def test_an_option_may_stand_inside_the_apex_list(self, run):
        interleaved = run(["prekite-eval", "3", "1", "1", "--lengths", "1", "2"])
        assert interleaved == run(["prekite-eval", "--lengths", "3", "1", "1", "1", "2"])
        assert interleaved[0] == 0

    def test_volumes_match_the_generic_determinants(self, run):
        code, out = run(["prekite-eval", "4", "1", "1", "2", "3", "5/2"])
        assert code == 0
        payload = json.loads(out)
        d = PreKite(4, 1, (1, 2, 3, Fraction(5, 2))).to_sdm()
        assert payload["volume_sq"] == scalar_str(volume_sq(d))
        assert [f["volume_sq"] for f in payload["facets"]] == [scalar_str(v) for v in facet_volumes_sq(d)]

    def test_triangle_case(self, run):
        code, out = run(["prekite-eval", "2", "1", "1", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["cm_det"] == "-3"

    def test_bad_scalar(self, run):
        code, _ = run(["prekite-eval", "3", "1.5", "1", "1", "2"])
        assert code == 1


class TestPrekiteFeasible:
    def test_inside(self, run):
        code, out = run(["prekite-feasible", "4", "1", "2"])
        payload = json.loads(out)
        assert code == 0 and payload["feasible"]
        assert payload["window"] == {"lo": "0", "hi": "8/3", "open": True}

    def test_boundary(self, run):
        code, out = run(["prekite-feasible", "3", "1", "3"])
        payload = json.loads(out)
        assert code == 0 and not payload["feasible"]

    def test_regular(self, run):
        code, out = run(["prekite-feasible", "3", "1", "1"])
        assert json.loads(out)["feasible"]


class TestEquiarealScan:
    def test_dimension_six(self, run):
        code, out = run(["equiareal-scan", "6"])
        assert code == 0
        payload = json.loads(out)
        assert payload["any_nonregular_equiareal"]
        assert payload["claim_agrees"]
        row = next(r for r in payload["rows"] if (r["t"], r["s"]) == (5, 1))
        assert row["y"] == "3/2" and row["equiareal_verified"]

    def test_five_three_two_rejected(self, run):
        code, out = run(["equiareal-scan", "5"])
        payload = json.loads(out)
        row = next(r for r in payload["rows"] if (r["t"], r["s"]) == (3, 2))
        assert row["status"] == "degenerate"

    def test_discrepancy_notes_low_dimension(self, run):
        for n in (4, 5):
            code, out = run(["equiareal-scan", str(n)])
            assert code == 0
            payload = json.loads(out)
            assert payload["any_nonregular_equiareal"]
            assert not payload["claim_agrees"]
            assert payload["notes"]

    def test_dimension_three_boundary(self, run):
        code, out = run(["equiareal-scan", "3"])
        payload = json.loads(out)
        assert not payload["any_nonregular_equiareal"]
        assert payload["claim_agrees"]

    def test_csv_format(self, run):
        code, out = run(["equiareal-scan", "6", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t,s,status")
        assert len(lines) == 4  # header + (5,1), (4,2), (3,3)

    def test_csv_rejected_elsewhere(self, run):
        code, _ = run(["prekite-eval", "3", "1", "1", "1", "2", "--format", "csv"])
        assert code == 1


class TestFlagScope:
    def test_each_flag_only_where_read(self):
        flags = {"--exact", "--tol", "--format", "--lengths"}
        attached = {name: sorted(set(spec[3]) & flags) for name, spec in _COMMANDS.items()}
        assert attached == {
            "classify": ["--exact", "--tol"],
            "prekite-eval": ["--lengths"],
            "prekite-feasible": ["--lengths"],
            "equiareal-scan": ["--format"],
            "rel": ["--tol"],
            "pompeiu": ["--tol"],
            "embed": [],
            "centers": ["--tol"],
        }

    def test_foreign_flag_is_bad_input(self, run, tmp_path):
        matrix = write_matrix(tmp_path, REGULAR3)
        for argv in (
            ["classify", matrix, "--lengths"],
            ["embed", matrix, "--tol", "1e-300"],
            ["pompeiu", "1", "0", "1", "1", "--lengths"],
            ["prekite-feasible", "3", "1", "3", "--exact"],
        ):
            assert run(argv)[0] == 1


class TestRel:
    def test_solve(self, run):
        code, out = run(["rel", "solve", "--n", "2", "--t0", "1", "--known", "0,1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["solutions"] == [1.0]
        assert payload["solution_squares"] == ["1"]

    def test_solve_open_slot_marker(self, run):
        code, out = run(["rel", "solve", "--n", "2", "--t0", "1", "--known", "0,?,1"])
        assert code == 0
        assert json.loads(out)["solutions"] == [1.0]

    def test_verify(self, run):
        code, out = run(["rel", "verify", "--n", "2", "--t0", "1", "--t", "0,1,1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] == "0"
        assert payload["zero_within_tol"]

    def test_verify_nonzero(self, run):
        code, out = run(["rel", "verify", "--n", "2", "--t0", "1", "--t", "1,1,1"])
        payload = json.loads(out)
        assert payload["residual"] == "-4"
        assert not payload["zero_within_tol"]

    def test_verify_exact_beyond_the_float_range(self, run):
        code, out = run(["rel", "verify", "--n", "2", "--t0", BIG, "--t", BIG + ",1,1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] == scalar_str(relation_residual(DistanceTuple(2, 10**400, (10**400, 1, 1))))
        assert payload["zero_within_tol"] is False

    def test_solve_exact_squares_beyond_the_float_range(self, run):
        big = "1" + "0" * 200
        code, out = run(["rel", "solve", "--n", "2", "--t0", big, "--known", big + "," + big])
        assert code == 0
        payload = json.loads(out)
        assert payload["solution_squares"] == ["0", str(3 * 10**400)]
        assert payload["solutions"] == pytest.approx([0.0, 3**0.5 * 1e200], rel=1e-15)

    def test_missing_args(self, run):
        code, _ = run(["rel", "solve", "--n", "2", "--t0", "1"])
        assert code == 1

    def test_verify_float_verdict_at_tiny_magnitudes(self, run):
        code, out = run(["rel", "verify", "--n", "2", "--t0", "1e-80", "--t", "1e-80,1e-80,1e-80"])
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] == -4.0  # relative to the fourth power of 1e-80: what the lengths at 1 give
        assert payload["zero_within_tol"] is False

    @pytest.mark.parametrize(
        "t0, t, residual",
        [("1e100", "1e100,1,1", 2.0), (BIG, "1.0,1,1", 2.0), ("1", "0,1,1.0", 0.0)],
        ids=["1e100", "exact-1e400-beside-a-float", "vertex"],
    )
    def test_verify_prints_the_relative_residual_it_decides(self, run, t0, t, residual):
        code, out = run(["rel", "verify", "--n", "2", "--t0", t0, "--t", t])
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] == residual
        assert payload["zero_within_tol"] is (residual == 0)

    def test_solve_exact_distance_beyond_the_float_range_beside_a_float(self, run):
        code, out = run(["rel", "solve", "--n", "2", "--t0", "1.5", "--known", BIG + ",1"])
        assert code == 0
        assert json.loads(out)["solutions"] == []

    @pytest.mark.parametrize("side", ["1e-200", "1e-160", "1e160"])
    def test_solve_refuses_a_square_outside_the_normal_float_range(self, run, side):
        # the larger square, 3 side**2, would print as 0.0, as a subnormal float or as infinity
        code, out = run(["rel", "solve", "--n", "2", "--t0", side, "--known", side + "," + side])
        assert (code, out) == (1, "")

    def test_solve_float_roots_at_a_small_magnitude(self, run):
        code, out = run(["rel", "solve", "--n", "2", "--t0", "1e-150", "--known", "1e-150,1e-150"])
        assert code == 0
        payload = json.loads(out)
        assert payload["solution_squares"] == pytest.approx([0.0, 3e-300], rel=1e-15)
        assert payload["solutions"] == pytest.approx([0.0, 3**0.5 * 1e-150], rel=1e-15)


class TestPompeiu:
    @pytest.mark.parametrize("side", ["1e-100", "1.0", "1e100", "1e308"])
    def test_float_verdict_at_every_magnitude(self, run, side):
        # the invariants print relative to the fourth power of the side, as the verdict reads them
        code, out = run(["pompeiu"] + [side] * 4)
        assert code == 0
        payload = json.loads(out)
        assert (payload["g"], payload["h"], payload["verdict"]) == (-4.0, 3.0, "inconsistent")

    def test_float_input_prints_both_invariants_as_floats(self, run):
        code, out = run(["pompeiu", "2.0", "1", "1", "1"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["g"], payload["h"]) == (0.5, 0.1875)  # 8 and 3 over 2**4

    def test_inconsistent(self, run):
        code, out = run(["pompeiu", "1", "1", "1", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "inconsistent"
        assert payload["g"] == "-4"

    def test_vertex(self, run):
        code, out = run(["pompeiu", "1", "0", "1", "1"])
        assert json.loads(out)["verdict"] == "degenerate_on_circle"

    def test_exact_beyond_the_float_range(self, run):
        code, out = run(["pompeiu", BIG, "0", "1", "1"])
        assert code == 0
        assert json.loads(out)["verdict"] == "inconsistent"


@pytest.mark.parametrize("side_sq", ["1" + "0" * 160, "1" + "0" * 320, "1/1" + "0" * 330], ids=["1e160", "1e320", "1e-330"])
def test_classify_extreme_magnitudes(run, tmp_path, side_sq):
    # the exact census of a regular tetrahedron whose squares leave the float range
    code, out = run(["classify", write_matrix(tmp_path, SquaredDistanceMatrix.regular(3, side_sq)), "--exact"])
    assert code == 0
    families = json.loads(out)["classification"]["families"]
    assert all(f["member"] for f in families.values())


@pytest.mark.parametrize("command", ["classify", "centers", "embed"])
@pytest.mark.parametrize(
    "side_sq, code", [("1" + "0" * 160, 0), ("1" + "0" * 320, 1), ("1/1" + "0" * 330, 1)], ids=["1e160", "1e320", "1e-330"]
)
def test_float_commands_at_extreme_magnitudes(capsys, tmp_path, command, side_sq, code):
    # facet volumes of about 1e480 leave the float range, the centers do not;
    # squared edges whose floats overflow or fall below the normal range are refused
    assert main([command, write_matrix(tmp_path, SquaredDistanceMatrix.regular(3, side_sq))]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == ""
        assert err == "error: squared distances leave the float range; the exact results (classify --exact) do not need floats\n"
    else:
        assert "Infinity" not in out and "NaN" not in out


def test_float_commands_need_no_numpy(tmp_path):
    # numpy is a test dependency only: the package must run with it blocked
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from simplexkite.cli import main\n"
        "codes = [main([command, sys.argv[1]]) for command in ('classify', 'centers', 'embed')]\n"
        "sys.exit(codes != [0, 0, 0])\n"
    )
    path = write_matrix(tmp_path, TWO_APEXED)
    proc = subprocess.run([sys.executable, "-c", script, path], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestEmbedAndCenters:
    def test_embed(self, run, tmp_path):
        code, out = run(["embed", write_matrix(tmp_path, TWO_APEXED)])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["vertices"]) == 4
        assert payload["max_rel_error"] <= 1e-9

    def test_embed_degenerate(self, run, tmp_path):
        flat = SquaredDistanceMatrix([[0, 1, 4], [1, 0, 1], [4, 1, 0]])
        code, _ = run(["embed", write_matrix(tmp_path, flat)])
        assert code == 2

    def test_centers(self, run, tmp_path):
        code, out = run(["centers", write_matrix(tmp_path, REGULAR3)])
        assert code == 0
        payload = json.loads(out)
        assert payload["circumradius"] == pytest.approx((3 / 8) ** 0.5)
        assert payload["n"] == 3


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, run, tmp_path):
        path = write_matrix(tmp_path, TWO_APEXED)
        for argv in (
            ["classify", path],
            ["equiareal-scan", "6"],
            ["prekite-eval", "4", "1", "1", "1", "1", "2"],
            ["centers", path],
        ):
            _, first = run(argv)
            _, second = run(argv)
            assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "simplexkite", "prekite-eval", "3", "1", "1", "1", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cm_det"] == "4"


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_is_written_from_the_command_table(run, command, flag):
    code, out = run([flag] if command is None else [command, flag])
    assert code == 0
    assert out.startswith("usage: simplexkite %s " % (command or "<command>"))
    for word in _COMMANDS if command is None else _COMMANDS[command][3]:
        assert word in out


def test_help_is_given_where_it_is_read():
    # as argparse did: an error before -h wins, -h before an error exits 0
    assert main(["pompeiu", "-h", "--tol", "x"]) == 0
    assert main(["pompeiu", "--tol", "x", "-h"]) == 1
    assert main(["frobnicate", "-h"]) == 1
    assert main(["-x", "-h", "frobnicate"]) == 0


def test_unknown_command_is_bad_input():
    assert main(["frobnicate"]) == 1


def test_boolean_matrix_entry_is_bad_input(run, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"n": 1, "a": [["0", True], [True, "0"]]}))
    assert run(["classify", str(path)])[0] == 1
    path.write_text(json.dumps({"n": True, "a": [["0", "1"], ["1", "0"]]}))
    assert run(["embed", str(path)])[0] == 1


BAD_INPUT = [
    (["prekite-eval", "3", "1/0", "1", "1", "1"], "zero denominator in scalar: '1/0'"),
    (["prekite-feasible", "3", "abc", "2"], "not a valid scalar: 'abc'"),
    (["prekite-eval", "3", "1", "1", "1"], "expected exactly n apex edge parameters"),
    (["prekite-feasible", "3", "0", "2"], "need n >= 2 and positive parameters"),
    (["rel", "solve", "--n", "2", "--t0", "1", "--known", "?,?,1"], "exactly one slot must be open"),
    (["rel", "solve", "--n", "2", "--t0", "1", "--known=-1,1"], "lengths must be positive (known distances nonnegative)"),
    (["rel", "solve", "--n", "2", "--t0", "1"], "rel solve needs --known"),
    (["rel", "verify", "--n", "2", "--t0", "1", "--t=-1,1,1"], "distances must be nonnegative"),
    (["rel", "verify", "--n", "2", "--t0", "1", "--t", "1,?,1"], "rel verify needs all n+1 distances"),
    (["rel", "verify", "--n", "2", "--t0", "1", "--t", "1"], "expected n or n+1 comma-separated distances"),
    (["pompeiu", "--", "1", "-1", "1", "1"], "side must be positive and distances nonnegative"),
    (["pompeiu", "1", "x", "1", "1"], "not a number: 'x'"),
    (["equiareal-scan", "13"], "scan supports 3 <= n <= 12"),
    (["pompeiu", "1", "0", "1"], "the following arguments are required: z"),
    (["classify", "m.json", "--lengths"], "unrecognized arguments: --lengths"),
    (["rel", "solve", "--n", "2", "--t0", "1", "--known", "0,1,?", "--tol", "5"], "rel solve does not read --tol"),
    (["rel", "solve", "--n", "1", "--t0", "1", "--known", "1,,?"], "empty field in comma-separated distances: '1,,?'"),
    (["rel", "verify", "--n", "2", "--t0", "1", "--t", ",0,1,1,"], "empty field in comma-separated distances: ',0,1,1,'"),
    (["rel", "verify", "--n", "2", "--t0", "1", "--t", "0,1,1", "--known", "5"], "rel verify does not read --known"),
    (["rel", "solve", "--n", "2", "--t0", "1", "--known", "0,1", "--t", "9,9,9"], "rel solve does not read --t"),
    # refusals come in one order whatever the flags' order: --tol, --t, --known, then the flag the mode needs
    (["rel", "solve", "--n", "2", "--t0", "1", "--t", "9,9,9", "--tol", "5"], "rel solve does not read --tol"),
    (["rel", "verify", "--n", "2", "--t0", "1", "--known", "5", "--tol", "5"], "rel verify does not read --known"),
]


@pytest.mark.parametrize("argv, message", BAD_INPUT)
def test_bad_input_message(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_bad_matrix_file_messages(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    asym = tmp_path / "asym.json"
    asym.write_text(json.dumps({"n": 1, "a": [["0", "1"], ["2", "0"]]}))
    for path, message in (
        (broken, "malformed JSON in %s: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (asym, "invalid matrix in %s: matrix must be symmetric"),
    ):
        assert main(["classify", str(path)]) == 1
        assert capsys.readouterr().err == "error: %s\n" % (message % path)


@pytest.mark.parametrize("command", ["centers", "classify"])
def test_float_commands_next_to_an_almost_120_degree_vertex(run, tmp_path, command):
    d = SquaredDistanceMatrix([[0, 1, 1], [1, 0, 3 - Fraction(1, 10**6)], [1, 3 - Fraction(1, 10**6), 0]])
    code, out = run([command, write_matrix(tmp_path, d)])
    assert code == 0
    assert json.loads(out)


HOSTILE_NUMBERS = [
    (["rel", "solve", "--n", "2", "--t0", "1", "--known", "0,?"], "expected n known distances or n+1 with one None"),
    (["rel", "solve", "--n", "2", "--t0", "inf", "--known", "0,1"], "float inputs must be finite"),
    (["pompeiu", "nan", "0", "1", "1"], "float inputs must be finite"),
    (["pompeiu", "1", "0", "inf", "1"], "float inputs must be finite"),
    (["rel", "verify", "--n", "2", "--t0", "1", "--t", "0,nan,1"], "float inputs must be finite"),
    (["pompeiu", "--tol", "nan", "1", "0.5", "0.5", "0.5"], "argument --tol: must be finite and positive: 'nan'"),
    (["rel", "verify", "--n", "2", "--t0", "1", "--t", "0,1,1", "--tol", "nan"], "argument --tol: must be finite and positive: 'nan'"),
    (["rel", "solve", "--n", "0", "--t0", "1", "--known", "?"], "dimension must be at least 1"),
    (["rel", "solve", "--n", "2", "--t0", BIG, "--known", BIG + "," + BIG], "a root lies beyond the float range"),
    (["rel", "solve", "--n", "2", "--t0", BIG[:201], "--known", BIG[:201] + ",2"], "a root lies beyond the float range"),
    (["prekite-eval", "3", "--lengths", "1", "1", "1", "-2"], "plain lengths must be positive"),
    (["prekite-feasible", "3", "--lengths", "1", "-3"], "plain lengths must be positive"),
]


@pytest.mark.parametrize("argv, message", HOSTILE_NUMBERS)
def test_hostile_numbers_are_bad_input(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
@pytest.mark.parametrize("command", ["centers", "classify"])
def test_tol_must_be_finite_and_positive(capsys, tmp_path, command, tol):
    assert main([command, "--tol", tol, write_matrix(tmp_path, REGULAR3)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument --tol: must be finite and positive: %r\n" % tol
