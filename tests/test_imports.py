"""What a process loads, and the public names the package keeps.

The package imports its modules on first use, and each CLI command
imports only what it runs.  Each footprint is taken in a fresh
interpreter, since this process has long since loaded everything.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
import typing

import pytest

import simplexkite
from simplexkite import SquaredDistanceMatrix

SRC = os.path.dirname(os.path.dirname(simplexkite.__file__))

# The package's public API, by defining module: what it was when every
# module was imported eagerly, less `FacetRecord` and `facet_record`.
API = {
    "exact": "ExactMatrix Scalar SingularMatrixError as_scalar determinant_by_cofactors exact_determinant "
    "inertia parse_scalar scalar_str solve_linear",
    "cayley": "DegenerateSimplexError NonEuclideanError Realizability RealizabilityError "
    "RealizabilityVerdict SquaredDistanceMatrix cm_det cm_matrix circumcenter_barycentrics circumradius_sq "
    "facet_circumradii_sq facet_sdm facet_volumes_sq gram_ldl gram_matrix inner_cm_det "
    "is_realizable volume_sq",
    "prekite": "BorderedUniform EquiarealCandidate PreKite apex_squared_ratio_window bordered_uniform_det "
    "equiareal_prekite_solve equiareal_scan pk_cm_det pk_facet_cm pk_facet_inner_cm pk_inner_cm_det "
    "prekite_equiradial_residual two_apexed two_apexed_feasible uniform_det uniform_matrix",
    "geometry": "CenterSet ConvergenceError EmbeddedSimplex center_set centroid circumcenter embed "
    "fermat_torricelli incenter sum_distances",
    "centers": "CoincidenceReport coincidence_report is_circumcenter_interior is_equiareal is_equiradial "
    "is_well_distributed",
    "families": "ApexReport BetaVector ClassificationReport classify find_apexes matrix_from_beta "
    "recover_circumscriptible recover_isodynamic recover_orthocentric recover_tetra_isogonic",
    "relation": "DEGENERATE_ON_CIRCLE INCONSISTENT VALID_TRIANGLE DistanceTuple equilateral_vertices "
    "on_circumsphere_by_sums pompeiu_classify pompeiu_from_point relation_residual "
    "relation_residual_from_squares solve_missing_distance solve_missing_distance_squares",
}
EXPORTS = {name: module for module, names in API.items() for name in names.split()}


def fresh(script, *args):
    """Run script in a new interpreter that finds this package; its result."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env)


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'simplexkite')), file=sys.stderr)"

# `python -m simplexkite ARGS`, then the package's modules on stderr's last line
RUN_CLI = (
    "import json, runpy, sys\n"
    "sys.argv = ['simplexkite'] + sys.argv[1:]\n"
    "try:\n"
    "    runpy.run_module('simplexkite', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0, exc.code\n" + LOADED + "\n"
)

CLI = {"simplexkite", "simplexkite.exact", "simplexkite.cli"}
# the elimination kernel comes with cayley; the cheap commands, whose footprints
# below are exact sets, neither import nor compile it
KERNEL = CLI | {"simplexkite.cayley", "simplexkite.linalg"}
FLOATS = KERNEL | {"simplexkite.geometry"}
MATRIX = "@matrix"


def with_matrix(tmp_path, argv):
    """argv with each MATRIX placeholder replaced by a file holding the regular tetrahedron."""
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(SquaredDistanceMatrix.regular(3).to_json()))
    return [str(path) if a == MATRIX else a for a in argv]


FOOTPRINTS = [
    pytest.param(["prekite-eval", "4", "1", "1", "1", "1", "2"], CLI | {"simplexkite.prekite"}, id="prekite-eval"),
    # every facet at n = 2 is a segment: m = 1 and mu = 0 in the bordered form, still with no kernel
    pytest.param(["prekite-eval", "2", "1", "1", "1"], CLI | {"simplexkite.prekite"}, id="prekite-eval-n2"),
    pytest.param(["prekite-feasible", "3", "1", "3"], CLI | {"simplexkite.prekite"}, id="prekite-feasible"),
    pytest.param(["rel", "solve", "--n", "2", "--t0", "1", "--known", "0,1"], CLI | {"simplexkite.relation"}, id="rel-solve"),
    pytest.param(["rel", "verify", "--n", "2", "--t0", "1", "--t", "0,1,1"], CLI | {"simplexkite.relation"}, id="rel-verify"),
    pytest.param(["pompeiu", "1", "0", "1", "1"], CLI | {"simplexkite.relation"}, id="pompeiu"),
    pytest.param(["embed", MATRIX], FLOATS, id="embed"),
    pytest.param(["centers", MATRIX], FLOATS, id="centers"),
    pytest.param(["equiareal-scan", "4"], CLI | {"simplexkite.prekite"}, id="equiareal-scan"),
    # classify reads its center distances off the kept elimination, with no coordinates
    pytest.param(["classify", MATRIX], KERNEL | {"simplexkite.centers", "simplexkite.families"}, id="classify"),
]


@pytest.mark.parametrize(
    "script, loaded",
    [
        ("import json, sys\nimport simplexkite\n" + LOADED, {"simplexkite"}),
        ("import json, sys\nimport simplexkite.cli\n" + LOADED, CLI),
    ],
    ids=["package", "cli-module"],
)
def test_import_footprint(script, loaded):
    proc = fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stderr.splitlines()[-1])) == loaded


@pytest.mark.parametrize("argv, loaded", FOOTPRINTS)
def test_command_footprint(tmp_path, argv, loaded):
    proc = fresh(RUN_CLI, *with_matrix(tmp_path, argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    found = set(json.loads(proc.stderr.splitlines()[-1]))
    assert found == loaded


def test_prekite_and_its_closed_forms_load_no_elimination():
    # the uniform forms run on `exact._det`; only the oracle matrix reaches `linalg`, through the package
    script = (
        "import json, sys\n"
        "from fractions import Fraction\n"
        "import simplexkite.prekite as pk\n"
        "loaded = [sorted(m for m in sys.modules if m.split('.')[0] == 'simplexkite')]\n"
        "assert pk.uniform_det(4, 1, 3) == 48\n"
        "assert pk.bordered_uniform_det(pk.BorderedUniform(2, 5, (1, 2), (3, 4), 7, 9)) == 131\n"
        "loaded.append(sorted(m for m in sys.modules if m.split('.')[0] == 'simplexkite'))\n"
        "m = pk.uniform_matrix(3, 1, 2)\n"
        "loaded.append([type(m).__module__, type(m).__name__, [[str(x) for x in r] for r in m.rows]])\n"
        "print(json.dumps(loaded), file=sys.stderr)\n"
    )
    proc = fresh(script)
    assert proc.returncode == 0, proc.stderr
    on_import, after_forms, oracle = json.loads(proc.stderr.splitlines()[-1])
    assert on_import == after_forms == ["simplexkite", "simplexkite.exact", "simplexkite.prekite"]
    assert oracle == ["simplexkite.linalg", "ExactMatrix", [["2", "1", "1"], ["1", "2", "1"], ["1", "1", "2"]]]


def test_geometry_reads_no_gram_elimination():
    # `cayley` is the one reader of the kept elimination: geometry takes the frame's columns, Q's
    # coordinates in it and the incenter's floats from it, and reads no field of the elimination
    import simplexkite.geometry as geometry

    assert not {"_gram_elimination", "_facet_dets", "_root", "_scaled_sqrt", "_times"} & set(vars(geometry))
    with open(geometry.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    fields = {"rows", "minors", "scale", "verdict", "corner"}
    assert not [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in fields]


def test_the_kuhn_pull_is_defined_once_in_cayley():
    # the Fermat point and the report's fi flag are held to one summed unit vector, which only cayley defines
    import simplexkite.cayley as cayley
    import simplexkite.centers as centers
    import simplexkite.geometry as geometry

    assert geometry._pull is centers._pull is cayley._pull
    assert geometry._units is cayley._units
    with open(geometry.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    assert not [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name in {
        "_pull", "_units"}]


def _tree(module) -> ast.Module:
    with open(module.__file__, encoding="utf-8") as source:
        return ast.parse(source.read())


def _calls(node, name: str) -> int:
    """How many calls under node go to `name`, as a bare name or as an attribute."""
    return sum(isinstance(call, ast.Call) and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
               for call in ast.walk(node))


def test_integer_floors_and_json_payloads_are_read_in_exact_alone():
    # `exact._integer` raises every "must be at least" floor and `exact._from_json` parses every payload
    package = os.path.dirname(simplexkite.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "exact.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as source:
            tree = ast.parse(source.read())
        floors = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and "must be at least" in node.value]
        loads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "loads"]
        assert (floors, loads) == ([], []), name
    import simplexkite.exact as exact

    assert _calls(_tree(exact), "loads") == 1


def test_the_centroid_and_incenter_sums_are_defined_once_in_cayley():
    # the centers command and the report's frame take G and I by the same two sums, which only cayley defines
    import simplexkite.cayley as cayley
    import simplexkite.geometry as geometry

    assert geometry._mean is cayley._mean
    assert geometry._push is cayley._push
    functions = {node.name: node for module in (geometry, cayley) for node in ast.walk(_tree(module))
                 if isinstance(node, ast.FunctionDef)}
    for name, sums in (("centroid", {"_mean"}), ("incenter", {"_push"}), ("_frame", {"_mean", "_push"})):
        assert all(_calls(functions[name], total) == 1 for total in sums), name
        assert _calls(functions[name], "fsum") == 0, name


def test_a_root_leaves_cayley_only_through_scaled_sqrt():
    # every float root of cayley's integers is one `_scaled_sqrt`: no second square root sits beside it
    import simplexkite.cayley as cayley

    tree = _tree(cayley)
    roots = {"sqrt", "isqrt"}
    owner = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_scaled_sqrt")
    assert sum(_calls(tree, name) for name in roots) == sum(_calls(owner, name) for name in roots) == 1
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "math"]


def test_exports_are_the_defining_modules_objects():
    assert len(EXPORTS) == 82
    for name, module in EXPORTS.items():
        assert getattr(simplexkite, name) is getattr(importlib.import_module("simplexkite." + module), name), name


def _annotated():
    """Each exported function, and each function, static or class method and
    property getter defined on an exported class, by its dotted name."""
    for name in sorted(EXPORTS):
        value = getattr(simplexkite, name)
        if isinstance(value, types.FunctionType):
            yield name, value
        elif isinstance(value, type):
            for attr, member in vars(value).items():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if isinstance(member, types.FunctionType):
                    yield "%s.%s" % (name, attr), member


def test_every_annotation_resolves():
    # annotations are strings under `from __future__ import annotations`, so a name
    # the defining module does not import fails only when something evaluates it
    functions = dict(_annotated())
    assert len(functions) > 100
    failures = {}
    for name, function in functions.items():
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            failures[name] = str(exc)
    assert failures == {}


def test_exact_hands_out_the_kernel_names_of_linalg():
    import simplexkite.exact as exact
    import simplexkite.linalg as linalg

    moved = "ExactMatrix SingularMatrixError determinant_by_cofactors exact_determinant inertia solve_linear"
    for name in moved.split():
        assert getattr(exact, name) is getattr(linalg, name) is getattr(simplexkite, name), name
    with pytest.raises(AttributeError, match="no attribute '_bareiss'"):
        exact._bareiss


def test_dir_star_import_and_submodules_in_a_fresh_interpreter():
    script = (
        "import json, types\n"
        "import simplexkite\n"
        "listed = dir(simplexkite)\n"
        "assert isinstance(simplexkite.geometry, types.ModuleType)\n"
        "assert simplexkite.geometry.embed is simplexkite.embed\n"
        "names = {}\n"
        "exec('from simplexkite import *', names)\n"
        "names.pop('__builtins__')\n"
        "print(json.dumps([listed, sorted(names)]))\n"
    )
    proc = fresh(script)
    assert proc.returncode == 0, proc.stderr
    listed, names = json.loads(proc.stdout)
    assert set(EXPORTS) | set(API) <= set(listed)
    assert len(names) == 89
    assert set(names) == set(EXPORTS) | set(API)


def test_submodules_are_the_imported_modules():
    for module in API:
        value = getattr(simplexkite, module)
        assert isinstance(value, types.ModuleType)
        assert value is sys.modules["simplexkite." + module]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'volume_sq_from_cm_det'"):
        simplexkite.volume_sq_from_cm_det
    assert not hasattr(simplexkite, "nonsense")
    with pytest.raises(ImportError):
        from simplexkite import nonsense  # noqa: F401



# `dataclasses` imports `inspect`, which pulls in `ast`, `dis` and `tokenize`, and `argparse`
# imports `gettext`, and `locale` once it parses: start-up no command needs
HEAVY = ("dataclasses", "inspect", "argparse", "gettext", "locale")
ABSENT = "print(json.dumps([m for m in %r if m in sys.modules]), file=sys.stderr)" % (HEAVY,)


@pytest.mark.parametrize(
    "argv",
    [pytest.param(["import simplexkite"], id="package"), pytest.param(["import simplexkite.cli"], id="cli-module")]
    + [pytest.param(p.values[0], id=p.id) for p in FOOTPRINTS],
)
def test_no_process_loads_dataclasses_or_inspect(tmp_path, argv):
    if argv[0].startswith("import "):
        proc = fresh("import json, sys\n%s\n%s" % (argv[0], ABSENT))
    else:
        proc = fresh(RUN_CLI.replace(LOADED, ABSENT), *with_matrix(tmp_path, argv))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == []


@pytest.mark.parametrize("argv", [p.values[0] for p in FOOTPRINTS], ids=[p.id for p in FOOTPRINTS])
def test_no_command_loads_typing_without_the_site_hooks(tmp_path, argv):
    # a site-packages hook may import `typing` into every process, so -S leaves only what the command loads
    script = RUN_CLI.replace(LOADED, "print(json.dumps('typing' in sys.modules), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", script, *with_matrix(tmp_path, argv)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert json.loads(proc.stderr.splitlines()[-1]) is False


def test_measuring_a_matrix_loads_no_json():
    # `json` is imported by the `from_json` parsers alone, so an in-process caller that
    # builds a matrix and reads its values never pays for it; -S keeps site hooks out
    script = (
        "import sys\n"
        "from simplexkite import SquaredDistanceMatrix, classify, coincidence_report, volume_sq\n"
        "d = SquaredDistanceMatrix([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]])\n"
        "volume_sq(d)\n"
        "classify(d)\n"
        "coincidence_report(d, with_floats=True)\n"
        "print(sorted(m for m in ('json', 'json.decoder') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    proc = fresh("import sys\nfrom simplexkite import PreKite, SquaredDistanceMatrix\n"
                 "SquaredDistanceMatrix.from_json('{\"n\": 1, \"a\": [[0, 1], [1, 0]]}')\n"
                 "PreKite.from_json('{\"n\": 3, \"u\": \"1\", \"v\": [\"1\", \"1\", \"1\"]}')\n"
                 "print('json' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"
