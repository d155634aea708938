"""Exact-arithmetic toolkit for metric simplex geometry.

Squared-distance matrices are the canonical simplex description; the
exact core (determinants, volumes, circumradii, realizability,
pre-kite closed forms, coincidence predicates, family recognition)
never touches floating point, while the geometry module realizes
matrices as coordinates and computes the four classical centers
numerically.

Importing the package loads none of its modules.  Each exported name,
and each of the seven submodules, is imported on first access (PEP 562)
by the one table below, which `cli` and `prekite` read names through too,
and then kept on the package, so a process pays only for the modules it
uses: `python -m simplexkite prekite-eval ...` loads `cli`, `exact` and `prekite`.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them; `exact` also hands out
# the elimination kernel's, which live in `linalg`, so that only a command
# that eliminates loads it.
_EXPORTS = {
    "exact": (
        "ExactMatrix",
        "Scalar",
        "SingularMatrixError",
        "as_scalar",
        "determinant_by_cofactors",
        "exact_determinant",
        "inertia",
        "parse_scalar",
        "scalar_str",
        "solve_linear",
    ),
    "cayley": (
        "DegenerateSimplexError",
        "NonEuclideanError",
        "Realizability",
        "RealizabilityError",
        "RealizabilityVerdict",
        "SquaredDistanceMatrix",
        "cm_det",
        "cm_matrix",
        "circumcenter_barycentrics",
        "circumradius_sq",
        "facet_circumradii_sq",
        "facet_sdm",
        "facet_volumes_sq",
        "gram_ldl",
        "gram_matrix",
        "inner_cm_det",
        "is_realizable",
        "volume_sq",
    ),
    "prekite": (
        "BorderedUniform",
        "EquiarealCandidate",
        "PreKite",
        "apex_squared_ratio_window",
        "bordered_uniform_det",
        "equiareal_prekite_solve",
        "equiareal_scan",
        "pk_cm_det",
        "pk_facet_cm",
        "pk_facet_inner_cm",
        "pk_inner_cm_det",
        "prekite_equiradial_residual",
        "two_apexed",
        "two_apexed_feasible",
        "uniform_det",
        "uniform_matrix",
    ),
    "geometry": (
        "CenterSet",
        "ConvergenceError",
        "EmbeddedSimplex",
        "center_set",
        "centroid",
        "circumcenter",
        "embed",
        "fermat_torricelli",
        "incenter",
        "sum_distances",
    ),
    "centers": (
        "CoincidenceReport",
        "coincidence_report",
        "is_circumcenter_interior",
        "is_equiareal",
        "is_equiradial",
        "is_well_distributed",
    ),
    "families": (
        "ApexReport",
        "BetaVector",
        "ClassificationReport",
        "classify",
        "find_apexes",
        "matrix_from_beta",
        "recover_circumscriptible",
        "recover_isodynamic",
        "recover_orthocentric",
        "recover_tetra_isogonic",
    ),
    "relation": (
        "DEGENERATE_ON_CIRCLE",
        "INCONSISTENT",
        "VALID_TRIANGLE",
        "DistanceTuple",
        "equilateral_vertices",
        "on_circumsphere_by_sums",
        "pompeiu_classify",
        "pompeiu_from_point",
        "relation_residual",
        "relation_residual_from_squares",
        "solve_missing_distance",
        "solve_missing_distance_squares",
    ),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)  # binds the submodule here
    if name not in _ORIGIN:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(importlib.import_module("." + _ORIGIN[name], __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
