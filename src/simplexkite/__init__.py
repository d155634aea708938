"""Exact-arithmetic toolkit for metric simplex geometry.

Squared-distance matrices are the canonical simplex description; the
exact core (determinants, volumes, circumradii, realizability,
pre-kite closed forms, coincidence predicates, family recognition)
never touches floating point, while the geometry module realizes
matrices as coordinates and computes the four classical centers
numerically.
"""

from .exact import (
    ExactMatrix,
    Scalar,
    SingularMatrixError,
    as_scalar,
    determinant_by_cofactors,
    exact_determinant,
    inertia,
    parse_scalar,
    scalar_str,
    solve_linear,
)
from .determinants import BorderedUniform, bordered_uniform_det, uniform_det, uniform_matrix
from .cayley import (
    DegenerateSimplexError,
    FacetRecord,
    NonEuclideanError,
    Realizability,
    RealizabilityError,
    RealizabilityVerdict,
    SquaredDistanceMatrix,
    cm_det,
    cm_matrix,
    circumcenter_barycentrics,
    circumradius_sq,
    facet_circumradii_sq,
    facet_record,
    facet_sdm,
    facet_volumes_sq,
    gram_ldl,
    gram_matrix,
    inner_cm_det,
    is_realizable,
    volume_sq,
)
from .prekite import (
    ApexReport,
    PreKite,
    apex_squared_ratio_window,
    find_apexes,
    pk_cm_det,
    pk_facet_cm,
    pk_facet_inner_cm,
    pk_inner_cm_det,
    two_apexed,
    two_apexed_feasible,
)
from .geometry import (
    CenterSet,
    ConvergenceError,
    EmbeddedSimplex,
    center_set,
    centroid,
    circumcenter,
    embed,
    fermat_torricelli,
    incenter,
    sum_distances,
    sum_sq_to_vertices,
)
from .centers import (
    CoincidenceReport,
    EquiarealCandidate,
    coincidence_report,
    equiareal_prekite_solve,
    equiareal_scan,
    is_circumcenter_interior,
    is_equiareal,
    is_equiradial,
    is_well_distributed,
    prekite_equiradial_residual,
)
from .families import (
    BetaVector,
    ClassificationReport,
    classify,
    matrix_from_beta,
    recover_circumscriptible,
    recover_isodynamic,
    recover_orthocentric,
    recover_tetra_isogonic,
)
from .relation import (
    DEGENERATE_ON_CIRCLE,
    INCONSISTENT,
    VALID_TRIANGLE,
    DistanceTuple,
    equilateral_vertices,
    on_circumsphere_by_sums,
    pompeiu_classify,
    pompeiu_from_point,
    relation_residual,
    relation_residual_from_squares,
    solve_missing_distance,
    solve_missing_distance_squares,
)

__version__ = "0.1.0"
