"""Optimization over the nonnegative orthogonal set.

Minimize a smooth objective over {X : X^T X = I, X >= 0} by driving smooth
penalties of the nonnegativity violation over the Stiefel manifold, with a
nonmonotone line-search proximal gradient inner solver, an augmented
Lagrangian baseline, benchmark problem families, and error-bound diagnostics.
"""

from .stiefel import (
    ORTH_TOL,
    RetractionError,
    StiefelPoint,
    dist_to_stiefel,
    proj_tangent,
    qr_orthonormalize,
)
from .penalty import (
    Objective,
    PenaltyObjective,
    nonneg_violation,
)
from .pgm import LineSearchError, PgmConfig, PgmTrace, pgm_solve
from .driver import (
    AugLagObjective,
    OuterRecord,
    PenaltyConfig,
    SolveReport,
    alm_solve,
    penalty_solve,
    round_to_feasible,
    stationarity_residual,
)
from .problems import (
    AffinityInstance,
    GraphMatchingObjective,
    OnmfFactorObjective,
    OnmfInstance,
    ProjectionObjective,
    QapInstance,
    QapLiftedObjective,
    cluster_labels,
    onmf_alternate,
    onmf_y_update,
    permutation_matrix,
    planted_onmf_instance,
    qap_permutation_value,
    random_stiefel_start,
)
from .diagnostics import (
    ErrorBoundSample,
    ErrorBoundSweep,
    OracleSizeError,
    SoscReport,
    brute_force_dist_splus,
    default_base_point,
    error_bound_constant,
    error_bound_sweep,
    sosc_probe,
)
from .bench import (
    ExperimentSpec,
    MetricsRow,
    QaplibParseError,
    clustering_metrics,
    load_best_known,
    load_dense_matrix,
    parse_qaplib,
    relgap,
    run_experiment,
)

__version__ = "0.1.0"
