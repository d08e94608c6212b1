"""Randomized column subset selection with conditioning guarantees.

The core pipeline: sample columns uniformly, expose the redundant ones with
a Pietsch (``B = TD``) or Grothendieck (``G = DTD``) factorization computed
by eigenvalue minimization over the probability simplex, prune the heavy
weights, and verify the spectral criterion directly.  The factorizations
double as certified approximation algorithms for the NP-hard (inf->2) and
(inf->1) operator norms.
"""

from .emd import EmdRun, SubgradientSample, emd_minimize, emd_step
from .errors import DomainError, ParseError, SolverError
from .exact import ENUMERATION_CAP, norm_inf1_exact, norm_inf2_exact
from .grothendieck import (
    GROTHENDIECK_LOWER,
    GROTHENDIECK_UPPER,
    GrothendieckFactorization,
    block_matrix,
    groth_factorize,
    groth_objective,
    groth_optimal_alpha,
)
from .io import dumps_report, load_matrix, write_report
from .linalg import (
    EigPair,
    column_submatrix,
    condition_number,
    frobenius_norm,
    hollow_gram,
    is_standardized,
    max_eig_pair,
    principal_submatrix,
    spectral_norm,
    stable_rank,
    standardize,
)
from .montecarlo import (
    ExperimentResult,
    check_inf1_reduction,
    check_inf2_reduction,
    poissonization_check,
    sample_projector,
)
from .pietsch import (
    PIETSCH_CONSTANT,
    NormBracket,
    PietschFactorization,
    pietsch_factorize,
    pietsch_objective,
    pietsch_optimal_alpha,
)
from .select import (
    BT_KAPPA_THRESHOLD,
    KT_NORM_THRESHOLD,
    SelectionReport,
    bt_select,
    cond_reduce,
    kt_select,
    norm_reduce,
    random_subset,
)

__version__ = "0.1.0"

__all__ = [
    "BT_KAPPA_THRESHOLD",
    "DomainError",
    "EigPair",
    "EmdRun",
    "ENUMERATION_CAP",
    "ExperimentResult",
    "GROTHENDIECK_LOWER",
    "GROTHENDIECK_UPPER",
    "GrothendieckFactorization",
    "KT_NORM_THRESHOLD",
    "NormBracket",
    "ParseError",
    "PIETSCH_CONSTANT",
    "PietschFactorization",
    "SelectionReport",
    "SolverError",
    "SubgradientSample",
    "block_matrix",
    "bt_select",
    "check_inf1_reduction",
    "check_inf2_reduction",
    "column_submatrix",
    "cond_reduce",
    "condition_number",
    "dumps_report",
    "emd_minimize",
    "emd_step",
    "frobenius_norm",
    "groth_factorize",
    "groth_objective",
    "groth_optimal_alpha",
    "hollow_gram",
    "is_standardized",
    "kt_select",
    "load_matrix",
    "max_eig_pair",
    "norm_inf1_exact",
    "norm_inf2_exact",
    "norm_reduce",
    "pietsch_factorize",
    "pietsch_objective",
    "pietsch_optimal_alpha",
    "poissonization_check",
    "principal_submatrix",
    "random_subset",
    "sample_projector",
    "spectral_norm",
    "stable_rank",
    "standardize",
    "write_report",
]
