"""Certification of matrix monotone and matrix convex functions.

The package decides, for a symbolic scalar function f and an order n,
whether f is n-matrix-monotone or n-matrix-convex on an interval, by
running a battery of equivalent divided-difference and matrix-positivity
criteria plus an independent brute-force matrix oracle, and reporting
per-criterion verdicts with reproducible witnesses.
"""

__version__ = "0.1.0"

from .expr import (
    DomainError,
    FunctionModel,
    GroundTruth,
    ParseError,
    catalog,
    catalog_model,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_text,
)
from .polynomial import Poly, ab_decompose, n_of, roots, sos_decompose
from .divdiff import (
    NodeMultiset,
    PiecewisePoly,
    divided_difference,
    peano_weight,
    refinement_coefficients,
)
from .linalg import (
    ProjectionPair,
    convexity_oracle,
    eigh,
    is_psd,
    make_projection_pair,
    matrix_function,
    monotonicity_oracle,
    rank_one_chain,
)
from .criteria import (
    CertifyConfig,
    CriterionReport,
    certify,
    dd_criterion,
    confluent_dd_criterion,
    dobsch_matrix,
    extended_loewner_matrix,
    hankel_convex_matrix,
    kraus_matrix,
    ktone_check,
    loewner_matrix,
)
from .gensets import (
    CounterexampleBundle,
    FiniteFunction,
    affine_rigidity_check,
    build_counterexample,
    extension_feasibility,
    genset_check,
    glue_check,
    read_points_file,
    write_points_file,
)
from .integral import (
    basis_change_matrix,
    verify_convex_identity,
    verify_monotone_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
