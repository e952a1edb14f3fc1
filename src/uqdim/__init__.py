"""Exact universal quantum dimensions for simple Lie algebras.

The package computes quantum dimensions (characters restricted to the Weyl
line) in two independent ways -- closed universal formulas over Vogel's plane
and the Weyl character formula on explicit root systems -- and verifies the
character identities relating powers of the adjoint representation by exact
series expansion and randomized exact sampling.  It also evaluates the
universal one-instanton partition sum.
"""

from .errors import (
    DivisionByZeroSeries,
    InvalidRank,
    LengthMismatch,
    PoleAtParameters,
    QdimError,
    UnknownAlgebra,
    ZeroDenominatorForm,
)
from .identities import (
    A2_ANTISYM,
    IDENTITIES,
    NUMERIC,
    S2_SYM,
    S3_SYM_CUBE,
    SERIES,
    IdentityReport,
    identity_lhs,
    identity_rhs,
    sample_params,
    verify_identity,
)
from .instanton import (
    InstantonParams,
    InstantonTermTable,
    one_instanton_sum,
    one_instanton_term,
)
from .roots import (
    RootSystem,
    Weight,
    build_root_system,
    weight_from_dynkin,
    weyl_dim,
    weyl_qdim,
)
from .series import (
    DEFAULT_ORDER,
    PowerSeries,
    Rational,
    SinhProduct,
    cosh_series,
    sinh_ratio_series,
    sinh_series,
)
from .universal import (
    SLOTS,
    AlgebraId,
    VogelParams,
    casimir_adjoint,
    casimir_y2,
    dim_adjoint,
    exc_line_dim,
    exc_line_params,
    line_params,
    parse_algebra,
    qdim_adjoint,
    qdim_cartan_adjoint,
    qdim_x2,
    qdim_y2,
    qdim_z,
    vogel_params,
)

__version__ = "0.1.0"

__all__ = [
    "A2_ANTISYM",
    "AlgebraId",
    "DEFAULT_ORDER",
    "DivisionByZeroSeries",
    "IDENTITIES",
    "IdentityReport",
    "InstantonParams",
    "InstantonTermTable",
    "InvalidRank",
    "LengthMismatch",
    "NUMERIC",
    "PoleAtParameters",
    "PowerSeries",
    "QdimError",
    "Rational",
    "RootSystem",
    "S2_SYM",
    "S3_SYM_CUBE",
    "SERIES",
    "SLOTS",
    "SinhProduct",
    "UnknownAlgebra",
    "VogelParams",
    "Weight",
    "ZeroDenominatorForm",
    "build_root_system",
    "casimir_adjoint",
    "casimir_y2",
    "cosh_series",
    "dim_adjoint",
    "exc_line_dim",
    "exc_line_params",
    "identity_lhs",
    "identity_rhs",
    "line_params",
    "one_instanton_sum",
    "one_instanton_term",
    "parse_algebra",
    "qdim_adjoint",
    "qdim_cartan_adjoint",
    "qdim_x2",
    "qdim_y2",
    "qdim_z",
    "sample_params",
    "sinh_ratio_series",
    "sinh_series",
    "verify_identity",
    "vogel_params",
    "weight_from_dynkin",
    "weyl_dim",
    "weyl_qdim",
]
