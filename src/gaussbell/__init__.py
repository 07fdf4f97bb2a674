"""Numerical certification of a six-variable Bellman function and of
weighted Riesz-transform estimates in the one-dimensional Gauss space."""

__version__ = "0.1.0"

from .bellman import (
    AUX_KINDS,
    DomainError,
    QContext,
)
from .estimates import (
    EmbeddingResult,
    EstimateError,
    NormResult,
    bilinear_lhs,
    representation_check,
    sweep_report,
    weighted_riesz_norm,
)
from .gauss import (
    FlowGrid,
    HermiteFunction,
    ModelError,
    OneForm,
    Q2Result,
    QuadratureError,
    WeightSpec,
    default_flow_grid,
    exterior_derivative,
    hermite_eval,
    poisson_weight,
    q2_characteristic,
    riesz_apply,
    semigroup_apply,
    truncate_weight,
    weighted_inner,
)
from .report import CheckResult, Measurement, VerificationReport
from .verify import (
    SuiteConfig,
    mollify_eval,
    run_suite,
)

__all__ = [
    "AUX_KINDS",
    "CheckResult",
    "DomainError",
    "EmbeddingResult",
    "EstimateError",
    "FlowGrid",
    "HermiteFunction",
    "Measurement",
    "ModelError",
    "NormResult",
    "OneForm",
    "Q2Result",
    "QContext",
    "QuadratureError",
    "SuiteConfig",
    "VerificationReport",
    "WeightSpec",
    "bilinear_lhs",
    "default_flow_grid",
    "exterior_derivative",
    "hermite_eval",
    "mollify_eval",
    "poisson_weight",
    "q2_characteristic",
    "representation_check",
    "riesz_apply",
    "run_suite",
    "semigroup_apply",
    "sweep_report",
    "truncate_weight",
    "weighted_inner",
    "weighted_riesz_norm",
]
