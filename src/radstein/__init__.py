"""Poisson approximation of integer-valued functionals of finite biased
Rademacher sequences: chaos calculus, Chen-Stein machinery, explicit
total-variation and Wasserstein bounds, and exact enumeration distances."""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundReport,
    J2_RATE_CONSTANT,
    bernoulli_bound,
    j1_bound,
    j2_bound,
    j2_example,
    j2_example_kernel,
    j2_example_machinery,
    jm_bound,
    main_bound,
    main_bound_reduced,
    second_order_bound,
    wasserstein_bound,
)
from .chaos import (
    ChaosExpansion,
    covariance,
    decompose,
    multiply,
    to_table,
)
from .chenstein import (
    SteinSolution,
    TargetSet,
    forward_diff,
    poisson_pmf,
    poisson_set_prob,
    second_forward_diff,
    solve,
    stein_factors,
)
from .distance import (
    DistanceResult,
    tv_exact,
    tv_monte_carlo,
    w1_exact,
)
from .kernels import (
    Kernel,
    inner_product,
    norm,
    norm_sq,
    slice_kernel,
)
from .malliavin import (
    GradientField,
    check_integration_by_parts,
    divergence,
    gradient_chaos,
    gradient_pathwise,
    iterated_gradient,
    ou_operator,
    pseudo_inverse,
)
from .model import (
    DistributionTable,
    FunctionalTable,
    ProbabilityModel,
    build_model,
    distribution,
    expectation,
    variance,
)
from .verify import run_verification

__all__ = [
    n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType)
]
