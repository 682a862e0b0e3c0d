"""Numerical laboratory for Fourier partial sums over orthonormal systems.

The library evaluates partial-sum kernels and boundedness diagnostics for
general orthonormal systems on [0, 1], verifies the classical identities
tying them together, and reproduces desk-scale boundedness experiments
for the cosine and dyadic step systems, including vanishing-moment
constructions obtained by compressing and reflecting a base system.
"""

from .analysis import (
    ClassificationThresholds,
    GrowthReport,
    LinkageReport,
    PairingSplit,
    TransferCase,
    boundedness_experiment,
    boundedness_transfer,
    boundedness_values,
    extremal_lipschitz,
    extremal_pairing_sweep,
    growth_report,
    inverse_square_root_sum,
    pairing_split,
    partial_sum_boundedness,
    prefix_mean_linkage,
    square_sum_ratio,
)
from .errors import (
    IndexOutOfRange,
    InvalidConfig,
    InvalidInterval,
    MissingDerivative,
    NonFiniteIntegrand,
    OnsLabError,
    UnknownFunction,
    UnknownSystem,
)
from .fourier import (
    ByPartsSplit,
    CoefficientTable,
    SummationIdentity,
    coefficients,
    kernel_section,
    partial_sum,
    partial_sum_by_parts,
    partial_sum_sweep,
    summation_identity,
)
from .kernels import (
    KernelContext,
    antiderivative_kernel,
    antiderivative_square_sum,
    boundedness_functional,
    boundedness_functional_naive,
    cell_abs_integral,
    dirichlet_kernel,
    dirichlet_mean,
    kernel_prefix_integral,
)
from .quadrature import (
    IntegrationResult,
    QuadratureRule,
    cell_mesh,
    cumulative_integral,
    integrate,
    integrate_abs,
)
from .systems import (
    FunctionSpec,
    SystemHandle,
    compress_reflect,
    cosine_system,
    function_catalog,
    function_names,
    get_function,
    get_system,
    gram_matrix,
    haar_system,
    inner_product,
    lipschitz_quotient,
    rademacher_system,
    recommended_rule,
    system_names,
    system_values,
)

__version__ = "0.1.0"
