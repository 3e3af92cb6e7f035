"""Elliptic Dirichlet boundary value problems on time scales.

Solves -Laplacian(u) + f(x, u) = 0 with zero boundary values on products
of hybrid discrete-continuous domains, with full spectral theory for the
mixed backward-forward second derivative and three solution regimes
(contraction iteration, homotopy continuation, small-system enumeration).
"""

from .nonlinearity import (
    EvaluationError,
    GrowthHypotheses,
    ParseError,
    check_one_sided,
    estimate_lipschitz,
    evaluate,
    nemytskii,
    parse,
    to_string,
)
from .operator import (
    DirichletOperator1D,
    GreenKernel,
    apply,
    assemble,
    green_inverse,
    tridiag_solve,
    weighted_inner,
    weighted_norm,
)
from .solver import (
    EnumerationResult,
    HypothesisError,
    Problem,
    Solution,
    SolverConfig,
    Status,
    apply_operator,
    apriori_radius,
    enumerate_small,
    homotopy_solve,
    picard_solve,
    residual,
    spectral_inverse,
)
from .spectral import (
    InsufficientRootsError,
    Spectrum1D,
    TensorSpectrum,
    eigen_shooting,
    expand,
    lambda1_lower_bound,
    reconstruct,
    shoot,
    spectrum_1d,
    symmetrize,
    tensor_spectrum,
)
from .timescale import (
    DomainError,
    EmptyInteriorError,
    Grid,
    GridFunction,
    GridMismatchError,
    MeshParams,
    ProductGridFunction,
    Segment,
    TimeScale,
    delta_derivative,
    delta_integral,
    discretize,
    nabla_derivative,
    nabla_integral,
    product_delta_inner,
    product_delta_norm,
)

__version__ = "0.1.0"
