"""Computable asymptotic geometry of matrix semigroups in SL(n, R).

Cartan/Jordan projections, exterior-power representations, epsilon-proximality
certification, Schottky system verification and forging, and sampled estimates
of limit cones and limit sets.
"""

from .errors import (
    BudgetExceeded,
    CertificationFailure,
    ConeNotInvolutionStable,
    ContractionUnverified,
    DegenerateSample,
    DimensionMismatch,
    EmptyInput,
    EpsilonTooLarge,
    InvalidInput,
    LimitConeError,
    MaxPowerExceeded,
    NotProximal,
    NotReduced,
    NumericalFailure,
    RayNotInChamber,
    SeparationUnachievable,
    SeparationViolated,
    TooFewGenerators,
)
from .projgeom import (
    GroupElement,
    ProjectiveHyperplane,
    ProjectivePoint,
    Representation,
    compound_matrix,
    exterior_power,
    gap,
    hausdorff_distance,
    proj_distance,
)
from .projections import (
    ChamberVector,
    cartan_projection,
    iterated_cartan,
    jordan_projection,
    opposition_involution,
    product_cartan,
    product_jordan,
    regularity_gaps,
)
from .proximality import (
    ComposedProximality,
    ProximalityCertificate,
    analytic_contraction_bounds,
    certify_eps_proximal,
    certify_theta_proximal,
    compose_certificates,
    top_eigendata,
)
from .cones import (
    chamber_basis,
    cone_distance,
    extreme_ray_indices,
    in_cone,
)
from .schottky import (
    FacetFrame,
    MembershipEvidence,
    SchottkySystem,
    TargetCone,
    forge_group,
    forge_semigroup,
    in_open_semigroup,
    verify_schottky,
    word_lyapunov_estimate,
)
from .limits import (
    ConeEstimate,
    ConvexityReport,
    FacetSample,
    LimitSetSample,
    WordSampler,
    check_convexity,
    compare_mu_lambda,
    estimate_cone,
    estimate_facets,
    estimate_limit_set,
)

__version__ = "0.1.0"
