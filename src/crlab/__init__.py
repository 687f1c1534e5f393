"""crlab: numerical laboratory for CR automorphisms of nonminimal
infinite-type hypersurface models in C^2."""

from .errors import (
    ConfigurationError,
    CrlabError,
    DegenerateMapError,
    DomainError,
    InsufficientDataError,
    ParameterError,
)
from .germs import (
    BumpFunction,
    CATALOG_IDS,
    SmoothGerm,
    get_germ,
    make_bump,
    wirtinger_fd,
)
from .models import (
    M_NONMINIMAL,
    ModelSpec,
    ONE_NONMINIMAL,
    RIGID,
    rho,
    rho_gradient,
    surface_point,
)
from .fields import (
    VectorFieldPoly,
    linear_diag_field,
    monomial_field,
    tangency_residual,
)
from .autsolve import (
    AutBasis,
    SampleGrid,
    TangencySystem,
    assemble,
    canonicalize,
    default_grid,
    nullspace,
    solve_model,
    validation_grid,
    validation_residual,
)
from .flow import (
    FlowTrajectory,
    blowup_time_estimate,
    characteristic_flow,
    integrate_field,
    log_p_diagnostic,
    trajectory_from_samples,
)
from .vtype import (
    VanishingOrderEstimate,
    p_infinity_candidates,
    scan_s_infinity,
    vanishing_order,
)
from .mapverify import (
    Compose,
    GeneralPair,
    Negate,
    Rotate,
    Scale,
    TranslateIm,
    check_modulus_derivative,
    check_reparam,
    check_symmetries,
    invariance_residual,
    simplify,
)
from .counterexample import (
    CounterexampleParams,
    build as build_counterexample,
    certificate as counterexample_certificate,
    verify_disc,
    verify_increment_identity,
)

__version__ = "0.1.0"
