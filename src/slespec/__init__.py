"""Average integral-means spectrum of interior whole-plane SLE.

Four independent routes to the same objects, cross-validated against each
other: closed-form spectrum branches, exact coefficient recurrences with
finite-band truncations, tridiagonal eigenproblems for the circle-limit
profile, and a Monte Carlo simulator of the interior map.
"""
from .spectrum import (
    Branch,
    CurveParams,
    GammaRoots,
    InvalidCurveError,
    NoRealGammaError,
    SLEParams,
    SpectrumValue,
    beta_on_curve,
    beta_spectrum,
    beta_tilde_on_curve,
    curve_point,
    eigen_beta_closed,
    gamma_roots,
    gamma_transition,
    q_of_gamma,
    q_tip,
    q_transition,
)
from .coeffs import (
    CoeffTable,
    FitResult,
    SeriesValue,
    TailCheckError,
    build_theta_table,
    diagonal_growth_exponent,
    eval_rho,
    eval_theta,
    fit_beta,
    integral_means,
    truncation_width,
)
from .eigen import (
    EigenCertificationError,
    EigenResult,
    TridiagSystem,
    a_coef,
    b_coef,
    beta_from_lambda,
    build_system,
    c_coef,
    eigen_solve,
    eigenfunction_poly,
    lpsi_residual,
    reduced_matrix,
    select_beta_tilde,
)
from .special import (
    deterministic_map_derivative,
    hyp2f1,
    pde_residual,
    rho_M0,
    rho_M1,
)
from .mc import (
    DrivingPath,
    MCConfig,
    MCEstimate,
    StepUnderflowError,
    conic_flow,
    moment_estimate,
    sample_driving,
    whole_plane_map_derivative,
)

__version__ = "0.1.0"
