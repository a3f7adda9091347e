"""Numerical laboratory for least-energy solutions of the critically
perturbed Lane-Emden problem on the unit ball, with quantitative checks of
the blow-up asymptotics, Green/Robin identities, bubble decomposition, and
the spectrum of the linearization.
"""

from .asymptotics import (
    FitReport,
    SweepRecord,
    blowup_rate_fit,
    boundary_green_limit,
    branch_map,
    default_grid,
    deficit_rate_fit,
    profile_distance,
    sweep_with_solutions,
    upper_bound_check,
)
from .constants import (
    Params,
    alpha_n,
    alpha_nq,
    blowup_target,
    c_nq,
    c_nq_quadrature,
    gamma_fn,
    omega_n,
    sobolev_sn2,
    sobolev_sn2_exact,
    sobolev_sn2_from_mass,
)
from .decomposition import (
    DecompositionResult,
    fit_decomposition,
    perturbation_order_fit,
    w_decay_exponent,
)
from .errors import (
    BnlabError,
    DomainError,
    FitFailureError,
    IntegrationFailureError,
    SingularityError,
    UnreachableEpsError,
)
from .linearization import (
    ModeOperator,
    build_mode_operator,
    eigenvalues_near_zero,
    nondegeneracy_certificate,
)
from .solver import (
    RadialSolution,
    ShootResult,
    scale_to_unit_ball,
    shoot,
    solution_at,
    solve_for_eps,
)

__all__ = [
    "Params",
    "gamma_fn",
    "omega_n",
    "alpha_n",
    "alpha_nq",
    "c_nq",
    "c_nq_quadrature",
    "blowup_target",
    "sobolev_sn2",
    "sobolev_sn2_exact",
    "sobolev_sn2_from_mass",
    "ShootResult",
    "RadialSolution",
    "shoot",
    "scale_to_unit_ball",
    "solution_at",
    "solve_for_eps",
    "SweepRecord",
    "FitReport",
    "default_grid",
    "sweep_with_solutions",
    "blowup_rate_fit",
    "deficit_rate_fit",
    "profile_distance",
    "upper_bound_check",
    "boundary_green_limit",
    "branch_map",
    "DecompositionResult",
    "fit_decomposition",
    "perturbation_order_fit",
    "w_decay_exponent",
    "ModeOperator",
    "build_mode_operator",
    "eigenvalues_near_zero",
    "nondegeneracy_certificate",
    "BnlabError",
    "DomainError",
    "SingularityError",
    "IntegrationFailureError",
    "UnreachableEpsError",
    "FitFailureError",
]

__version__ = "0.1.0"
