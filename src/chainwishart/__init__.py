"""Wishart exponential families on the cones of chain graphical models.

Exact densities, Laplace transforms, mean/inverse-mean/variance maps, higher
moments and exact samplers for the natural exponential families generated by
multi-shape power functions on the concentration cone ``P`` and its dual
``Q`` of a nearest-neighbour-interaction Gaussian model, together with a
Monte-Carlo and brute-force verification harness and a CLI.
"""

from .chain_graph import (
    ChainGraph,
    CliqueOrder,
    EliminatingOrder,
    build_chain,
    enumerate_eliminating_orders,
    enumerate_perfect_clique_orders,
    first_separator,
    future_neighbors,
    is_eliminating,
)
from .matrix_spaces import (
    ConeError,
    IncompleteSym,
    TridiagSym,
    hat_completion,
    inverse_image,
    is_in_P,
    is_in_Q,
    lauritzen_map,
    pairing,
    project_pi,
)
from .power_functions import (
    ShapeParams,
    homogeneity_degree,
    log_delta_M,
    log_delta_order,
    log_Delta_M,
    log_Delta_order,
    log_phi,
)
from .peeling import (
    PeelTriple,
    phi,
    phi_inv,
    phi_tilde,
    phi_tilde_inv,
    psi,
    psi_inv,
    psi_tilde,
    psi_tilde_inv,
)
from .lum_triangular import LUMMatrix, decompose, hat_via_T
from .wishart_q import (
    MomentSpec,
    WishartQ,
    covariance_apply,
    covariance_matrix,
    inverse_mean,
    log_density,
    log_laplace,
    log_norm_constant,
    mean,
    moment,
    sample,
    sample_many,
    sample_quadratic,
    sample_quadratic_many,
    sigma_to_shape,
    variance_apply_expanded,
    variance_apply_nice,
)
from .wishart_p import (
    WishartP,
    canonical_measure_check,
    covariance_p_apply,
    integer_feasibility_p,
    log_density_p,
    log_laplace_p,
    log_norm_constant_p,
    mean_p,
    moment_p,
    quadratic_params_p,
    sample_p,
    sample_p_many,
)
from .letac_massam import LMParams, gamma1_constant, in_A0, lm_to_sM, log_H, sM_to_lm

__version__ = "0.1.0"
