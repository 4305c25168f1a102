"""Spatial birth-and-death dynamics on the torus at desk scale.

Configuration-space combinatorics, rate models with exact inverse
transform kernels, sufficient-condition checking, exact-in-law event
simulation, truncated correlation hierarchies with a Kirkwood-Salzburg
stationary solver, and the mean-field scaling limit with convergence
diagnostics.
"""

__version__ = "0.1.0"

from .space import Torus, Grid, GridFunction, circular_convolve
from .kernels import BoxKernel, GaussianKernel, ScaledKernel, normalize_on_grid
from .configurations import (
    FiniteConfiguration, SetFunction, CoherentState, QuadratureScheme,
    k_transform, k_inverse, star_convolution, coherent_state, lp_integral,
    minlos_check, vacuum_indicator,
)
from .models import GlauberModel, BDLPModel, KernelTables, detailed_balance_bdlp
from .conditions import (ConditionReport, beta_tau, check_conditions,
                         verify_kernel_bounds)
from .hierarchy import (
    CorrelationVector, QuasiObservable, HierarchyConfig, apply_dual_generator,
    apply_forward_generator, dual_pairing, evolve, ks_operator, stationary_solve,
)
from .simulate import (SimulationState, step, run_ensemble,
                       PoissonInitial, FixedInitial)
from .vlasov import (VlasovField, vlasov_rhs, vlasov_rhs_reference,
                     scaling_compare)
from .vlasov import integrate as integrate_vlasov

__all__ = [
    "Torus", "Grid", "GridFunction", "circular_convolve",
    "BoxKernel", "GaussianKernel", "ScaledKernel", "normalize_on_grid",
    "FiniteConfiguration", "SetFunction", "CoherentState", "QuadratureScheme",
    "k_transform", "k_inverse", "star_convolution", "coherent_state",
    "lp_integral", "minlos_check", "vacuum_indicator",
    "GlauberModel", "BDLPModel", "KernelTables", "detailed_balance_bdlp",
    "ConditionReport", "beta_tau", "check_conditions", "verify_kernel_bounds",
    "CorrelationVector", "QuasiObservable", "HierarchyConfig",
    "apply_dual_generator", "apply_forward_generator", "dual_pairing",
    "evolve", "ks_operator", "stationary_solve",
    "SimulationState", "step", "run_ensemble",
    "PoissonInitial", "FixedInitial",
    "VlasovField", "vlasov_rhs", "vlasov_rhs_reference", "integrate_vlasov",
    "scaling_compare",
]
