"""Blow-up time lower bounds and desk-scale simulation for a fully
parabolic attraction-repulsion chemotaxis system with a logistic source."""

from .exponents import (EnergyIndices, ModelParams,
                        check_condition_C, compute_etas,
                        corollary1_parameters, corollary2_parameters,
                        etas_in_range, feasible_region_samples)
from .odi import (BoundResult, OdiCoefficients, QuadConfig, bound_at_indices,
                  lower_bound_integral, max_admissible_epsilon,
                  odi_coefficients, optimize_bound,
                  zeta_coefficients)
from .pde import (FieldState, RadialGrid, SolverConfig, Trajectory, energy,
                  init_state, make_grid, mass, norms, run, step)
from .verify import (InequalityReport, check_concurrence,
                     check_embed_inequality, check_remark_ordering,
                     equivalence_bruteforce, estimate_gn_constant,
                     odi_monitor)

__version__ = "0.1.0"
