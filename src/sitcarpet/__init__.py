"""Rolling-carpet sterile insect technique toolkit.

Simulation and analysis of a four-compartment mosquito population model under
moving-annulus sterile-male releases: equilibria and bifurcation thresholds,
semi-implicit reaction-diffusion simulation (1D and radially symmetric 2D),
executable sub-/super-solution profiles with residual certificates, forced
wave-speed measurement, and release-cost accounting.
"""

from .model import (
    ModelParams,
    StatePoint,
    gamma_fn,
    jacobian_ode,
    mating_factor,
)
from .equilibria import (
    EquilibriumSet,
    ThresholdReport,
    offspring_number,
    phi,
    phi0,
    phi_s_eps,
    potential_G,
    solve_equilibria,
    solve_gamma_0,
    thresholds,
)

__all__ = [
    "ModelParams",
    "StatePoint",
    "gamma_fn",
    "jacobian_ode",
    "mating_factor",
    "EquilibriumSet",
    "ThresholdReport",
    "offspring_number",
    "phi",
    "phi0",
    "phi_s_eps",
    "potential_G",
    "solve_equilibria",
    "solve_gamma_0",
    "thresholds",
]

__version__ = "0.1.0"
