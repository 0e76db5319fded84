"""Finite element solver for 2D incompressible Navier-Stokes flow with
impermeability imposed weakly (Nitsche) and a pluggable family of slip
boundary laws: Navier, power-law, Le Roux-Rajagopal, regularized
Tresca/stick-slip, regularized nonmonotone friction, and dynamic
(relaxation) laws on a moving wall.
"""

from .mesh import (
    Mesh,
    BoundaryTag,
    MeshError,
    build_unit_square,
    tag_boundary,
    top_wall_tagger,
)
from .fespace import TaylorHoodSpace, SystemState, ErrorNorms
from .sliplaw import (
    SlipLaw,
    navier,
    power_law,
    leroux_rajagopal,
    tresca_regularized,
    stick_slip_regularized,
    fang_regularized,
    dynamic_moving_wall,
    certify,
    fit_lambda,
)
from .forms import (
    NitscheConfig,
    AssemblyContext,
    assemble_residual,
    assemble_jacobian,
    trilinear_skew,
    boundary_functionals,
    energy_balance,
)
from .solver import (
    NewtonConfig,
    NewtonError,
    SolverError,
    Trajectory,
    newton_solve,
    steady_solve,
    time_march,
)
from .stability import (
    ConstantsReport,
    StabilityError,
    inverse_trace_constant,
    trace_constant_xh,
    korn_normal_trace_min_eig,
    infsup_constant,
    resolve_alpha,
    constants_report,
)
from .verify import (
    ManufacturedSolution,
    taylor_green,
    polynomial_jhyw,
    forcing,
    slip_correction,
    convergence_study,
)

__version__ = "0.1.0"
