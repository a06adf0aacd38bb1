"""Desk-scale laboratory for radially symmetric compressible MHD with entropy
transport: fixed- and free-boundary solvers, interior-vacuum front tracking,
and on-line verification of the conservation laws, inequalities, and explicit
lifespan bounds the system satisfies."""

from ._kernels import BACKEND
from .core import (FluidState, Geometry, PhysParams, Profile, RadialGrid,
                   ScenarioConfig, Scheme, SolverSettings, Weight,
                   init_scenario, integrate, integrate_to, make_grid)
from .diagnostics import (BoundInputs, DiagnosticsRecord, cauchy_schwarz_gap,
                          div_lower_bound, div_norm, dissipation_rate,
                          energy_residual, lifespan_bound, moment_coefficient,
                          moment_pair, optimize_alpha, total_energy)
from .errors import (ConfigError, DtCollapse, GeometryCollapse, MHDLabError,
                     NumericalFailure, TrackingError)
from .freeboundary import advance_domain, boundary_stress_residual, growth_check
from .harness import RunOutcome, RunResult, RunStatus, convergence_study, run
from .picard import picard_iterate
from .solver import (Tendency, cfl_dt, detect_blowup, rhs_cylinder, rhs_disk,
                     step)
from .vacuum import VacuumFront, advance_front, check_vacuum, vacuum_flux

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "BoundInputs", "ConfigError", "DiagnosticsRecord", "DtCollapse",
    "FluidState", "Geometry", "GeometryCollapse", "MHDLabError",
    "NumericalFailure", "PhysParams", "Profile", "RadialGrid", "RunOutcome",
    "RunResult", "RunStatus", "ScenarioConfig", "Scheme", "SolverSettings",
    "Tendency", "TrackingError", "VacuumFront", "Weight",
    "advance_domain", "advance_front", "boundary_stress_residual",
    "cauchy_schwarz_gap", "cfl_dt", "check_vacuum", "convergence_study",
    "detect_blowup", "dissipation_rate", "div_lower_bound", "div_norm",
    "energy_residual", "growth_check", "init_scenario", "integrate",
    "integrate_to", "lifespan_bound", "make_grid", "moment_coefficient",
    "moment_pair", "optimize_alpha", "picard_iterate", "rhs_cylinder",
    "rhs_disk", "run", "step", "total_energy", "vacuum_flux",
]
