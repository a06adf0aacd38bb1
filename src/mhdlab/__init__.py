"""Desk-scale laboratory for radially symmetric compressible MHD with entropy
transport: fixed- and free-boundary solvers, interior-vacuum front tracking,
and on-line verification of the conservation laws, inequalities, and explicit
lifespan bounds the system satisfies.

`import mhdlab` loads no submodule and no NumPy. A public name (`mhdlab.run`,
`mhdlab.step`, ...) is looked up in its home module on every access, which
loads that module the first time (PEP 562); the package never holds the
object itself, so a function patched in its home module shows through here
too. Submodules (`mhdlab.harness`, `mhdlab.solver`, ...) load on first
access the same way.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "_kernels": ("BACKEND",),
    "core": ("FluidState", "Geometry", "PhysParams", "Profile", "RadialGrid",
             "ScenarioConfig", "Scheme", "SolverSettings", "Weight",
             "init_scenario", "integrate", "integrate_to", "make_grid"),
    "diagnostics": ("BoundInputs", "DiagnosticsRecord", "cauchy_schwarz_gap",
                    "div_lower_bound", "div_norm", "dissipation_rate",
                    "energy_residual", "lifespan_bound", "moment_coefficient",
                    "moment_pair", "optimize_alpha", "total_energy"),
    "errors": ("ConfigError", "DtCollapse", "GeometryCollapse", "MHDLabError",
               "NumericalFailure", "TrackingError"),
    "freeboundary": ("advance_domain", "boundary_stress_residual",
                     "growth_check"),
    "harness": ("RunOutcome", "RunResult", "RunStatus", "convergence_study",
                "run"),
    "picard": ("picard_iterate",),
    "solver": ("Tendency", "cfl_dt", "detect_blowup", "rhs_cylinder",
               "rhs_disk", "step"),
    "vacuum": ("VacuumFront", "advance_front", "check_vacuum", "vacuum_flux"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules reachable as `mhdlab.<name>` without an import of their own
_SUBMODULES = frozenset(_EXPORTS) | {"mms"}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is not None:
        return getattr(importlib.import_module(f"{__name__}.{home}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
