"""Exception types shared across the package."""


class MHDLabError(Exception):
    """Base class for all package errors."""


class ConfigError(MHDLabError):
    """Invalid configuration, profile, or scenario setup."""


class NumericalFailure(MHDLabError):
    """Solver produced NaN/Inf or a linear solve broke down.

    `reason` is the message without the node; `node` carries the first
    offending node index when known.
    """

    def __init__(self, message, node=None):
        super().__init__(message if node is None else f"{message} (node {node})")
        self.reason = message
        self.node = node


class DtCollapse(MHDLabError):
    """Stable time step fell below dt_min: blow-up suspected."""

    def __init__(self, dt, dt_min):
        super().__init__(f"dt collapsed to {dt:.3e} < dt_min {dt_min:.3e}")
        self.dt = dt
        self.dt_min = dt_min


class TrackingError(MHDLabError):
    """Vacuum front left the valid radial range."""


class GeometryCollapse(MHDLabError):
    """Free boundary radius reached zero."""
