"""Series solutions and numerical oracles for the start-up rotational flow
of a generalized (fractional) second grade fluid between coaxial cylinders.
"""

from .controls import SeriesControls, Strategy
from .eigenvalues import EigenvalueSet, approx_roots, find_roots
from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    GeometryError,
    ModeEvaluationError,
    NonConvergenceError,
    RootScanError,
)
from .fdsolver import FieldGrid, GLWeights, GridSpec, gl_weights, solve
from .laplace import ModeTransform, invert_mode_stress_kernel, invert_mode_velocity_kernel
from .solution import (
    AnnulusGeometry,
    FieldSample,
    FluidParams,
    mode_coefficients,
    shear_stress,
    shear_stress_sg_closed,
    steady_part,
    velocity,
    velocity_sg_closed,
)
from .special import (
    GFunctionArgs,
    SignedLogAccumulator,
    SignedLogValue,
    bessel,
    cross_b,
    cross_b1,
    g_function,
)

__version__ = "0.1.0"

__all__ = [
    "AnnulusGeometry",
    "ConfigError",
    "ContractError",
    "DomainError",
    "EigenvalueSet",
    "FieldGrid",
    "FieldSample",
    "FluidParams",
    "GFunctionArgs",
    "GLWeights",
    "GeometryError",
    "GridSpec",
    "ModeEvaluationError",
    "ModeTransform",
    "NonConvergenceError",
    "RootScanError",
    "SeriesControls",
    "SignedLogAccumulator",
    "SignedLogValue",
    "Strategy",
    "approx_roots",
    "bessel",
    "cross_b",
    "cross_b1",
    "find_roots",
    "g_function",
    "gl_weights",
    "invert_mode_stress_kernel",
    "invert_mode_velocity_kernel",
    "mode_coefficients",
    "shear_stress",
    "shear_stress_sg_closed",
    "solve",
    "steady_part",
    "velocity",
    "velocity_sg_closed",
]
