"""Independent finite-difference solver for the governing fractional PDE.

Implicit time stepping with the fractional term discretized by
Grunwald-Letnikov weights over the full solution history (no short-memory
truncation: desk-scale horizons keep the O(M^2) convolution affordable and
avoid an extra error knob). Second-order central differences in space on a
uniform grid; Dirichlet wall values are imposed exactly at every level.

The spatial operator L is linear, so the history term sum_k w_k L u^{m+1-k}
is L applied once to the weighted sum of the stored velocity levels: the
returned field is the only history kept. The implicit matrix does not
change from step to step, so it is factored once and each step is one
tridiagonal back-substitution.

The zero initial state makes the Riemann-Liouville derivative coincide
with the Grunwald-Letnikov form, so the weights discretize the governing
operator directly. For beta = 1 the weights reduce to {1, -1} and the
scheme becomes the standard implicit method for the ordinary second grade
equation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .solution import AnnulusGeometry, FluidParams


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid: nr interior points, step dt, horizon t_end."""

    nr: int
    dt: float
    t_end: float

    def __post_init__(self):
        if isinstance(self.nr, bool) or not isinstance(self.nr, (int, np.integer)):
            raise ValueError(f"nr must be an integer, got {self.nr!r}")
        if self.nr < 8:
            raise ValueError("nr must be >= 8")
        for name in ("dt", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        if self.t_end < self.dt:
            raise ValueError("t_end must be >= dt")


def gl_weights(beta: float, M: int) -> np.ndarray:
    """Grunwald-Letnikov convolution weights w_0..w_M for order beta:
    w_0 = 1 and w_k = w_{k-1} * (1 - (beta+1)/k)."""
    if not 0.0 < beta <= 1.0:
        raise DomainError("beta must lie in (0, 1]")
    if M < 0:
        raise DomainError("M must be >= 0")
    # operator.index refuses a non-integer M
    factors = 1.0 - (beta + 1.0) / np.arange(1, operator.index(M) + 1)
    return np.cumprod(np.concatenate(([1.0], factors)))


@dataclass(frozen=True)
class FieldGrid:
    """Full space-time velocity field omega[time_level, node]."""

    r: np.ndarray
    t: np.ndarray
    omega: np.ndarray

    def at(self, r: float, t: float) -> float:
        """Sample the stored field, linear in r, at the nearest time level."""
        if not self.r[0] <= r <= self.r[-1]:
            raise DomainError(f"r={r!r} outside the stored grid")
        if not self.t[0] <= t <= self.t[-1] + 1e-12:
            raise DomainError(f"t={t!r} outside the stored horizon")
        m = int(round((t - self.t[0]) / (self.t[1] - self.t[0]))) if len(self.t) > 1 else 0
        m = min(max(m, 0), len(self.t) - 1)
        return float(np.interp(r, self.r, self.omega[m]))


def solve(params: FluidParams, geometry: AnnulusGeometry, grid: GridSpec) -> FieldGrid:
    """March the implicit scheme over the full horizon.

    Each step solves (I - dt*nu*L - dt^(1-beta)*alpha*L) u^{m+1} =
    u^m + dt^(1-beta)*alpha*L(sum_{k>=1} w_k u^{m+1-k}), with L the central
    discretization of (d^2/dr^2 + (1/r) d/dr - 1/r^2) and the wall values
    folded into the right-hand side. The weighted sum runs over the stored
    levels, walls included, and the tridiagonal matrix is factored once
    before the first step. A singular matrix or a non-finite step raises
    RuntimeError.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    R1, R2 = geometry.R1, geometry.R2
    nr, dt = grid.nr, grid.dt
    n_steps = int(round(grid.t_end / dt))
    r = np.linspace(R1, R2, nr + 2)
    dr = (R2 - R1) / (nr + 1)
    ri = r[1:-1]

    sub = 1.0 / dr**2 - 1.0 / (2.0 * ri * dr)
    dia = -2.0 / dr**2 - 1.0 / ri**2
    sup = 1.0 / dr**2 + 1.0 / (2.0 * ri * dr)

    # w_depth..w_1, oldest level's weight first (contiguous: matmul then
    # takes the BLAS path); beta = 1 leaves {-1}
    w = np.trim_zeros(gl_weights(params.beta, n_steps), "b")
    w_rev = w[:0:-1].copy()
    depth = w_rev.size

    c_frac = params.alpha * dt ** (1.0 - params.beta)
    c_imp = params.nu * dt + c_frac  # w_0 = 1 folded in

    *factor, info = dgttrf(-c_imp * sub[1:], 1.0 - c_imp * dia, -c_imp * sup[:-1])
    if info != 0:
        raise RuntimeError(f"tridiagonal factorization failed: info={info}")

    omega = np.zeros((n_steps + 1, nr + 2))
    for m in range(n_steps):
        t_new = (m + 1) * dt
        wall1 = R1 * geometry.Omega1 * t_new
        wall2 = R2 * geometry.Omega2 * t_new
        k = min(m + 1, depth)
        hist = w_rev[depth - k :] @ omega[m + 1 - k : m + 1]
        rhs = omega[m, 1:-1] + c_frac * (sub * hist[:-2] + dia * hist[1:-1] + sup * hist[2:])
        rhs[0] += c_imp * sub[0] * wall1
        rhs[-1] += c_imp * sup[-1] * wall2
        interior = dgttrs(*factor, rhs)[0]
        if not np.isfinite(interior).all():
            raise RuntimeError(f"linear solve failed at step {m + 1}: non-finite values")
        omega[m + 1, 0] = wall1
        omega[m + 1, 1:-1] = interior
        omega[m + 1, -1] = wall2

    t = np.arange(n_steps + 1) * dt
    return FieldGrid(r=r, t=t, omega=omega)
