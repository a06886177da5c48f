"""Independent finite-difference solver for the governing fractional PDE.

Implicit time stepping with the fractional term discretized by
Grunwald-Letnikov weights over the full solution history (no short-memory
truncation: desk-scale horizons keep the O(M^2) convolution affordable and
avoid an extra error knob). Second-order central differences in space on a
uniform grid; Dirichlet wall values are imposed exactly at every level.

The zero initial state makes the Riemann-Liouville derivative coincide
with the Grunwald-Letnikov form, so the weights discretize the governing
operator directly. For beta = 1 the weights reduce to {1, -1, 0, ...} and
the scheme becomes the standard implicit method for the ordinary second
grade equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

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


@dataclass(frozen=True)
class GLWeights:
    """Grunwald-Letnikov convolution weights w_0..w_M for order beta."""

    beta: float
    weights: np.ndarray


def gl_weights(beta: float, M: int) -> GLWeights:
    """w_0 = 1 and w_k = w_{k-1} * (1 - (beta+1)/k)."""
    if not 0.0 < beta <= 1.0:
        raise DomainError("beta must lie in (0, 1]")
    if M < 0:
        raise DomainError("M must be >= 0")
    w = np.empty(M + 1)
    w[0] = 1.0
    for k in range(1, M + 1):
        w[k] = w[k - 1] * (1.0 - (beta + 1.0) / k)
    return GLWeights(beta=beta, weights=w)


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

    def write_csv(self, stream) -> None:
        """Dump the field as `r,t,omega` rows (time-major)."""
        stream.write("r,t,omega\n")
        for m, tm in enumerate(self.t):
            row = self.omega[m]
            for i, ri in enumerate(self.r):
                stream.write(f"{ri:.17g},{tm:.17g},{row[i]:.17g}\n")


def solve(params: FluidParams, geometry: AnnulusGeometry, grid: GridSpec) -> FieldGrid:
    """March the implicit scheme over the full horizon.

    Each step solves (I - dt*nu*L - dt^(1-beta)*alpha*L) u^{m+1} =
    u^m + dt^(1-beta)*alpha*L-history convolution, with L the central
    discretization of (d^2/dr^2 + (1/r) d/dr - 1/r^2) and the wall values
    folded into the right-hand side.
    """
    if not 0.0 < params.beta <= 1.0:
        raise DomainError("beta must lie in (0, 1]")
    R1, R2 = geometry.R1, geometry.R2
    nr, dt = grid.nr, grid.dt
    n_steps = int(round(grid.t_end / dt))
    r = np.linspace(R1, R2, nr + 2)
    dr = (R2 - R1) / (nr + 1)
    ri = r[1:-1]

    sub = 1.0 / dr**2 - 1.0 / (2.0 * ri * dr)
    dia = -2.0 / dr**2 - 1.0 / ri**2
    sup = 1.0 / dr**2 + 1.0 / (2.0 * ri * dr)

    w = gl_weights(params.beta, n_steps).weights
    w_rev = w[::-1].copy()
    nonzero = np.nonzero(w)[0]
    last_w = int(nonzero[-1]) if nonzero.size else 0

    c_frac = params.alpha * dt ** (1.0 - params.beta)
    c_imp = params.nu * dt + c_frac  # w_0 = 1 folded in

    ab = np.zeros((3, nr))
    ab[0, 1:] = -c_imp * sup[:-1]
    ab[1, :] = 1.0 - c_imp * dia
    ab[2, :-1] = -c_imp * sub[1:]

    omega = np.zeros((n_steps + 1, nr + 2))
    lap_hist = np.zeros((n_steps + 1, nr))

    def lap(full_row):
        return sub * full_row[:-2] + dia * full_row[1:-1] + sup * full_row[2:]

    for m in range(n_steps):
        t_new = (m + 1) * dt
        wall1 = R1 * geometry.Omega1 * t_new
        wall2 = R2 * geometry.Omega2 * t_new
        k_hist = min(m + 1, last_w)
        if k_hist > 0:
            # sum_{k=1}^{k_hist} w_k * L u^{m+1-k}, newest level last
            w_slice = w_rev[n_steps - k_hist : n_steps]
            conv = w_slice @ lap_hist[m + 1 - k_hist : m + 1]
        else:
            conv = 0.0
        rhs = omega[m, 1:-1] + c_frac * conv
        rhs[0] += c_imp * sub[0] * wall1
        rhs[-1] += c_imp * sup[-1] * wall2
        try:
            interior = solve_banded((1, 1), ab, rhs)
        except Exception as exc:  # scipy raises LinAlgError on breakdown
            raise RuntimeError(f"linear solve failed at step {m + 1}: {exc}") from exc
        omega[m + 1, 0] = wall1
        omega[m + 1, 1:-1] = interior
        omega[m + 1, -1] = wall2
        lap_hist[m + 1] = lap(omega[m + 1])

    t = np.arange(n_steps + 1) * dt
    return FieldGrid(r=r, t=t, omega=omega)
