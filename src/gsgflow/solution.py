"""Exact solution fields for start-up rotation of a generalized second
grade fluid in an annulus: velocity, shear stress, the beta = 1 closed
forms and the Newtonian limit (Omega1 = 0 gives the inner cylinder at
rest).

Every field is evaluated on a block of radii r[] x times t[] by field_block:
a steady t-linear part plus or minus pi * sum over radial modes n of
Phi_n(r) C_n K_n(t), one matrix product of Phi[r, mode] (wall
cross-products) and C_n K[mode, t], with K built once per block. Kernels
can be evaluated three ways (double power series, G-function series, and,
by default, numerical Laplace inversion on a Talbot contour, or the exact
exponential kernel at beta = 1); they agree where they all converge and the
series routes refuse loudly where double precision cannot carry the
cancellation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .controls import SeriesControls, Strategy
from .eigenvalues import EigenvalueSet
from .errors import ContractError, DomainError, GeometryError, NonConvergenceError, ModeEvaluationError
from .laplace import ModeTransform, invert_mode_stress_kernel, invert_mode_velocity_kernel
from .special import (
    GFunctionArgs,
    SignedLogValue,
    _check_cancellation_budget,
    _sum_series,
    cross_b,
    cross_b1,
    g_function,
)

_DEFAULT_CONTROLS = SeriesControls()


@dataclass(frozen=True)
class FluidParams:
    """Material constants; nu and alpha are always derived, never stored."""

    mu: float
    alpha1: float
    rho: float
    beta: float

    def __post_init__(self):
        for name in ("mu", "alpha1", "rho", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.mu <= 0.0:
            raise ValueError("mu must be > 0")
        if self.rho <= 0.0:
            raise ValueError("rho must be > 0")
        if self.alpha1 < 0.0:
            raise ValueError("alpha1 must be >= 0")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")

    @property
    def nu(self) -> float:
        return self.mu / self.rho

    @property
    def alpha(self) -> float:
        return self.alpha1 / self.rho


@dataclass(frozen=True)
class AnnulusGeometry:
    """Radii and angular accelerations; counter-rotation is allowed."""

    R1: float
    R2: float
    Omega1: float
    Omega2: float

    def __post_init__(self):
        for name in ("R1", "R2", "Omega1", "Omega2"):
            if not math.isfinite(getattr(self, name)):
                raise GeometryError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (0.0 < self.R1 < self.R2):
            raise GeometryError(f"need 0 < R1 < R2, got R1={self.R1!r}, R2={self.R2!r}")


@dataclass(frozen=True)
class FieldSample:
    """A field evaluated on a block of radii r x times t.

    r and t are each a scalar or a 1-D array, as requested; omega and tau
    have the shape r.shape + t.shape (a scalar for one radius at one time,
    [r, t] for arrays of both). A velocity sample carries tau = None, a
    shear stress sample omega = nan.
    """

    r: float | np.ndarray
    t: float | np.ndarray
    omega: float | np.ndarray
    tau: Optional[float | np.ndarray]
    strategy_used: str
    modes_used: int


def _radii(geometry: AnnulusGeometry, r) -> np.ndarray:
    """r as a float array (0-d for one radius), every radius checked to be in the annulus."""
    r = np.asarray(r, dtype=float)
    inside = (geometry.R1 <= r) & (r <= geometry.R2)
    if not np.all(inside):
        outside = float(np.extract(~inside, r)[0])
        raise DomainError(f"r={outside!r} outside annulus [{geometry.R1}, {geometry.R2}]")
    return r


def _times(t) -> np.ndarray:
    """t as a float array (0-d for one time), every time checked to be finite and >= 0."""
    t = np.asarray(t, dtype=float)
    valid = (0.0 <= t) & (t < math.inf)
    if not valid.all():
        bad = float(np.extract(~valid, t)[0])
        raise DomainError(f"t must be finite and >= 0, got t={bad!r}")
    return t


def _check_eigenvalues(geometry: AnnulusGeometry, eigenvalues: EigenvalueSet, n_modes: int) -> None:
    if not eigenvalues.matches(geometry.R1, geometry.R2):
        raise GeometryError(
            "eigenvalue set was computed for "
            f"(R1={eigenvalues.R1}, R2={eigenvalues.R2}) but the geometry is "
            f"(R1={geometry.R1}, R2={geometry.R2})"
        )
    if n_modes > len(eigenvalues):
        raise ValueError(
            f"controls request {n_modes} modes but only {len(eigenvalues)} "
            "eigenvalues were computed"
        )


def steady_part(geometry: AnnulusGeometry, r, t):
    """The t-linear large-time profile (first term of the velocity field)
    on the block r x t, with shape r.shape + t.shape."""
    r, t = _radii(geometry, r), _times(t)
    R1, R2 = geometry.R1, geometry.R2
    num = geometry.Omega1 * R1**2 * (R2**2 - r**2) + geometry.Omega2 * R2**2 * (r**2 - R1**2)
    return np.multiply.outer(num / ((R2**2 - R1**2) * r), t)


def mode_coefficients(geometry: AnnulusGeometry, eigenvalues: EigenvalueSet) -> np.ndarray:
    """C_n = J1(R1 r_n) [R2 Om2 J1(R1 r_n) - R1 Om1 J1(R2 r_n)]
    / [J1^2(R1 r_n) - J1^2(R2 r_n)] for every computed mode."""
    from scipy.special import j1

    rn = eigenvalues.roots
    j1a = j1(geometry.R1 * rn)
    j1b = j1(geometry.R2 * rn)
    return j1a * (geometry.R2 * geometry.Omega2 * j1a - geometry.R1 * geometry.Omega1 * j1b) / (
        j1a**2 - j1b**2
    )


# ---------------------------------------------------------------------------
# per-mode time kernels


def _beta1_steps(nu_rn2: float, alpha_rn2: float, t: float, p: float):
    # At beta = 1 the inner j-series is geometric with ratio -alpha_rn2 and
    # diverges beyond |ratio| = 1; its binomial resummation (1+alpha_rn2)^-(k+1)
    # is exact, leaving a fast alternating k-series with terms
    # (-nu_rn2)^k t^(k+p) / (Gamma(k+p+1) (1+alpha_rn2)^(k+1)): the velocity
    # kernel for p = 1, its t-derivative for p = 0.
    log_nu = math.log(nu_rn2)
    log_ap1 = math.log1p(alpha_rn2)
    lt = math.log(t)
    for k in itertools.count():
        log_term = k * log_nu + (k + p) * lt - math.lgamma(k + p + 1.0) - (k + 1.0) * log_ap1
        yield 1, ((log_term, 1 if k % 2 == 0 else -1),)


def _double_series_steps(nu_rn2: float, alpha_rn2: float, beta: float, t: float,
                         parts: list):
    # One step per diagonal s = j + k and one term per (j, k) pair. Each
    # part (log c, shift) gives the pair one entry c t^(E-shift)/Gamma(E+1-shift):
    # velocity has the one part (log 1, 0), stress one per nonzero bracket
    # coefficient mu, alpha1.
    a = 1.0 - beta
    log_nu = math.log(nu_rn2)
    log_al = math.log(alpha_rn2) if alpha_rn2 > 0.0 else None
    lt = math.log(t)
    for s in itertools.count():
        lgs = math.lgamma(s + 1.0)
        sign = 1 if s % 2 == 0 else -1
        j_range = range(0, s + 1) if log_al is not None else (0,)
        entries = []
        for j in j_range:
            k = s - j
            e = a * j + k + 1.0
            log_coef = (
                k * log_nu
                + (j * log_al if j else 0.0)
                + lgs
                - math.lgamma(k + 1.0)
                - math.lgamma(j + 1.0)
            )
            for log_pre, shift in parts:
                entries.append(
                    (log_pre + log_coef + (e - shift) * lt - math.lgamma(e + 1.0 - shift), sign)
                )
        yield len(j_range), entries


def _double_series_kernel(nu_rn2: float, alpha_rn2: float, beta: float, t: float,
                          controls: SeriesControls, stress: bool = False,
                          mu: float = 0.0, alpha1: float = 0.0) -> float:
    """Diagonal (by j+k) signed log-space sum of the (j,k) double series.

    Velocity terms carry t^E / Gamma(E+1) with E = (1-beta) j + k + 1; the
    stress variant replaces that factor by the two-part bracket
    mu t^E/Gamma(E+1) + alpha1 t^(E-beta)/Gamma(E+1-beta). At beta = 1 the
    j-direction is resummed (see _beta1_steps).
    """
    if beta == 1.0:
        what = "beta=1 kernel series"
        kernel = _sum_series(_beta1_steps(nu_rn2, alpha_rn2, t, 1.0), controls, what)
        if not stress:
            return kernel
        if alpha1 == 0.0:
            # the t-derivative series is weighted by zero; its cancellation is moot
            return mu * kernel
        return mu * kernel + alpha1 * _sum_series(
            _beta1_steps(nu_rn2, alpha_rn2, t, 0.0), controls, what)
    _check_cancellation_budget(alpha_rn2, 1.0 - beta, t, "double series")
    if not stress:
        parts = [(0.0, 0.0)]
    else:
        parts = [(math.log(x), shift) for x, shift in ((mu, 0.0), (alpha1, beta)) if x > 0.0]
    return _sum_series(_double_series_steps(nu_rn2, alpha_rn2, beta, t, parts),
                       controls, "double series")


def _gseries_kernel(nu_rn2: float, alpha_rn2: float, beta: float, t: float,
                    controls: SeriesControls, stress: bool = False,
                    mu: float = 0.0, alpha1: float = 0.0) -> float:
    """Outer sum over k of (-nu_rn2)^k G-function values.

    Velocity uses G_{1-b, -1-b-kb, k+1}(-alpha_rn2, t); the stress bracket
    adds alpha1 * G_{1-b, -1-kb, k+1} for the fractional-derivative part.
    """
    a = 1.0 - beta
    log_nu = math.log(nu_rn2)

    def steps():
        for k in itertools.count():
            term = g_function(
                GFunctionArgs(a=a, b=-1.0 - beta - k * beta, c=k + 1.0, d=-alpha_rn2, t=t),
                controls,
            )
            if stress:
                g_str = g_function(
                    GFunctionArgs(a=a, b=-1.0 - k * beta, c=k + 1.0, d=-alpha_rn2, t=t),
                    controls,
                )
                term = mu * term + alpha1 * g_str
            value = SignedLogValue.from_float(term)
            yield 1, ((k * log_nu + value.log_magnitude, (1 if k % 2 == 0 else -1) * value.sign),)

    return _sum_series(steps(), controls, "G-series")


def _closed_kernels(params: FluidParams, rn2: np.ndarray, t: np.ndarray,
                    stress: bool) -> np.ndarray:
    """The exact beta = 1 (with alpha1 = 0, Newtonian) kernels, rn2 and t broadcast."""
    nu, alpha = params.nu, params.alpha
    z = nu * rn2 * t / (1.0 + alpha * rn2)
    if stress:
        return params.mu * (-np.expm1(-z)) / (nu * rn2) + params.alpha1 * np.exp(-z) / (1.0 + alpha * rn2)
    return -np.expm1(-z) / (nu * rn2)


def _mode_kernels(params: FluidParams, eigenvalues: EigenvalueSet, t,
                  controls: SeriesControls, stress: bool) -> tuple:
    """Evaluate the time kernels of all requested modes at every time in t.

    Returns (kernels, strategy_tag), kernels of shape (n_modes,) + t.shape.
    AUTO at beta = 1 takes the exact exponential kernel (closed-sg).
    Otherwise the strategy's route serves every t > 0: the series
    strategies sum one series per (mode, t) and raise ModeEvaluationError
    on a refusal; AUTO and MODE_LAPLACE invert all of K[mode, t] in one
    Talbot contour call. At t = 0 every velocity kernel is 0, the beta = 1
    stress kernel (the elastic jump) is the exponential one and a beta < 1
    stress kernel is refused.
    """
    t = np.asarray(t, dtype=float)
    times = t.reshape(-1)
    rn2 = eigenvalues.roots[: controls.n_modes, None] ** 2
    shape = rn2.shape[:1] + t.shape
    strategy = controls.strategy
    if params.beta == 1.0 and strategy == Strategy.AUTO:
        return _closed_kernels(params, rn2, times, stress).reshape(shape), "closed-sg"
    kernels = np.zeros((len(rn2), len(times)))
    live = times > 0.0
    if stress and not live.all():
        if params.beta != 1.0:
            raise DomainError("shear stress requires t > 0 for beta < 1")
        kernels[:, ~live] = _closed_kernels(params, rn2, times[~live], stress)
    if strategy in (Strategy.DOUBLE_SERIES, Strategy.G_SERIES):
        nu, alpha, beta = params.nu, params.alpha, params.beta
        one = _double_series_kernel if strategy == Strategy.DOUBLE_SERIES else _gseries_kernel
        tag = "double-series" if strategy == Strategy.DOUBLE_SERIES else "g-series"
        for i, x2 in enumerate(rn2[:, 0]):
            for j in np.flatnonzero(live):
                try:
                    kernels[i, j] = one(nu * x2, alpha * x2, beta, float(times[j]), controls,
                                        stress=stress, mu=params.mu, alpha1=params.alpha1)
                except NonConvergenceError as exc:
                    raise ModeEvaluationError(
                        f"mode {i + 1} ({tag}): {exc}", mode=i + 1, strategy=tag
                    ) from exc
    else:
        mt = ModeTransform(nu=params.nu, alpha=params.alpha, beta=params.beta, rn2=rn2)
        if stress:
            kernels[:, live] = invert_mode_stress_kernel(mt, params.mu, params.alpha1, times[live])
        else:
            kernels[:, live] = invert_mode_velocity_kernel(mt, times[live])
        tag = "laplace"
    return kernels.reshape(shape), tag


# ---------------------------------------------------------------------------
# field evaluation


def _mode_sum(geometry: AnnulusGeometry, eigenvalues: EigenvalueSet, r: np.ndarray,
              kernels: np.ndarray, stress: bool = False) -> np.ndarray:
    """pi * sum_n Phi[r, n] C_n K[n], the series part of every field.

    r is a checked radius array; kernels is K[mode] at one t or K[mode, t]
    over an array of times, and the result has shape
    r.shape + kernels.shape[1:]. Phi_n(r) is B1(r r_n) for the velocity and
    2 B1(r r_n)/r - r_n B(r r_n) for the shear stress, built in one
    broadcast call per cross-product.
    """
    n = kernels.shape[0]
    rn = eigenvalues.roots[:n]
    rc = r[..., None]
    phi = cross_b1(rc, rn, geometry.R2)
    if stress:
        phi = 2.0 * phi / rc - rn * cross_b(rc, rn, geometry.R2)
    weighted = mode_coefficients(geometry, eigenvalues)[:n] * kernels.T
    if kernels.ndim == 1:
        return math.pi * (phi @ weighted)
    # matmul batched over t: one matrix-vector product per time, so a time's
    # values do not depend on which other times share the block
    return math.pi * np.moveaxis((phi @ weighted[..., None])[..., 0], 0, -1)


def _stress_first_term(params: FluidParams, geometry: AnnulusGeometry, r, t):
    """The closed first term of the shear stress on the block r x t."""
    R1, R2 = geometry.R1, geometry.R2
    lead = 2.0 * R1**2 * R2**2 * (geometry.Omega2 - geometry.Omega1) / ((R2**2 - R1**2) * r**2)
    beta = params.beta
    if beta == 1.0:
        bracket = params.mu * t + params.alpha1
    else:
        bracket = params.mu * t + params.alpha1 * t ** (1.0 - beta) / math.gamma(2.0 - beta)
    return np.multiply.outer(lead, bracket)


def field_block(params: FluidParams, geometry: AnnulusGeometry, eigenvalues: EigenvalueSet,
                r, t, controls: SeriesControls = _DEFAULT_CONTROLS,
                stress: bool = False) -> FieldSample:
    """Azimuthal velocity, or with stress=True the shear stress, on the block
    r x t by the selected kernel strategy.

    r and t are each a scalar or a 1-D array; the result has shape
    r.shape + t.shape. The kernel matrix K[mode, t] is built once for the
    block. At t = 0 the velocity is exactly 0; the stress is the elastic
    jump at beta = 1 and is refused for beta < 1 (DomainError).
    """
    r, t = _radii(geometry, r), _times(t)
    _check_eigenvalues(geometry, eigenvalues, controls.n_modes)
    kernels, tag = _mode_kernels(params, eigenvalues, t, controls, stress)
    series = _mode_sum(geometry, eigenvalues, r, kernels, stress)
    if stress:
        tau = _stress_first_term(params, geometry, r, t) + series
        return FieldSample(r=r[()], t=t[()], omega=np.full_like(tau, math.nan)[()], tau=tau[()],
                           strategy_used=tag, modes_used=controls.n_modes)
    omega = np.where(t == 0.0, 0.0, steady_part(geometry, r, t) - series)
    return FieldSample(r=r[()], t=t[()], omega=omega[()], tau=None, strategy_used=tag,
                       modes_used=controls.n_modes if t.any() else 0)


def velocity(params: FluidParams, geometry: AnnulusGeometry, eigenvalues: EigenvalueSet,
             r, t, controls: SeriesControls = _DEFAULT_CONTROLS) -> FieldSample:
    """Azimuthal velocity on the block r x t (see field_block)."""
    return field_block(params, geometry, eigenvalues, r, t, controls)


def shear_stress(params: FluidParams, geometry: AnnulusGeometry, eigenvalues: EigenvalueSet,
                 r, t, controls: SeriesControls = _DEFAULT_CONTROLS) -> FieldSample:
    """Shear stress on the block r x t (see field_block); beta < 1 refuses t = 0."""
    return field_block(params, geometry, eigenvalues, r, t, controls, stress=True)


def velocity_sg_closed(params: FluidParams, geometry: AnnulusGeometry,
                       eigenvalues: EigenvalueSet, r, t,
                       controls: SeriesControls = _DEFAULT_CONTROLS) -> FieldSample:
    """beta = 1 velocity on the block r x t by the closed exponential kernel,
    whatever controls.strategy says; with alpha1 = 0, the Newtonian one."""
    if params.beta != 1.0:
        raise ContractError("velocity_sg_closed requires beta == 1")
    return field_block(params, geometry, eigenvalues, r, t,
                       replace(controls, strategy=Strategy.AUTO))


def shear_stress_sg_closed(params: FluidParams, geometry: AnnulusGeometry,
                           eigenvalues: EigenvalueSet, r, t,
                           controls: SeriesControls = _DEFAULT_CONTROLS) -> FieldSample:
    """beta = 1 shear stress on the block r x t by the closed exponential
    kernel, whatever controls.strategy says."""
    if params.beta != 1.0:
        raise ContractError("shear_stress_sg_closed requires beta == 1")
    return field_block(params, geometry, eigenvalues, r, t,
                       replace(controls, strategy=Strategy.AUTO), stress=True)
