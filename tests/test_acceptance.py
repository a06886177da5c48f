"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS line with the measured worst discrepancy and its threshold.

Probe points where the startup field is still essentially zero are
compared with a relative error floored at a small fraction of the
boundary-velocity scale (numpy.allclose semantics); everywhere else the
comparison is plainly relative.
"""

import math

import numpy as np
import pytest

from gsgflow import (
    AnnulusGeometry,
    FluidParams,
    GFunctionArgs,
    GridSpec,
    ModeEvaluationError,
    NonConvergenceError,
    SeriesControls,
    Strategy,
    bessel,
    find_roots,
    g_function,
    gl_weights,
    shear_stress,
    shear_stress_sg_closed,
    steady_part,
    velocity,
    velocity_sg_closed,
)
from gsgflow import fdsolver
from gsgflow.validate import mixed_relative_error, operator_applied_stress

GEOM = AnnulusGeometry(R1=1.0, R2=4.0, Omega1=3.0, Omega2=1.5)
PROBES_R = (1.3, 2.5, 3.8)
PROBES_T = (1.0, 5.0, 10.0)
# absolute floor for near-zero probes: 2e-4 of the boundary-velocity scale
SCALE_COEF = 2e-4 * (4.0 * 1.5 + 1.0 * 3.0)


def params(beta, alpha1=11.34):
    return FluidParams(mu=1.48, alpha1=alpha1, rho=1260.0, beta=beta)


def report(number, name, worst, threshold):
    status = "PASS" if worst <= threshold else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} (worst {worst:.3e}, threshold {threshold:.0e})")
    assert worst <= threshold


EIG50 = find_roots(1.0, 4.0, 50)


def test_criterion_1_identity_suite():
    worst = 0.0
    for z in np.logspace(math.log10(0.1), math.log10(100.0), 200):
        resid = abs(bessel("J", 0, z) * bessel("Y", 1, z)
                    - bessel("J", 1, z) * bessel("Y", 0, z) + 2.0 / (math.pi * z))
        worst = max(worst, resid / 1e-11)

    rng = np.random.default_rng(3)
    for _ in range(50):
        a = float(rng.uniform(0.1, 1.0))
        c = float(rng.uniform(0.5, 6.0))
        b = a * c - float(rng.uniform(0.2, 3.0))
        t = float(rng.uniform(0.1, 10.0))
        got = g_function(GFunctionArgs(a=a, b=b, c=c, d=0.0, t=t))
        want = t ** (c * a - b - 1.0) / math.gamma(c * a - b)
        worst = max(worst, abs(got - want) / abs(want) / 1e-10)

    for d, t in [(2.0, 10.0), (0.5, 4.0), (-1.0, 5.0), (1.5, 8.0), (-0.3, 3.0)]:
        got = g_function(GFunctionArgs(a=1.0, b=0.0, c=1.0, d=d, t=t))
        worst = max(worst, abs(got - math.exp(d * t)) / math.exp(d * t) / 1e-10)

    w = gl_weights(1.0, 12).weights
    exact = np.array([1.0, -1.0] + [0.0] * 11)
    worst = max(worst, float(np.max(np.abs(w - exact))) and math.inf)
    report(1, "identity-suite", worst, 1.0)


def test_criterion_2_eigenvalue_suite():
    eig = EIG50
    worst = float(eig.residuals.max()) / 1e-10
    spacing = math.pi / 3.0
    gaps = np.diff(eig.roots)[20:]
    worst = max(worst, float(np.max(np.abs(gaps - spacing))) / spacing / 0.01)

    # dense-scan completeness: no sign change outside the returned roots
    from gsgflow import cross_b1

    step = math.pi / (100.0 * 3.0)
    x = step * 1e-3
    f_prev = cross_b1(1.0, x, 4.0)
    crossings = []
    limit = eig.roots[-1] + 0.5 * spacing
    while x < limit:
        x_next = x + step
        f_next = cross_b1(1.0, x_next, 4.0)
        if f_prev * f_next < 0.0:
            crossings.append((x, x_next))
        x, f_prev = x_next, f_next
    inside = [c for c in crossings if c[0] < eig.roots[-1] + 0.25 * spacing]
    complete = len(inside) == 50 and all(
        lo <= root <= hi for (lo, hi), root in zip(inside, eig.roots))
    worst = max(worst, 0.0 if complete else math.inf)
    report(2, "eigenvalue-suite", worst, 1.0)


def test_criterion_3_boundary_and_initial_conditions():
    worst = 0.0
    for beta in (0.3, 0.5, 0.8, 1.0):
        p = params(beta)
        assert velocity(p, GEOM, EIG50, 2.5, 0.0).omega == 0.0
        for t in PROBES_T:
            for r, want in ((1.0, 3.0 * t), (4.0, 6.0 * t)):
                got = velocity(p, GEOM, EIG50, r, t).omega
                worst = max(worst, abs(got - want) / abs(steady_part(GEOM, r, t)) / 1e-9)
    report(3, "boundary-initial-conditions", worst, 1.0)


def test_criterion_4_beta1_reduction():
    p = params(1.0)
    tight = SeriesControls(n_modes=50, tol_rel=1e-14, strategy=Strategy.DOUBLE_SERIES)
    worst = 0.0
    for r in np.linspace(1.15, 3.85, 10):
        for t in np.linspace(1.0, 10.0, 10):
            r_, t_ = float(r), float(t)
            a = velocity(p, GEOM, EIG50, r_, t_, tight).omega
            b = velocity_sg_closed(p, GEOM, EIG50, r_, t_, tight).omega
            worst = max(worst, abs(a - b) / abs(b) / 1e-8)
            a = shear_stress(p, GEOM, EIG50, r_, t_, tight).tau
            b = shear_stress_sg_closed(p, GEOM, EIG50, r_, t_, tight).tau
            worst = max(worst, abs(a - b) / abs(b) / 1e-8)
    report(4, "beta1-reduction", worst, 1.0)


def test_criterion_5_strategy_cross_agreement():
    eig = find_roots(1.0, 4.0, 10)
    controls = {
        s: SeriesControls(n_modes=10, strategy=s)
        for s in (Strategy.DOUBLE_SERIES, Strategy.G_SERIES, Strategy.MODE_LAPLACE)
    }
    worst = 0.0
    compared = total = 0
    for beta in (0.3, 0.5, 0.8):
        p = params(beta)
        for r in np.linspace(1.3, 3.8, 5):
            for t in (0.5, 1.0, 2.0, 4.0, 8.0):
                total += 1
                vals = []
                try:
                    for c in controls.values():
                        vals.append(velocity(p, GEOM, eig, float(r), t, c).omega)
                except (ModeEvaluationError, NonConvergenceError):
                    # a series route refused the cell; agreement is asserted
                    # wherever all three converge
                    continue
                compared += 1
                worst = max(worst, (max(vals) - min(vals)) / max(abs(min(vals)), abs(max(vals))) / 1e-6)
    assert compared >= (2 * total) // 3, f"only {compared}/{total} cells converged"
    print(f"  ({compared}/{total} grid cells converged on all three strategies)")
    report(5, "strategy-cross-agreement", worst, 1.0)


def test_criterion_6_pde_oracle_equivalence():
    eig = find_roots(1.0, 4.0, 400)
    grid = GridSpec(nr=400, dt=1e-3, t_end=10.0)
    laplace400 = SeriesControls(n_modes=400, strategy=Strategy.MODE_LAPLACE)
    worst = 0.0
    for beta in (0.5, 0.8, 1.0):
        p = params(beta)
        fd = fdsolver.solve(p, GEOM, grid)
        for t in PROBES_T:
            omega = velocity(p, GEOM, eig, np.array(PROBES_R), t, laplace400).omega
            for r, value in zip(PROBES_R, omega):
                m = mixed_relative_error(value, fd.at(r, t), SCALE_COEF * t)
                worst = max(worst, m / 0.02)

    # Newtonian sub-case at the reference probe (2.5, 5); at nr = 400 the
    # boundary-layer tails carry 1-2.5% intrinsic spatial error, so the
    # tighter bound applies where the two solutions are both resolvable
    newt = params(1.0, alpha1=0.0)
    eig_n = find_roots(1.0, 4.0, 4000)
    fd = fdsolver.solve(newt, GEOM, grid)
    a = velocity_sg_closed(newt, GEOM, eig_n, 2.5, 5.0, SeriesControls(n_modes=4000)).omega
    m = mixed_relative_error(a, fd.at(2.5, 5.0), SCALE_COEF * 5.0)
    worst = max(worst, m / 0.005)
    report(6, "pde-oracle-equivalence", worst, 1.0)


def test_criterion_7_shear_operator_consistency():
    p = params(0.5)
    eig = find_roots(1.0, 4.0, 20)
    # matched truncation: the oracle differentiates the same 20-mode field
    # the formula sums, and every kernel transient is resolvable at dt=1e-3
    controls = SeriesControls(n_modes=20, strategy=Strategy.MODE_LAPLACE)
    worst = 0.0
    for r in PROBES_R:
        for t in PROBES_T:
            formula = shear_stress(p, GEOM, eig, r, t, controls).tau
            oracle = operator_applied_stress(p, GEOM, eig, r, t, n_modes=20)
            worst = max(worst, abs(formula - oracle) / abs(formula) / 0.01)
    report(7, "shear-operator-consistency", worst, 1.0)


def test_criterion_8_figure_claim_reproduction():
    defaults = SeriesControls(n_modes=50)
    curves = {}
    for beta in (0.3, 0.6, 0.9):
        p = params(beta)
        for r in PROBES_R:
            for t in (3.0, 6.0, 9.0):
                curves[(beta, r, t)] = velocity(p, GEOM, EIG50, r, t, defaults).omega
    sg = params(1.0)
    newt = params(1.0, alpha1=0.0)
    for r in PROBES_R:
        for t in (3.0, 6.0, 9.0):
            curves[("sg", r, t)] = velocity_sg_closed(sg, GEOM, EIG50, r, t, defaults).omega
            curves[("newt", r, t)] = velocity_sg_closed(newt, GEOM, EIG50, r, t, defaults).omega

    ordered = True
    for r in PROBES_R:
        for t in (3.0, 6.0, 9.0):
            seq = [curves[(k, r, t)] for k in (0.3, 0.6, 0.9, "sg", "newt")]
            ordered &= all(a > b for a, b in zip(seq, seq[1:]))

    # the spread of the beta family is widest near the walls
    spreads = {}
    for r in PROBES_R:
        for t in (3.0, 6.0, 9.0):
            fam = [curves[(k, r, t)] for k in (0.3, 0.6, 0.9, "sg")]
            spreads[(r, t)] = max(fam) - min(fam)
    near_boundary = all(
        spreads[(1.3, t)] > spreads[(2.5, t)] and spreads[(3.8, t)] > spreads[(2.5, t)]
        for t in (3.0, 6.0, 9.0))
    worst = 0.0 if (ordered and near_boundary) else math.inf
    report(8, "figure-claim-reproduction", worst, 1.0)


def test_criterion_9_linearity():
    p = params(0.5)
    worst = 0.0
    for r, t in ((1.3, 4.0), (3.8, 2.0)):
        base_w = velocity(p, GEOM, EIG50, r, t).omega
        base_t = shear_stress(p, GEOM, EIG50, r, t).tau
        for lam in (-1.0, 0.5, 3.0):
            g2 = AnnulusGeometry(R1=1.0, R2=4.0, Omega1=lam * 3.0, Omega2=lam * 1.5)
            got_w = velocity(p, g2, EIG50, r, t).omega
            got_t = shear_stress(p, g2, EIG50, r, t).tau
            worst = max(worst, abs(got_w - lam * base_w) / abs(lam * base_w) / 1e-12)
            worst = max(worst, abs(got_t - lam * base_t) / abs(lam * base_t) / 1e-12)
    report(9, "linearity", worst, 1.0)
