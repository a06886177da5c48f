"""Velocity and shear stress field tests.

Reference values come from closed forms (beta = 1), mutual agreement of
independent evaluation routes, and exact algebraic special cases.
"""

import math

import numpy as np
import pytest

from gsgflow import (
    AnnulusGeometry,
    ContractError,
    DomainError,
    FluidParams,
    GeometryError,
    ModeEvaluationError,
    SeriesControls,
    Strategy,
    find_roots,
    shear_stress,
    shear_stress_sg_closed,
    steady_part,
    velocity,
    velocity_sg_closed,
)
from gsgflow.solution import _mode_kernels, _stress_first_term, mode_coefficients
from gsgflow.special import cross_b, cross_b1
from gsgflow.validate import mixed_relative_error

GEOM = AnnulusGeometry(R1=1.0, R2=4.0, Omega1=3.0, Omega2=1.5)
EIG = find_roots(1.0, 4.0, 60)


def params(beta, alpha1=11.34):
    return FluidParams(mu=1.48, alpha1=alpha1, rho=1260.0, beta=beta)


class TestParamsAndGeometry:
    def test_derived_constants(self):
        p = params(0.5)
        assert p.nu == pytest.approx(1.48 / 1260.0, rel=1e-15)
        assert p.alpha == pytest.approx(11.34 / 1260.0, rel=1e-15)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FluidParams(mu=0.0, alpha1=1.0, rho=1.0, beta=0.5)
        with pytest.raises(ValueError):
            FluidParams(mu=1.0, alpha1=1.0, rho=1.0, beta=1.5)
        with pytest.raises(ValueError):
            FluidParams(mu=1.0, alpha1=-1.0, rho=1.0, beta=0.5)
        base = dict(mu=1.0, alpha1=1.0, rho=1.0, beta=0.5)
        for name, value in (("mu", math.nan), ("rho", math.inf), ("alpha1", math.inf),
                            ("alpha1", math.nan), ("beta", math.nan)):
            with pytest.raises(ValueError, match=name):
                FluidParams(**{**base, name: value})

    def test_geometry_validation(self):
        with pytest.raises(GeometryError):
            AnnulusGeometry(R1=4.0, R2=1.0, Omega1=0.0, Omega2=0.0)
        base = dict(R1=1.0, R2=4.0, Omega1=3.0, Omega2=1.5)
        for name, value in (("R2", math.inf), ("R1", math.nan), ("Omega1", math.nan),
                            ("Omega2", -math.inf)):
            with pytest.raises(GeometryError, match=name):
                AnnulusGeometry(**{**base, name: value})

    def test_counter_rotation_allowed(self):
        AnnulusGeometry(R1=1.0, R2=4.0, Omega1=-3.0, Omega2=1.5)


class TestSteadyPart:
    def test_rigid_rotation_collapses(self):
        g = AnnulusGeometry(R1=1.0, R2=4.0, Omega1=2.0, Omega2=2.0)
        for r in (1.0, 1.7, 3.2, 4.0):
            assert steady_part(g, r, 3.0) == pytest.approx(2.0 * r * 3.0, rel=1e-14)

    def test_wall_values(self):
        assert steady_part(GEOM, 1.0, 2.0) == pytest.approx(1.0 * 3.0 * 2.0, rel=1e-14)
        assert steady_part(GEOM, 4.0, 2.0) == pytest.approx(4.0 * 1.5 * 2.0, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            steady_part(GEOM, 0.5, 1.0)


class TestVelocity:
    def test_initial_condition_exact(self):
        fs = velocity(params(0.5), GEOM, EIG, 2.5, 0.0)
        assert fs.omega == 0.0
        assert fs.modes_used == 0

    def test_wall_values_carry_only_root_residuals(self):
        for beta in (0.3, 1.0):
            p = params(beta)
            for t in (1.0, 10.0):
                w1 = velocity(p, GEOM, EIG, 1.0, t).omega
                w2 = velocity(p, GEOM, EIG, 4.0, t).omega
                assert abs(w1 - 3.0 * t) < 1e-9 * abs(steady_part(GEOM, 1.0, t))
                assert abs(w2 - 6.0 * t) < 1e-9 * abs(steady_part(GEOM, 4.0, t))

    def test_small_time_decay_toward_rest(self):
        p = params(0.5)
        vals = [abs(velocity(p, GEOM, EIG, 2.5, t).omega) for t in (1e-3, 1e-4, 1e-5)]
        assert vals[0] > vals[1] > vals[2]

    def test_beta1_series_matches_closed_form(self):
        p = params(1.0)
        c = SeriesControls(n_modes=50, tol_rel=1e-14, strategy=Strategy.DOUBLE_SERIES)
        for r, t in [(1.3, 2.0), (2.5, 5.0), (3.8, 9.0)]:
            a = velocity(p, GEOM, EIG, r, t, c).omega
            b = velocity_sg_closed(p, GEOM, EIG, r, t, c).omega
            assert a == pytest.approx(b, rel=1e-8)

    def test_beta1_series_refuses_cancellation(self):
        # with alpha1 = 0 nothing damps the alternating k-series: at t = 10
        # its largest terms exceed the kernel by more than CANCELLATION_LIMIT
        p = params(1.0, alpha1=0.0)
        c = SeriesControls(n_modes=50, strategy=Strategy.DOUBLE_SERIES)
        with pytest.raises(ModeEvaluationError):
            velocity(p, GEOM, EIG, 2.5, 10.0, c)
        a = velocity(p, GEOM, EIG, 2.5, 5.0, c).omega
        assert a == pytest.approx(velocity_sg_closed(p, GEOM, EIG, 2.5, 5.0, c).omega, rel=1e-8)

    def test_strategies_agree(self):
        p = params(0.5)
        vals = [
            velocity(p, GEOM, EIG, 2.5, 2.0, SeriesControls(n_modes=10, strategy=s)).omega
            for s in (Strategy.DOUBLE_SERIES, Strategy.G_SERIES, Strategy.MODE_LAPLACE)
        ]
        assert max(vals) - min(vals) < 1e-6 * abs(vals[0])

    def test_auto_is_laplace_at_every_beta(self):
        # one contour route: no per-mode series attempt, no fallback tag
        auto = SeriesControls(n_modes=50)
        lap = SeriesControls(n_modes=50, strategy=Strategy.MODE_LAPLACE)
        for beta in (0.3, 0.6, 0.9, 0.95, 1.0):
            p = params(beta)
            for t in (0.5, 10.0):
                for stress in (False, True):
                    k_auto, tag_auto = _mode_kernels(p, EIG, t, auto, stress=stress)
                    k_lap, tag_lap = _mode_kernels(p, EIG, t, lap, stress=stress)
                    assert np.array_equal(k_auto, k_lap)
                    assert tag_auto == tag_lap == "laplace"
            assert velocity(p, GEOM, EIG, 2.5, 10.0, auto).strategy_used == "laplace"

    def test_explicit_gseries_refuses_near_beta_one(self):
        with pytest.raises(ModeEvaluationError) as exc_info:
            velocity(params(0.95), GEOM, EIG, 2.5, 5.0,
                     SeriesControls(n_modes=50, strategy=Strategy.G_SERIES))
        assert exc_info.value.strategy == "g-series"
        assert exc_info.value.mode >= 1

    def test_linearity_in_wall_accelerations(self):
        p = params(0.5)
        base_w = velocity(p, GEOM, EIG, 1.3, 4.0).omega
        base_t = shear_stress(p, GEOM, EIG, 1.3, 4.0).tau
        for lam in (-1.0, 0.5, 3.0):
            g2 = AnnulusGeometry(R1=1.0, R2=4.0, Omega1=lam * 3.0, Omega2=lam * 1.5)
            assert velocity(p, g2, EIG, 1.3, 4.0).omega == pytest.approx(lam * base_w, rel=1e-12)
            assert shear_stress(p, g2, EIG, 1.3, 4.0).tau == pytest.approx(lam * base_t, rel=1e-12)

    def test_zero_forcing_gives_rest(self):
        g0 = AnnulusGeometry(R1=1.0, R2=4.0, Omega1=0.0, Omega2=0.0)
        assert velocity(params(0.5), g0, EIG, 2.5, 3.0).omega == 0.0

    def test_geometry_mismatch_rejected(self):
        other = AnnulusGeometry(R1=1.0, R2=3.0, Omega1=3.0, Omega2=1.5)
        with pytest.raises(GeometryError):
            velocity(params(0.5), other, EIG, 2.0, 1.0)

    def test_more_modes_than_available_rejected(self):
        with pytest.raises(ValueError):
            velocity(params(0.5), GEOM, EIG, 2.0, 1.0, SeriesControls(n_modes=100))

    def test_non_finite_time_rejected(self):
        for t in (math.nan, math.inf):
            for fn in (velocity, shear_stress):
                with pytest.raises(DomainError, match="t="):
                    fn(params(0.5), GEOM, EIG, 2.5, t)
            with pytest.raises(DomainError, match="t="):
                steady_part(GEOM, 2.5, t)

    def test_monotone_spin_up_history(self):
        p = params(0.5)
        c = SeriesControls(n_modes=40)
        for r in (1.3, 3.8):
            vals = [velocity(p, GEOM, EIG, r, t, c).omega for t in np.linspace(0.5, 10.0, 20)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestVelocityClosedForms:
    def test_requires_beta_one(self):
        with pytest.raises(ContractError):
            velocity_sg_closed(params(0.7), GEOM, EIG, 2.0, 1.0)

    def test_newtonian_limit_is_alpha_zero(self):
        p = params(1.0, alpha1=0.0)
        fs = velocity_sg_closed(p, GEOM, EIG, 3.8, 10.0)
        assert math.isfinite(fs.omega)
        # transient bound: the series part never exceeds its kernel cap
        rn2 = EIG.roots[:50] ** 2
        coeffs = mode_coefficients(GEOM, EIG)[:50]
        b1 = np.array([cross_b1(3.8, x, 4.0) for x in EIG.roots[:50]])
        bound = math.pi * float(np.sum(np.abs(coeffs * b1) / (p.nu * rn2)))
        assert abs(fs.omega - steady_part(GEOM, 3.8, 10.0)) <= bound

    def test_transient_bounded_uniformly_in_time(self):
        # kernel in [0, 1/(nu rn^2)): the deviation from the steady profile
        # is capped by pi/nu * sum |C_n B1(r r_n)| / rn^2 at every time
        p = params(1.0)
        rn = EIG.roots[:50]
        coeffs = mode_coefficients(GEOM, EIG)[:50]
        b1 = np.array([cross_b1(2.5, x, 4.0) for x in rn])
        bound = math.pi / p.nu * float(np.sum(np.abs(coeffs * b1) / rn**2))
        for t in (10.0, 100.0, 1000.0):
            dev = abs(velocity_sg_closed(p, GEOM, EIG, 2.5, t).omega
                      - steady_part(GEOM, 2.5, t))
            assert dev <= bound


class TestInnerRest:
    def test_boundaries(self):
        g = AnnulusGeometry(R1=1.0, R2=4.0, Omega1=0.0, Omega2=1.5)
        assert abs(velocity(params(0.7), g, EIG, 1.0, 3.0).omega) < 1e-8
        assert velocity(params(0.7), g, EIG, 4.0, 3.0).omega == pytest.approx(
            4.0 * 1.5 * 3.0, rel=1e-9)


class TestShearStress:
    def test_equal_accelerations_kill_first_term(self):
        g = AnnulusGeometry(R1=1.0, R2=4.0, Omega1=2.0, Omega2=2.0)
        p = params(1.0)
        # with Omega1 = Omega2 the closed first term vanishes; the remaining
        # series part must match the generic path exactly
        tau = shear_stress_sg_closed(p, g, EIG, 2.5, 3.0).tau
        assert _stress_first_term(p, g, 2.5, 3.0) == 0.0
        assert math.isfinite(tau)

    def test_beta1_series_matches_closed_form(self):
        p = params(1.0)
        c = SeriesControls(n_modes=50, tol_rel=1e-14, strategy=Strategy.DOUBLE_SERIES)
        for r, t in [(1.3, 2.0), (2.5, 5.0), (3.8, 9.0)]:
            a = shear_stress(p, GEOM, EIG, r, t, c).tau
            b = shear_stress_sg_closed(p, GEOM, EIG, r, t, c).tau
            assert a == pytest.approx(b, rel=1e-8)

    def test_beta1_series_refuses_cancellation(self):
        p = params(1.0, alpha1=0.0)
        c = SeriesControls(n_modes=50, strategy=Strategy.DOUBLE_SERIES)
        with pytest.raises(ModeEvaluationError):
            shear_stress(p, GEOM, EIG, 2.5, 10.0, c)
        a = shear_stress(p, GEOM, EIG, 2.5, 5.0, c).tau
        assert a == pytest.approx(shear_stress_sg_closed(p, GEOM, EIG, 2.5, 5.0, c).tau, rel=1e-8)

    def test_zero_time_requires_beta_one(self):
        with pytest.raises(DomainError):
            shear_stress(params(0.5), GEOM, EIG, 2.5, 0.0)
        tau0 = shear_stress(params(1.0), GEOM, EIG, 2.5, 0.0).tau
        assert math.isfinite(tau0)
        # the t = 0 stress at beta = 1 is nonzero (elastic jump)
        assert tau0 != 0.0

    def test_strategies_agree(self):
        p = params(0.5)
        vals = [
            shear_stress(p, GEOM, EIG, 3.0, 2.0, SeriesControls(n_modes=10, strategy=s)).tau
            for s in (Strategy.DOUBLE_SERIES, Strategy.G_SERIES, Strategy.MODE_LAPLACE)
        ]
        assert max(vals) - min(vals) < 1e-6 * abs(vals[0])

    def test_closed_form_requires_beta_one(self):
        with pytest.raises(ContractError):
            shear_stress_sg_closed(params(0.5), GEOM, EIG, 2.0, 1.0)


# ---------------------------------------------------------------------------
# block evaluation against the per-point assembly it replaced

RADII = np.array([1.0, 1.3, 2.2, 2.5, 3.1, 3.8, 4.0])
# validate's mixed-error floors: omega at the boundary-velocity scale at t,
# tau at the steady wall shear at R1
OMEGA_FLOOR = 2e-4 * (4.0 * 1.5 + 1.0 * 3.0)
# only the order of summation differs from the reference
BLOCK_TOL = 1e-11


def stress_floor(p, t):
    return 2e-4 * abs(_stress_first_term(p, GEOM, GEOM.R1, t))


def point_velocity(r, t, kernels):
    """omega at one radius by per-point math.fsum assembly (the reference)."""
    n = len(kernels)
    rn = EIG.roots[:n]
    coeffs = mode_coefficients(GEOM, EIG)[:n]
    b1 = np.array([cross_b1(r, x, GEOM.R2) for x in rn])
    series = math.fsum(coeffs[i] * b1[i] * kernels[i] for i in range(n))
    return steady_part(GEOM, r, t) - math.pi * series


def point_stress(p, r, t, kernels):
    """tau at one radius by per-point math.fsum assembly (the reference)."""
    n = len(kernels)
    rn = EIG.roots[:n]
    geom = np.array([2.0 * cross_b1(r, x, GEOM.R2) / r - x * cross_b(r, x, GEOM.R2) for x in rn])
    coeffs = mode_coefficients(GEOM, EIG)[:n]
    series = math.fsum(geom[i] * coeffs[i] * kernels[i] for i in range(n))
    return _stress_first_term(p, GEOM, r, t) + math.pi * series


def assert_block_matches(p, t, omega, tau, k_omega, k_tau):
    for i, r in enumerate(RADII):
        r = float(r)
        if omega is not None:
            want = point_velocity(r, t, k_omega)
            assert mixed_relative_error(omega[i], want, OMEGA_FLOOR * t) <= BLOCK_TOL
        want = point_stress(p, r, t, k_tau)
        assert mixed_relative_error(tau[i], want, stress_floor(p, t)) <= BLOCK_TOL


class TestBlockEvaluation:
    @pytest.mark.parametrize("beta", [0.3, 0.9])
    def test_fractional_block_matches_point_assembly(self, beta):
        p = params(beta)
        c = SeriesControls(n_modes=50)
        for t in (0.5, 5.0):
            fs = velocity(p, GEOM, EIG, RADII, t, c)
            tau = shear_stress(p, GEOM, EIG, RADII, t, c).tau
            assert fs.r.shape == fs.omega.shape == tau.shape == RADII.shape
            k_omega, _ = _mode_kernels(p, EIG, t, c, stress=False)
            k_tau, _ = _mode_kernels(p, EIG, t, c, stress=True)
            assert_block_matches(p, t, fs.omega, tau, k_omega, k_tau)

    @pytest.mark.parametrize("alpha1, times", [(11.34, (0.0, 0.5, 5.0)), (0.0, (0.5, 5.0))])
    def test_closed_block_matches_point_assembly(self, alpha1, times):
        # beta = 1 second grade fluid and the Newtonian case; at t = 0 only
        # the second grade stress is nonzero (the elastic jump)
        p = params(1.0, alpha1)
        nu, alpha = p.nu, p.alpha
        rn2 = EIG.roots[:50] ** 2
        for t in times:
            k_omega = np.array([-math.expm1(-nu * x2 * t / (1.0 + alpha * x2)) / (nu * x2)
                                for x2 in rn2])
            z = nu * rn2 * t / (1.0 + alpha * rn2)
            k_tau = p.mu * (-np.expm1(-z)) / (nu * rn2) + p.alpha1 * np.exp(-z) / (1.0 + alpha * rn2)
            omega = velocity_sg_closed(p, GEOM, EIG, RADII, t).omega if t > 0.0 else None
            tau = shear_stress_sg_closed(p, GEOM, EIG, RADII, t).tau
            assert_block_matches(p, t, omega, tau, k_omega, k_tau)

    def test_zero_time_block(self):
        for fn, p in ((velocity, params(0.5)), (velocity_sg_closed, params(1.0))):
            omega = fn(p, GEOM, EIG, RADII, 0.0).omega
            assert omega.shape == RADII.shape and not omega.any()
        with pytest.raises(DomainError):
            shear_stress(params(0.5), GEOM, EIG, RADII, 0.0)

    def test_one_radius_outside_rejects_the_block(self):
        cases = ((velocity, params(0.5)), (shear_stress, params(0.5)),
                 (velocity_sg_closed, params(1.0)), (shear_stress_sg_closed, params(1.0)))
        for bad in (0.5, 4.0 + 1e-9, math.nan):
            for at in (0, 2, 3):
                radii = np.insert(np.array([1.3, 2.5, 3.8]), at, bad)
                for fn, p in cases:
                    with pytest.raises(DomainError, match="outside annulus"):
                        fn(p, GEOM, EIG, radii, 1.0)
