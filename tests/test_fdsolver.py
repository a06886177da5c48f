"""Finite-difference oracle tests: weight recurrences, exact special
cases, discrete structure, and self-convergence."""

import io
import math

import numpy as np
import pytest

from gsgflow import (
    AnnulusGeometry,
    DomainError,
    FluidParams,
    GridSpec,
    SeriesControls,
    find_roots,
    gl_weights,
    velocity_sg_closed,
)
from gsgflow.fdsolver import solve

GEOM = AnnulusGeometry(R1=1.0, R2=4.0, Omega1=3.0, Omega2=1.5)


class TestGLWeights:
    def test_beta_one_is_first_difference(self):
        w = gl_weights(1.0, 10).weights
        assert w[0] == 1.0
        assert w[1] == -1.0
        assert np.all(w[2:] == 0.0)

    def test_half_order_values(self):
        w = gl_weights(0.5, 2).weights
        assert w[0] == 1.0
        assert w[1] == pytest.approx(-0.5, abs=0.0)
        assert w[2] == pytest.approx(-0.125, abs=0.0)

    def test_recurrence_holds_exactly_as_computed(self):
        w = gl_weights(0.37, 200).weights
        for k in range(1, 201):
            assert w[k] == w[k - 1] * (1.0 - (0.37 + 1.0) / k)

    def test_partial_sums_decay_monotonically(self):
        # sum_{k<=m} w_k = Gamma(m+1-beta) / (Gamma(1-beta) Gamma(m+1)),
        # positive and falling like m^-beta
        for beta in (0.3, 0.7):
            w = gl_weights(beta, 10_000).weights
            partial = np.cumsum(w)
            assert np.all(partial > 0.0)
            assert np.all(np.diff(np.abs(partial)) <= 0.0)
            asymptote = 10_000.0 ** (-beta) / math.gamma(1.0 - beta)
            assert partial[-1] == pytest.approx(asymptote, rel=0.05)

    def test_domain(self):
        with pytest.raises(DomainError):
            gl_weights(0.0, 5)
        with pytest.raises(DomainError):
            gl_weights(1.2, 5)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(nr=4, dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            GridSpec(nr=16, dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            GridSpec(nr=16, dt=1e-2, t_end=1e-3)

    def test_non_integral_nr_rejected(self):
        # nr counts grid points: floats, bools and strings are refused up front
        for nr in (16.5, 16.0, True, "16"):
            with pytest.raises(ValueError, match="nr must be an integer"):
                GridSpec(nr=nr, dt=1e-2, t_end=0.1)
        assert GridSpec(nr=np.int64(16), dt=1e-2, t_end=0.1).nr == 16

    def test_non_finite_steps_rejected(self):
        for dt, t_end, name in ((math.nan, 10.0, "dt"), (math.inf, 10.0, "dt"),
                                (1e-3, math.inf, "t_end"), (1e-3, math.nan, "t_end")):
            with pytest.raises(ValueError, match=name):
                GridSpec(nr=400, dt=dt, t_end=t_end)


class TestSolve:
    def test_zero_forcing_stays_at_rest(self):
        g0 = AnnulusGeometry(R1=1.0, R2=4.0, Omega1=0.0, Omega2=0.0)
        p = FluidParams(mu=1.48, alpha1=11.34, rho=1260.0, beta=0.5)
        fd = solve(p, g0, GridSpec(nr=16, dt=1e-2, t_end=0.5))
        assert np.all(fd.omega == 0.0)

    def test_dirichlet_rows_exact(self):
        p = FluidParams(mu=1.48, alpha1=11.34, rho=1260.0, beta=0.6)
        fd = solve(p, GEOM, GridSpec(nr=32, dt=1e-2, t_end=1.0))
        for m, t in enumerate(fd.t):
            assert fd.omega[m, 0] == 1.0 * 3.0 * t
            assert fd.omega[m, -1] == 4.0 * 1.5 * t

    def test_discrete_linearity(self):
        p = FluidParams(mu=1.48, alpha1=11.34, rho=1260.0, beta=0.5)
        grid = GridSpec(nr=24, dt=2e-2, t_end=1.0)
        base = solve(p, GEOM, grid).omega
        for lam in (-1.0, 3.0):
            g2 = AnnulusGeometry(R1=1.0, R2=4.0, Omega1=lam * 3.0, Omega2=lam * 1.5)
            scaled = solve(p, g2, grid).omega
            assert np.allclose(scaled, lam * base, rtol=1e-12, atol=1e-13)

    def test_matches_newtonian_closed_form(self):
        # classical limit: beta = 1, alpha1 = 0 at the reference probe
        p = FluidParams(mu=1.48, alpha1=0.0, rho=1260.0, beta=1.0)
        fd = solve(p, GEOM, GridSpec(nr=400, dt=1e-3, t_end=5.0))
        eig = find_roots(1.0, 4.0, 2000)
        want = velocity_sg_closed(p, GEOM, eig, 2.5, 5.0, SeriesControls(n_modes=2000)).omega
        got = fd.at(2.5, 5.0)
        scale = max(abs(want), 2e-4 * (4.0 * 1.5 + 3.0) * 5.0)
        assert abs(got - want) / scale < 0.005

    def test_self_convergence_under_refinement(self):
        p = FluidParams(mu=1.48, alpha1=11.34, rho=1260.0, beta=0.5)
        coarse = solve(p, GEOM, GridSpec(nr=200, dt=4e-3, t_end=2.0)).at(2.5, 2.0)
        fine = solve(p, GEOM, GridSpec(nr=400, dt=2e-3, t_end=2.0)).at(2.5, 2.0)
        scale = max(abs(fine), 2e-4 * 9.0 * 2.0)
        assert abs(coarse - fine) / scale < 0.005

    def test_observed_spatial_order_near_two(self):
        # smooth beta = 1 case; dt small enough that space dominates
        p = FluidParams(mu=1.48, alpha1=11.34, rho=1260.0, beta=1.0)
        vals = []
        for nr in (50, 100, 200):
            fd = solve(p, GEOM, GridSpec(nr=nr, dt=1e-4, t_end=1.0))
            vals.append(fd.at(1.75, 1.0))
        order = math.log2(abs(vals[0] - vals[1]) / abs(vals[1] - vals[2]))
        assert 1.7 <= order <= 2.3

class TestFieldGrid:
    def test_probe_interpolation_and_domain(self):
        p = FluidParams(mu=1.48, alpha1=11.34, rho=1260.0, beta=0.5)
        fd = solve(p, GEOM, GridSpec(nr=16, dt=1e-2, t_end=0.5))
        assert fd.at(1.0, 0.0) == 0.0
        with pytest.raises(DomainError):
            fd.at(0.5, 0.1)
        with pytest.raises(DomainError):
            fd.at(2.0, 9.0)

    def test_csv_dump_shape(self):
        p = FluidParams(mu=1.48, alpha1=11.34, rho=1260.0, beta=0.5)
        fd = solve(p, GEOM, GridSpec(nr=8, dt=0.1, t_end=0.2))
        buf = io.StringIO()
        fd.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "r,t,omega"
        assert len(lines) == 1 + len(fd.t) * len(fd.r)
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[1]) == 0.0
        assert float(first[2]) == 0.0
