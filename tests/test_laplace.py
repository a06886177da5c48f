"""Inverse Laplace transform tests against elementary pairs, the closed
exponential kernel available at beta = 1 and mpmath's Talbot inversion at
30 digits."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import gsgflow
from gsgflow import laplace
from gsgflow.laplace import ModeTransform, invert

from gsgflow import (
    DomainError,
    find_roots,
    invert_mode_stress_kernel,
    invert_mode_velocity_kernel,
)

NU = 1.48 / 1260.0
ALPHA = 11.34 / 1260.0


def closed_velocity_kernel(rn2, t):
    z = NU * rn2 * t / (1.0 + ALPHA * rn2)
    return -math.expm1(-z) / (NU * rn2)


def closed_stress_kernel(rn2, mu, alpha1, t):
    z = NU * rn2 * t / (1.0 + ALPHA * rn2)
    return mu * (-math.expm1(-z)) / (NU * rn2) + alpha1 * math.exp(-z) / (1.0 + ALPHA * rn2)


class TestInvert:
    def test_ramp(self):
        # L^-1{1/q^2} = t
        for t in (0.3, 1.0, 5.0, 40.0):
            got = invert(lambda q: (1.0, 1.0 / q**2), t)
            assert got == pytest.approx(t, rel=1e-12)

    def test_elementary_exponential(self):
        got = invert(lambda q: (1.0, 1.0 / (q + 1.0)), 1.0)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_requires_positive_time(self):
        with pytest.raises(DomainError):
            invert(lambda q: (1.0, 1.0 / q), 0.0)


class TestModeKernels:
    def test_beta1_matches_closed_exponential(self):
        eig = find_roots(1.0, 4.0, 10)
        worst = 0.0
        for rn in eig.roots:
            mt = ModeTransform(nu=NU, alpha=ALPHA, beta=1.0, rn2=rn * rn)
            for t in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
                got = invert_mode_velocity_kernel(mt, t)
                want = closed_velocity_kernel(rn * rn, t)
                worst = max(worst, abs(got - want) / abs(want))
        assert worst < 1e-12

    def test_beta1_stress_matches_closed_exponential(self):
        mu, alpha1 = 1.48, 11.34
        eig = find_roots(1.0, 4.0, 6)
        for rn in eig.roots:
            mt = ModeTransform(nu=NU, alpha=ALPHA, beta=1.0, rn2=rn * rn)
            got = invert_mode_stress_kernel(mt, mu, alpha1, 3.0)
            want = closed_stress_kernel(rn * rn, mu, alpha1, 3.0)
            assert got == pytest.approx(want, rel=1e-12)

    def test_kernel_vanishes_at_small_time(self):
        mt = ModeTransform(nu=NU, alpha=ALPHA, beta=0.7, rn2=50.0)
        assert abs(invert_mode_velocity_kernel(mt, 1e-6)) < 1e-5

    def test_final_value(self):
        # nu*rn2*kernel -> 1 as t -> 1e3; the approach is exponential at
        # beta = 1 (tested, within 1e-4 once the relaxation completes) and
        # algebraic ~t^-beta for beta < 1 (tested as a monotone trend)
        eig = find_roots(1.0, 4.0, 10)
        for rn in eig.roots[2:]:
            mt = ModeTransform(nu=NU, alpha=ALPHA, beta=1.0, rn2=rn * rn)
            got = NU * rn * rn * invert_mode_velocity_kernel(mt, 1000.0)
            assert abs(got - 1.0) < 1e-4
        mt = ModeTransform(nu=NU, alpha=ALPHA, beta=0.5, rn2=eig.roots[4] ** 2)
        vals = [NU * mt.rn2 * invert_mode_velocity_kernel(mt, t) for t in (10.0, 100.0, 1000.0)]
        assert vals[0] < vals[1] < vals[2] < 1.0 + 1e-9


MU, ALPHA1 = 1.48, 11.34
RN2 = find_roots(1.0, 4.0, 50).roots ** 2


def contour_kernels(beta, t, stress, rn2=RN2):
    mt = ModeTransform(nu=NU, alpha=ALPHA, beta=beta, rn2=rn2)
    if stress:
        return invert_mode_stress_kernel(mt, MU, ALPHA1, t)
    return invert_mode_velocity_kernel(mt, t)


def image(beta, rn2, stress):
    # the transform in mpmath arithmetic, for mpmath's Talbot inverter
    nu, alpha = mp.mpf(NU), mp.mpf(ALPHA)

    def f(q):
        value = 1 / (q * (q + alpha * rn2 * q**beta + nu * rn2))
        return (MU + ALPHA1 * q**beta) * value if stress else value
    return f


class TestContour:
    @pytest.mark.parametrize("stress", [False, True])
    def test_matches_mpmath_talbot(self, stress):
        with mp.workdps(30):
            for beta in (0.3, 0.9):
                for t in (0.5, 5.0):
                    got = contour_kernels(beta, t, stress)
                    scale = np.max(np.abs(got))
                    for i in (0, 10, 49):
                        want = float(mp.invertlaplace(image(beta, mp.mpf(RN2[i]), stress), t,
                                                      method="talbot"))
                        assert abs(got[i] - want) <= 1e-12 * scale

    @pytest.mark.parametrize("stress", [False, True])
    def test_32_nodes_against_48(self, stress, monkeypatch):
        grid = [(beta, t) for beta in (0.3, 0.6, 0.9, 1.0) for t in (0.5, 2.0, 5.0, 10.0)]
        k32 = [contour_kernels(beta, t, stress) for beta, t in grid]
        monkeypatch.setattr(laplace, "_NODES", 48)
        for k, (beta, t) in zip(k32, grid):
            k48 = contour_kernels(beta, t, stress)
            assert np.max(np.abs(k - k48)) <= 1e-11 * np.max(np.abs(k48))

    @pytest.mark.parametrize("stress", [False, True])
    def test_mode_array_equals_one_mode_calls(self, stress):
        t_grid = np.linspace(0.01, 5.0, 300)
        for beta in (0.3, 1.0):
            block = contour_kernels(beta, 2.0, stress)
            assert block.shape == RN2.shape
            one = [contour_kernels(beta, 2.0, stress, rn2=float(x)) for x in RN2]
            assert np.array_equal(block, one)
            grid = contour_kernels(beta, t_grid, stress, rn2=RN2[:10, None])
            assert grid.shape == (10, t_grid.size)
            one = [contour_kernels(beta, t_grid, stress, rn2=x) for x in RN2[:10]]
            assert np.array_equal(grid, one)

    def test_requires_finite_positive_time(self):
        mt = ModeTransform(nu=NU, alpha=ALPHA, beta=0.5, rn2=RN2)
        for t in (0.0, -1.0, math.nan, math.inf, np.array([1.0, 0.0])):
            with pytest.raises(DomainError):
                invert_mode_velocity_kernel(mt, t)
            with pytest.raises(DomainError):
                invert_mode_stress_kernel(mt, MU, ALPHA1, t)


def test_package_import_does_not_load_mpmath():
    # mpmath is a test-only dependency; the package and its CLI run without it
    src = str(Path(gsgflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, gsgflow, gsgflow.cli, gsgflow.validate; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_does_not_load_linalg_or_validate():
    # the FD solver imports its LAPACK pair on first use, the CLI validate on demand
    src = str(Path(gsgflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, gsgflow, gsgflow.cli; "
            "print(sorted({'scipy.linalg', 'gsgflow.validate'} & set(sys.modules)), "
            "callable(gsgflow.solve))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[] True"
