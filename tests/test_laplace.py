"""Inverse Laplace transform tests against elementary pairs, the closed
exponential kernel available at beta = 1, mpmath's Talbot inversion and
the scalar Stehfest oracle."""

import math

import mpmath as mp
import numpy as np
import pytest

from gsgflow import laplace

from gsgflow import (
    DomainError,
    ModeTransform,
    eval_transform,
    find_roots,
    invert_mode_stress_kernel,
    invert_mode_velocity_kernel,
    invert_stehfest,
    stehfest_weights,
)

NU = 1.48 / 1260.0
ALPHA = 11.34 / 1260.0


def closed_velocity_kernel(rn2, t):
    z = NU * rn2 * t / (1.0 + ALPHA * rn2)
    return -math.expm1(-z) / (NU * rn2)


def closed_stress_kernel(rn2, mu, alpha1, t):
    z = NU * rn2 * t / (1.0 + ALPHA * rn2)
    return mu * (-math.expm1(-z)) / (NU * rn2) + alpha1 * math.exp(-z) / (1.0 + ALPHA * rn2)


class TestWeights:
    def test_weights_sum_to_zero(self):
        # exact rational identity: the inverse of f = 1 vanishes for t > 0
        for degree in (8, 12, 16, 24):
            assert sum(stehfest_weights(degree)) == 0

    def test_degree_validation(self):
        with pytest.raises(DomainError):
            stehfest_weights(7)


class TestInvertStehfest:
    def test_ramp(self):
        # L^-1{1/q^2} = t
        for t in (0.3, 1.0, 5.0, 40.0):
            got = invert_stehfest(lambda q: 1.0 / q**2, t, n_terms=16)
            assert got == pytest.approx(t, rel=1e-8)

    def test_elementary_exponential(self):
        got = invert_stehfest(lambda q: 1.0 / (q + 1.0), 1.0)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_requires_positive_time(self):
        with pytest.raises(DomainError):
            invert_stehfest(lambda q: 1.0 / q, 0.0)

    def test_n_terms_contract(self):
        with pytest.raises(DomainError):
            invert_stehfest(lambda q: 1.0 / q, 1.0, n_terms=13)
        with pytest.raises(DomainError):
            invert_stehfest(lambda q: 1.0 / q, 1.0, n_terms=24)


class TestModeTransform:
    def test_direct_evaluation_beta1(self):
        mt = ModeTransform(nu=NU, alpha=ALPHA, beta=1.0, rn2=4.0)
        q = 2.0
        want = 1.0 / (q * (q * (1.0 + ALPHA * 4.0) + NU * 4.0))
        assert eval_transform(mt, q) == pytest.approx(want, rel=1e-14)

    def test_limiting_behaviour(self):
        mt = ModeTransform(nu=NU, alpha=ALPHA, beta=0.5, rn2=9.0)
        assert 1e8**2 * eval_transform(mt, 1e8) == pytest.approx(1.0, rel=1e-3)
        assert 1e-9 * eval_transform(mt, 1e-9) == pytest.approx(1.0 / (NU * 9.0), rel=1e-3)

    def test_rejects_nonpositive_q(self):
        mt = ModeTransform(nu=NU, alpha=ALPHA, beta=0.5, rn2=9.0)
        with pytest.raises(DomainError):
            eval_transform(mt, 0.0)
        with pytest.raises(DomainError):
            eval_transform(mt, np.array([1.0, -2.0]))


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
    # the transform in mpmath arithmetic, for mpmath's own inverters
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
    def test_matches_scalar_stehfest(self, stress):
        # the difference is Stehfest's own error
        for beta, t in ((0.3, 1.0), (0.6, 5.0)):
            got = contour_kernels(beta, t, stress)
            scale = np.max(np.abs(got))
            for i in (0, 7, 30):
                f = image(beta, RN2[i], stress)
                assert abs(got[i] - invert_stehfest(f, t)) <= 1e-9 * scale

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
