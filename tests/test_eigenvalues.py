"""Eigenvalue location tests.

The independent oracle is a dense sign-change scan of the wall condition
at a finer step than the production scan uses.
"""

import math

import numpy as np
import pytest

from gsgflow import GeometryError, approx_roots, cross_b1, find_roots


def dense_scan_roots(R1, R2, r_max, step_divisor=100):
    """Brute-force sign-change scan of B1(R1*r), the completeness oracle."""
    step = math.pi / (step_divisor * (R2 - R1))
    brackets = []
    x = step * 1e-3
    f_prev = cross_b1(R1, x, R2)
    while x < r_max:
        x_next = x + step
        f_next = cross_b1(R1, x_next, R2)
        if f_prev * f_next < 0.0:
            brackets.append((x, x_next))
        x, f_prev = x_next, f_next
    return brackets


class TestFindRoots:
    def test_first_roots_near_asymptotic_slots(self):
        eig = find_roots(1.0, 4.0, 5)
        for n, root in enumerate(eig.roots, start=1):
            approx = n * math.pi / 3.0
            assert abs(root - approx) < 0.4 * approx

    def test_requested_count_and_ordering(self):
        eig = find_roots(1.0, 4.0, 50)
        assert len(eig) == 50
        assert np.all(np.diff(eig.roots) > 0.0)

    def test_residuals_small(self):
        eig = find_roots(1.0, 4.0, 50)
        assert eig.residuals.max() < 1e-10
        # first root re-evaluated through the cross product directly
        assert abs(cross_b1(1.0, eig.roots[0], 4.0)) < 1e-10

    def test_asymptotic_spacing(self):
        eig = find_roots(1.0, 4.0, 50)
        spacing = math.pi / 3.0
        gaps = np.diff(eig.roots)[20:]
        assert np.max(np.abs(gaps - spacing)) < 0.01 * spacing

    def test_sign_change_brackets_each_root(self):
        eig = find_roots(1.0, 4.0, 20)
        for root in eig.roots:
            lo = cross_b1(1.0, root - 1e-9, 4.0)
            hi = cross_b1(1.0, root + 1e-9, 4.0)
            assert lo * hi < 0.0 or abs(cross_b1(1.0, root, 4.0)) < 1e-13

    def test_completeness_against_dense_scan(self):
        eig = find_roots(1.0, 4.0, 25)
        spacing = math.pi / 3.0
        brackets = dense_scan_roots(1.0, 4.0, eig.roots[-1] + 0.5 * spacing)
        found = [b for b in brackets if b[0] < eig.roots[-1] + 0.25 * spacing]
        assert len(found) == 25
        for (lo, hi), root in zip(found, eig.roots):
            assert lo <= root <= hi

    def test_determinism(self):
        a = find_roots(1.0, 4.0, 30)
        b = find_roots(1.0, 4.0, 30)
        assert np.array_equal(a.roots, b.roots)
        assert np.array_equal(a.residuals, b.residuals)

    def test_spacing_transfers_between_geometries(self):
        # cross-product zeros depend on both radii (only a common scaling
        # of R1 and R2 maps roots simply), so compare geometries through
        # the asymptotic spacing alone
        a = find_roots(1.0, 2.0, 10)
        b = find_roots(2.0, 4.0, 10)
        assert np.max(np.abs(np.diff(a.roots)[5:] - math.pi)) < 0.05 * math.pi
        assert np.max(np.abs(np.diff(b.roots)[5:] - math.pi / 2.0)) < 0.05 * math.pi / 2.0

    def test_geometry_validation(self):
        with pytest.raises(GeometryError):
            find_roots(4.0, 1.0, 5)
        with pytest.raises(GeometryError):
            find_roots(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            find_roots(1.0, 4.0, 0)


class TestApproxRoots:
    def test_exact_asymptotic_values(self):
        eig = approx_roots(1.0, 4.0, 5)
        want = np.arange(1, 6) * math.pi / 3.0
        assert np.array_equal(eig.roots, want)

    def test_residuals_reported_for_approximation(self):
        eig = approx_roots(1.0, 4.0, 5)
        # the asymptotic guesses are not actual roots for low n
        assert eig.residuals[0] > 1e-4


@pytest.mark.parametrize("solve", [find_roots, approx_roots])
class TestRequestChecks:
    @pytest.mark.parametrize("n_max", [2.5, 3.0, True, "3"])
    def test_non_integer_count_refused(self, solve, n_max):
        with pytest.raises(ValueError, match="integer"):
            solve(1.0, 4.0, n_max)

    def test_numpy_integer_count_accepted(self, solve):
        a, b = solve(1.0, 4.0, np.int64(5)), solve(1.0, 4.0, 5)
        assert np.array_equal(a.roots, b.roots)
        assert np.array_equal(a.residuals, b.residuals)

    @pytest.mark.parametrize("R1, R2", [(1.0, math.inf), (1.0, math.nan), (math.nan, 4.0),
                                        (math.inf, math.inf), (-math.inf, 4.0)])
    def test_non_finite_radii_refused(self, solve, R1, R2):
        with pytest.raises(GeometryError):
            solve(R1, R2, 5)
