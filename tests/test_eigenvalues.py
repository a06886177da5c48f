"""Eigenvalue location tests.

The independent oracle is a dense sign-change scan of the wall condition
at a finer step than the production scan uses. The array solver is also
compared bit for bit against a scalar scan-and-refine loop kept here as
its reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsgflow import GeometryError, RootScanError, approx_roots, cross_b1, eigenvalues, find_roots


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


# ---------------------------------------------------------------------------
# scalar reference: the scan-and-refine loop one point and one bracket at a time


def _reference_refine(lo, hi, R1, R2):
    f = eigenvalues._f
    flo = f(lo, R1, R2)
    while hi - lo > eigenvalues._NEWTON_BRACKET:
        mid = 0.5 * (lo + hi)
        fmid = f(mid, R1, R2)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    x = 0.5 * (lo + hi)
    for _ in range(60):
        fx = f(x, R1, R2)
        dfx = eigenvalues._fprime(x, R1, R2)
        if dfx == 0.0:
            break
        step = fx / dfx
        x_new = x - step
        if not (lo <= x_new <= hi):
            x_new = 0.5 * (lo + hi)
            if f(lo, R1, R2) * f(x_new, R1, R2) < 0.0:
                hi = x_new
            else:
                lo = x_new
            x = 0.5 * (lo + hi)
            if hi - lo < eigenvalues._BISECT_TOL:
                break
            continue
        x = x_new
        if abs(step) < eigenvalues._BISECT_TOL:
            break
    return x


def reference_find_roots(R1, R2, n_max):
    """find_roots as a scalar loop: (roots, residuals), or RootScanError."""
    f = eigenvalues._f
    spacing = math.pi / (R2 - R1)
    step = spacing / 40.0
    roots = []
    x = step * 1e-3
    fx = f(x, R1, R2)
    limit = (n_max + 2.0) * spacing
    while len(roots) < n_max and x < limit:
        x_next = x + step
        f_next = f(x_next, R1, R2)
        if fx == 0.0:
            roots.append(x)
        elif fx * f_next < 0.0:
            root = _reference_refine(x, x_next, R1, R2)
            n = len(roots) + 1
            approx = n * spacing
            if abs(root - approx) > 0.4 * approx:
                raise RootScanError(
                    f"root {n} at {root:.6g} falls outside 40% of its "
                    f"asymptotic position {approx:.6g}; scan is inconsistent",
                    index=n,
                )
            roots.append(root)
        x, fx = x_next, f_next
    if len(roots) < n_max:
        raise RootScanError(
            f"found only {len(roots)} sign changes while scanning for root "
            f"{len(roots) + 1}",
            index=len(roots) + 1,
        )
    roots = np.asarray(roots)
    return roots, np.abs([f(r, R1, R2) for r in roots])


def _outcome(solve, R1, R2, n_max):
    try:
        result = solve(R1, R2, n_max)
    except RootScanError as exc:
        return ("refused", exc.index, str(exc))
    if isinstance(result, eigenvalues.EigenvalueSet):
        result = (result.roots, result.residuals)
    return result


def assert_matches_reference(R1, R2, n_max):
    got = _outcome(find_roots, R1, R2, n_max)
    want = _outcome(reference_find_roots, R1, R2, n_max)
    if isinstance(want[0], str) or isinstance(got[0], str):
        assert got == want
        return
    assert got[0].dtype == np.float64 and got[0].shape == (n_max,)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


class TestAgainstScalarReference:
    @pytest.mark.parametrize("R1, R2, n_max", [
        (1.0, 4.0, 50), (1.0, 4.0, 400), (1.0, 4.0, 4000), (1.0, 40.0, 800),
        (1.0, 1.05, 50), (0.05, 4.0, 100), (2.0, 4.0, 10), (1.0, 2.0, 10),
    ])
    def test_fixed_cases_bit_identical(self, R1, R2, n_max):
        assert_matches_reference(R1, R2, n_max)

    @settings(max_examples=30, deadline=None, database=None)
    @given(st.floats(0.05, 5.0), st.floats(1.05, 40.0), st.integers(1, 400))
    def test_random_geometries_bit_identical(self, R1, ratio, n_max):
        assert_matches_reference(R1, R1 * ratio, n_max)

    @pytest.mark.parametrize("slope", [0.0, 1e-9, 3.0], ids=["flat", "wander", "newton"])
    def test_refine_branches_bit_identical(self, monkeypatch, slope):
        # roots of sin(3r) sit on the slots n*pi/3 of R1 = 1, R2 = 4; a zero
        # derivative stops Newton at the midpoint, a tiny one sends every
        # step out of the bracket into the bisection fallback
        monkeypatch.setattr(eigenvalues, "_f", lambda r, R1, R2: np.sin(3.0 * r))
        monkeypatch.setattr(eigenvalues, "_fprime", lambda r, R1, R2: slope + 0.0 * r)
        assert_matches_reference(1.0, 4.0, 20)

    @pytest.mark.parametrize("R1, R2, n_max", [(1.0, 4.0, 50), (1.0, 40.0, 800),
                                               (0.05, 4.0, 100)])
    def test_approx_residuals_bit_identical(self, R1, R2, n_max):
        eig = approx_roots(R1, R2, n_max)
        want = np.abs([eigenvalues._f(r, R1, R2) for r in eig.roots])
        assert np.array_equal(eig.residuals, want)


class TestRootScanError:
    # R1 = 1, R2 = 4: the asymptotic slots are n * pi / 3
    SPACING = math.pi / 3.0

    def _install(self, monkeypatch, root):
        monkeypatch.setattr(eigenvalues, "_f", lambda r, R1, R2: r - root)
        monkeypatch.setattr(eigenvalues, "_fprime", lambda r, R1, R2: 0.0 * r + 1.0)

    def test_root_outside_its_slot_refused(self, monkeypatch):
        self._install(monkeypatch, 2.0 * self.SPACING)
        with pytest.raises(RootScanError, match="root 1 at .* outside 40%") as info:
            find_roots(1.0, 4.0, 5)
        assert info.value.index == 1 and type(info.value.index) is int

    def test_missing_sign_change_refused(self, monkeypatch):
        self._install(monkeypatch, 1.1 * self.SPACING)
        with pytest.raises(RootScanError, match="found only 1 sign changes") as info:
            find_roots(1.0, 4.0, 5)
        assert info.value.index == 2
