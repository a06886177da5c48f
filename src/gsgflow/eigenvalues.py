"""Positive roots of the transcendental wall condition B1(R1*r) = 0.

Every series mode is indexed by one of these roots, so they are bracketed
by a dense sign-change scan (robust against the irregular first few roots)
and refined by bisection, with a Newton polish once the bracket is tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.special import j0, j1, y0, y1

from .errors import GeometryError, RootScanError

_BISECT_TOL = 1e-12
_NEWTON_BRACKET = 1e-6


@dataclass(frozen=True)
class EigenvalueSet:
    """Ordered positive roots r_n for one annulus, with residuals |B1(R1*r_n)|."""

    R1: float
    R2: float
    roots: np.ndarray
    residuals: np.ndarray

    def __len__(self):
        return len(self.roots)

    def matches(self, R1: float, R2: float) -> bool:
        return self.R1 == R1 and self.R2 == R2


def _check_request(R1: float, R2: float, n_max: int) -> None:
    if not 0.0 < R1 < R2 < math.inf:
        raise GeometryError(f"need finite 0 < R1 < R2, got R1={R1!r}, R2={R2!r}")
    if isinstance(n_max, bool) or not isinstance(n_max, Integral):
        raise ValueError(f"n_max must be an integer, got {n_max!r}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")


def _f(r: float, R1: float, R2: float) -> float:
    # B1(R1*r) as a function of the root variable r
    return j1(R1 * r) * y1(R2 * r) - j1(R2 * r) * y1(R1 * r)


def _fprime(r: float, R1: float, R2: float) -> float:
    # d/dr of the above; J1'(z) = J0(z) - J1(z)/z, same recurrence for Y1
    a, b = R1 * r, R2 * r
    j1a, j1b, y1a, y1b = j1(a), j1(b), y1(a), y1(b)
    dj1a = j0(a) - j1a / a
    dj1b = j0(b) - j1b / b
    dy1a = y0(a) - y1a / a
    dy1b = y0(b) - y1b / b
    return R1 * dj1a * y1b + R2 * j1a * dy1b - R2 * dj1b * y1a - R1 * j1b * dy1a


def _refine(lo: float, hi: float, R1: float, R2: float) -> float:
    flo = _f(lo, R1, R2)
    # bisection until the bracket is tight enough for Newton to be safe
    while hi - lo > _NEWTON_BRACKET:
        mid = 0.5 * (lo + hi)
        fmid = _f(mid, R1, R2)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    x = 0.5 * (lo + hi)
    for _ in range(60):
        fx = _f(x, R1, R2)
        dfx = _fprime(x, R1, R2)
        if dfx == 0.0:
            break
        step = fx / dfx
        x_new = x - step
        if not (lo <= x_new <= hi):
            # Newton wandered; fall back to plain bisection on the bracket
            x_new = 0.5 * (lo + hi)
            if _f(lo, R1, R2) * _f(x_new, R1, R2) < 0.0:
                hi = x_new
            else:
                lo = x_new
            x = 0.5 * (lo + hi)
            if hi - lo < _BISECT_TOL:
                break
            continue
        x = x_new
        if abs(step) < _BISECT_TOL:
            break
    return x


def find_roots(R1: float, R2: float, n_max: int) -> EigenvalueSet:
    """Locate the first n_max positive roots of B1(R1*r) = 0.

    Scans at step pi/(40*(R2-R1)), a 40x oversample of the asymptotic root
    spacing pi/(R2-R1), and verifies each root lands within 40% of its
    asymptotic slot n*pi/(R2-R1) so a missed or doubled root is caught
    immediately rather than corrupting every downstream series.
    """
    _check_request(R1, R2, n_max)
    spacing = math.pi / (R2 - R1)
    step = spacing / 40.0
    roots = []
    x = step * 1e-3
    fx = _f(x, R1, R2)
    # generous scan ceiling; the guard below fires long before it matters
    limit = (n_max + 2.0) * spacing
    while len(roots) < n_max and x < limit:
        x_next = x + step
        f_next = _f(x_next, R1, R2)
        if fx == 0.0:
            roots.append(x)
        elif fx * f_next < 0.0:
            root = _refine(x, x_next, R1, R2)
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
    roots_arr = np.asarray(roots)
    residuals = np.abs([_f(r, R1, R2) for r in roots_arr])
    return EigenvalueSet(R1=R1, R2=R2, roots=roots_arr, residuals=residuals)


def approx_roots(R1: float, R2: float, n_max: int) -> EigenvalueSet:
    """Asymptotic approximation r_n = n*pi/(R2-R1).

    Residuals hold the actual |B1(R1*r_n)| at the approximate roots, which
    is generally far from zero for the first few n.
    """
    _check_request(R1, R2, n_max)
    n = np.arange(1, n_max + 1, dtype=float)
    roots = n * math.pi / (R2 - R1)
    residuals = np.abs([_f(r, R1, R2) for r in roots])
    return EigenvalueSet(R1=R1, R2=R2, roots=roots, residuals=residuals)
