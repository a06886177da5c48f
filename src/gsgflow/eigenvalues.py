"""Positive roots of the transcendental wall condition B1(R1*r) = 0.

Every series mode is indexed by one of these roots. find_roots brackets
them in one array scan of a dense grid, run in fixed-size chunks (robust
against the irregular first few roots), then refines every bracket at
once: masked bisection until the bracket is tight, then a masked Newton
polish that falls back to bisection where a step leaves its bracket. The
guards are per root: each must sit near its asymptotic slot, and a scan
with too few sign changes is refused with RootScanError.
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
# grid points per scan chunk: bounds the scan's memory for any n_max
_SCAN_CHUNK = 8192


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


def _f(r, R1: float, R2: float):
    # B1(R1*r) as a function of the root variable r; r may be an array
    return j1(R1 * r) * y1(R2 * r) - j1(R2 * r) * y1(R1 * r)


def _fprime(r, R1: float, R2: float):
    # d/dr of the above; J1'(z) = J0(z) - J1(z)/z, same recurrence for Y1
    a, b = R1 * r, R2 * r
    j1a, j1b, y1a, y1b = j1(a), j1(b), y1(a), y1(b)
    dj1a = j0(a) - j1a / a
    dj1b = j0(b) - j1b / b
    dy1a = y0(a) - y1a / a
    dy1b = y0(b) - y1b / b
    return R1 * dj1a * y1b + R2 * j1a * dy1b - R2 * dj1b * y1a - R1 * j1b * dy1a


def _scan(R1: float, R2: float, n_max: int, step: float, limit: float):
    """(lo, hi, f(lo)) of the first n_max grid events below limit.

    The grid is x_0 = step/1000, x_k = x_(k-1) + step, built by sequential
    accumulation in chunks that continue from the last point. An event at
    x_k is an exact zero f(x_k) == 0 or a sign change on [x_k, x_(k+1)].
    """
    chunk = min(_SCAN_CHUNK, int(limit / step) + 2)
    grid = np.full(chunk + 1, step)
    x_last = step * 1e-3
    found = []
    count = 0
    while count < n_max and x_last < limit:
        grid[0] = x_last
        x = np.add.accumulate(grid)
        fx = _f(x, R1, R2)
        a = fx[:-1]
        event = (x[:-1] < limit) & ((a == 0.0) | (a * fx[1:] < 0.0))
        k = np.flatnonzero(event)[:n_max - count]
        found.append((x[k], x[k + 1], a[k]))
        count += len(k)
        x_last = x[-1]
    return tuple(np.concatenate(col) for col in zip(*found))


def _refine(lo: np.ndarray, hi: np.ndarray, flo: np.ndarray, R1: float, R2: float):
    """One root in each bracket [lo, hi] with f(lo) = flo, all at once.

    Each bracket follows its own scalar recipe under a mask: bisection until
    it is no wider than _NEWTON_BRACKET (a midpoint with f == 0 is the
    root), then up to 60 Newton steps that stop at f' == 0 or a step below
    _BISECT_TOL, with a bisection step whenever Newton leaves the bracket.
    """
    lo, hi, flo = lo.copy(), hi.copy(), flo.copy()
    x = np.empty_like(lo)
    open_ = np.ones(len(lo), dtype=bool)
    while True:
        i = np.flatnonzero(open_ & (hi - lo > _NEWTON_BRACKET))
        if not len(i):
            break
        mid = 0.5 * (lo[i] + hi[i])
        fmid = _f(mid, R1, R2)
        hit = fmid == 0.0
        x[i[hit]] = mid[hit]
        open_[i[hit]] = False
        left = flo[i] * fmid < 0.0
        right = ~(left | hit)
        hi[i[left]] = mid[left]
        lo[i[right]], flo[i[right]] = mid[right], fmid[right]
    i = np.flatnonzero(open_)
    x[i] = 0.5 * (lo[i] + hi[i])
    for _ in range(60):
        if not len(i):
            break
        dfx = _fprime(x[i], R1, R2)
        fx = _f(x[i], R1, R2)
        i, fx, dfx = i[dfx != 0.0], fx[dfx != 0.0], dfx[dfx != 0.0]
        step = fx / dfx
        x_new = x[i] - step
        inside = (lo[i] <= x_new) & (x_new <= hi[i])
        x[i[inside]] = x_new[inside]
        more = ~(np.abs(step) < _BISECT_TOL)
        w = i[~inside]
        if len(w):
            # Newton wandered; fall back to plain bisection on the bracket
            mid = 0.5 * (lo[w] + hi[w])
            left = _f(lo[w], R1, R2) * _f(mid, R1, R2) < 0.0
            hi[w[left]] = mid[left]
            lo[w[~left]] = mid[~left]
            x[w] = 0.5 * (lo[w] + hi[w])
            more[~inside] = ~(hi[w] - lo[w] < _BISECT_TOL)
        i = i[more]
    return x


def find_roots(R1: float, R2: float, n_max: int) -> EigenvalueSet:
    """Locate the first n_max positive roots of B1(R1*r) = 0.

    One array scan at step pi/(40*(R2-R1)), a 40x oversample of the
    asymptotic root spacing pi/(R2-R1), run in fixed-size chunks until
    n_max sign changes are found or the scan passes (n_max+2) spacings. A
    grid point where B1 is exactly zero is a root as it stands. Every
    other bracket is refined at once: masked bisection to width 1e-6, then
    masked Newton steps with a bisection fallback. Each root must land
    within 40% of its asymptotic slot n*pi/(R2-R1), and a scan that finds
    too few sign changes is refused, so a missed or doubled root raises
    RootScanError (naming the first bad index) rather than corrupting
    every downstream series.
    """
    _check_request(R1, R2, n_max)
    spacing = math.pi / (R2 - R1)
    step = spacing / 40.0
    # generous scan ceiling; the guard below fires long before it matters
    lo, hi, flo = _scan(R1, R2, n_max, step, (n_max + 2.0) * spacing)
    on_grid = flo == 0.0
    roots = lo.copy()
    roots[~on_grid] = _refine(lo[~on_grid], hi[~on_grid], flo[~on_grid], R1, R2)
    approx = np.arange(1, len(roots) + 1) * spacing
    bad = np.flatnonzero(~on_grid & (np.abs(roots - approx) > 0.4 * approx))
    if len(bad):
        n = int(bad[0]) + 1
        raise RootScanError(
            f"root {n} at {roots[n - 1]:.6g} falls outside 40% of its "
            f"asymptotic position {approx[n - 1]:.6g}; scan is inconsistent",
            index=n,
        )
    if len(roots) < n_max:
        raise RootScanError(
            f"found only {len(roots)} sign changes while scanning for root "
            f"{len(roots) + 1}",
            index=len(roots) + 1,
        )
    residuals = np.abs(_f(roots, R1, R2))
    return EigenvalueSet(R1=R1, R2=R2, roots=roots, residuals=residuals)

