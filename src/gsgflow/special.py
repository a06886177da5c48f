"""Special functions: the wall cross-products of Bessel orders 0/1
(broadcast over arrays of radii and roots, on scipy's j0/j1/y0/y1), the
Lorenzo-Hartley generalized G-function, and signed log-space series
summation.

Series with Gamma(k+j+1)-type factors overflow double precision long
before they converge, so every term is composed in (log magnitude, sign)
form and only materialized when the sum is complete. Every series of the
package (the G-function here, the per-mode time kernels in solution) is a
generator of such terms summed by one function, _sum_series: it stops
after three consecutive quiet steps, refuses past SeriesControls.max_terms
terms, and refuses a sum whose largest term exceeds it by more than
CANCELLATION_LIMIT. Series whose terms would peak far beyond that budget
are refused before summing by _check_cancellation_budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0, j1, y0, y1

from .controls import SeriesControls
from .errors import DomainError, NonConvergenceError

# A signed-log sum whose largest term exceeds the final sum by more than
# this factor is cancellation noise in double precision; refuse it.
CANCELLATION_LIMIT = 1e10

_LOG_CANCELLATION_LIMIT = math.log(CANCELLATION_LIMIT)
# a = 1 - beta below this makes the G-series convergence rate degenerate.
_MIN_SERIES_ORDER = 0.05

_DEFAULT_CONTROLS = SeriesControls()


def _sum_series(steps, controls: SeriesControls, what: str) -> float:
    """Sum a series given as an unbounded iterable of steps.

    Each step is (terms, entries): the number of series terms it holds
    (one outer index, or one (j, k) pair of a double series) and their
    (log magnitude, sign) pairs; an entry of sign 0 or log magnitude -inf
    adds nothing. A step is quiet when its largest entry is below
    controls.tol_rel times the running sum, an O(1) estimate kept at one
    exponent shift; the sum stops after three consecutive quiet steps.

    The entries are then summed exactly: with math.fsum of their values
    when every entry fits the double range, else with math.fsum after a
    single exponent shift. The sum is held as (log magnitude, sign) and
    returned as sign * exp(log magnitude). Raises NonConvergenceError,
    carrying the partial sum (+-inf beyond the double range) and the terms
    used, when a step that does not complete the quiet run takes the term
    count past controls.max_terms, or when the largest entry exceeds the
    final sum by more than CANCELLATION_LIMIT, or when the sum is beyond
    the double range. `what` names the series in messages.
    """
    log_tol = math.log(controls.tol_rel)
    logs, signs = [], []
    max_log = -math.inf
    # running estimate acc * e^shift, renormalized so exp() never overflows
    shift, acc = -math.inf, 0.0
    quiet = 0
    terms = 0

    def total():
        # (log |sum|, sign) of every entry so far; (-inf, 0) for an exact zero
        if max_log <= 700.0:
            log_shift, tot = 0.0, math.fsum(s * math.exp(l) for l, s in zip(logs, signs))
        else:
            log_shift = max_log - 350.0
            tot = math.fsum(s * math.exp(l - log_shift) for l, s in zip(logs, signs))
        if tot == 0.0:
            return -math.inf, 0
        return log_shift + math.log(abs(tot)), 1 if tot > 0 else -1

    def refuse(message, log_sum, sign):
        partial = sign * math.exp(log_sum) if log_sum < 700.0 else math.copysign(math.inf, sign)
        return NonConvergenceError(f"{what} {message}", partial_sum=partial, terms_used=terms)

    for count, entries in steps:
        step_max = -math.inf
        for log_magnitude, sign in entries:
            if log_magnitude > step_max:
                step_max = log_magnitude
            if sign == 0 or log_magnitude == -math.inf:
                continue
            logs.append(log_magnitude)
            signs.append(sign)
            if log_magnitude > max_log:
                max_log = log_magnitude
            if log_magnitude > shift + 1.0:
                acc = acc * math.exp(shift - log_magnitude) + sign
                shift = log_magnitude
            else:
                acc += sign * math.exp(log_magnitude - shift)
        terms += count
        estimate = shift + math.log(abs(acc)) if acc != 0.0 else -math.inf
        if step_max < estimate + log_tol:
            quiet += 1
            if quiet == 3:
                break
        else:
            quiet = 0
        if terms > controls.max_terms:
            raise refuse(f"did not converge within {controls.max_terms} terms", *total())
    log_sum, sign = total()
    if sign == 0:
        condition = math.inf if logs else 1.0
    else:
        condition = math.exp(min(max_log - log_sum, 700.0))
    if condition > CANCELLATION_LIMIT:
        raise refuse(f"cancellation exceeds double precision (condition ~ {condition:.2e})",
                     log_sum, sign)
    try:
        return sign * math.exp(log_sum)
    except OverflowError:
        raise refuse("sum exceeds the double range", log_sum, sign) from None


def _check_cancellation_budget(abs_d: float, a: float, t: float, what: str) -> None:
    """Refuse before summing a series in d^j t^(a j) whose terms peak far
    beyond the cancellation budget.

    The peak log-magnitude of such terms is ~ |d|^(1/a) * t; past the
    budget the double-precision sum would be pure noise.
    """
    if abs_d > 1.0:
        lu = math.log(abs_d) / a + math.log(t)
        if lu > math.log(_LOG_CANCELLATION_LIMIT + 5.0 + abs(math.log(t))):
            raise NonConvergenceError(
                f"{what} for |d|={abs_d:g}, a={a:g}, t={t:g} exceeds the "
                "double-precision cancellation budget"
            )


def _check_cross_args(name: str, r, rn, R2: float) -> None:
    if not (np.all(np.greater(r, 0.0)) and np.all(np.greater(rn, 0.0)) and R2 > 0.0):
        raise DomainError(f"{name} requires r, rn, R2 > 0")


def cross_b1(r, rn, R2: float):
    """Wall cross-product J1(r*rn)*Y1(R2*rn) - J1(R2*rn)*Y1(r*rn).

    r and rn may be floats or arrays that broadcast against each other
    (radii down a column, roots along a row gives Phi[r, mode]); the
    result is a float or an array of the broadcast shape.
    """
    _check_cross_args("cross_b1", r, rn, R2)
    return j1(r * rn) * y1(R2 * rn) - j1(R2 * rn) * y1(r * rn)


def cross_b(r, rn, R2: float):
    """Mixed-order cross-product J0(r*rn)*Y1(R2*rn) - J1(R2*rn)*Y0(r*rn);
    broadcasts like cross_b1."""
    _check_cross_args("cross_b", r, rn, R2)
    return j0(r * rn) * y1(R2 * rn) - j1(R2 * rn) * y0(r * rn)


@dataclass(frozen=True)
class GFunctionArgs:
    """Parameters of G_{a,b,c}(d, t).

    The function is the inverse Laplace transform of q^b / (q^a - d)^c and
    is evaluated by its power series

        G_{a,b,c}(d,t) = sum_j Gamma(c+j) d^j / (Gamma(c) Gamma(j+1))
                         * t^{(c+j)a - b - 1} / Gamma[(c+j)a - b],

    valid for a*c - b > 0.
    """

    a: float
    b: float
    c: float
    d: float
    t: float


def g_function(args: GFunctionArgs, controls: SeriesControls = _DEFAULT_CONTROLS) -> float:
    """Evaluate the generalized G-function by signed log-space summation.

    Raises NonConvergenceError (carrying the partial sum and term count)
    instead of returning an untrustworthy value: on term growth beyond
    controls.max_terms, on catastrophic cancellation, and for
    a < 0.05 with d != 0 where the series degenerates (callers fall back
    to numerical Laplace inversion).
    """
    a, b, c, d, t = args.a, args.b, args.c, args.d, args.t
    if t <= 0.0:
        raise DomainError("g_function requires t > 0")
    if c <= 0.0:
        raise DomainError("g_function requires c > 0")
    if a * c - b <= 0.0:
        raise DomainError("g_function requires a*c - b > 0")

    lt = math.log(t)
    lgc = math.lgamma(c)
    if d == 0.0:
        # only the j = 0 term survives
        return math.exp((c * a - b - 1.0) * lt - math.lgamma(c * a - b))

    if a < _MIN_SERIES_ORDER:
        raise NonConvergenceError(
            f"series order parameter a={a:g} below {_MIN_SERIES_ORDER}; "
            "the power series degenerates, use Laplace inversion instead",
        )
    _check_cancellation_budget(abs(d), a, t, "g_function series")
    log_abs_d = math.log(abs(d))
    sign_d = 1 if d > 0 else -1

    def steps():
        for j in itertools.count():
            e = (c + j) * a - b
            log_term = (
                math.lgamma(c + j)
                - lgc
                - math.lgamma(j + 1.0)
                + j * log_abs_d
                + (e - 1.0) * lt
                - math.lgamma(e)
            )
            yield 1, ((log_term, sign_d**j if sign_d < 0 else 1),)

    return _sum_series(steps(), controls, "g_function series")
