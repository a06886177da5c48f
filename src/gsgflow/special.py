"""Special functions: Bessel orders 0/1, wall cross-products (broadcast
over arrays of radii and roots), the Lorenzo-Hartley generalized
G-function, and signed log-space series summation.

Series with Gamma(k+j+1)-type factors overflow double precision long
before they converge, so every term is composed in (log magnitude, sign)
form and only materialized when the accumulated sum is requested. Every
series of the package (the G-function here, the per-mode time kernels in
solution) is a generator of such terms summed by one protocol,
_sum_series: it stops after three consecutive quiet steps, refuses past
SeriesControls.max_terms terms, and refuses a sum whose largest term
exceeds it by more than CANCELLATION_LIMIT. Series whose terms would peak
far beyond that budget are refused before summing by
_check_cancellation_budget.
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


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as natural log of |x| plus a sign in {-1, 0, +1}.

    sign == 0 encodes exact zero; log_magnitude is then ignored.
    """

    log_magnitude: float
    sign: int

    @classmethod
    def from_float(cls, x: float) -> "SignedLogValue":
        if x == 0.0:
            return cls(-math.inf, 0)
        return cls(math.log(abs(x)), 1 if x > 0 else -1)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)


class SignedLogAccumulator:
    """Streaming sum of signed log-space terms.

    Keeps an O(1) running estimate for stopping rules, and materializes the
    exact sum on demand: when every term fits the double range the terms are
    exponentiated directly and combined with math.fsum, so the result agrees
    bit-for-bit with compensated summation of the term values; otherwise a
    single exponent shift is applied first.
    """

    __slots__ = ("_logs", "_signs", "_max_log", "_shift", "_acc")

    def __init__(self):
        self._logs = []
        self._signs = []
        self._max_log = -math.inf
        self._shift = None
        self._acc = 0.0

    def __len__(self):
        return len(self._logs)

    def add(self, log_magnitude: float, sign: int) -> None:
        if sign == 0 or log_magnitude == -math.inf:
            return
        self._logs.append(log_magnitude)
        self._signs.append(sign)
        if log_magnitude > self._max_log:
            self._max_log = log_magnitude
        if self._shift is None:
            self._shift = log_magnitude
            self._acc = float(sign)
        elif log_magnitude > self._shift + 1.0:
            # renormalize so exp() below never overflows
            self._acc *= math.exp(self._shift - log_magnitude)
            self._shift = log_magnitude
            self._acc += sign
        else:
            self._acc += sign * math.exp(log_magnitude - self._shift)

    def estimate_log(self) -> float:
        """Cheap log-magnitude estimate of the current partial sum."""
        if self._shift is None or self._acc == 0.0:
            return -math.inf
        return self._shift + math.log(abs(self._acc))

    def total(self) -> SignedLogValue:
        if not self._logs:
            return SignedLogValue(-math.inf, 0)
        if self._max_log <= 700.0:
            tot = math.fsum(s * math.exp(l) for l, s in zip(self._logs, self._signs))
            return SignedLogValue.from_float(tot)
        shift = self._max_log - 350.0
        tot = math.fsum(s * math.exp(l - shift) for l, s in zip(self._logs, self._signs))
        if tot == 0.0:
            return SignedLogValue(-math.inf, 0)
        return SignedLogValue(shift + math.log(abs(tot)), 1 if tot > 0 else -1)

    def condition(self, total: SignedLogValue) -> float:
        """max |term| / |sum| for the total() of these terms, passed in so
        the sum is materialized once; large values mean catastrophic
        cancellation."""
        if total.sign == 0:
            return math.inf if self._logs else 1.0
        return math.exp(min(self._max_log - total.log_magnitude, 700.0))


def _partial_sum(total: SignedLogValue) -> float:
    # the sum as a float for NonConvergenceError, inf when beyond the double range
    if total.log_magnitude < 700.0:
        return total.to_float()
    return math.copysign(math.inf, total.sign)


def _sum_series(steps, controls: SeriesControls, what: str) -> float:
    """Sum a series given as an unbounded iterable of steps.

    Each step is (terms, entries): the number of series terms it holds
    (one outer index, or one (j, k) pair of a double series) and their
    accumulator entries as (log magnitude, sign) pairs. A step is quiet
    when its largest entry is below controls.tol_rel times the running
    sum; the sum stops after three consecutive quiet steps. Raises
    NonConvergenceError, carrying the partial sum and the terms used, when
    a step that does not complete the quiet run takes the term count past
    controls.max_terms, or when the largest entry exceeds the final sum by
    more than CANCELLATION_LIMIT, or when the sum is beyond the double
    range. `what` names the series in messages.
    """
    log_tol = math.log(controls.tol_rel)
    acc = SignedLogAccumulator()
    add = acc.add
    quiet = 0
    terms = 0
    for count, entries in steps:
        step_max = -math.inf
        for log_magnitude, sign in entries:
            add(log_magnitude, sign)
            if log_magnitude > step_max:
                step_max = log_magnitude
        terms += count
        if step_max < acc.estimate_log() + log_tol:
            quiet += 1
            if quiet == 3:
                break
        else:
            quiet = 0
        if terms > controls.max_terms:
            raise NonConvergenceError(
                f"{what} did not converge within {controls.max_terms} terms",
                partial_sum=_partial_sum(acc.total()),
                terms_used=terms,
            )
    total = acc.total()
    condition = acc.condition(total)
    if condition > CANCELLATION_LIMIT:
        raise NonConvergenceError(
            f"{what} cancellation exceeds double precision (condition ~ {condition:.2e})",
            partial_sum=_partial_sum(total),
            terms_used=terms,
        )
    try:
        return total.to_float()
    except OverflowError:
        raise NonConvergenceError(
            f"{what} sum exceeds the double range",
            partial_sum=math.copysign(math.inf, total.sign),
            terms_used=terms,
        ) from None


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


def bessel(kind: str, order: int, x: float) -> float:
    """Bessel function J or Y of order 0 or 1.

    Delegates to scipy's machine-precision routines, which comfortably meet
    the 1e-12 absolute error target on [1e-6, 1e3]. Y requires x > 0.
    """
    if kind not in ("J", "Y"):
        raise ValueError("kind must be 'J' or 'Y'")
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    if kind == "J":
        if x < 0.0:
            raise DomainError("J-kind requires x >= 0")
        return float(j0(x) if order == 0 else j1(x))
    if x <= 0.0:
        raise DomainError("Y-kind requires x > 0")
    return float(y0(x) if order == 0 else y1(x))


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
