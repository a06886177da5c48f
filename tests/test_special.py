"""Special function tests.

Independent oracles used here: a power-series J0 with bisection for its
first zero, extended-precision Bessel evaluation through mpmath, and the
Stehfest inversion for the G-function cross-check.
"""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsgflow import (
    DomainError,
    GFunctionArgs,
    NonConvergenceError,
    SeriesControls,
    SignedLogAccumulator,
    SignedLogValue,
    bessel,
    cross_b,
    cross_b1,
    find_roots,
    g_function,
    invert_stehfest,
)
from gsgflow.special import CANCELLATION_LIMIT, _sum_series


def j0_power_series(x, terms=60):
    """Plain power-series J0, independent of scipy; good for |x| < 10."""
    total = 0.0
    term = 1.0
    for k in range(terms):
        total += term
        term *= -(x * x) / (4.0 * (k + 1.0) ** 2)
    return total


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


class TestBessel:
    def test_j_at_zero(self):
        assert bessel("J", 0, 0.0) == 1.0
        assert bessel("J", 1, 0.0) == 0.0

    def test_first_j0_zero_against_series_oracle(self):
        # locate the first zero of J0 by bisecting the independent series
        zero = bisect(j0_power_series, 2.0, 3.0)
        assert abs(zero - 2.404825557695773) < 1e-12
        assert abs(bessel("J", 0, zero)) < 1e-10

    def test_matches_series_oracle_on_moderate_arguments(self):
        for x in (0.5, 1.0, 2.5, 4.0, 7.0):
            assert bessel("J", 0, x) == pytest.approx(j0_power_series(x), abs=1e-12)

    def test_y_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            bessel("Y", 0, 0.0)
        with pytest.raises(DomainError):
            bessel("Y", 1, -1.0)

    def test_j_rejects_negative(self):
        with pytest.raises(DomainError):
            bessel("J", 0, -0.5)

    def test_bad_kind_and_order(self):
        with pytest.raises(ValueError):
            bessel("K", 0, 1.0)
        with pytest.raises(ValueError):
            bessel("J", 2, 1.0)

    def test_wronskian_identity(self):
        # J0(z) Y1(z) - J1(z) Y0(z) = -2 / (pi z)
        for z in np.logspace(math.log10(0.1), math.log10(100.0), 200):
            lhs = bessel("J", 0, z) * bessel("Y", 1, z) - bessel("J", 1, z) * bessel("Y", 0, z)
            assert abs(lhs + 2.0 / (math.pi * z)) < 1e-11


class TestCrossProducts:
    def test_b1_vanishes_at_outer_wall(self):
        # identical products cancel exactly in floating point
        for x in (0.3, 1.0, 2.7, 11.0):
            assert cross_b1(4.0, x, 4.0) == 0.0

    def test_b1_at_first_eigenvalue(self):
        eig = find_roots(1.0, 4.0, 1)
        assert abs(cross_b1(1.0, eig.roots[0], 4.0)) < 1e-10

    def test_b1_against_extended_precision(self):
        # frozen from mpmath at 40 digits:
        # J1(2.5) Y1(4) - J1(4) Y1(2.5) = 0.2074434433871660570...
        assert cross_b1(2.5, 1.0, 4.0) == pytest.approx(0.207443443387166057, abs=1e-10)
        with mp.workdps(40):
            want = mp.besselj(1, 2.5) * mp.bessely(1, 4) - mp.besselj(1, 4) * mp.bessely(1, 2.5)
        assert cross_b1(2.5, 1.0, 4.0) == pytest.approx(float(want), abs=1e-14)

    def test_b_against_extended_precision(self):
        # J0(1) Y1(4) - J1(4) Y0(1) = 0.3103206167782865226...
        assert cross_b(1.0, 1.0, 4.0) == pytest.approx(0.310320616778286523, abs=1e-10)

    def test_b_wronskian_point(self):
        # at r = R2 the cross product collapses to the Wronskian -2/(pi z)
        assert cross_b(4.0, 1.0, 4.0) == pytest.approx(-2.0 / (4.0 * math.pi), abs=1e-12)
        assert cross_b(3.0, 2.0, 3.0) == pytest.approx(-2.0 / (6.0 * math.pi), abs=1e-12)

    def test_domain_errors_propagate(self):
        with pytest.raises(DomainError):
            cross_b1(-1.0, 1.0, 4.0)
        with pytest.raises(DomainError):
            cross_b(1.0, 0.0, 4.0)
        # one bad element anywhere in an array is refused like a bad scalar
        with pytest.raises(DomainError):
            cross_b1(np.array([[1.5], [0.0]]), np.array([1.0, 2.0]), 4.0)
        with pytest.raises(DomainError):
            cross_b(np.array([[1.5]]), np.array([1.0, math.nan]), 4.0)

    def test_broadcast_matches_scalar_calls(self):
        r = np.array([1.0, 1.7, 2.9, 4.0])
        rn = find_roots(1.0, 4.0, 6).roots
        for fn in (cross_b1, cross_b):
            block = fn(r[:, None], rn, 4.0)
            assert block.shape == (4, 6)
            for i, x in enumerate(r):
                for j, y in enumerate(rn):
                    assert block[i, j] == fn(float(x), float(y), 4.0)


class TestSignedLogValue:
    def test_zero_round_trip(self):
        v = SignedLogValue.from_float(0.0)
        assert v.sign == 0
        assert v.to_float() == 0.0

    def test_round_trip_ulp_scale(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = float(rng.uniform(-1.0, 1.0)) * 10.0 ** float(rng.uniform(-250, 250))
            if x == 0.0:
                continue
            back = SignedLogValue.from_float(x).to_float()
            assert back == pytest.approx(x, rel=1e-12)
            assert math.copysign(1.0, back) == math.copysign(1.0, x)

    def test_sign_zero_iff_zero(self):
        assert SignedLogValue.from_float(3.5).sign == 1
        assert SignedLogValue.from_float(-3.5).sign == -1
        assert SignedLogValue.from_float(0.0).sign == 0


def accumulate(values):
    acc = SignedLogAccumulator()
    for v in values:
        acc.add(v.log_magnitude, v.sign)
    return acc.total()


class TestSignedLogAccumulation:
    def test_matches_compensated_summation_when_shuffled(self):
        # mixed-sign sequences with condition number up to 1e6: the
        # accumulator must agree with fsum of the same materialized terms
        rng = np.random.default_rng(42)
        for trial in range(30):
            n = int(rng.integers(10, 300))
            logs = rng.uniform(-3.0, 10.0, size=n)
            signs = rng.choice([-1, 1], size=n)
            values = [SignedLogValue(float(l), int(s)) for l, s in zip(logs, signs)]
            reference = math.fsum(v.to_float() for v in values)
            magnitude = math.fsum(abs(v.to_float()) for v in values)
            if reference == 0.0 or magnitude / abs(reference) > 1e6:
                continue
            shuffled = list(values)
            rng.shuffle(shuffled)
            got = accumulate(shuffled).to_float()
            assert got == pytest.approx(reference, rel=1e-12)

    def test_handles_terms_beyond_double_range(self):
        # two huge terms nearly cancel; their difference is representable
        big = 800.0  # e^800 overflows a double
        vals = [SignedLogValue(big, 1), SignedLogValue(big - 1e-6, -1)]
        got = accumulate(vals)
        assert got.sign == 1
        # exact: log(e^800 (1 - e^-1e-6)) = 800 + log1p(-exp(-1e-6));
        # the gap 1e-6 is itself stored to ulp(800) ~ 1e-13, which the
        # cancellation amplifies by 1/gap, so 1e-6 on the log is the
        # attainable agreement
        want = big + math.log(-math.expm1(-1e-6))
        assert got.log_magnitude == pytest.approx(want, abs=1e-6)

    def test_condition_estimate(self):
        acc = SignedLogAccumulator()
        acc.add(10.0, 1)
        acc.add(10.0, -1)
        acc.add(0.0, 1)
        assert acc.condition(acc.total()) == pytest.approx(math.exp(10.0), rel=1e-9)


def single(*entries):
    """Steps of one term each, one (log magnitude, sign) entry per term."""
    return [(1, (entry,)) for entry in entries]


def quiet_tail():
    """Entries that shrink by e^-10 per step: quiet after a few steps."""
    return ((1, ((-60.0 - 10.0 * i, 1),)) for i in itertools.count())


class TestSumSeries:
    entry = st.tuples(st.floats(-40.0, 40.0), st.sampled_from((-1, 1)))
    # a pair of equal and opposite large terms makes the sum cancel
    step = st.one_of(
        st.tuples(st.integers(1, 3), st.lists(entry, max_size=4)),
        st.floats(20.0, 40.0).map(lambda l: (2, [(l, 1), (l, -1)])),
    )

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(step, max_size=30), st.integers(1, 200), st.booleans())
    def test_accepts_fsum_or_refuses_with_state(self, head, max_terms, loud_tail):
        # a loud tail of e^40 terms never goes quiet and must hit the cap
        tail = itertools.repeat((1, ((40.0, 1),))) if loud_tail else quiet_tail()
        consumed, terms = [], 0

        def steps():
            nonlocal terms
            for count, entries in itertools.chain(head, tail):
                consumed.extend(entries)
                terms += count
                yield count, entries

        controls = SeriesControls(max_terms=max_terms)
        try:
            got = _sum_series(steps(), controls, "test series")
        except NonConvergenceError as exc:
            assert exc.terms_used == terms
            assert not math.isnan(exc.partial_sum)
            assert terms > max_terms or "cancellation" in str(exc)
            return
        # the accumulator's total is log|fsum| of the materialized terms,
        # bit for bit; the float returned is that signed-log value
        want = math.fsum(s * math.exp(l) for l, s in consumed)
        assert got == SignedLogValue.from_float(want).to_float()
        assert max(math.exp(l) for l, _ in consumed) <= CANCELLATION_LIMIT * abs(want)

    def test_quiet_run_may_finish_one_step_past_the_cap(self):
        # the quiet run of steps 2-4 completes on step 4: accepted with
        # max_terms = 3; with max_terms = 2 step 3 (not finishing) refuses
        steps = single((0.0, 1), (-100.0, 1), (-100.0, 1), (-100.0, 1))
        assert _sum_series(iter(steps), SeriesControls(max_terms=3), "s") == 1.0
        with pytest.raises(NonConvergenceError) as exc_info:
            _sum_series(iter(steps), SeriesControls(max_terms=2), "s")
        assert exc_info.value.terms_used == 3
        assert exc_info.value.partial_sum == 1.0

    def test_cap_counts_terms_not_entries(self):
        # a double-series step holds several (j, k) pairs, and a stress
        # bracket gives each pair two entries
        loud = itertools.repeat((4, ((40.0, 1), (40.0, 1))))
        with pytest.raises(NonConvergenceError) as exc_info:
            _sum_series(loud, SeriesControls(max_terms=10), "s")
        assert exc_info.value.terms_used == 12

    def test_cancellation_refuses_with_partial_sum(self):
        steps = itertools.chain(single((30.0, 1), (30.0, -1), (0.0, 1)), quiet_tail())
        with pytest.raises(NonConvergenceError, match="cancellation") as exc_info:
            _sum_series(steps, SeriesControls(), "s")
        assert exc_info.value.partial_sum == pytest.approx(1.0, rel=1e-12)
        assert exc_info.value.terms_used == 6

    def test_partial_sum_beyond_double_range_is_inf(self):
        steps = itertools.repeat((1, ((800.0, -1),)))
        with pytest.raises(NonConvergenceError) as exc_info:
            _sum_series(steps, SeriesControls(max_terms=2), "s")
        assert exc_info.value.partial_sum == -math.inf


class TestGFunction:
    def test_single_term_closed_form_random(self):
        # d = 0 leaves only the j = 0 term
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = float(rng.uniform(0.05, 1.0))
            c = float(rng.uniform(0.3, 8.0))
            b = a * c - float(rng.uniform(0.1, 4.0))
            t = float(rng.uniform(0.05, 20.0))
            got = g_function(GFunctionArgs(a=a, b=b, c=c, d=0.0, t=t))
            want = t ** (c * a - b - 1.0) / math.gamma(c * a - b)
            assert got == pytest.approx(want, rel=1e-12)

    def test_exponential_reduction(self):
        # a=1, b=0, c=1 collapses to sum (d t)^j / j! = exp(d t); strongly
        # negative d*t is conditioning-limited in doubles so the window is
        # restricted to where 1e-10 is attainable
        for d, t in [(2.0, 10.0), (1.0, 20.0), (0.25, 4.0), (-1.0, 5.0), (-2.0, 2.5), (-0.1, 30.0)]:
            got = g_function(GFunctionArgs(a=1.0, b=0.0, c=1.0, d=d, t=t))
            assert got == pytest.approx(math.exp(d * t), rel=1e-10)

    def test_matches_stehfest_inversion(self):
        # G_{0.5,-1.5,1}(-1, t) is the inverse transform of q^-1.5/(q^0.5+1)
        got = g_function(GFunctionArgs(a=0.5, b=-1.5, c=1.0, d=-1.0, t=1.0))
        want = invert_stehfest(lambda q: q**-1.5 / (q**0.5 + 1.0), 1.0)
        assert got == pytest.approx(want, rel=1e-6)

    def test_sum_beyond_double_range_refuses(self):
        # exp(750) converges in signed-log form but has no float64 value
        with pytest.raises(NonConvergenceError, match="double range") as exc_info:
            g_function(GFunctionArgs(a=1.0, b=0.0, c=1.0, d=1.0, t=750.0))
        assert exc_info.value.partial_sum == math.inf
        assert exc_info.value.terms_used > 750

    def test_convergence_precondition(self):
        with pytest.raises(DomainError):
            g_function(GFunctionArgs(a=0.5, b=2.0, c=1.0, d=0.5, t=1.0))
        with pytest.raises(DomainError):
            g_function(GFunctionArgs(a=0.5, b=-1.0, c=1.0, d=0.5, t=-2.0))

    def test_degenerate_order_refuses(self):
        # a < 0.05 has no usable convergence rate
        with pytest.raises(NonConvergenceError):
            g_function(GFunctionArgs(a=0.01, b=-1.5, c=1.0, d=-0.5, t=1.0))

    def test_hopeless_cancellation_refuses(self):
        with pytest.raises(NonConvergenceError) as exc_info:
            g_function(GFunctionArgs(a=0.5, b=-2.0, c=1.0, d=-50.0, t=10.0))
        assert exc_info.value.terms_used >= 0

    def test_growth_cap_refuses_with_partial_state(self):
        controls = SeriesControls(max_terms=5)
        with pytest.raises(NonConvergenceError) as exc_info:
            g_function(GFunctionArgs(a=0.5, b=-1.5, c=1.0, d=-1.0, t=1.0), controls)
        assert exc_info.value.terms_used >= 5
