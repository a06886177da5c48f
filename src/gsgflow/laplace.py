"""Numerical inverse Laplace transformation of the per-mode image functions.

Each image F(q) = 1 / (q [q + alpha rn2 q^beta + nu rn2]) is analytic off
the negative real axis (the branch cut of q^beta, or at beta = 1 one
negative pole, besides the pole at 0), so the Bromwich line deforms into
Weideman's optimized Talbot contour (SIAM J. Numer. Anal. 44, 2006)

    q(theta) = (N/t) (0.5017 theta cot(0.6407 theta) - 0.6122 + 0.2645 i theta),

on which the trapezoidal rule converges geometrically. With N = 32 nodes in
float64 every kernel here is within about 1e-13 of max |K| (against 48
nodes and against mpmath's Talbot at 30 digits). The node weights do not
depend on t, nor q^beta on the mode, so one call inverts an array of modes.

Gaver-Stehfest (real-axis samples at mpmath precision, degree n_terms + 8
with exact rational weights to clear the classic sum's ~4e-8 intrinsic
error) is kept only as the scalar oracle of validate's stehfest_* checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from .errors import DomainError

_DEGREE_BOOST = 8

# trapezoidal nodes on the Talbot contour; 48 move no kernel by 1e-12 of max |K|
_NODES = 32


def _check_n_terms(n_terms: int) -> None:
    if n_terms % 2 != 0 or not 8 <= n_terms <= 20:
        raise DomainError("n_terms must be even and within [8, 20]")


@lru_cache(maxsize=None)
def stehfest_weights(degree: int) -> tuple:
    """Exact rational Stehfest weights V_1..V_degree (degree even)."""
    if degree % 2 != 0 or degree < 2:
        raise DomainError("degree must be a positive even integer")
    half = degree // 2
    weights = []
    for k in range(1, degree + 1):
        acc = Fraction(0)
        for i in range((k + 1) // 2, min(k, half) + 1):
            acc += Fraction(
                i**half * math.factorial(2 * i),
                math.factorial(half - i)
                * math.factorial(i)
                * math.factorial(i - 1)
                * math.factorial(k - i)
                * math.factorial(2 * i - k),
            )
        weights.append((-1) ** (k + half) * acc)
    return tuple(weights)


def invert_stehfest(f, t: float, n_terms: int = 16) -> float:
    """Invert a Laplace transform at time t from real-axis samples.

    f is called with positive mpmath.mpf abscissae q = k*ln2/t; plain
    arithmetic expressions work unchanged. Deterministic.
    """
    if t <= 0.0:
        raise DomainError("invert_stehfest requires t > 0")
    _check_n_terms(n_terms)
    degree = n_terms + _DEGREE_BOOST
    with mp.workdps(max(30, int(1.8 * degree))):
        weights = [mp.mpf(v.numerator) / v.denominator for v in stehfest_weights(degree)]
        a = mp.ln(2) / mp.mpf(t)
        total = mp.fsum(weights[k - 1] * f(k * a) for k in range(1, degree + 1))
        return float(a * total)


@dataclass(frozen=True)
class ModeTransform:
    """Per-mode image function F(q) = 1 / (q * [q + alpha*rn2*q^beta + nu*rn2]).

    rn2 is one squared root r_n^2 or an array of them.
    """

    nu: float
    alpha: float
    beta: float
    rn2: float | np.ndarray


def eval_transform(mt: ModeTransform, q):
    """Evaluate F(q) for q > 0; no branch cuts on the positive real axis."""
    if isinstance(q, np.ndarray):
        if np.any(q <= 0.0):
            raise DomainError("eval_transform requires q > 0")
    elif q <= 0.0:
        raise DomainError("eval_transform requires q > 0")
    return 1.0 / (q * (q + (mt.alpha * mt.rn2) * q**mt.beta + mt.nu * mt.rn2))


@lru_cache(maxsize=None)
def _contour(nodes: int) -> tuple:
    """(zeta, weight) at the nodes of the upper half of the contour, q = (N/t) zeta:
    theta_k = (k + 1/2) 2pi/N and weight = e^(N zeta) dzeta/dtheta."""
    theta = (np.arange(nodes // 2) + 0.5) * (2.0 * math.pi / nodes)
    cot = 1.0 / np.tan(0.6407 * theta)
    zeta = 0.5017 * theta * cot - 0.6122 + 0.2645j * theta
    dzeta = 0.5017 * cot - 0.5017 * 0.6407 * theta / np.sin(0.6407 * theta) ** 2 + 0.2645j
    return zeta, np.exp(nodes * zeta) * dzeta


def invert_mode_velocity_kernel(mt: ModeTransform, t):
    """Velocity time kernels L^-1{F}(t), with the shape of mt.rn2 and t
    broadcast together."""
    return invert_mode_stress_kernel(mt, 1.0, 0.0, t)


def invert_mode_stress_kernel(mt: ModeTransform, mu: float, alpha1: float, t):
    """Shear time kernels L^-1{(mu + alpha1*q^beta) * F(q)}(t), with the
    shape of mt.rn2 and t broadcast together.

    The image is conjugate-symmetric, so the trapezoidal sum is 2/N times
    the imaginary part of the sum over the upper half of the contour. The
    mode enters only through real-times-complex products and one
    reciprocal, and the last products are real, so a mode's kernel does not
    depend on which other modes share the call.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t > 0.0)):
        raise DomainError("contour inversion requires finite t > 0")
    zeta, weight = _contour(_NODES)
    q = (_NODES / t)[..., None] * zeta
    q_beta = q**mt.beta
    weight = (2.0 / t)[..., None] * weight * (mu + alpha1 * q_beta)
    rn2 = np.asarray(mt.rn2, dtype=float)[..., None]
    image = 1.0 / (q * q + (mt.alpha * rn2) * (q * q_beta) + (mt.nu * rn2) * q)
    return (image.real * weight.imag + image.imag * weight.real).sum(axis=-1)
