"""Reference routes used only by the tests.

Each function here reaches its result by a path the package itself never
takes (ascending series, integral representations, closed forms), so
agreement with the production code is a cross-check rather than a round
trip.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate
import scipy.special

EULER_GAMMA = 0.5772156649015329

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _k1_series(x: float) -> float:
    # ascending series around x = 0:
    # K1(x) = ln(x/2) I1(x) + 1/x
    #         - (x/4) sum_k [psi(k+1) + psi(k+2)] (x^2/4)^k / (k! (k+1)!)
    q = 0.25 * x * x
    psi1 = -EULER_GAMMA
    psi2 = 1.0 - EULER_GAMMA
    coeff = 1.0
    total = (psi1 + psi2) * coeff
    i1 = coeff
    for k in range(1, 80):
        coeff *= q / (k * (k + 1))
        psi1 += 1.0 / k
        psi2 += 1.0 / (k + 1)
        contrib = (psi1 + psi2) * coeff
        total += contrib
        i1 += coeff
        if abs(contrib) < 1e-18 * abs(total):
            break
    i1 *= 0.5 * x
    return math.log(0.5 * x) * i1 + 1.0 / x - 0.25 * x * total


def _k1_integral(x: float) -> float:
    # K1(x) = int_0^inf exp(-x cosh t) cosh t dt; past cosh t = 1 + 45/x the
    # integrand is below e^-45 of its peak
    t_max = math.acosh(1.0 + 45.0 / x)
    edges = np.linspace(0.0, t_max, 25)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        t = 0.5 * (hi + lo) + half * _GL_NODES
        ch = np.cosh(t)
        total += half * float(np.sum(_GL_WEIGHTS * np.exp(-x * ch) * ch))
    return total


def k1_reference(x: float) -> float:
    """Modified Bessel K1 without any library Bessel routine."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    return _k1_series(x) if x < 2.0 else _k1_integral(x)


def h_closed(x: float) -> float:
    """int_0^inf sin(x t) / (1 + t)^2 dt through sine/cosine integrals."""
    siv, civ = scipy.special.sici(x)
    return x * ((0.5 * math.pi - siv) * math.sin(x) - civ * math.cos(x))


def d_closed(b: float) -> float:
    """The reduced double integral D(b) collapsed to one dimension.

    Substituting s' = s t in the inner integral leaves
    D(b) = int_0^inf s e^(-2s) h(b s) ds with h as above.
    """
    if b == 0.0:
        return 0.0
    val, _ = scipy.integrate.quad(
        lambda s: s * math.exp(-2.0 * s) * h_closed(b * s),
        0.0, 80.0, limit=400, epsabs=0.0, epsrel=1e-12)
    return val


def euler_average(partial: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euler transform of partial sums by explicit iterated pairwise averaging.

    Averages neighbours along the last axis until one entry is left; returns
    that entry and the change of the last entry over the last level.
    """
    s = np.asarray(partial, dtype=float)
    if s.shape[-1] == 1:
        return s[..., 0], np.abs(s[..., 0]) * np.finfo(float).eps
    prev_last = s[..., -1]
    while s.shape[-1] > 1:
        s = 0.5 * (s[..., :-1] + s[..., 1:])
        change = np.abs(s[..., -1] - prev_last)
        prev_last = s[..., -1]
    return s[..., 0], change
