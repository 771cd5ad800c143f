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

from necoh.constants import BOLTZMANN, ELECTRON_MASS, ELEMENTARY_CHARGE, HBAR, NEON, SPEED_OF_LIGHT

EULER_GAMMA = 0.5772156649015329

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _k1_series_sums(x: float) -> tuple[float, float]:
    # ascending series around x = 0:
    # K1(x) = ln(x/2) I1(x) + 1/x
    #         - (x/4) sum_k [psi(k+1) + psi(k+2)] (x^2/4)^k / (k! (k+1)!)
    # returns (2 I1(x) / x, the psi-weighted sum)
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
    return i1, total


def _k1_series(x: float) -> float:
    i1, total = _k1_series_sums(x)
    return math.log(0.5 * x) * (i1 * (0.5 * x)) + 1.0 / x - 0.25 * x * total


def _k1_integral(x: float) -> float:
    # K1(x) = int_0^inf exp(-x cosh t) cosh t dt; past cosh t = 1 + 45/x the
    # integrand is below e^-45 of its peak
    t_max = math.acosh(1.0 + 45.0 / x)
    edges = np.linspace(0.0, t_max, 25)
    half = 0.5 * np.diff(edges)
    t = (0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * _GL_NODES).ravel()
    ch = np.cosh(t)
    return float((half[:, None] * _GL_WEIGHTS).ravel() @ (np.exp(-x * ch) * ch))


def k1_reference(x: float) -> float:
    """Modified Bessel K1 without any library Bessel routine."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    return _k1_series(x) if x < 2.0 else _k1_integral(x)


def u_p_reference(x: float) -> float:
    """(1 - x K1(x)) / x^2 from the same two routes as ``k1_reference``.

    Below x = 2 the leading 1/x of the ascending series cancels the 1
    exactly on paper, leaving -ln(x/2) I1(x)/x + (1/4) sum_k [...], so no
    digits are lost as x -> 0. Above, x K1(x) < 0.28 and the direct form is
    well conditioned.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    if x < 2.0:
        i1, total = _k1_series_sums(x)
        return -0.5 * math.log(0.5 * x) * i1 + 0.25 * total
    return (1.0 - x * _k1_integral(x)) / (x * x)


def up_average_direct(eta: float) -> float:
    """Ground-state average 4 int_0^inf s^2 e^(-2s) u_p(eta s) ds by quadrature.

    ``scipy.integrate.quad`` over ``u_p_reference``; the weight is below
    e^-150 past s = 80.
    """
    def f(s: float) -> float:
        return 4.0 * s * s * math.exp(-2.0 * s) * u_p_reference(eta * s)

    return scipy.integrate.quad(f, 0.0, 80.0, limit=400, epsabs=0.0, epsrel=1e-13)[0]


def up_average_series(eta: float) -> float:
    """``up_average_direct`` as its Taylor series (1/2) sum_k x^k / (2k + 3) in
    x = 1 - eta^2/4, valid for |x| < 1; ``math.fsum`` adds the terms until
    |x|^k < 1e-18."""
    x = (1.0 - 0.5 * eta) * (1.0 + 0.5 * eta)
    if not abs(x) < 1.0:
        raise ValueError(f"the series needs |1 - eta^2/4| < 1: got eta = {eta}")
    terms, power, k = [], 1.0, 0
    while abs(power) >= 1e-18:
        terms.append(power / (2 * k + 3))
        power *= x
        k += 1
    return 0.5 * math.fsum(terms)


def displacement_integral(alpha: float, beta: float, exact: bool) -> float:
    """int_0^1 dg g^2 u^3 e^(-beta u) k^2 with u = 1 - g^2, eta = alpha sqrt(u).

    k^2 is ln(eta)^2 for the log kernel and 4 <u_p>(eta)^2, from
    ``up_average_direct``, for the exact one. ``scipy.integrate.quad``.
    """
    def f(g: float) -> float:
        u = (1.0 - g) * (1.0 + g)
        if u <= 0.0:
            return 0.0
        eta = alpha * math.sqrt(u)
        k2 = 4.0 * up_average_direct(eta) ** 2 if exact else math.log(eta) ** 2
        return g * g * u ** 3 * math.exp(-beta * u) * k2

    return scipy.integrate.quad(f, 0.0, 1.0, limit=200, epsabs=0.0, epsrel=1e-13)[0]


def displacement_series(alpha: float, beta: float) -> float:
    """The log-kernel ``displacement_integral`` as a series, with no quadrature.

    With e^(-beta u) = e^(-beta) e^(beta g^2), ln(eta) = L + ln(u)/2,
    L = ln(alpha), and int_0^1 g^(2k+2) u^3 ln(u)^j dg = (1/2) d^j/dn^j
    B(k + 3/2, n + 1) at n = 3:

        sum_k e^(-beta) beta^k / k! (1/2) B(k + 3/2, 4) [L^2 + L d1 + (d1^2 + d2)/4],

    d1 = psi(4) - psi(k + 11/2), d2 = psi'(4) - psi'(k + 11/2). Each term is
    the weight times a mean of (L + ln(u)/2)^2, so all are positive and the
    sum loses no digits; it stops past the Poisson peak k ~ beta once a term
    no longer moves it.
    """
    big_l = math.log(alpha)
    total, k = 0.0, 0
    while True:
        a = k + 5.5
        d1 = scipy.special.digamma(4.0) - scipy.special.digamma(a)
        d2 = scipy.special.polygamma(1, 4.0) - scipy.special.polygamma(1, a)
        weight = math.exp(-beta + k * math.log(beta) - math.lgamma(k + 1.0)
                          + scipy.special.betaln(k + 1.5, 4.0))
        term = 0.5 * weight * (big_l * big_l + big_l * d1 + 0.25 * (d1 * d1 + d2))
        total += term
        if k > beta and term <= 1e-17 * total:
            return total
        k += 1


def modulation_integral(alpha: float, beta: float) -> float:
    """int_0^1 dg u e^(-beta u) D(alpha sqrt(u))^2 with u = 1 - g^2.

    D from ``d_closed``; ``scipy.integrate.quad`` over g.
    """
    def f(g: float) -> float:
        u = (1.0 - g) * (1.0 + g)
        return u * math.exp(-beta * u) * d_closed(alpha * math.sqrt(u)) ** 2

    return scipy.integrate.quad(f, 0.0, 1.0, limit=200, epsabs=0.0, epsrel=1e-11)[0]


def modulation_asymptote(alpha: float, beta: float) -> float:
    """Small-alpha, small-beta law of ``modulation_integral``.

    With D(b) -> (b/4)(ln(2/b) - 3/2) at b = alpha sqrt(u), u = 1 - g^2, and
    e^(-beta u) -> 1 - beta u:

        (alpha^2/16) [L^2 m0 - L m1 + m2/4] - beta (alpha^2/16) [L^2 m0' - L m1' + m2'/4],

    L = ln(2/alpha) - 3/2, m_j = int_0^1 u^2 ln(u)^j dg and
    m_j' = int_0^1 u^3 ln(u)^j dg by ``scipy.integrate.quad``
    (m = 8/15, -0.096199, 0.051792; m' = 16/35, -0.060687, 0.024101).
    """
    def moments(power: int) -> list[float]:
        return [scipy.integrate.quad(
            lambda g: ((1.0 - g) * (1.0 + g)) ** power * math.log((1.0 - g) * (1.0 + g)) ** j,
            0.0, 1.0, limit=200, epsabs=0.0, epsrel=1e-13)[0] for j in range(3)]

    big_l = math.log(2.0 / alpha) - 1.5

    def bracket(m: list[float]) -> float:
        return big_l * big_l * m[0] - big_l * m[1] + 0.25 * m[2]

    return alpha * alpha / 16.0 * (bracket(moments(2)) - beta * bracket(moments(3)))


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


def f_kernel_quad(a: float, b: float) -> float:
    """Unreduced squared kernel of the modulation coupling by nested quad.

    F(a, b) = 16 [ int_0^inf ds s^2 e^(-2s)
                   int_0^inf ds' sin(b s') K1(a (s+s')) / (s+s') ]^2

    with a = q_par r_B and b = q_z r_B. The inner Fourier integral is
    QUADPACK's QAWF (``scipy.integrate.quad`` with ``weight="sin"``), taken
    of a s^2 K1(a (s+s')) / (s+s'), which stays of order one as s -> 0 and
    a -> 0, so one absolute tolerance fits every s. The outer integral is a
    plain quad over s, cut at 40 where e^(-2s) is below 2e-35. As a -> 0 the
    K1 weight tends to 1/(a (s+s')), so F tends to 16 D(b)^2 / a^2.
    """
    def inner(s: float) -> float:
        return scipy.integrate.quad(
            lambda t: a * s * s * scipy.special.k1(a * (s + t)) / (s + t),
            0.0, np.inf, weight="sin", wvar=b, epsabs=1e-10)[0]

    amp = scipy.integrate.quad(lambda s: math.exp(-2.0 * s) * inner(s),
                               0.0, 40.0, limit=200, epsabs=0.0, epsrel=1e-10)[0] / a
    return 16.0 * amp * amp


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


def _geometric_head_edges(cut: float) -> list[float]:
    # [0, 1, 3, 9, ...] while the next edge stays below cut, then cut itself
    if cut <= 1.0:
        return [0.0, cut]
    edges = [0.0, 1.0]
    while edges[-1] * 3.0 < cut:
        edges.append(edges[-1] * 3.0)
    return edges + [cut]


def oscillatory_batch_unfolded(env, b: float, n_tail_panels: int = 64):
    """``int_0^inf env(x) sin(b x) dx`` by explicit head and tail sums.

    The scheme of ``integrate_oscillatory_batch`` taken step by step rather
    than folded into weights: GL24 panels on geometric edges over the head
    [0, pi/b], GL16 half-period tail panels, the head sum plus the
    cumulative tail sums as partial sums, their Euler transform by iterated
    averaging (``euler_average``) of the offsets from the last partial sum, and the floors of the error estimate at
    1e-6 of the last tail panel and 100 eps of the value. Returns the value,
    the error estimate and the absolute scale sum |w env| of the quadrature
    sum, all with the leading shape of ``env(x)``.
    """
    half_period = math.pi / b
    x24, w24 = np.polynomial.legendre.leggauss(24)
    x16, w16 = np.polynomial.legendre.leggauss(16)
    edges = np.array(_geometric_head_edges(half_period))
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    head_x = (mid[:, None] + half[:, None] * x24[None, :]).ravel()
    head_w = (half[:, None] * w24[None, :]).ravel()
    lo = np.arange(1, n_tail_panels + 1) * half_period
    h = 0.5 * half_period
    tail_x = (lo[:, None] + h * (x16[None, :] + 1.0)).ravel()
    tail_w = np.tile(h * w16, n_tail_panels)
    x = np.concatenate([head_x, tail_x])
    w = np.concatenate([head_w, tail_w]) * np.sin(b * x)
    x.flags.writeable = False
    y = np.asarray(env(x), dtype=float) * w
    head = y[..., :head_x.size].sum(axis=-1)
    panels = y[..., head_x.size:].reshape(y.shape[:-1] + (n_tail_panels, x16.size))
    panels = panels.sum(axis=-1)
    partial = head[..., None] + np.cumsum(panels, axis=-1)
    # averaged as offsets from the last partial sum, so the change rounds at
    # its own scale rather than at the scale of the sums
    last = partial[..., -1]
    offset, change = euler_average(partial - last[..., None])
    value = last + offset
    eps = np.finfo(float).eps
    err = np.maximum(np.maximum(change, 1e-6 * np.abs(panels[..., -1])),
                     100.0 * eps * np.abs(value))
    return value, err, np.abs(y).sum(axis=-1)


def rate_scales(f0_ghz: float) -> tuple[float, float, float, float]:
    """(alpha, beta, displacement prefactor, modulation prefactor) in neon at f0, with the
    image coupling, Bohr radius and Rydberg written out rather than read from ``BoundState``."""
    w0 = 2e9 * math.pi * f0_ghz
    c, rho, eps = NEON.sound_speed, NEON.density, NEON.epsilon
    lam = ELEMENTARY_CHARGE ** 2 / 4.0 * (eps - 1.0) / (eps + 1.0)
    r_b = HBAR ** 2 / (lam * ELECTRON_MASS)
    rydberg = HBAR ** 2 / (2.0 * ELECTRON_MASS * r_b ** 2)
    alpha = w0 / c * r_b
    beta = HBAR * w0 / (2.0 * ELECTRON_MASS * c * c)
    pref_displacement = (rydberg ** 2 * r_b ** 2 * w0 ** 6
                         / (8.0 * math.pi * ELECTRON_MASS * rho * c ** 9))
    pref_modulation = 8.0 * rydberg ** 2 * w0 ** 4 / (math.pi * ELECTRON_MASS * rho * c ** 7)
    return alpha, beta, pref_displacement, pref_modulation


def stimulated(f0_ghz: float, temperature_mk: float) -> float:
    """1 + n = 1 / (1 - e^(-x)), x = hbar w0 / kT: no overflow at large x, exactly 1 at T = 0."""
    kt = BOLTZMANN * 1e-3 * temperature_mk
    return -1.0 / math.expm1(-2e9 * math.pi * f0_ghz * HBAR / kt) if kt > 0.0 else 1.0


def vacuum_rate(f0_ghz: float) -> float:
    """Vacuum rate, s^-1, as the dipole form 4 d^2 w^3 / (3 hbar c^3), d^2 = e^2 hbar/(2 m w)."""
    w0 = 2e9 * math.pi * f0_ghz
    d2 = ELEMENTARY_CHARGE ** 2 * HBAR / (2.0 * ELECTRON_MASS * w0)
    return 4.0 * d2 * w0 ** 3 / (3.0 * HBAR * SPEED_OF_LIGHT ** 3)


def vertical_ceiling_ghz(rydberg: float) -> float:
    """The vertical 1 -> 2 spacing 3R/4, R in erg, as a trap frequency in GHz."""
    return 0.75 * rydberg / (2e9 * math.pi * HBAR)


def log_kernel_ceiling_ghz(sound_speed: float, bohr_radius: float) -> float:
    """Trap frequency, GHz, at which the emitted phonon reaches q r_B = 1."""
    return sound_speed / (2e9 * math.pi * bohr_radius)
