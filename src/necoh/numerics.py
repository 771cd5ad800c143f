"""Quadrature engines and special functions used by the rate integrals.

All integrators take vectorized callables: the integrand receives a numpy
array of abscissae and must return an array of the same shape. Every routine
returns a ``(value, error_estimate)`` pair. Accuracy targets come from a
:class:`QuadratureSpec`; running out of subdivisions raises
:class:`ConvergenceError` carrying the best estimate obtained so far.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

EULER_GAMMA = 0.5772156649015329

_EPS = float(np.finfo(float).eps)

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
_XK_HALF = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
])
_WK_HALF = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_WG_HALF = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

GK15_NODES = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
GK15_KRONROD_WEIGHTS = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
# Gauss nodes sit at the odd Kronrod positions
_G_SLICE = slice(1, 15, 2)
GK15_GAUSS_WEIGHTS = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy budget for an adaptive integration.

    Parameters
    ----------
    rel_tol : float
        Relative tolerance, in (0, 1e-2].
    abs_tol : float
        Absolute tolerance floor, >= 0.
    max_subdivisions : int
        Bisection budget, >= 10.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 0.0
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-2):
            raise ValueError(f"rel_tol must be in (0, 1e-2], got {self.rel_tol}")
        if self.abs_tol < 0.0:
            raise ValueError(f"abs_tol must be >= 0, got {self.abs_tol}")
        if int(self.max_subdivisions) != self.max_subdivisions or self.max_subdivisions < 10:
            raise ValueError(
                f"max_subdivisions must be an integer >= 10, got {self.max_subdivisions}")

    def tolerance(self, scale: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(scale))


DEFAULT_SPEC = QuadratureSpec()


class ConvergenceError(Exception):
    """Raised when the subdivision budget is exhausted.

    Attributes
    ----------
    estimate : float
        Best integral estimate at the point of failure.
    error_estimate : float
        Error estimate attached to `estimate`.
    subdivisions : int
        Number of bisections performed.
    """

    def __init__(self, message: str, estimate: float, error_estimate: float,
                 subdivisions: int) -> None:
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate
        self.subdivisions = subdivisions


def _panel_from_values(y: np.ndarray, half_width: float) -> tuple[float, float, float]:
    """Kronrod value, error estimate and |f| integral from node values."""
    kron = half_width * float(GK15_KRONROD_WEIGHTS @ y)
    gauss = half_width * float(GK15_GAUSS_WEIGHTS @ y[_G_SLICE])
    resabs = half_width * float(GK15_KRONROD_WEIGHTS @ np.abs(y))
    mean = kron / (2.0 * half_width)
    resasc = half_width * float(GK15_KRONROD_WEIGHTS @ np.abs(y - mean))
    raw = abs(kron - gauss)
    if resasc != 0.0 and raw != 0.0:
        err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    else:
        err = raw
    err = max(err, 50.0 * _EPS * resabs)
    return kron, err, resabs


def _eval_panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float
                ) -> tuple[float, float]:
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi) + half * GK15_NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError("integrand must return an array matching its input shape")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"integrand returned non-finite values on [{lo}, {hi}]")
    val, err, _ = _panel_from_values(y, half)
    return val, err


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                       spec: QuadratureSpec = DEFAULT_SPEC) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod integration of ``f`` over [lo, hi].

    The worst panel (largest error estimate) is bisected until the summed
    error meets ``spec``. Returns ``(value, error_estimate)``.
    """
    if lo == hi:
        return 0.0, 0.0
    sign = 1.0
    if lo > hi:
        lo, hi = hi, lo
        sign = -1.0
    val, err = _eval_panel(f, lo, hi)
    total_val, total_err = val, err
    # heap of (-err, tiebreak, lo, hi, val)
    heap = [(-err, 0, lo, hi, val)]
    count = 0
    for n in range(spec.max_subdivisions):
        if total_err <= spec.tolerance(total_val):
            break
        neg_err, _, plo, phi, pval = heapq.heappop(heap)
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:
            # interval at floating point resolution, keep its estimate
            heapq.heappush(heap, (0.0, count + 1, plo, phi, pval))
            count += 1
            continue
        lval, lerr = _eval_panel(f, plo, mid)
        rval, rerr = _eval_panel(f, mid, phi)
        total_val += lval + rval - pval
        total_err += lerr + rerr + neg_err  # neg_err is -parent_err
        heapq.heappush(heap, (-lerr, count + 1, plo, mid, lval))
        heapq.heappush(heap, (-rerr, count + 2, mid, phi, rval))
        count += 2
    else:
        if total_err > spec.tolerance(total_val):
            raise ConvergenceError(
                f"adaptive quadrature did not reach tolerance on [{lo}, {hi}]: "
                f"error {total_err:.3e} on value {total_val:.6e}",
                estimate=sign * total_val,
                error_estimate=total_err,
                subdivisions=spec.max_subdivisions,
            )
    return sign * total_val, total_err


def integrate_semi_infinite(f: Callable[[np.ndarray], np.ndarray],
                            spec: QuadratureSpec = DEFAULT_SPEC) -> tuple[float, float]:
    """Integral of a decaying ``f`` over [0, inf) via the map x = t/(1-t)."""

    def mapped(t: np.ndarray) -> np.ndarray:
        w = 1.0 - t
        return f(t / w) / (w * w)

    return integrate_adaptive(mapped, 0.0, 1.0 - 1e-14, spec)


def _euler_accelerate(partial: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Iterated pairwise averaging of alternating-series partial sums.

    ``partial`` holds partial sums along the last axis. Returns the
    accelerated value and an error estimate (last-level change), with the
    leading axes preserved.
    """
    s = np.asarray(partial, dtype=float)
    if s.shape[-1] == 1:
        return s[..., 0], np.abs(s[..., 0]) * _EPS
    prev_last = s[..., -1]
    while s.shape[-1] > 1:
        s = 0.5 * (s[..., :-1] + s[..., 1:])
        change = np.abs(s[..., -1] - prev_last)
        prev_last = s[..., -1]
    return s[..., 0], change


def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


_GL24 = _gl_rule(24)
_GL16 = _gl_rule(16)


def _head_edges(cut: float) -> np.ndarray:
    """Geometric panel edges on [0, cut] with unit-scale resolution near 0."""
    if cut <= 1.0:
        return np.array([0.0, cut])
    edges = [0.0, 1.0]
    while edges[-1] * 3.0 < cut:
        edges.append(edges[-1] * 3.0)
    edges.append(cut)
    return np.array(edges)


def _oscillatory_grid(b: float, n_tail_panels: int
                      ) -> tuple[np.ndarray, np.ndarray, int]:
    """Abscissae, sine-weighted weights and head size for the batched scheme."""
    half_period = np.pi / b
    xg, wg = _GL24
    edges = _head_edges(half_period)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    head_x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    head_w = (half[:, None] * wg[None, :]).ravel()
    xg16, wg16 = _GL16
    k = np.arange(1, n_tail_panels + 1)
    lo = k * half_period
    h = 0.5 * half_period
    tail_x = (lo[:, None] + h * (xg16[None, :] + 1.0)).ravel()
    tail_w = np.tile(h * wg16, n_tail_panels)
    x = np.concatenate([head_x, tail_x])
    w = np.concatenate([head_w, tail_w]) * np.sin(b * x)
    return x, w, head_x.size


def integrate_oscillatory_batch(env: Callable[[np.ndarray], np.ndarray], b: float,
                                n_tail_panels: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``int_0^inf env(x) sin(b x) dx`` for a family of envelopes.

    ``env(x)`` receives abscissae of shape (nx,) and returns an array whose
    last axis has length nx; leading axes enumerate the family. The head
    [0, pi/b] uses geometric composite Gauss-Legendre panels, the tail uses
    half-period panels aligned to the sine zeros with the alternating partial
    sums accelerated by iterated averaging. The envelope is evaluated in a
    single call on the full grid.
    """
    if b < 0.0:
        raise ValueError("b must be >= 0")
    if b == 0.0:
        probe = np.asarray(env(np.array([1.0])), dtype=float)
        shape = probe.shape[:-1]
        return np.zeros(shape), np.zeros(shape)
    x, w, n_head = _oscillatory_grid(b, n_tail_panels)
    y = np.asarray(env(x), dtype=float) * w
    head_val = y[..., :n_head].sum(axis=-1)
    contribs = y[..., n_head:].reshape(y.shape[:-1] + (n_tail_panels, _GL16[0].size))
    contribs = contribs.sum(axis=-1)
    partial = head_val[..., None] + np.cumsum(contribs, axis=-1)
    value, accel_err = _euler_accelerate(partial)
    # floor the estimate at the scale of the last alternating term
    err = np.maximum(accel_err, np.abs(contribs[..., -1]) * 1e-6)
    err = np.maximum(err, np.abs(value) * 100.0 * _EPS)
    return value, err


def integrate_semi_infinite_oscillatory(f: Callable[[np.ndarray], np.ndarray], b: float,
                                        spec: QuadratureSpec = DEFAULT_SPEC
                                        ) -> tuple[float, float]:
    """``int_0^inf f(x) sin(b x) dx`` for a smooth decaying envelope ``f``.

    The head panel [0, pi/b] is integrated adaptively; past the first sine
    zero the integral is summed over half-period panels and the alternating
    partial sums are accelerated by iterated averaging. ``b = 0`` is the
    degenerate sine-free case and returns zero exactly.
    """
    if b < 0.0:
        raise ValueError("b must be >= 0")
    if b == 0.0:
        return 0.0, 0.0

    def g(x: np.ndarray) -> np.ndarray:
        return f(x) * np.sin(b * x)

    half_period = np.pi / b
    head_val, head_err = integrate_adaptive(g, 0.0, half_period, spec)
    contribs = []
    panel_err = 0.0
    total = head_val
    n_tail = 64
    for k in range(1, n_tail + 1):
        val, err = _eval_panel(g, k * half_period, (k + 1) * half_period)
        contribs.append(val)
        panel_err += err
        total += val
        if abs(val) < 0.01 * spec.tolerance(total) and k >= 6:
            break
    partial = head_val + np.cumsum(contribs)
    value, accel_err = _euler_accelerate(partial)
    return float(value), float(accel_err) + head_err + panel_err


def bessel_k1(x):
    """Modified Bessel function of the second kind, order one.

    Accepts positive scalars or arrays. Raises ValueError outside the domain.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(arr > 0.0):
        raise ValueError("bessel_k1 requires x > 0")
    out = special.k1(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


_UP_SWITCH = 1e-3


def u_p(eta):
    """Image-kernel profile function (1 - eta*K1(eta)) / eta^2.

    Positive and monotonically decreasing on eta > 0. Below eta = 1e-3 the
    direct form loses all precision to cancellation, so a logarithmic series
    branch takes over:

        u_p(eta) = -(1/2)(ln(eta/2) + gamma_E - 1/2)
                   - (eta^2/16)(ln(eta/2) + gamma_E - 5/4) + O(eta^4 ln eta)
    """
    arr = np.asarray(eta, dtype=float)
    if arr.size and not np.all(arr > 0.0):
        raise ValueError("u_p requires eta > 0")
    out = np.empty_like(arr)
    small = arr < _UP_SWITCH
    if np.any(small):
        e = arr[small]
        lg = np.log(0.5 * e) + EULER_GAMMA
        out[small] = -0.5 * (lg - 0.5) - (e * e / 16.0) * (lg - 1.25)
    if np.any(~small):
        e = arr[~small]
        out[~small] = (1.0 - e * special.k1(e)) / (e * e)
    if np.isscalar(eta) or arr.ndim == 0:
        return float(out)
    return out
