"""Quadrature engines and special functions used by the rate integrals.

All integrators take vectorized callables: the integrand receives a numpy
array of abscissae and must return an array of the same shape. Every routine
returns a ``(value, error_estimate)`` pair. Accuracy targets come from a
:class:`QuadratureSpec`; an error estimate that misses it (the adaptive
routines out of subdivisions, or the fixed oscillatory grid too coarse)
raises :class:`ConvergenceError` carrying the best estimate obtained.
"""
from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    max_subdivisions : int
        Bisection budget, >= 10.
    """

    rel_tol: float = 1e-9
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-2):
            raise ValueError(f"rel_tol must be in (0, 1e-2], got {self.rel_tol}")
        if int(self.max_subdivisions) != self.max_subdivisions or self.max_subdivisions < 10:
            raise ValueError(
                f"max_subdivisions must be an integer >= 10, got {self.max_subdivisions}")

    def tolerance(self, scale: float) -> float:
        return self.rel_tol * abs(scale)


DEFAULT_SPEC = QuadratureSpec()


class ConvergenceError(Exception):
    """Raised when a quadrature's error estimate misses its spec.

    Attributes
    ----------
    estimate : float
        Best integral estimate at the point of failure.
    error_estimate : float
        Error estimate attached to `estimate`.
    subdivisions : int
        Number of bisections performed (0 for the fixed oscillatory grid).
    """

    def __init__(self, message: str, estimate: float, error_estimate: float,
                 subdivisions: int) -> None:
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate
        self.subdivisions = subdivisions

    def within(self, context: str) -> ConvergenceError:
        """The same failure with ``context`` (e.g. the channel) leading the message."""
        return ConvergenceError(f"{context}: {self}", self.estimate, self.error_estimate,
                                self.subdivisions)


def _eval_panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float
                ) -> tuple[float, float]:
    """Kronrod value and error estimate of one GK15 panel."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi) + half * GK15_NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError("integrand must return an array matching its input shape")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"integrand returned non-finite values on [{lo}, {hi}]")
    kron = half * float(GK15_KRONROD_WEIGHTS @ y)
    gauss = half * float(GK15_GAUSS_WEIGHTS @ y[_G_SLICE])
    resabs = half * float(GK15_KRONROD_WEIGHTS @ np.abs(y))
    mean = kron / (2.0 * half)
    resasc = half * float(GK15_KRONROD_WEIGHTS @ np.abs(y - mean))
    raw = abs(kron - gauss)
    if resasc != 0.0 and raw != 0.0:
        err = resasc * min(1.0, (200.0 * raw / resasc) ** 1.5)
    else:
        err = raw
    return kron, max(err, 50.0 * _EPS * resabs)


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


@functools.lru_cache(maxsize=128)
def _euler_weights(n: int) -> np.ndarray:
    """(n, 2) read-only weights of n >= 2 partial sums: value and last change.

    After n - 1 levels of pairwise averaging E_m[j] = (E_{m-1}[j] +
    E_{m-1}[j+1]) / 2 of the partial sums E_0 = s, the top entry is
    E_{n-1}[0] = sum_k C(n-1, k) s_k / 2^(n-1), and the change of the last
    entry over the last level is E_{n-1}[0] - E_{n-2}[1], whose weights are
    (C(n-1, k) - 2 C(n-2, k-1)) / 2^(n-1). Each weight is one correctly
    rounded division of exact integers.
    """
    top = 2 ** (n - 1)
    value = [math.comb(n - 1, k) for k in range(n)]
    before = [0] + [2 * math.comb(n - 2, k) for k in range(n - 1)]
    w = np.array([[v / top, (v - b) / top] for v, b in zip(value, before)])
    w.flags.writeable = False
    return w


_GL24 = np.polynomial.legendre.leggauss(24)
_GL16 = np.polynomial.legendre.leggauss(16)
# half-period GL16 panels in the tail of the oscillatory grid
_TAIL_PANELS = 64


def _head_edges(cut: float) -> np.ndarray:
    """Geometric panel edges on [0, cut] with unit-scale resolution near 0."""
    if cut <= 1.0:
        return np.array([0.0, cut])
    edges = [0.0, 1.0]
    while edges[-1] * 3.0 < cut:
        edges.append(edges[-1] * 3.0)
    edges.append(cut)
    return np.array(edges)


@functools.lru_cache(maxsize=8)
def _oscillatory_grid(b: float) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae and folded (nx, 3) weights of the batched scheme at b > 0.

    The head [0, pi/b] carries geometric composite GL24 panels, the tail
    64 GL16 half-period panels aligned to the sine zeros.
    Everything ``integrate_oscillatory_batch`` does after the envelope is
    evaluated is linear in it, so it is folded into three columns of
    sine-weighted composite weights ``w``:

    - value: the head sum plus the Euler-accelerated tail. With E =
      ``_euler_weights(n)`` acting on the partial sums through their offsets
      from the last one, tail panel i carries 1 - sum_{k<i} E[k, 0] and the
      head 1;
    - Euler change: -sum_{k<i} E[k, 1] on tail panel i, 0 on the head;
    - last tail panel: its weights alone, for the floor of the estimate.

    Memoised: the adaptive s integral of one ``d_integral`` call evaluates
    all its panels at one ``b``. Both arrays are read-only, so an envelope
    cannot corrupt the cached grid.
    """
    half_period = np.pi / b
    xg, wg = _GL24
    edges = _head_edges(half_period)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    head_x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    head_w = (half[:, None] * wg[None, :]).ravel()
    xg16, wg16 = _GL16
    k = np.arange(1, _TAIL_PANELS + 1)
    lo = k * half_period
    h = 0.5 * half_period
    tail_x = (lo[:, None] + h * (xg16[None, :] + 1.0)).ravel()
    tail_w = np.tile(h * wg16, _TAIL_PANELS)
    x = np.concatenate([head_x, tail_x])
    w = np.concatenate([head_w, tail_w]) * np.sin(b * x)
    # per tail panel: value, Euler change and last-panel coefficients
    panel = np.zeros((_TAIL_PANELS, 3))
    panel[:, 0] = 1.0
    panel[-1, 2] = 1.0
    panel[1:, :2] -= np.cumsum(_euler_weights(_TAIL_PANELS), axis=0)[:-1]
    coeff = np.concatenate([np.tile([1.0, 0.0, 0.0], (head_x.size, 1)),
                            np.repeat(panel, xg16.size, axis=0)])
    # column-major: each column is one contiguous dot with the envelope
    weights = np.asfortranarray(w[:, None] * coeff)
    x.flags.writeable = False
    weights.flags.writeable = False
    return x, weights


def integrate_oscillatory_batch(env: Callable[[np.ndarray], np.ndarray], b: float
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Batched ``int_0^inf env(x) sin(b x) dx`` for a family of envelopes, b > 0.

    ``env(x)`` receives abscissae of shape (nx,) and returns an array whose
    last axis has length nx; leading axes enumerate the family. The head
    [0, pi/b] uses geometric composite Gauss-Legendre panels, the tail 64
    half-period panels aligned to the sine zeros with the alternating partial
    sums accelerated by the Euler transform (see ``_euler_weights``).
    Head sum, partial sums and transform are one fixed linear functional of
    the envelope, folded into the cached weights of ``_oscillatory_grid``,
    so each call is a single product ``env(x) @ W`` giving the value, the
    last Euler change and the last tail panel. The error estimate is the
    largest of |change|, 1e-6 |last panel| and 100 eps |value|. The envelope
    is evaluated in a single call on the full grid, which is handed to
    ``env`` read-only: an envelope that writes into its argument raises
    ``ValueError``, and so does a b that is not > 0 (nan included).
    """
    if not b > 0.0:
        raise ValueError(f"b must be > 0, got {b}")
    x, weights = _oscillatory_grid(b)
    r = np.asarray(env(x), dtype=float) @ weights
    value = r[..., 0]
    # floor the estimate at the scale of the last alternating term
    err = np.maximum(np.abs(r[..., 1]), np.abs(r[..., 2]) * 1e-6)
    err = np.maximum(err, np.abs(value) * 100.0 * _EPS)
    return value, err


def integrate_semi_infinite_oscillatory(f: Callable[[np.ndarray], np.ndarray], b: float,
                                        spec: QuadratureSpec = DEFAULT_SPEC
                                        ) -> tuple[float, float]:
    """``int_0^inf f(x) sin(b x) dx`` for a smooth decaying envelope ``f``.

    The scalar case of ``integrate_oscillatory_batch``: one product of ``f``,
    one value per abscissa (else ValueError), with the cached folded weights.
    There is no refinement: an error estimate above ``spec.tolerance(value)``
    raises :class:`ConvergenceError` with the value and estimate
    (``subdivisions`` 0). ``b = 0`` is the sine-free case and returns 0.
    """
    if not b >= 0.0:
        raise ValueError(f"b must be >= 0, got {b}")
    if b == 0.0:
        return 0.0, 0.0
    value, err = (r.item() for r in integrate_oscillatory_batch(f, b))
    if not err <= spec.tolerance(value):
        raise ConvergenceError(
            f"oscillatory quadrature did not reach tolerance at b = {b}: "
            f"error {err:.3e} on value {value:.6e}",
            estimate=value, error_estimate=err, subdivisions=0)
    return value, err


def bessel_k1(x):
    """Modified Bessel function of the second kind, order one.

    Accepts positive scalars or arrays. Raises ValueError outside the domain.
    ``scipy.special`` is imported here, not at module level: importing it
    costs ~0.4 s, and no rate computed by the package calls K1 any more
    (``displacement.u_p_average`` is a closed form), so ``import necoh`` and
    every CLI command stay free of it.
    """
    from scipy import special

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

    Like ``bessel_k1`` it imports ``scipy.special`` on first use only.
    """
    from scipy import special

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
