"""Quadrature engines of the rate integrals, on numpy alone.

All integrators take vectorized callables: the integrand receives a numpy
array of abscissae and must return an array of the same shape. Every routine
returns a ``(value, error_estimate)`` pair. ``integrate_adaptive`` takes the
one relative tolerance of a :class:`QuadratureSpec` as its accuracy target and
raises :class:`ConvergenceError`, carrying the best estimate, when its error
estimate still misses it after 200 bisections.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

import numpy as np

_EPS = float(np.finfo(float).eps)
# bisections after which integrate_adaptive gives up; no rate needs over 16
_MAX_BISECTIONS = 200

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
    """Accuracy target of an integration: one relative tolerance.

    ``integrate_adaptive`` applies it to the integral of |f|, not of f.

    Parameters
    ----------
    rel_tol : float
        Relative tolerance, in (0, 1e-2].
    """

    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-2):
            raise ValueError(f"rel_tol must be in (0, 1e-2], got {self.rel_tol}")

    def tolerance(self, scale: float) -> float:
        return self.rel_tol * abs(scale)


DEFAULT_SPEC = QuadratureSpec()


class ConvergenceError(Exception):
    """Raised when ``integrate_adaptive`` misses its spec after 200 bisections.

    Attributes
    ----------
    estimate : float
        Best integral estimate at the point of failure.
    error_estimate : float
        Error estimate attached to `estimate`.
    """

    def __init__(self, message: str, estimate: float, error_estimate: float) -> None:
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate

    def within(self, context: str) -> ConvergenceError:
        """The same failure with ``context`` (e.g. the channel) leading the message."""
        return ConvergenceError(f"{context}: {self}", self.estimate, self.error_estimate)


def _eval_panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float
                ) -> tuple[float, float, float]:
    """Kronrod value, error estimate and integral of |f| of one GK15 panel."""
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
    return kron, max(err, 50.0 * _EPS * resabs), resabs


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                       spec: QuadratureSpec = DEFAULT_SPEC) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod integration of ``f`` over [lo, hi], finite, lo < hi.

    The worst panel (largest error estimate) is bisected until the summed
    error meets ``spec`` relative to the integral of |f|, which is |value|
    where f keeps one sign and stays finite where the value cancels to zero,
    at most ``_MAX_BISECTIONS`` times. Of panels with
    equal error estimates the oldest is bisected first, so a run of ties
    refines breadth-first, left to right. Returns ``(value, error_estimate)``.
    """
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"integrate_adaptive needs finite lo < hi: got [{lo}, {hi}]")
    val, err, mag = _eval_panel(f, lo, hi)
    total_val, total_err, total_abs = val, err, mag
    # (err, lo, hi, val, mag), mag the panel's integral of |f|, in the order
    # made; max() returns the first maximum
    panels = [(err, lo, hi, val, mag)]
    for _ in range(_MAX_BISECTIONS):
        if total_err <= spec.tolerance(total_abs):
            break
        perr, plo, phi, pval, pmag = worst = max(panels, key=itemgetter(0))
        panels.remove(worst)
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:
            # interval at floating point resolution, keep its estimate
            panels.append((0.0, plo, phi, pval, pmag))
            continue
        lval, lerr, lmag = _eval_panel(f, plo, mid)
        rval, rerr, rmag = _eval_panel(f, mid, phi)
        total_val += lval + rval - pval
        total_err += lerr + rerr - perr
        total_abs += lmag + rmag - pmag
        panels += [(lerr, plo, mid, lval, lmag), (rerr, mid, phi, rval, rmag)]
    if total_err > spec.tolerance(total_abs):
        raise ConvergenceError(
            f"adaptive quadrature did not reach tolerance on [{lo}, {hi}]: "
            f"error {total_err:.3e} on value {total_val:.6e}",
            estimate=total_val,
            error_estimate=total_err,
        )
    return total_val, total_err


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


def _mirror(x_half: list[float], w_half: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of an even-order Gauss-Legendre rule on [-1, 1].

    ``x_half`` lists its positive nodes from the outside in and ``w_half``
    their weights; the rule is symmetric about 0.
    """
    x, w = np.array(x_half), np.array(w_half)
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


# Gauss-Legendre rules of the oscillatory grid. The values are exactly the
# float64 output of numpy.polynomial.legendre.leggauss(24) and leggauss(16),
# written as their shortest repr; that output is exactly symmetric, so the
# mirrored tables are bit-identical to it, which
# tests/test_numerics.py::test_gauss_legendre_tables_match_leggauss pins.
# Constants spare every process the numpy.polynomial import and two eigensolves.
_GL24 = _mirror(
    [0.9951872199970213, 0.9747285559713095, 0.9382745520027328, 0.8864155270044011,
     0.820001985973903, 0.7401241915785544, 0.6480936519369755, 0.5454214713888396,
     0.4337935076260451, 0.3150426796961634, 0.1911188674736163, 0.06405689286260563],
    [0.01234122979998869, 0.02853138862893356, 0.04427743881741941, 0.05929858491543636,
     0.07334648141108016, 0.0861901615319532, 0.09761865210411393, 0.10744427011596556,
     0.11550566805372552, 0.1216704729278033, 0.12583745634682825, 0.12793819534675202])
_GL16 = _mirror(
    [0.9894009349916499, 0.9445750230732326, 0.8656312023878318, 0.755404408355003,
     0.6178762444026438, 0.45801677765722737, 0.2816035507792589, 0.09501250983763744],
    [0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
     0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864])
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


@functools.lru_cache(maxsize=1)
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

    Memoised for the last ``b``: one ``d_integral`` call evaluates all its
    panels at one ``b``, and calls do not interleave. Both arrays are
    read-only, so an envelope cannot corrupt the cached grid.
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
