"""Quadrature engine checks.

The oscillatory engine is checked against closed forms and against the
unfolded sums and iterated Euler averaging of _oracles.py, which share no
code path with the folded weight product.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import necoh
from necoh import displacement, modulation
from necoh.cli import CLI_SPEC
from necoh.constants import NEON
from necoh.numerics import (
    DEFAULT_SPEC,
    GK15_GAUSS_WEIGHTS,
    GK15_KRONROD_WEIGHTS,
    GK15_NODES,
    ConvergenceError,
    QuadratureSpec,
    integrate_adaptive,
    integrate_oscillatory_batch,
    _GL16,
    _GL24,
    _MAX_BISECTIONS,
    _TAIL_PANELS,
    _euler_weights,
)
from necoh.surface import BoundState, LateralTrap

from _oracles import (euler_average, h_closed, log_kernel_ceiling_ghz,
                      oscillatory_batch_unfolded)
from test_refusals import assert_refused  # runs one row of the library refusal table

_EPS = float(np.finfo(float).eps)


# --- rule tables ---

def test_weights_sum_to_interval_length():
    # the published 16-digit literals truncate; a few 1e-15 accumulate
    assert math.fsum(GK15_KRONROD_WEIGHTS) == pytest.approx(2.0, abs=1e-13)
    assert math.fsum(GK15_GAUSS_WEIGHTS) == pytest.approx(2.0, abs=1e-13)


def test_gauss_legendre_tables_match_leggauss():
    # the oscillatory grid's rules are constants, bit-identical to numpy's
    for table, n in ((_GL24, 24), (_GL16, 16)):
        for got, want in zip(table, np.polynomial.legendre.leggauss(n), strict=True):
            assert np.array_equal(got, want)


def test_kronrod_rule_exact_through_degree_22():
    for k in range(23):
        got = float(np.sum(GK15_KRONROD_WEIGHTS * GK15_NODES ** k))
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert got == pytest.approx(want, abs=1e-13)


def test_embedded_gauss_rule_exact_through_degree_13():
    nodes = GK15_NODES[1::2]
    for k in range(14):
        got = float(np.sum(GK15_GAUSS_WEIGHTS * nodes ** k))
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert got == pytest.approx(want, abs=1e-13)


# --- adaptive integration ---

@settings(deadline=None, max_examples=60)
@given(
    coeffs=st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=6),
    lo=st.floats(-10.0, 10.0, allow_nan=False),
    width=st.floats(0.1, 5.0, allow_nan=False),
)
# the integral of 1 - 2x over [0, 1] is zero, which no relative tolerance on
# the value can meet
@example(coeffs=[1.0, -2.0], lo=0.0, width=1.0)
def test_adaptive_matches_polynomial_antiderivative(coeffs, lo, width):
    hi = lo + width
    c = np.asarray(coeffs)

    def f(x):
        return np.polynomial.polynomial.polyval(x, c)

    got, err = integrate_adaptive(f, lo, hi, DEFAULT_SPEC)
    anti = np.concatenate([[0.0], c / np.arange(1, c.size + 1)])
    want = (np.polynomial.polynomial.polyval(hi, anti)
            - np.polynomial.polynomial.polyval(lo, anti))
    m = max(abs(lo), abs(hi))
    scale = float(np.sum(np.abs(anti) * m ** np.arange(anti.size))) + 1.0
    assert abs(got - want) <= 1e-9 * scale
    assert err >= 0.0


@pytest.mark.parametrize("f, hi, abs_integral", [
    (lambda x: 1.0 - 2.0 * x, 1.0, 0.5),
    (np.sin, 2.0 * math.pi, 4.0),
], ids=["linear", "sine"])
def test_adaptive_converges_where_the_integral_cancels(f, hi, abs_integral):
    # the true value is 0, so |value| is the true error; the spec applies to
    # the integral of |f|
    got, err = integrate_adaptive(f, 0.0, hi, DEFAULT_SPEC)
    assert abs(got) <= err <= DEFAULT_SPEC.rel_tol * abs_integral


def test_adaptive_handles_log_squared_endpoint():
    got, err = integrate_adaptive(lambda x: np.log(x) ** 2, 0.0, 1.0, DEFAULT_SPEC)
    assert abs(got - 2.0) <= 10.0 * err
    assert got == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("bounds", ["nan", "inf", "minus-inf", "reversed", "empty"])
def test_adaptive_refuses_bounds_it_cannot_use(bounds, monkeypatch):
    assert_refused(f"adaptive-bounds-{bounds}", monkeypatch)


def test_convergence_error_carries_partial_state():
    calls = [0]

    def f(x):
        calls[0] += 1
        return x ** -0.9

    with pytest.raises(ConvergenceError) as info:
        integrate_adaptive(f, 0.0, 1.0, QuadratureSpec(rel_tol=1e-9))
    exc = info.value
    # one panel, then two per bisection up to the fixed budget
    assert calls[0] == 1 + 2 * _MAX_BISECTIONS
    assert exc.error_estimate > 0.0
    # int_0^1 x^-0.9 = 10; the partial estimate should be in the vicinity
    assert 5.0 < exc.estimate < 11.0


def test_adaptive_bisects_the_oldest_of_equal_errors():
    # an integrand blind to x gives sibling panels bit-identical estimates
    # that never converge, so the panel midpoints (node 7) show the order
    jagged = np.arange(15.0) % 2 + 1
    mids = []

    def f(x):
        mids.append(x[7])
        return jagged

    with pytest.raises(ConvergenceError):
        integrate_adaptive(f, 0.0, 1.0)
    # breadth-first, left to right: the dyadic midpoints level by level
    dyadic = [(2 * i + 1) / 2 ** (k + 1) for k in range(9) for i in range(2 ** k)]
    assert mids == dyadic[:1 + 2 * _MAX_BISECTIONS]


def test_rates_stay_far_inside_the_bisection_budget(monkeypatch):
    # every integrate_adaptive call of a rate, nested ones included, counted
    # through its own integrand: 1 + 2 n calls are n bisections
    bisections = []

    def counted(f, *args):
        calls = [0]

        def g(x):
            calls[0] += 1
            return f(x)

        try:
            return integrate_adaptive(g, *args)
        finally:
            bisections.append((calls[0] - 1) // 2)

    monkeypatch.setattr(displacement, "integrate_adaptive", counted)
    monkeypatch.setattr(modulation, "integrate_adaptive", counted)
    limit = log_kernel_ceiling_ghz(NEON.sound_speed, BoundState.for_material(NEON).bohr_radius)
    for f0 in np.geomspace(1e-4, 1e3):
        trap = LateralTrap.isotropic_ghz(float(f0))
        for spec in (DEFAULT_SPEC, CLI_SPEC):
            for mode in displacement.KernelMode:
                if mode is displacement.KernelMode.EXACT or f0 < limit:
                    displacement.gamma_displacement(trap, mode=mode, spec=spec)
    n_displacement = len(bisections)
    for f0 in (1.0, 6.4, 10.0):
        modulation.gamma_modulation(LateralTrap.isotropic_ghz(f0), spec=CLI_SPEC)
    assert n_displacement > 100 and len(bisections) > n_displacement
    # these rates take 13 at most; no rate measured took more than 16
    assert max(bisections) <= 32 < _MAX_BISECTIONS


def test_spec_is_one_relative_tolerance():
    assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["rel_tol"]


def test_spec_tolerance_floor():
    spec = QuadratureSpec(rel_tol=1e-6)
    assert spec.tolerance(2.0) == 2e-6
    assert spec.tolerance(-3.0) == 3e-6


# --- oscillatory integration ---

def test_oscillatory_exponential_envelope():
    # int_0^inf e^(-a x) sin(b x) dx = b / (a^2 + b^2)
    a, b = 0.2, 0.7
    want = b / (a * a + b * b)
    got, _ = integrate_oscillatory_batch(lambda x: np.exp(-a * x)[None, :], b)
    assert float(got[0]) == pytest.approx(want, rel=1e-9)


def test_oscillatory_scalar_matches_closed_form():
    # a one-dimensional envelope is the scalar case: one value, one bar
    got, err = integrate_oscillatory_batch(lambda x: (1.0 + x) ** -2, 1.0)
    want = h_closed(1.0)
    assert want == pytest.approx(0.3433779615564269, rel=1e-13)
    assert got.shape == err.shape == ()
    assert abs(float(got) - want) <= 10.0 * float(err)
    assert float(got) == pytest.approx(want, rel=1e-9)


def test_oscillatory_batch_matches_closed_form():
    def env(x):
        return 1.0 / (1.0 + x) ** 2

    for b in (0.05, 0.4, 1.0, 1.3):
        got, err = integrate_oscillatory_batch(lambda x: env(x)[None, :], b)
        want = h_closed(b)
        assert abs(float(got[0]) - want) <= float(err[0]), b
        assert float(got[0]) == pytest.approx(want, rel=1e-9)


_LOG_GRID = np.geomspace(0.01, 10.0, 13)


@pytest.mark.parametrize("spec", [DEFAULT_SPEC, QuadratureSpec(rel_tol=1e-7)],
                         ids=["default", "rel1e-7"])
@pytest.mark.parametrize("family", ["exp", "inverse-square"])
def test_oscillatory_scalar_error_bar_is_honest(family, spec):
    # e^(-a x) has the transform b / (a^2 + b^2), (1 + x)^-2 the closed
    # form h_closed(b), one scalar envelope per (a, b). The engine takes no
    # spec and raises nothing: a caller holding the spec accepts a value
    # whose bar meets spec.tolerance. Every bar covers its true error, so an
    # accepted value meets the spec for real, and no bar is inflated past
    # 1e-5 relative.
    if family == "exp":
        cases = [(lambda x, a=a: np.exp(-a * x), b, b / (a * a + b * b))
                 for a in _LOG_GRID for b in _LOG_GRID]
    else:
        cases = [(lambda x: (1.0 + x) ** -2, b, h_closed(b))
                 for b in np.geomspace(0.01, 10.0, 25)]
    for f, b, want in cases:
        got, err = (float(r) for r in integrate_oscillatory_batch(f, float(b)))
        assert abs(got - want) <= err <= 1e-5 * abs(want), (b, got, want, err)
        if err <= spec.tolerance(got):
            assert abs(got - want) <= spec.tolerance(want), (b, got, want, err)


@pytest.mark.parametrize("family", ["exp", "inverse-square"])
def test_oscillatory_batch_error_bar_is_honest(family):
    # e^(-a x) has the transform b / (a^2 + b^2), every a of the grid one row
    # of a single call per b; (1 + x)^-2 has the closed form h_closed(b).
    # Every row's error bar covers its true error, and stays below 1e-5
    # relative so that an inflated bar cannot pass.
    if family == "exp":
        cases = [(lambda x: np.exp(-np.outer(_LOG_GRID, x)), b,
                  b / (_LOG_GRID * _LOG_GRID + b * b)) for b in _LOG_GRID]
    else:
        cases = [(lambda x: (1.0 + x) ** -2, b, h_closed(b))
                 for b in np.geomspace(0.01, 10.0, 25)]
    for env, b, want in cases:
        got, err = integrate_oscillatory_batch(env, float(b))
        assert got.shape == np.shape(want), b
        assert np.all(np.abs(got - want) <= err), (b, got, want, err)
        assert np.all(err <= 1e-5 * np.abs(want)), (b, err, want)


def _euler_transform(partial):
    # the Euler transform the way integrate_oscillatory_batch folds it: the
    # weights act on the offsets of the n >= 2 partial sums from the last one
    last = partial[..., -1]
    out = (partial - last[..., None]) @ _euler_weights(partial.shape[-1])
    return last + out[..., 0], np.abs(out[..., 1])


def _alternating_partial_sums(rng, shape, n):
    # an offset plus alternating terms of slowly falling size: the partial
    # sums the tail of the oscillatory scheme produces
    k = np.arange(1, n + 1)
    terms = (-1.0) ** k * rng.uniform(0.5, 1.0, size=shape + (n,)) / k
    return rng.normal(size=shape + (1,)) + np.cumsum(terms, axis=-1)


@pytest.mark.parametrize("shape", [(), (15,), (3, 15)])
def test_euler_weights_match_iterated_averaging(shape):
    rng = np.random.default_rng(20)
    for n in range(2, 65):
        s = _alternating_partial_sums(rng, shape, n)
        value, err = _euler_transform(s)
        want_value, want_err = euler_average(s)
        assert value.shape == err.shape == shape
        ulp = np.spacing(np.max(np.abs(s), axis=-1))
        assert np.all(np.abs(value - want_value) <= 4.0 * ulp), n
        assert np.all(np.abs(err - want_err) <= 4.0 * ulp), n


def test_euler_weights_match_exact_binomial_sum():
    # value column: C(n-1, k) / 2^(n-1), the top of n - 1 averaging levels;
    # change column: that minus C(n-2, k-1) / 2^(n-2), the weight of the
    # partial sum s_k in the last entry one level earlier. Each weight is the
    # correctly rounded exact fraction.
    for n in range(2, 65):
        w = _euler_weights(n)
        assert w.shape == (n, 2) and not w.flags.writeable
        for k in range(n):
            value = Fraction(math.comb(n - 1, k), 2 ** (n - 1))
            before = Fraction(math.comb(n - 2, k - 1), 2 ** (n - 2)) if k else Fraction(0)
            assert w[k, 0] == float(value), (n, k)
            assert w[k, 1] == float(value - before), (n, k)


def test_euler_accelerates_alternating_harmonic_series_to_ln2():
    for n in range(2, 65):
        k = np.arange(1, n + 1)
        value, err = _euler_transform(np.cumsum((-1.0) ** (k + 1) / k))
        # past n ~ 45 the truncation error is below rounding, which the
        # estimate does not carry (integrate_oscillatory_batch floors it)
        assert abs(float(value) - math.log(2.0)) <= float(err) + 4.0 * _EPS, n


_S_NODES = np.geomspace(0.02, 30.0, 15)


# the oracle takes the tail panel count that production fixes
@pytest.mark.parametrize("n_tail_panels", [_TAIL_PANELS])
@pytest.mark.parametrize("env", [
    lambda x: 1.0 / (1.0 + x) ** 2,
    lambda x: (np.exp(-0.3 * x) / (1.0 + x))[None, :],
    lambda x: 1.0 / (_S_NODES[:, None] + x[None, :]) ** 2,
], ids=["(nx,)", "(1, nx)", "(15, nx)"])
def test_oscillatory_batch_folded_weights_match_unfolded_sums(env, n_tail_panels):
    # the cached weight product against the head/tail sums, cumulative sums,
    # iterated Euler averaging and floors taken one by one. A single-row
    # product (BLAS gemv) lands up to 9 ulp of sum |w env| from the exact sum
    # on this grid, the unfolded sums within 1 ulp. The unfolded change is a
    # difference of partial sums, so it carries rounding at their scale.
    for b in np.geomspace(1e-4, 5.0, 25):
        value, err = integrate_oscillatory_batch(env, float(b))
        want_value, want_err, scale = oscillatory_batch_unfolded(env, float(b), n_tail_panels)
        ulp = np.spacing(scale)
        assert value.shape == err.shape == want_value.shape
        assert np.all(np.abs(value - want_value) <= 16.0 * ulp), b
        assert np.all(np.abs(err - want_err) <= 1e-6 * want_err + 8.0 * ulp), b


def test_oscillatory_batch_cache_hit_is_bit_identical():
    def env(x):
        return np.exp(-np.outer([0.3, 1.1], 1.0 + x))

    first = integrate_oscillatory_batch(env, 0.61803)
    again = integrate_oscillatory_batch(env, 0.61803)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def test_oscillatory_batch_grid_is_read_only():
    def writes(x):
        x[0] = 0.0
        return np.exp(-x)[None, :]

    b = 0.271828
    want = integrate_oscillatory_batch(lambda x: np.exp(-x)[None, :], b)
    with pytest.raises(ValueError):
        integrate_oscillatory_batch(writes, b)
    got = integrate_oscillatory_batch(lambda x: np.exp(-x)[None, :], b)
    for a, c in zip(want, got):
        assert np.array_equal(a, c)


@pytest.mark.parametrize("b", [0.0, -1.0, math.nan])
def test_oscillatory_batch_rejects_frequency_not_above_zero(b):
    with pytest.raises(ValueError, match="b must be > 0"):
        integrate_oscillatory_batch(lambda x: np.exp(-x)[None, :], b)


@pytest.mark.parametrize("env", [
    lambda x: np.exp(-np.outer(x, [1.0, 2.0])),
    lambda x: 1.0,
    lambda x: np.exp(-x)[:, None],
], ids=["transposed", "scalar", "column"])
def test_oscillatory_batch_rejects_envelope_of_wrong_shape(env):
    # the last axis must run over the abscissae
    with pytest.raises(ValueError):
        integrate_oscillatory_batch(env, 1.0)


# --- package namespace ---

def test_package_exports():
    for name in necoh.__all__:
        assert hasattr(necoh, name), name
