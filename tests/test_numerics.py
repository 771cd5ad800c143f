"""Quadrature engine and special-function checks.

The Bessel comparison runs against the series/integral-representation
oracle in _oracles.py, which shares no code path with the production
routine.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import necoh
from necoh.numerics import (
    DEFAULT_SPEC,
    EULER_GAMMA,
    GK15_GAUSS_WEIGHTS,
    GK15_KRONROD_WEIGHTS,
    GK15_NODES,
    ConvergenceError,
    QuadratureSpec,
    bessel_k1,
    integrate_adaptive,
    integrate_oscillatory_batch,
    integrate_semi_infinite,
    integrate_semi_infinite_oscillatory,
    _TAIL_PANELS,
    _euler_weights,
    u_p,
)

from _oracles import euler_average, h_closed, k1_reference, oscillatory_batch_unfolded

_EPS = float(np.finfo(float).eps)


# --- rule tables ---

def test_weights_sum_to_interval_length():
    # the published 16-digit literals truncate; a few 1e-15 accumulate
    assert math.fsum(GK15_KRONROD_WEIGHTS) == pytest.approx(2.0, abs=1e-13)
    assert math.fsum(GK15_GAUSS_WEIGHTS) == pytest.approx(2.0, abs=1e-13)


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


def test_adaptive_handles_log_squared_endpoint():
    got, err = integrate_adaptive(lambda x: np.log(x) ** 2, 0.0, 1.0, DEFAULT_SPEC)
    assert abs(got - 2.0) <= 10.0 * err
    assert got == pytest.approx(2.0, rel=1e-9)


def test_semi_infinite_second_moment():
    got, err = integrate_semi_infinite(lambda s: s * s * np.exp(-2.0 * s), DEFAULT_SPEC)
    assert abs(got - 0.25) <= 10.0 * err
    assert got == pytest.approx(0.25, rel=1e-9)


def test_convergence_error_carries_partial_state():
    spec = QuadratureSpec(rel_tol=1e-9, max_subdivisions=10)
    with pytest.raises(ConvergenceError) as info:
        integrate_adaptive(lambda x: x ** -0.9, 0.0, 1.0, spec)
    exc = info.value
    assert exc.subdivisions == 10
    assert exc.error_estimate > 0.0
    # int_0^1 x^-0.9 = 10; the partial estimate should be in the vicinity
    assert 5.0 < exc.estimate < 11.0


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.5)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=5)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=10.5)


def test_spec_tolerance_floor():
    spec = QuadratureSpec(rel_tol=1e-6)
    assert spec.tolerance(2.0) == 2e-6
    assert spec.tolerance(-3.0) == 3e-6


# --- oscillatory integration ---

def test_oscillatory_scalar_matches_closed_form():
    got, err = integrate_semi_infinite_oscillatory(
        lambda x: (1.0 + x) ** -2, 1.0, DEFAULT_SPEC)
    want = h_closed(1.0)
    assert want == pytest.approx(0.3433779615564269, rel=1e-13)
    assert abs(got - want) <= 10.0 * err
    assert got == pytest.approx(want, rel=1e-9)


def test_oscillatory_exponential_envelope():
    # int_0^inf e^(-a x) sin(b x) dx = b / (a^2 + b^2)
    a, b = 0.2, 0.7
    want = b / (a * a + b * b)
    got_s, _ = integrate_semi_infinite_oscillatory(
        lambda x: np.exp(-a * x), b, DEFAULT_SPEC)
    got_b, _ = integrate_oscillatory_batch(
        lambda x: np.exp(-a * x)[None, :], b)
    assert got_s == pytest.approx(want, rel=1e-9)
    assert float(got_b[0]) == pytest.approx(want, rel=1e-9)


def test_oscillatory_batch_matches_closed_form():
    def env(x):
        return 1.0 / (1.0 + x) ** 2

    for b in (0.05, 0.4, 1.3):
        got, err = integrate_oscillatory_batch(lambda x: env(x)[None, :], b)
        want = h_closed(b)
        assert abs(float(got[0]) - want) <= float(err[0]), b
        assert float(got[0]) == pytest.approx(want, rel=1e-8)


_LOG_GRID = np.geomspace(0.01, 10.0, 13)


@pytest.mark.parametrize("spec", [DEFAULT_SPEC, QuadratureSpec(rel_tol=1e-7)],
                         ids=["default", "rel1e-7"])
@pytest.mark.parametrize("family", ["exp", "inverse-square"])
def test_oscillatory_scalar_error_bar_is_honest(family, spec):
    # e^(-a x) has the transform b / (a^2 + b^2), (1 + x)^-2 the closed
    # form h_closed(b). Each call either returns an error bar that covers
    # the true error and meets the spec, or raises with an estimate whose
    # error bar still covers the true error.
    if family == "exp":
        cases = [(lambda x, a=a: np.exp(-a * x), b, b / (a * a + b * b))
                 for a in _LOG_GRID for b in _LOG_GRID]
    else:
        cases = [(lambda x: (1.0 + x) ** -2, b, h_closed(b))
                 for b in np.geomspace(0.01, 10.0, 25)]
    for f, b, want in cases:
        try:
            got, err = integrate_semi_infinite_oscillatory(f, float(b), spec)
        except ConvergenceError as exc:
            assert exc.subdivisions == 0
            assert abs(exc.estimate - want) <= exc.error_estimate, b
        else:
            assert abs(got - want) <= err <= spec.tolerance(got), (b, got, want, err)


def test_oscillatory_scalar_refuses_spec_beyond_its_grid():
    spec = QuadratureSpec(rel_tol=1e-13)
    with pytest.raises(ConvergenceError) as info:
        integrate_semi_infinite_oscillatory(lambda x: (1.0 + x) ** -2, 1.0, spec)
    exc = info.value
    assert exc.error_estimate > spec.tolerance(exc.estimate)
    assert abs(exc.estimate - h_closed(1.0)) <= exc.error_estimate


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


def test_oscillatory_zero_frequency_is_exact_zero():
    got, err = integrate_semi_infinite_oscillatory(
        lambda x: np.exp(-x), 0.0, DEFAULT_SPEC)
    assert got == 0.0
    assert err == 0.0


def test_oscillatory_rejects_negative_frequency():
    with pytest.raises(ValueError):
        integrate_semi_infinite_oscillatory(lambda x: np.exp(-x), -1.0, DEFAULT_SPEC)


@pytest.mark.parametrize("env", [
    lambda x: np.exp(-np.outer([1.0, 2.0], x)),
    lambda x: 1.0,
    lambda x: np.exp(-x)[:, None],
], ids=["family", "scalar", "column"])
def test_oscillatory_scalar_rejects_envelope_of_wrong_shape(env):
    with pytest.raises(ValueError):
        integrate_semi_infinite_oscillatory(env, 1.0, DEFAULT_SPEC)


# --- special functions ---

def test_bessel_k1_matches_independent_oracle():
    grid = np.geomspace(1e-8, 700.0, 50)
    for x in grid:
        assert bessel_k1(float(x)) == pytest.approx(k1_reference(float(x)), rel=1e-10)


def test_bessel_k1_known_point():
    assert bessel_k1(1.0) == pytest.approx(0.6019072301972346, rel=1e-14)


def test_bessel_k1_rejects_nonpositive():
    with pytest.raises(ValueError):
        bessel_k1(0.0)
    with pytest.raises(ValueError):
        bessel_k1(-2.0)


def test_u_p_identity_at_one():
    # u_p(eta) = (1 - eta K1(eta)) / eta^2 collapses at eta = 1
    assert u_p(1.0) == pytest.approx(1.0 - bessel_k1(1.0), rel=1e-13)
    assert u_p(1.0) == pytest.approx(0.3980927698027654, rel=1e-13)


def test_u_p_series_branch_is_continuous():
    below = float(u_p(1e-3 * (1.0 - 1e-9)))
    above = float(u_p(1e-3 * (1.0 + 1e-9)))
    assert below == pytest.approx(above, rel=1e-9)


def test_u_p_small_eta_leading_form():
    eta = 1e-8
    want = -0.5 * (math.log(0.5 * eta) + EULER_GAMMA - 0.5)
    assert float(u_p(eta)) == pytest.approx(want, rel=1e-9)


def test_u_p_positive_and_decreasing():
    grid = np.geomspace(1e-10, 50.0, 300)
    vals = np.asarray(u_p(grid), dtype=float)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


# --- package namespace ---

def test_package_exports():
    for name in necoh.__all__:
        assert hasattr(necoh, name), name
    # checked by the tests, called by no rate: importable from
    # necoh.numerics, not exported by the package
    for name in ("bessel_k1", "u_p", "integrate_semi_infinite",
                 "integrate_semi_infinite_oscillatory"):
        assert name not in necoh.__all__ and not hasattr(necoh, name), name
        assert callable(getattr(necoh.numerics, name)), name
