"""Tests for the tanh-sinh quadrature helpers."""

import numpy as np
import pytest

import mdtube.quadrature as quadrature
from mdtube.quadrature import (QuadratureError, tanh_sinh,
                               tanh_sinh_piecewise_cumulative)


def test_polynomial_exact():
    # cubic over [0, 2]: x^4/4 + x^2/2 evaluates to 6
    val = tanh_sinh(lambda x: x ** 3 + x, 0.0, 2.0)
    assert abs(val - 6.0) < 1e-13


def test_degenerate_interval_is_zero():
    assert tanh_sinh(np.exp, 1.3, 1.3) == 0.0


def test_reversed_bounds_flip_sign():
    fwd = tanh_sinh(np.cos, 0.0, 1.0)
    rev = tanh_sinh(np.cos, 1.0, 0.0)
    assert abs(fwd + rev) < 1e-13
    assert abs(fwd - np.sin(1.0)) < 1e-13


def test_endpoint_derivative_singularity():
    # sqrt has an infinite derivative at the left endpoint, which slows
    # polynomial rules; the double exponential substitution is unaffected
    val = tanh_sinh(np.sqrt, 0.0, 1.0)
    assert abs(val - 2.0 / 3.0) < 1e-13


@pytest.mark.parametrize("f, exact", [(np.log, -1.0),
                                      (lambda x: 1.0 / np.sqrt(x), 2.0)],
                         ids=["log", "inverse_sqrt"])
def test_integrable_singularity_at_an_end(f, exact):
    # the outer nodes lie within 1e-300 of 0 but never on it, where f is
    # infinite
    val = tanh_sinh(f, 0.0, 1.0)
    assert abs(val - exact) <= 1e-12 * abs(exact)


def test_steep_exponential():
    k = 40.0
    val = tanh_sinh(lambda x: np.exp(k * x), 0.0, 1.0)
    exact = (np.exp(k) - 1.0) / k
    assert abs(val - exact) / exact < 1e-12


@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_tolerance_is_relative_to_the_integrand(scale):
    # a Kirchhoff integral may be 1e-12 in size; its quadrature must stop
    # at the same relative accuracy as the unscaled one
    val = tanh_sinh(lambda x: scale * np.cos(x), 0.0, 1.0)
    assert abs(val - scale * np.sin(1.0)) <= 1e-14 * scale


def test_nonconvergence_raises_with_estimate():
    rng = np.random.default_rng(7)

    def noisy(x):
        return rng.standard_normal(np.shape(x))

    with pytest.raises(QuadratureError) as err:
        tanh_sinh(noisy, 0.0, 1.0, tol=1e-14, max_level=4)
    assert np.isfinite(err.value.error_estimate)


def test_cumulative_matches_adaptive():
    f = lambda x: np.exp(-x) * np.sin(3.0 * x) + 2.0
    nodes = np.linspace(-1.0, 4.0, 37)
    cum = tanh_sinh_piecewise_cumulative(f, nodes)
    assert cum[0] == 0.0
    for i in (5, 18, 36):
        ref = tanh_sinh(f, nodes[0], nodes[i])
        assert abs(cum[i] - ref) < 1e-11


def test_cumulative_monotone_for_positive_integrand():
    nodes = np.linspace(0.0, 1.0, 101)
    cum = tanh_sinh_piecewise_cumulative(lambda x: 1.0 + x * x, nodes)
    assert np.all(np.diff(cum) > 0.0)


def test_cumulative_chunked_matches_single_chunk(monkeypatch):
    # chunking over intervals must not change the per-interval sums; 1000
    # does not divide the 10,000 intervals' count, so the last chunk is
    # short
    f = lambda x: np.exp(-x) * np.sin(3.0 * x) + 2.0
    nodes = np.linspace(-1.0, 4.0, 10_001)
    monkeypatch.setattr(quadrature, "_CHUNK_INTERVALS", 10 ** 9)
    whole = tanh_sinh_piecewise_cumulative(f, nodes)
    monkeypatch.setattr(quadrature, "_CHUNK_INTERVALS", 999)
    chunked = tanh_sinh_piecewise_cumulative(f, nodes)
    assert chunked[0] == 0.0
    np.testing.assert_allclose(chunked, whole, rtol=1e-15, atol=0.0)
