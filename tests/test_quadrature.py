"""Tests for the cumulative tanh-sinh and Gauss-Legendre rules.

The oracles are closed-form antiderivatives and scipy's adaptive
``quad``, which shares no code with the rule.
"""

import numpy as np
import pytest
from scipy.integrate import quad

import mdtube.laws
import mdtube.quadrature as quadrature
from mdtube.laws import VanGenuchtenLaw
from mdtube.quadrature import (piecewise_cumulative,
                               tanh_sinh_piecewise_cumulative)


def _rule_97():
    """The rule with all of its 97 nodes up to t = 6.1, 46 of them at the
    interval's ends."""
    t = 0.125 * np.arange(-48, 49)
    v = 0.5 * np.pi * np.sinh(t)
    return np.tanh(v), 0.125 * 0.5 * np.pi * np.cosh(t) / np.cosh(v) ** 2


def test_rule_has_no_node_at_the_ends():
    x, w = quadrature._nodes_weights()
    full_x, full_w = _rule_97()
    inside = np.abs(full_x) < 1.0
    assert x.size == 51
    np.testing.assert_array_equal(x, full_x[inside])
    np.testing.assert_array_equal(w, full_w[inside])
    assert np.all(w > 0.0)


def test_table_matches_the_97_node_rule(monkeypatch):
    # the dropped nodes carry weights below rounding: the Van Genuchten
    # table moves by rounding only
    law = VanGenuchtenLaw(5.89912e-13, mu=1e-3)
    monkeypatch.setattr(quadrature, "_nodes_weights", _rule_97)
    full = VanGenuchtenLaw(5.89912e-13, mu=1e-3)
    np.testing.assert_array_equal(law.table.u, full.table.u)
    np.testing.assert_allclose(law.table.psi, full.table.psi, rtol=1e-15,
                               atol=0.0)


def test_polynomial_exact():
    # cubic from 0: x^4/4 + x^2/2, 6 at x = 2
    nodes = np.linspace(0.0, 2.0, 9)
    cum = tanh_sinh_piecewise_cumulative(lambda x: x ** 3 + x, nodes)
    np.testing.assert_allclose(cum, nodes ** 4 / 4.0 + nodes ** 2 / 2.0,
                               rtol=0.0, atol=1e-13)


def test_degenerate_interval_is_zero():
    # a repeated node adds exactly nothing
    cum = tanh_sinh_piecewise_cumulative(np.exp, np.array([0.0, 1.3, 1.3, 2.0]))
    assert cum[0] == 0.0 and cum[2] == cum[1]


def test_reversed_bounds_flip_sign():
    nodes = np.linspace(0.0, 1.0, 5)
    fwd = tanh_sinh_piecewise_cumulative(np.cos, nodes)
    rev = tanh_sinh_piecewise_cumulative(np.cos, nodes[::-1])
    assert abs(fwd[-1] + rev[-1]) < 1e-13
    assert abs(fwd[-1] - np.sin(1.0)) < 1e-13


def test_endpoint_derivative_singularity():
    # sqrt has an infinite derivative at 0, as Van Genuchten's D has at
    # saturation; the double exponential substitution is unaffected, so
    # the interval that ends on it, at either end, is as exact as the others
    for f, antiderivative, lo in [
            (np.sqrt, lambda x: 2.0 / 3.0 * x ** 1.5, 0.0),
            (lambda x: np.sqrt(-x), lambda x: -2.0 / 3.0 * (-x) ** 1.5, -1.0)]:
        nodes = np.linspace(lo, lo + 1.0, 11)
        cum = tanh_sinh_piecewise_cumulative(f, nodes)
        np.testing.assert_allclose(
            cum, antiderivative(nodes) - antiderivative(lo), rtol=0.0,
            atol=1e-14)


def test_steep_exponential():
    k = 40.0
    nodes = np.linspace(0.0, 1.0, 6)
    cum = tanh_sinh_piecewise_cumulative(lambda x: np.exp(k * x), nodes)
    exact = (np.exp(k * nodes) - 1.0) / k
    np.testing.assert_allclose(cum, exact, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("scale", [1.0, 1e-9])
def test_tolerance_is_relative_to_the_integrand(scale):
    # a Kirchhoff integral may be 1e-12 in size; the rule must reach the
    # same relative accuracy as on the unscaled integrand
    nodes = np.linspace(0.0, 1.0, 4)
    cum = tanh_sinh_piecewise_cumulative(lambda x: scale * np.cos(x), nodes)
    np.testing.assert_allclose(cum, scale * np.sin(nodes), rtol=0.0,
                               atol=1e-14 * scale)


def test_cumulative_matches_adaptive():
    # against scipy's adaptive quad
    f = lambda x: np.exp(-x) * np.sin(3.0 * x) + 2.0
    nodes = np.linspace(-1.0, 4.0, 37)
    cum = tanh_sinh_piecewise_cumulative(f, nodes)
    assert cum[0] == 0.0
    for i in (5, 18, 36):
        ref, est = quad(f, nodes[0], nodes[i], epsabs=1e-14, epsrel=1e-13)
        assert est < 1e-12
        assert abs(cum[i] - ref) < 1e-11


def test_cumulative_monotone_for_positive_integrand():
    nodes = np.linspace(0.0, 1.0, 101)
    cum = tanh_sinh_piecewise_cumulative(lambda x: 1.0 + x * x, nodes)
    assert np.all(np.diff(cum) > 0.0)


def test_cumulative_chunked_matches_single_chunk(monkeypatch):
    # chunking over intervals must not change the per-interval sums, for
    # either rule; 999 intervals do not divide the 10,000 intervals' count,
    # so the last chunk is short
    f = lambda x: np.exp(-x) * np.sin(3.0 * x) + 2.0
    nodes = np.linspace(-1.0, 4.0, 10_001)
    for rule in (quadrature._nodes_weights(), quadrature.gauss_legendre_rule()):
        monkeypatch.setattr(quadrature, "_CHUNK_POINTS", 10 ** 9)
        whole = piecewise_cumulative(f, nodes, rule)
        monkeypatch.setattr(quadrature, "_CHUNK_POINTS", 999 * rule[0].size)
        chunked = piecewise_cumulative(f, nodes, rule)
        assert chunked[0] == 0.0
        np.testing.assert_allclose(chunked, whole, rtol=1e-15, atol=0.0)


def test_gauss_rule_is_exact_to_degree_11():
    x, w = quadrature.gauss_legendre_rule()
    assert x.size == 6 and np.all(np.abs(x) < 1.0) and np.all(w > 0.0)
    for k in range(12):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(w @ x ** k - exact) <= 4e-16
    # degree 12 is the first it misses
    assert abs(w @ x ** 12 - 2.0 / 13.0) > 1e-6


def test_gauss_panels_match_closed_forms():
    # a smooth integrand on short panels, against its antiderivative
    nodes = np.linspace(-1.0, 4.0, 201)
    cum = piecewise_cumulative(np.cos, nodes, quadrature.gauss_legendre_rule())
    np.testing.assert_allclose(cum, np.sin(nodes) - np.sin(-1.0), rtol=0.0,
                               atol=1e-14)


def test_table_matches_an_all_tanh_sinh_table(monkeypatch):
    # Gauss-Legendre where D is smooth moves the Van Genuchten table from
    # tanh-sinh on every panel by rounding only
    law = VanGenuchtenLaw(5.89912e-13, mu=1e-3)
    monkeypatch.setattr(mdtube.laws, "gauss_legendre_rule",
                        quadrature._nodes_weights)
    everywhere = VanGenuchtenLaw(5.89912e-13, mu=1e-3)
    np.testing.assert_array_equal(law.table.u, everywhere.table.u)
    psi = everywhere.table.psi
    assert np.max(np.abs(law.table.psi - psi)) <= 1e-15 * np.max(np.abs(psi))
    assert law.table.roundtrip_error == pytest.approx(
        everywhere.table.roundtrip_error, rel=1e-9)
