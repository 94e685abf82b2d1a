"""Constitutive laws and their Kirchhoff transforms.

Reference values are frozen from independent adaptive quadrature
(scipy.integrate.quad) and closed-form evaluation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import mdtube.laws
from mdtube.laws import (ConstantLaw, ExponentialLaw, TabulatedLaw,
                         VanGenuchtenLaw)

LOAM_PERMEABILITY = 5.89912e-13


def quad_transform(law, u):
    """Adaptive-quadrature oracle for T(u), split at interior kinks."""
    pts = [c for c in law._breakpoints()
           if min(u, 0.0) < c < max(u, 0.0)] or None
    val, est = quad(lambda x: float(law.eval(x)), 0.0, u, points=pts,
                    limit=200, epsabs=1e-18, epsrel=1e-13)
    return val, est


def assert_tails_match_oracle(law, oracle, us):
    """The tabled ``law`` against the table-less ``oracle`` (tanh-sinh and
    brentq) far beyond the table, 1e-12 relative. The inverse is compared
    in the transform's scale, |du| D <= 1e-12 |psi|: on a d_min tail 1/D
    magnifies the oracle's own quadrature error (a few 1e-15 of T)."""
    for u in us:
        psi = float(oracle.transform(np.float64(u)))
        assert float(law.transform(np.float64(u))) == pytest.approx(
            psi, rel=1e-12, abs=0.0)
        u_ref = float(oracle.inverse_transform(np.float64(psi)))
        u_tab = float(law.inverse_transform(np.float64(psi)))
        assert abs(u_tab - u_ref) * float(law.eval(u_ref)) <= 1e-12 * abs(psi)
        # the affine tail inverts itself to rounding
        back = float(law.inverse_transform(law.transform(np.float64(u))))
        assert back == pytest.approx(u, rel=1e-12, abs=0.0)


def count_quadrature(monkeypatch):
    calls = []
    real = mdtube.laws.tanh_sinh

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(mdtube.laws, "tanh_sinh", counting)
    return calls


class TestConstantLaw:
    def test_transform_is_linear(self):
        law = ConstantLaw(2.5)
        u = np.array([-3.0, 0.0, 1.2])
        assert np.allclose(law.transform(u), 2.5 * u, rtol=0, atol=0)
        assert np.allclose(law.inverse_transform(2.5 * u), u)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantLaw(0.0)


class TestExponentialLaw:
    def test_eval_floor(self):
        law = ExponentialLaw(d0=0.5, k=1.0, d_min=1e-6)
        assert float(law.eval(1.0)) == 0.5
        assert float(law.eval(-100.0)) == 1e-6
        # kink where d0 exp(k(u-1)) meets the floor
        assert abs(law.u_c - (1.0 + np.log(2e-6))) < 1e-14

    @pytest.mark.parametrize("u", [-20.0, -5.0, 0.3, 1.7])
    def test_closed_form_transform_matches_quadrature(self, u):
        law = ExponentialLaw(d0=0.5, k=1.0, d_min=1e-6)
        ref, _ = quad_transform(law, u)
        assert abs(law.transform(np.float64(u)) - ref) < 1e-13

    def test_inverse_round_trip(self):
        law = ExponentialLaw(d0=0.5, k=1.0, d_min=1e-6)
        u = np.linspace(-30.0, 3.0, 57)
        back = law.inverse_transform(law.transform(u))
        assert np.max(np.abs(back - u)) < 1e-10

    def test_round_trip_below_kink(self):
        # the affine branch must invert exactly through the kink
        law = ExponentialLaw(d0=0.5, k=2.0, d_min=1e-4)
        for u in (law.u_c - 5.0, law.u_c, law.u_c + 5.0):
            assert abs(law.inverse_transform(law.transform(u)) - u) < 1e-10


class TestVanGenuchtenLaw:
    @pytest.fixture()
    def loam(self):
        return VanGenuchtenLaw(LOAM_PERMEABILITY, mu=1e-3)

    def test_saturated_value(self, loam):
        # K/mu at zero (and positive) pressure
        assert float(loam.eval(0.0)) == pytest.approx(5.89912e-10, rel=1e-12)
        assert float(loam.eval(50.0)) == pytest.approx(5.89912e-10, rel=1e-12)

    def test_floor_pressure(self, loam):
        # pressure where k_r drops to the 1e-6 relative floor
        assert loam._u_floor == pytest.approx(-72389.2410859, abs=1e-3)
        assert float(loam.eval(loam._u_floor - 1.0)) == pytest.approx(
            5.89912e-16, rel=1e-12)

    def test_saturation_to_pressure(self, loam):
        assert loam.saturation_to_pressure(0.4) == pytest.approx(
            -22335.00431342326, rel=1e-12)
        # inversion consistency with the forward saturation curve
        p = loam.saturation_to_pressure(0.4)
        se = float(loam.effective_saturation(p))
        theta = loam.theta_r + se * (loam.theta_s - loam.theta_r)
        assert theta / loam.theta_s == pytest.approx(0.4, rel=1e-12)

    def test_saturation_out_of_range(self, loam):
        with pytest.raises(ValueError):
            loam.saturation_to_pressure(1.5)

    def test_relative_permeability_sample(self, loam):
        # frozen from direct evaluation of the Mualem expression
        assert float(loam.relative_permeability(-1e4)) == pytest.approx(
            8.779427479519884e-4, rel=1e-12)

    @pytest.mark.parametrize("u", [-5e4, -2e5, -8e4, -2e4, -1e3, -100.0])
    def test_transform_matches_quadrature(self, loam, u):
        # integrals of 1e-8 to 1e-6 without a table, to the relative
        # accuracy of the quadrature tolerance
        ref, _ = quad_transform(loam, u)
        assert float(loam.transform(np.float64(u))) == pytest.approx(
            ref, rel=1e-12, abs=0.0)

    def test_table_round_trip(self, loam):
        # the inverse magnifies interpolation error by 1/D, so the bound
        # is set by the flat d_min branch; 0.5 Pa on a 1e6 Pa range
        table = loam.attach_table(-1.0e6, 1.0e4)
        assert table.roundtrip_error < 0.5
        u = np.linspace(-9e5, 9e3, 401)
        back = loam.inverse_transform(loam.transform(u))
        assert np.max(np.abs(back - u)) < 0.5
        # far from the floor the table is much tighter
        u = np.linspace(-5e4, 0.0, 101)
        back = loam.inverse_transform(loam.transform(u))
        assert np.max(np.abs(back - u)) < 1e-4

    def test_table_tails_match_quadrature(self, loam):
        loam.attach_table(-1.0e6, 1.0e4)
        oracle = VanGenuchtenLaw(LOAM_PERMEABILITY, mu=1e-3)
        assert_tails_match_oracle(loam, oracle, (-1e8, -2e6, 5e4, 1e6))

    def test_table_tails_need_no_quadrature(self, loam, monkeypatch):
        loam.attach_table(-1.0e6, 1.0e4)
        calls = count_quadrature(monkeypatch)
        u = np.array([-1e12, -1e8, -2e6, -1e6, -8e4, -5e4, -100.0, 0.0,
                      5e4, 1e6, 1e12])
        psi = loam.transform(u)
        back = loam.inverse_transform(psi)
        loam.inverse_transform(np.array([-1.0, 1.0]))     # far past both
        assert calls == []
        assert np.all(np.diff(psi) > 0.0)
        assert np.all(np.isfinite(back))
        assert np.all(loam.table.covers_u(u))
        assert np.all(loam.table.covers_psi(psi))

    def test_table_keeps_nodes_only_where_d_varies(self, loam):
        table = loam.attach_table(-1.0e6, 1.0e4)
        assert table.d_lo == loam.d_min and table.d_hi == loam.d_sat
        # one node beyond each kink, the kinks themselves, and between
        # them the requested grid's nodes, bitwise
        assert table.u[0] < loam._u_floor == table.u[1]
        assert table.u[-2] == 0.0 < table.u[-1]
        grid = np.linspace(-1.0e6, 1.0e4, 100_000)
        inner = table.u[(table.u != loam._u_floor) & (table.u != 0.0)]
        assert np.all(np.isin(inner, grid))
        assert inner.size == table.u.size - 2
        assert table.roundtrip_error < 0.1

    def test_table_extends_to_kinks(self, loam):
        table = loam.attach_table(-5.0e4, -1.0e3, samples=20_000)
        assert table.u[0] < loam._u_floor and table.u[-1] > 0.0
        # at the spacing of the requested grid
        grid = np.linspace(-5.0e4, -1.0e3, 20_000)
        assert np.array_equal(table.u[(table.u >= -5.0e4)
                                      & (table.u <= -1.0e3)], grid)
        for u in (-7.0e4, -2.0e2):           # beyond the requested range
            ref, est = quad_transform(loam, u)
            assert abs(loam.transform(np.float64(u)) - ref) < max(
                1e-5 * abs(ref), 10.0 * est)

    def test_far_extension_at_fine_spacing_raises(self, loam):
        # 0.001 Pa spacing across the 7e4 Pa between the kinks: 7e7 nodes
        with pytest.raises(ValueError, match="fewer samples"):
            loam.build_table(-1.0e3, -9.0e2, samples=100_000)

    def test_coarse_table_raises(self, loam):
        # 50 samples on 1e6 Pa leave the floor region a few nodes wide
        with pytest.raises(RuntimeError, match="round trip"):
            loam.build_table(-1.0e6, 1.0e4, samples=50)

    def test_table_falls_back_outside_range(self, loam):
        loam.attach_table(-1e5, 0.0)
        inside = float(loam.transform(np.float64(-5e4)))
        outside = float(loam.transform(np.float64(-2e5)))
        loam.table = None
        assert abs(inside - float(loam.transform(np.float64(-5e4)))) < 1e-12
        assert abs(outside - float(loam.transform(np.float64(-2e5)))) < 1e-12


class TestTabulatedLaw:
    def test_interpolates_and_clamps(self):
        law = TabulatedLaw(np.array([0.0, 1.0, 2.0]),
                           np.array([1.0, 3.0, 2.0]))
        assert float(law.eval(0.5)) == 2.0
        assert float(law.eval(-7.0)) == 1.0
        assert float(law.eval(9.0)) == 2.0
        assert law.d_min == 1.0

    def test_transform_against_quadrature(self):
        law = TabulatedLaw(np.array([-2.0, 0.0, 1.0]),
                           np.array([0.5, 1.5, 1.0]))
        ref, _ = quad_transform(law, -1.5)
        assert abs(law.transform(np.float64(-1.5)) - ref) < 1e-12

    def test_table_tails_match_quadrature(self, monkeypatch):
        law = TabulatedLaw(np.array([-2.0, 0.0, 1.0]),
                           np.array([0.5, 1.5, 1.0]))
        table = law.attach_table(-2.0, 1.0, samples=2_000)
        assert (table.d_lo, table.d_hi) == (0.5, 1.0)
        oracle = TabulatedLaw(law.u_samples, law.d_samples)
        assert_tails_match_oracle(law, oracle, (-1e3, -10.0, 5.0, 1e3))
        calls = count_quadrature(monkeypatch)
        law.inverse_transform(law.transform(np.linspace(-1e3, 1e3, 101)))
        assert calls == []

    def test_table_anchors_on_a_tail(self):
        # 0 lies on the lower tail: T(1) = 0.5 exactly
        law = TabulatedLaw(np.array([1.0, 2.0]), np.array([0.5, 1.5]))
        law.attach_table(1.0, 2.0, samples=2_000)
        assert float(law.transform(np.float64(1.0))) == 0.5
        assert float(law.transform(np.float64(0.0))) == 0.0
        oracle = TabulatedLaw(law.u_samples, law.d_samples)
        assert_tails_match_oracle(law, oracle, (-1e3, 0.5, 1e3))

    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedLaw(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            TabulatedLaw(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


@pytest.mark.parametrize("law", [ConstantLaw(1.0),
                                 ExponentialLaw(d0=0.5, k=1.0, d_min=1e-6)],
                         ids=["constant", "exponential"])
def test_table_needs_tails_on_both_sides(law):
    # no constant-D tail above (exponential) or none declared (constant)
    with pytest.raises(ValueError, match="tails"):
        law.build_table(-10.0, 1.0, samples=100)


@settings(max_examples=50, deadline=None)
@given(st.floats(-40.0, 5.0), st.floats(-40.0, 5.0))
def test_transform_monotone(u1, u2):
    law = ExponentialLaw(d0=0.5, k=1.0, d_min=1e-6)
    t1, t2 = law.transform(np.float64(u1)), law.transform(np.float64(u2))
    if u1 < u2:
        assert t1 <= t2
        if u2 - u1 > 1e-12:                   # strict beyond rounding
            assert t1 < t2
    elif u1 == u2:
        assert t1 == t2


@settings(max_examples=50, deadline=None)
@given(st.floats(-10.5, 5.0))
def test_transform_derivative_matches_eval(u):
    # dT/du = D by construction; finite differences of the closed-form
    # transform must recover the coefficient away from the floor kink
    law = ExponentialLaw(d0=0.5, k=1.0, d_min=1e-6)
    h = 1e-5
    fd = (law.transform(np.float64(u + h))
          - law.transform(np.float64(u - h))) / (2.0 * h)
    assert fd == pytest.approx(float(law.eval(u)), rel=1e-5)


def test_transform_derivative_on_floor_branch():
    law = ExponentialLaw(d0=0.5, k=1.0, d_min=1e-6)
    u, h = law.u_c - 10.0, 0.1
    fd = (law.transform(np.float64(u + h))
          - law.transform(np.float64(u - h))) / (2.0 * h)
    assert fd == pytest.approx(law.d_min, rel=1e-6)
