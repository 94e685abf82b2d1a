"""Constitutive laws and their Kirchhoff transforms.

Reference values are frozen from independent adaptive quadrature
(scipy.integrate.quad) and closed-form evaluation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

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

    @pytest.mark.parametrize("u", [-5e4, -2e5])
    def test_transform_matches_quadrature(self, loam, u):
        ref, est = quad_transform(loam, u)
        tol = max(1e-5 * abs(ref), 10.0 * est)
        assert abs(loam.transform(np.float64(u)) - ref) < tol

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

    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedLaw(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            TabulatedLaw(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


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
