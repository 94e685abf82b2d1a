"""Interface reconstruction from the regularized bulk field."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from mdtube.laws import (ConstantLaw, ExponentialLaw, TabulatedLaw,
                         VanGenuchtenLaw)
from mdtube.reconstruction import (Interface, ReconstructionError,
                                   kernel_profile_f, reconstruct_interface)


class TestKernelProfile:
    def test_continuous_at_support_boundary(self):
        radius, rho = 0.01, 0.05
        inside = kernel_profile_f(rho - 1e-12, radius, rho)
        outside = kernel_profile_f(rho + 1e-12, radius, rho)
        assert abs(inside - outside) < 1e-10

    def test_logarithmic_outside(self):
        radius, rho = 0.01, 0.05
        d = 0.2
        assert kernel_profile_f(d, radius, rho) == pytest.approx(
            np.log(d / radius) / (2.0 * np.pi), rel=1e-14)

    def test_zero_at_wall_in_unregularized_limit(self):
        assert kernel_profile_f(0.01, 0.01, 0.01) == pytest.approx(
            0.0, abs=1e-15)

    def test_centerline_value(self):
        radius, rho = 0.01, 0.05
        expect = (np.log(rho / radius) - 0.5) / (2.0 * np.pi)
        assert kernel_profile_f(0.0, radius, rho) == pytest.approx(expect)

    def test_kernel_smaller_than_tube_rejected(self):
        with pytest.raises(ValueError):
            kernel_profile_f(0.1, 0.02, 0.01)
        with pytest.raises(ValueError, match="smaller than tube radius"):
            Interface(tube_radius=0.02, kernel_radius=0.01, delta=0.0,
                      gamma=1.0, law=ConstantLaw(1.0))


def make_interface(delta=0.0, law=None, gamma=1.0):
    return Interface(tube_radius=0.01, kernel_radius=0.05, delta=delta,
                     gamma=gamma, law=law or ExponentialLaw(d0=0.5, k=1.0))


def solve_at(interface, u_delta, u_e, **kwargs):
    """``reconstruct_interface`` at a bulk sample given by its physical
    value ``u_delta``."""
    psi_bar = interface.law.transform(np.asarray(u_delta, float))
    return reconstruct_interface(interface, psi_bar, u_e, **kwargs)


class TestReconstruction:
    def test_constant_law_closed_form(self):
        # with D = const the interface equation is linear:
        # u_hat = (D u_delta + pf u_e) / (D + pf)
        law = ConstantLaw(2.0)
        iface = make_interface(law=law, delta=0.02)
        u_hat, q, _, _ = solve_at(iface, 0.4, 0.1)
        pf = iface.coupling_factor
        expect = (2.0 * 0.4 + pf * 0.1) / (2.0 + pf)
        assert u_hat == pytest.approx(expect, rel=1e-12)
        assert q == pytest.approx(-iface.perimeter * (u_hat - 0.1),
                                  rel=1e-12)

    def test_residual_vanishes_at_root(self):
        iface = make_interface(delta=0.03)
        law = iface.law
        psi_bar = law.transform(np.float64(0.4))
        u_hat = reconstruct_interface(iface, psi_bar, 0.1)[0]
        resid = (psi_bar - law.transform(np.float64(u_hat))
                 - iface.coupling_factor * (u_hat - 0.1))
        assert abs(resid) < 1e-12

    def test_equal_values_fixed_point(self):
        u_hat, q, _, _ = solve_at(make_interface(), 0.25, 0.25)
        assert u_hat == pytest.approx(0.25, abs=1e-12)
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_source_sign_follows_pressure_difference(self):
        iface = make_interface()
        _, q, _, _ = solve_at(iface, 0.1, 0.8)
        assert q > 0.0          # tube feeds the bulk
        _, q, _, _ = solve_at(iface, 0.8, 0.1)
        assert q < 0.0

    def test_invalid_delta_rejected(self):
        with pytest.raises(ValueError):
            make_interface(delta=0.05)   # delta must stay inside the kernel

    def test_narrow_kernel_warns(self):
        with pytest.warns(UserWarning, match="uniqueness"):
            Interface(tube_radius=0.04, kernel_radius=0.05, delta=0.0,
                      gamma=1.0, law=ConstantLaw(1.0))


class TestDerivatives:
    @pytest.mark.parametrize("delta", [0.0, 0.03])
    def test_match_finite_differences(self, delta):
        iface = make_interface(delta=delta)
        psi_bar, u_e = iface.law.transform(np.float64(0.4)), 0.1
        _, _, d_psi, d_ue = reconstruct_interface(iface, psi_bar, u_e)
        eps = 1e-7
        for index, analytic in ((0, d_psi), (1, d_ue)):
            args = [psi_bar, u_e]
            args[index] += eps
            up = reconstruct_interface(iface, *args)[1]
            args[index] -= 2.0 * eps
            um = reconstruct_interface(iface, *args)[1]
            fd = (up - um) / (2.0 * eps)
            assert analytic == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("u_near", [-60.0, -504.0])
    def test_exact_for_the_tabled_law(self, u_near):
        # a and b are the implicit-function derivatives of the equation in
        # the tabled T, whose slope inside a piece is its secant: steps
        # that keep u_hat in its piece, where q is affine, make central
        # differences exact but for rounding. D(u_hat) differs from the
        # secant by 1.1 % (at -60 Pa) and 0.6 % (-504 Pa), u_hat lying
        # 0.06 and 0.09 of a piece above a node
        law = VanGenuchtenLaw(5.89912e-13)
        iface = Interface(tube_radius=5e-4, kernel_radius=1.5e-3,
                          delta=1e-3, gamma=2e-11, law=law)
        table, pf = law.table, iface.coupling_factor
        j = np.searchsorted(table.u, u_near)
        secant = ((table.psi[j] - table.psi[j - 1])
                  / (table.u[j] - table.u[j - 1]))
        room = min(u_near - table.u[j - 1], table.u[j] - u_near)
        u_e = u_near - 2e3
        psi_bar = float(law.transform(u_near)) + pf * (u_near - u_e)
        u_hat, _, d_psi, d_ue = reconstruct_interface(iface, psi_bar, u_e)
        assert abs(u_hat - u_near) < 1e-3 * room
        for index, analytic, h in ((0, d_psi, 0.5 * room * (secant + pf)),
                                   (1, d_ue, 0.5 * room)):
            args = [psi_bar, u_e]
            args[index] += h
            up_u, up, _, _ = reconstruct_interface(iface, *args)
            args[index] -= 2.0 * h
            um_u, um, _, _ = reconstruct_interface(iface, *args)
            assert table.u[j - 1] < min(up_u, um_u) <= max(up_u, um_u) < (
                table.u[j])
            fd = (up - um) / (2.0 * h)
            assert analytic == pytest.approx(fd, rel=1e-5)

    def test_derivatives_sum_below_one(self):
        # the interface value is a weighted interpolation between bulk
        # sample and tube value: du_hat/dpsi_bar = -(dq/dpsi_bar) / |P|
        # gamma and du_hat/du_e = 1 - (dq/du_e) / |P| gamma, both positive
        # and the second below one
        iface = make_interface(delta=0.02)
        _, _, d_psi, d_ue = solve_at(iface, 0.4, 0.1)
        pg = iface.perimeter * iface.gamma
        assert d_psi < 0.0 and d_ue < pg
        assert d_ue > 0.0


class TestArrayInputs:
    """One call over many segment cells equals one call per cell, and
    Brent's method on the scalar equation."""

    @staticmethod
    def check_elementwise(law, u_delta, u_e, delta, tube_radius):
        n = len(u_delta)
        gamma = np.linspace(0.5, 2.0, n)
        psi_bar = law.transform(np.asarray(u_delta, float))
        iface = Interface(tube_radius=np.asarray(tube_radius, float),
                          kernel_radius=np.full(n, 0.05),
                          delta=np.asarray(delta, float), gamma=gamma,
                          law=law)
        got = reconstruct_interface(iface, psi_bar, np.asarray(u_e, float))
        assert all(x.shape == (n,) for x in got)
        for j in range(n):
            one = Interface(tube_radius=tube_radius[j], kernel_radius=0.05,
                            delta=delta[j], gamma=float(gamma[j]), law=law)
            expect = reconstruct_interface(one, psi_bar[j], u_e[j])
            assert all(isinstance(x, float) for x in expect)
            lo, hi = sorted((u_delta[j], u_e[j]))
            pad = 1e-3 * max(1.0, abs(lo), abs(hi))
            brent = brentq(lambda u: float(
                psi_bar[j] - law.transform(u)
                - one.coupling_factor * (u - u_e[j])),
                lo - pad, hi + pad, xtol=1e-15, rtol=8.9e-16)
            assert expect[0] == pytest.approx(brent, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose([x[j] for x in got], expect,
                                       rtol=1e-14, atol=0.0)
        return got[0]

    def test_brackets_straddling_the_exponential_kink(self):
        law = ExponentialLaw(d0=0.5, k=1.0)      # kink u_c = -12.12
        u_delta = [-14.0, -10.0, -12.2, 0.4, -12.122363377404328, 1.0]
        u_e = [-10.0, -14.0, -12.0, 0.1, -11.0, 1.0]
        u_hat = self.check_elementwise(law, u_delta, u_e,
                                       [0.0, 0.01, 0.02, 0.03, 0.04, 0.0],
                                       [0.01, 0.01, 0.02, 0.005, 0.01, 0.01])
        lo = np.minimum(u_delta, u_e)
        hi = np.maximum(u_delta, u_e)
        assert np.all((lo <= u_hat) & (u_hat <= hi))
        assert u_hat[-1] == 1.0                  # equal inputs: fixed point

    def test_brackets_straddling_the_van_genuchten_floor(self):
        law = VanGenuchtenLaw(5.89912e-13)       # floor near -7.24e4 Pa
        floor = law._u_floor
        u_delta = [2.0 * floor, 0.5 * floor, floor, -2.2e4]
        u_e = [0.5 * floor, 2.0 * floor, 0.9 * floor, -1.0e5]
        self.check_elementwise(law, u_delta, u_e, [0.0, 0.01, 0.02, 0.0],
                               [0.01, 0.01, 0.01, 0.005])

    def test_newton_cycle_on_non_monotone_law_is_broken(self):
        # D with a dip and two peaks: from these inputs plain Newton cycles
        # between -1.234 and 0.273, both inside the padded bracket
        law = TabulatedLaw(np.linspace(-1.0, 1.0, 9), np.array(
            [3e-4, 1e-4, 1e-2, 3e-4, 0.2, 0.02, 0.02, 0.3, 7e-3]))
        iface = make_interface(law=law, gamma=1.5)
        psi_bar = law.transform(-1.2)
        u_hat = reconstruct_interface(iface, psi_bar, 0.3)[0]
        assert -1.2 < u_hat < 0.3
        resid = (psi_bar - law.transform(u_hat)
                 - iface.coupling_factor * (u_hat - 0.3))
        assert abs(resid) < 1e-15

    def test_rounding_bound_newton_ends_on_its_bracket(self):
        # psi ~ 5 where D = 1e-6: rounding in g moves each Newton step by
        # ~1e-9, far above tol, until the bracket closes round the root
        law = TabulatedLaw(np.array([0.0, 0.5, 0.6, 2.0]),
                           np.array([10.0, 10.0, 1e-6, 1e-6]))
        iface = make_interface(law=law, gamma=1e-6)
        u_hat = solve_at(iface, 1.5, 0.8)[0]
        pf = iface.coupling_factor      # g is linear on the D = 1e-6 stretch
        assert u_hat == pytest.approx((1e-6 * 1.5 + pf * 0.8) / (1e-6 + pf),
                                      abs=1e-8)

    def test_iteration_budget_and_bad_input_raise(self):
        iface = make_interface()
        psi_bar = iface.law.transform(np.array([0.4, -14.0]))
        u_e = np.array([0.1, -10.0])
        reconstruct_interface(iface, psi_bar, u_e)
        with pytest.raises(ReconstructionError, match="not solved in 1 "):
            reconstruct_interface(iface, psi_bar, u_e, max_iter=1)
        with pytest.raises(ReconstructionError, match="non-finite"):
            reconstruct_interface(iface, np.array([psi_bar[0], np.nan]), u_e)


@settings(max_examples=60, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.floats(0.0, 0.9))
def test_interface_value_between_inputs(u_delta, u_e, delta_frac):
    """The root always lies in the closed interval of its two inputs."""
    iface = make_interface(delta=0.05 * delta_frac)
    u_hat, q, _, _ = solve_at(iface, u_delta, u_e)
    lo, hi = min(u_delta, u_e), max(u_delta, u_e)
    assert lo - 1e-9 <= u_hat <= hi + 1e-9
    # source consistency
    assert q == pytest.approx(-iface.perimeter * (u_hat - u_e), rel=1e-9,
                              abs=1e-12)
