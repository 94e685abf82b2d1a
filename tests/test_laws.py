"""Constitutive laws and their Kirchhoff transforms.

Reference values are frozen from independent adaptive quadrature
(scipy.integrate.quad) and closed-form evaluation. The oracle of a
transform is ``quad`` of D, and that of an inverse is ``brentq`` on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import mdtube.laws
from mdtube.laws import (ConstantLaw, ExponentialLaw, TabulatedLaw,
                         VanGenuchtenLaw)

LOAM_PERMEABILITY = 5.89912e-13


def kinks(law):
    """Where D(u) has a kink, for the oracle to split its interval."""
    if isinstance(law, TabulatedLaw):
        return tuple(law.u_samples)
    if isinstance(law, VanGenuchtenLaw):
        return (law._u_floor,)
    if isinstance(law, ExponentialLaw):
        return (law.u_c,)
    return ()


def quad_transform(law, u):
    """Adaptive-quadrature oracle for T(u), split at interior kinks."""
    pts = [c for c in kinks(law) if min(u, 0.0) < c < max(u, 0.0)] or None
    val, est = quad(lambda x: float(law.eval(x)), 0.0, u, points=pts,
                    limit=200, epsabs=1e-18, epsrel=1e-13)
    return val, est


def quad_inverse(law, psi):
    """Oracle for T^-1(psi): brentq on ``quad_transform``, bracketed by
    doubling from [-1, 1]."""
    g = lambda u: quad_transform(law, u)[0] - psi
    lo, hi = -1.0, 1.0
    while g(lo) > 0.0:
        lo *= 2.0
    while g(hi) < 0.0:
        hi *= 2.0
    return brentq(g, lo, hi, xtol=1e-14, rtol=1e-15)


def assert_tails_match_oracle(law, us):
    """``law`` against the quadrature oracle far beyond its kinks, 1e-12
    relative. The inverse is compared in the transform's scale,
    |du| D <= 1e-12 |psi|: on a d_min tail 1/D magnifies the oracle's own
    quadrature error (a few 1e-15 of T)."""
    for u in us:
        psi = quad_transform(law, u)[0]
        assert float(law.transform(np.float64(u))) == pytest.approx(
            psi, rel=1e-12, abs=0.0)
        u_ref = quad_inverse(law, psi)
        u_tab = float(law.inverse_transform(np.float64(psi)))
        assert abs(u_tab - u_ref) * float(law.eval(u_ref)) <= 1e-12 * abs(psi)
        # the affine tail inverts itself to rounding
        back = float(law.inverse_transform(law.transform(np.float64(u))))
        assert back == pytest.approx(u, rel=1e-12, abs=0.0)


def count_quadrature(monkeypatch):
    calls = []
    real = mdtube.laws.tanh_sinh_piecewise_cumulative

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(mdtube.laws, "tanh_sinh_piecewise_cumulative",
                        counting)
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

    @pytest.mark.parametrize("name, value", [
        ("k_perm", -5.9e-13), ("mu", 0.0), ("alpha", -4.077e-4),
        ("eps", 0.0), ("eps", 2.0)],
        ids=["k_perm", "mu", "alpha", "eps_zero", "eps_above_one"])
    def test_rejects_bad_parameters(self, name, value):
        # each once failed late or obscurely: negative D, a division by
        # zero, NaN in the floor search, a table of 9.9e12 nodes, or a
        # floor bracket with no sign change
        params = {"k_perm": LOAM_PERMEABILITY, name: value}
        with pytest.raises(ValueError, match=name):
            VanGenuchtenLaw(**params)

    @pytest.mark.parametrize("params", [
        {}, {"eps": 1e-4, "n": 2.0}, {"eps": 1e-8, "lam": 1.0},
        {"eps": 0.5}, {"eps": 0.999999}],
        ids=["loam", "eps_1e-4_n_2", "eps_1e-8", "eps_half", "eps_near_one"])
    def test_floor_is_the_root_of_k_r_minus_eps(self, params):
        # k_r crosses eps within the bisection's tolerance of the floor;
        # near eps = 1 the root lies in the first decade, above -1 Pa
        law = VanGenuchtenLaw(LOAM_PERMEABILITY, **params)
        a, tol = law._u_floor, mdtube.laws._FLOOR_TOLERANCE
        k_r = law.relative_permeability
        assert k_r(a - 0.5 * tol) <= law.eps < k_r(a + 0.5 * tol)

    def test_floor_out_of_reach_raises(self):
        # with n near 1, k_r decays too slowly to reach a tiny eps
        with pytest.raises(ValueError, match="larger eps"):
            VanGenuchtenLaw(LOAM_PERMEABILITY, n=1.01, eps=1e-30)

    def test_table_round_trip(self, loam):
        # the inverse magnifies interpolation error by 1/D, so the bound
        # is set by the flat d_min branch; 0.5 Pa on a 1e6 Pa range
        table = loam.table
        assert table.roundtrip_error < 0.5
        u = np.linspace(-9e5, 9e3, 401)
        back = loam.inverse_transform(loam.transform(u))
        assert np.max(np.abs(back - u)) < 0.5
        # far from the floor the table is much tighter
        u = np.linspace(-5e4, 0.0, 101)
        back = loam.inverse_transform(loam.transform(u))
        assert np.max(np.abs(back - u)) < 1e-4

    def test_table_tails_match_quadrature(self, loam):
        assert_tails_match_oracle(loam, (-1e8, -2e6, 5e4, 1e6))

    def test_table_tails_need_no_quadrature(self, loam, monkeypatch):
        # the table is built once, with the law
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
        table = loam.table
        assert table.d_lo == loam.d_min and table.d_hi == loam.d_sat
        # evenly spaced from the floor kink to 0, both kinks exact nodes,
        # and one node beyond each
        assert table.u[0] < loam._u_floor == table.u[1]
        assert table.u[-2] == 0.0 < table.u[-1]
        du = np.diff(table.u)
        assert np.max(du) <= mdtube.laws._TABLE_SPACING
        np.testing.assert_allclose(du, du[1], rtol=1e-9)
        assert table.u.size <= 7171
        assert table.roundtrip_error < 0.1

    def test_table_extends_to_kinks(self):
        # the floor kink moves with the parameters, and the table with it
        law = VanGenuchtenLaw(LOAM_PERMEABILITY, eps=1e-4, n=2.0)
        table = law.table
        assert -3.0e4 < law._u_floor == table.u[1]
        assert table.u[-2] == 0.0
        assert np.max(np.diff(table.u)) <= mdtube.laws._TABLE_SPACING
        # the node values are cumulative quadrature, as exact as the oracle
        for u in table.u[[0, 1, table.u.size // 3, -3, -1]]:
            ref, est = quad_transform(law, u)
            assert abs(table.psi_of_u(u) - ref) <= max(1e-12 * abs(ref), est)
        assert_tails_match_oracle(law, (-1e8, -2e6, 5e4, 1e6))

    def test_lookup_is_interp_plus_tails_bit_for_bit(self, loam):
        # transform and transform_and_slope return the bits of np.interp
        # on the nodes plus the two tail terms, and the slope of the piece
        # that holds u: its secant inside the nodes, d_lo and d_hi beyond
        table = loam.table
        rng = np.random.default_rng(30)
        u = np.concatenate([rng.uniform(-2e6, 2e4, 200_000), table.u,
                            [loam._u_floor, 0.0, -0.0]])

        def interp_plus_tails(u):
            return (np.interp(u, table.u, table.psi)
                    + table.d_lo * np.minimum(u - table.u[0], 0.0)
                    + table.d_hi * np.maximum(u - table.u[-1], 0.0))

        expect = interp_plus_tails(u)
        psi, slope = loam.transform_and_slope(u)
        assert psi.tobytes() == expect.tobytes()
        assert loam.transform(u).tobytes() == expect.tobytes()
        for value in map(np.float64, (loam._u_floor, 0.0, -0.0, -60.0, -3e6,
                                      5e4)):
            assert (loam.transform(value).tobytes()
                    == loam.transform_and_slope(value)[0].tobytes()
                    == interp_plus_tails(value).tobytes())
        # a node starts the piece above it
        piece = np.searchsorted(table.u, u, side="right")
        inside = (piece > 0) & (piece < table.u.size)
        j = piece[inside]
        secant = ((table.psi[j] - table.psi[j - 1])
                  / (table.u[j] - table.u[j - 1]))
        assert slope[inside].tobytes() == secant.tobytes()
        assert np.all(slope[u < table.u[0]] == table.d_lo)
        assert np.all(slope[u >= table.u[-1]] == table.d_hi)
        assert np.any(u < table.u[0]) and np.any(u > table.u[-1])

    def test_far_extension_at_fine_spacing_raises(self, monkeypatch):
        # 0.05 Pa spacing across the 7.2e4 Pa between the kinks: 1.4e6 nodes
        monkeypatch.setattr(mdtube.laws, "_TABLE_SPACING", 0.05)
        with pytest.raises(ValueError, match="more than 1e6"):
            VanGenuchtenLaw(LOAM_PERMEABILITY, mu=1e-3)

    def test_coarse_table_raises(self, monkeypatch):
        # 1 kPa spacing leaves the floor region a few nodes wide
        monkeypatch.setattr(mdtube.laws, "_TABLE_SPACING", 1.0e3)
        with pytest.raises(RuntimeError, match="round trip"):
            VanGenuchtenLaw(LOAM_PERMEABILITY, mu=1e-3)


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
        # the closed form, with no table, on its tails and inside its pieces
        calls = count_quadrature(monkeypatch)
        law = TabulatedLaw(np.array([-2.0, 0.0, 1.0]),
                           np.array([0.5, 1.5, 1.0]))
        assert law.table is None
        assert_tails_match_oracle(law, (-1e3, -10.0, 5.0, 1e3))
        assert_tails_match_oracle(law, (-1.5, -0.25, 0.5, 0.9))
        assert calls == []

    def test_table_anchors_on_a_tail(self):
        # 0 lies on the lower tail: T(1) = 0.5 exactly
        law = TabulatedLaw(np.array([1.0, 2.0]), np.array([0.5, 1.5]))
        assert float(law.transform(np.float64(1.0))) == 0.5
        assert float(law.transform(np.float64(0.0))) == 0.0
        assert_tails_match_oracle(law, (-1e3, 0.5, 1.5, 1e3))

    def test_inverse_round_trip(self):
        # pieces with rising and falling D, across 0 and both tails
        law = TabulatedLaw(np.array([-3.0, -1.0, 0.5, 2.0]),
                           np.array([2.0, 0.1, 4.0, 0.3]))
        u = np.linspace(-10.0, 10.0, 401)
        psi = law.transform(u)
        assert np.all(np.diff(psi) > 0.0)
        assert np.max(np.abs(law.inverse_transform(psi) - u)) < 1e-13

    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedLaw(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            TabulatedLaw(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


@pytest.mark.parametrize("law", [
    ConstantLaw(2.5), ExponentialLaw(d0=0.5, k=1.0, d_min=1e-6),
    ExponentialLaw(d0=0.5, k=5.0, d_min=0.4),
    TabulatedLaw(np.array([-3.0, -1.0, 0.5, 2.0]),
                 np.array([2.0, 0.1, 4.0, 0.3]))],
    ids=["constant", "exponential", "exponential_kink_above_0", "tabulated"])
def test_closed_form_transform_and_slope_are_transform_and_eval(law):
    u = np.random.default_rng(3).uniform(-20.0, 5.0, 1000)
    psi, d = law.transform_and_slope(u)
    assert psi.tobytes() == np.asarray(law.transform(u)).tobytes()
    assert d.tobytes() == np.asarray(law.eval(u)).tobytes()


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
