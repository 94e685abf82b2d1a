"""Semi-analytical reference solutions (single tube and parallel tubes)."""

import numpy as np
import pytest

import mdtube.analytic as analytic
from mdtube.analytic import (AnalyticSolveError, MultiTubeSolution, TubeSpec,
                             solve_multi_tube, tube_profiles)
from mdtube.laws import ConstantLaw, ExponentialLaw, VanGenuchtenLaw
from mdtube.reconstruction import kernel_profile_f

EXP_LAW = ExponentialLaw(d0=0.5, k=1.0)
ONE_TUBE = TubeSpec(center=(0.0, 0.0), tube_radius=0.01, kernel_radius=0.05,
                    gamma=1.0, u_e=0.1)


def three_tubes(r_max=0.2, rho_factor=2.0):
    radii = (r_max, 0.75 * r_max, 0.5 * r_max)
    centers = ((-0.5, -0.5), (0.5, -0.5), (0.0, 0.5))
    u_es = (0.3, 0.2, 0.1)
    return [TubeSpec(center=c, tube_radius=r, kernel_radius=rho_factor * r,
                     gamma=1.0, u_e=ue)
            for c, r, ue in zip(centers, radii, u_es)]


class TestSingleTube:
    """The single tube is the one-tube case of the superposition; the
    radius r is the point (r, 0)."""

    def setup_method(self):
        self.sol = solve_multi_tube([ONE_TUBE], EXP_LAW, anchor=(0, 0.5))
        self.q = float(self.sol.q[0])

    def psi(self, r):
        r = np.asarray(r, float)
        return self.sol.psi(np.stack([r, np.zeros_like(r)], axis=-1))

    def test_source_from_interface_value(self):
        assert self.q == pytest.approx(
            -2.0 * np.pi * 0.01 * (0.5 - 0.1), rel=1e-14)

    def test_transformed_profile_at_wall(self):
        # for rho > R the regularized field at the wall differs from
        # T(u_hat) by q f(R); f is the profile relative to the line source
        psi_wall = self.psi(0.01)
        f_wall = kernel_profile_f(0.01, 0.01, 0.05)
        assert psi_wall == pytest.approx(
            float(EXP_LAW.transform(np.float64(0.5))) - self.q * f_wall,
            rel=1e-14)

    def test_radial_profile_is_harmonic_outside_support(self):
        # outside the kernel the transformed variable solves the radial
        # Laplace equation: psi = A + B ln r; check three-point collinearity
        r = np.array([0.08, 0.16, 0.32])
        psi = self.psi(r)
        slope1 = (psi[1] - psi[0]) / np.log(r[1] / r[0])
        slope2 = (psi[2] - psi[1]) / np.log(r[2] / r[1])
        assert slope1 == pytest.approx(slope2, rel=1e-12)

    def test_flux_matches_source_outside_support(self):
        # total radial flux -2 pi r dpsi/dr equals q for r > rho
        r = 0.2
        eps = 1e-7
        dpsi = (self.psi(r + eps) - self.psi(r - eps)) / (2 * eps)
        assert -2.0 * np.pi * r * dpsi == pytest.approx(self.q, rel=1e-6)

    def test_u_round_trips_through_law(self):
        point = np.array([0.07, 0.0])
        assert self.sol.u(point) == pytest.approx(
            float(EXP_LAW.inverse_transform(np.float64(self.psi(0.07)))),
            rel=1e-14)


class TestMultiTube:
    def test_residual_certification(self):
        sol = solve_multi_tube(three_tubes(), EXP_LAW, anchor=(0, 0.8),
                               variant="u")
        # re-evaluate the defining equations with twice the quadrature
        assert np.max(np.abs(sol.residuals(k_ip=2 * sol.k_ip))) < 1e-8

    def test_residual_certification_psi_variant(self):
        sol = solve_multi_tube(three_tubes(), EXP_LAW, anchor=(0, 0.8),
                               variant="psi")
        assert np.max(np.abs(sol.residuals(k_ip=2 * sol.k_ip))) < 1e-8

    def test_quadrature_refinement_invariance(self):
        coarse = solve_multi_tube(three_tubes(), EXP_LAW, anchor=(0, 0.8),
                                  variant="u", k_ip=64)
        fine = solve_multi_tube(three_tubes(), EXP_LAW, anchor=(0, 0.8),
                                variant="u", k_ip=128)
        assert np.max(np.abs(coarse.u_hat - fine.u_hat)) < 1e-8
        assert abs(coarse.c_psi - fine.c_psi) < 1e-8

    def test_variants_agree_for_constant_law(self):
        # averaging u or psi commutes with a linear transform
        law = ConstantLaw(0.7)
        a = solve_multi_tube(three_tubes(), law, anchor=(0, 0.8), variant="u")
        b = solve_multi_tube(three_tubes(), law, anchor=(0, 0.8),
                             variant="psi")
        assert np.max(np.abs(a.u_hat - b.u_hat)) < 1e-12
        assert abs(a.c_psi - b.c_psi) < 1e-12

    def test_sources_invariant_under_kernel_radius(self):
        # the perimeter conditions see only the neighbor line sources, so
        # for a fixed anchor the sources do not depend on the kernel radii
        a = solve_multi_tube(three_tubes(rho_factor=2.0), EXP_LAW,
                             anchor=(0, 0.8))
        b = solve_multi_tube(three_tubes(rho_factor=3.0), EXP_LAW,
                             anchor=(0, 0.8))
        assert np.max(np.abs(a.q - b.q)) < 1e-9

    def test_single_tube_reduction(self):
        # with one tube the perimeter condition pins c_psi = T(anchor),
        # which the initial guess meets: the closed-form radial profile
        # T(u_hat) - q f(r) with q = -2 pi R gamma (u_hat - u_e)
        sol = solve_multi_tube([ONE_TUBE], EXP_LAW, anchor=(0, 0.5))
        psi_hat = float(EXP_LAW.transform(np.float64(0.5)))
        assert sol.u_hat[0] == 0.5
        assert sol.c_psi == psi_hat
        q = -2.0 * np.pi * 0.01 * 1.0 * (0.5 - 0.1)
        for p in ([0.03, 0.0], [0.0, 0.2]):
            expect = psi_hat - q * kernel_profile_f(np.linalg.norm(p), 0.01,
                                                    0.05)
            assert sol.psi(np.array(p)) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("anchor", [-100.0, -2.0e4, -1.0e5, -5.0e5])
    def test_single_tube_in_pascal_needs_no_step(self, anchor):
        # the round trip of a Van Genuchten pressure in Pa misses it by
        # more than 1e-12 (2.2e-8 at -1e5); relative to the pressure, the
        # initial guess passes the stopping test
        law = VanGenuchtenLaw(5.89912e-13)
        tube = TubeSpec(center=(0.0, 0.0), tube_radius=0.01,
                        kernel_radius=0.05, gamma=1.0, u_e=anchor - 1e4)
        sol = solve_multi_tube([tube], law, anchor=(0, anchor))
        assert sol.c_psi == float(law.transform(np.float64(anchor)))

    def test_line_search_failure_raises(self, monkeypatch):
        # a residual 1 + |c_psi| that no step from c_psi = T(0) = 0 lowers
        monkeypatch.setattr(
            analytic, "_average_residuals",
            lambda tubes, law, variant, u_hat, c_psi, points:
            np.array([1.0 + abs(c_psi)]))
        with pytest.raises(AnalyticSolveError, match="line search failed"):
            solve_multi_tube([ONE_TUBE], EXP_LAW, anchor=(0, 0.0))

    def test_bulk_field_uses_regularized_profiles(self):
        # inside a kernel support the field follows the parabolic profile,
        # i.e. it is bounded where the line source would diverge
        sol = solve_multi_tube(three_tubes(), EXP_LAW, anchor=(0, 0.8))
        center_val = sol.psi(np.array([-0.5, -0.5]))
        assert np.isfinite(center_val)

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            solve_multi_tube(three_tubes(), EXP_LAW, anchor=(0, 0.8),
                             variant="bogus")


class TestSharedProfiles:
    """The field from profiles evaluated once for many points, against
    the profiles evaluated point by point."""

    @pytest.mark.parametrize("tubes, anchor", [([ONE_TUBE], 0.5),
                                               (three_tubes(), 0.8)],
                             ids=["one_tube", "three_tubes"])
    def test_psi_matches_pointwise_evaluation(self, tubes, anchor):
        sol = solve_multi_tube(tubes, EXP_LAW, anchor=(0, anchor))
        rng = np.random.default_rng(11)
        # points anywhere, inside each kernel support and on each wall
        points = np.concatenate(
            [rng.uniform(-1.0, 1.0, (64, 2))]
            + [np.asarray(t.center) + t.kernel_radius
               * rng.uniform(-0.7, 0.7, (8, 2)) for t in tubes]
            + [analytic._perimeter_points(t, 16) for t in tubes])
        pointwise = []
        for p in points:
            value = sol.c_psi
            for tube, q in zip(tubes, sol.q):
                d = np.linalg.norm(p - np.asarray(tube.center), axis=-1)
                value -= q * kernel_profile_f(d, tube.tube_radius,
                                              tube.kernel_radius)
            pointwise.append(value)
        shared = sol.psi_of_profiles(tube_profiles(tubes, points))
        assert shared.tobytes() == np.array(pointwise).tobytes()
        assert sol.psi(points).tobytes() == shared.tobytes()
        assert [sol.psi(p) for p in points] == pointwise

    @pytest.mark.parametrize("variant", ["u", "psi"])
    def test_residuals_match_pointwise_evaluation(self, variant):
        tubes = three_tubes()
        sol = solve_multi_tube(tubes, EXP_LAW, anchor=(0, 0.8),
                               variant=variant)
        expect = []
        for i, tube in enumerate(tubes):
            psi = []
            for p in analytic._perimeter_points(tube, sol.k_ip):
                value = sol.c_psi
                for j, (other, q) in enumerate(zip(tubes, sol.q)):
                    if j != i:
                        d = np.linalg.norm(p - np.asarray(other.center),
                                           axis=-1)
                        value -= q * kernel_profile_f(
                            d, other.tube_radius, other.kernel_radius)
                psi.append(value)
            avg = (np.mean(EXP_LAW.inverse_transform(np.array(psi)))
                   if variant == "u" else
                   EXP_LAW.inverse_transform(np.float64(np.mean(psi))))
            expect.append(sol.u_hat[i] - float(avg))
        assert sol.residuals().tobytes() == np.array(expect).tobytes()
