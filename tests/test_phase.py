import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup.model import Params, hyperbola_equilibrium, hyperbola_phi_max
from blowup.phase import (PhaseState, critical_points, cylinder_flux,
                          cylinder_point, cylinder_value, from_phase,
                          invariant_K, jacobian_main, main_rhs,
                          normal_form_p3, p2_outgoing_eigenvector,
                          p3_spiral_diagnostic, taylor_coeffs_p3, to_phase,
                          vf_main)

from alt_phase import AltPhaseState, vf_alt

P21 = Params(m=2.0, sigma=1.0)


class TestVectorFields:
    def test_p0_p3_are_critical(self):
        for p in (Params(2.0, 1.0), Params(3.0, 0.5)):
            assert vf_main(p, PhaseState(0.0, p.h0, 0.0)) == \
                pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
            assert vf_main(p, PhaseState(0.0, 0.0, 1.0)) == (0.0, 0.0, 0.0)

    def test_direct_value(self):
        dX, dY, dZ = vf_main(P21, PhaseState(1.0, 1.0, 1.0))
        assert (dX, dY, dZ) == pytest.approx((-0.5, -1.5, 2.0))

    @settings(max_examples=500, deadline=None)
    @given(m=st.floats(1.01, 10.0), sigma=st.floats(0.0, 5.0),
           X=st.floats(0.0, 1e3), Y=st.floats(-1e3, 1e3),
           Z=st.floats(0.0, 1e3))
    def test_vf_main_is_the_integrator_rhs(self, m, sigma, X, Y, Z):
        p = Params(m, sigma)
        got = vf_main(p, PhaseState(X, Y, Z))
        ref = main_rhs(p)(0.0, [X, Y, Z])
        assert [float(v).hex() for v in got] == [float(v).hex() for v in ref]

    def test_alt_critical_halfline(self):
        for z in (0.5, 1.0, 7.0):
            assert vf_alt(P21, AltPhaseState(0.0, 0.0, z)) == (0.0, 0.0, 0.0)

    def test_alt_direct_values(self):
        assert vf_alt(P21, AltPhaseState(1.0, 0.0, 1.0)) == \
            pytest.approx((0.0, 0.0, 2.0))
        assert vf_alt(Params(2.0, 2.0), AltPhaseState(1.0, 1.0, 0.0)) == \
            pytest.approx((2.0, -1.0, 2.0))

    def test_alt_system_consistency_along_profile(self):
        # x = f^(m-1), y = f^(m-2) f', z = xi with dxi/deta = m x must satisfy
        # the alternative system; check dy/deta = -m y^2 + x/(m-1) - z^sigma x^2
        # by finite differences along a computed profile
        from blowup.shooting import shoot_forward
        params = Params(2.0, 0.5)
        prof, _ = shoot_forward(params, 1.5, xi_max=5.0, dense_dx=1e-4)
        m = params.m
        i = np.searchsorted(prof.xi, 1.0)
        f = prof.f
        fp = prof.fprime
        x = f ** (m - 1.0)
        y = f ** (m - 2.0) * fp
        dy_dxi = (y[i + 1] - y[i - 1]) / (prof.xi[i + 1] - prof.xi[i - 1])
        dy_deta = dy_dxi * m * x[i]
        expected = (-m * y[i] ** 2 + x[i] / (m - 1.0)
                    - prof.xi[i] ** params.sigma * x[i] ** 2)
        assert dy_deta == pytest.approx(expected, rel=1e-5)


class TestPhaseMap:
    def test_equilibrium_hyperbola_maps_to_unit_z(self):
        for p in (P21, Params(3.0, 0.5)):
            for xi in (0.5, 1.0, 4.0):
                f = hyperbola_equilibrium(p, xi)
                s = to_phase(p, xi, f, 0.0)
                assert s.Z == pytest.approx(1.0, rel=1e-12)

    def test_phi_max_hyperbola_maps_to_z_one_over_m(self):
        for p in (P21, Params(3.0, 2.0)):
            for xi in (0.5, 2.0):
                f = hyperbola_phi_max(p, xi)
                s = to_phase(p, xi, f, 0.0)
                assert s.Z == pytest.approx(1.0 / p.m, rel=1e-12)

    def test_direct_value(self):
        s = to_phase(Params(2.0, 0.0), 1.0, 1.0, 0.0)
        assert (s.X, s.Y, s.Z) == pytest.approx((np.sqrt(2.0), 0.0, 1.0))

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = Params(m=1.0 + rng.uniform(0.2, 3.0), sigma=rng.uniform(0.0, 3.0))
            xi, f, fp = rng.uniform(0.1, 5.0), rng.uniform(0.1, 2.0), rng.normal()
            s = to_phase(p, xi, f, fp)
            xi2, f2, fp2 = from_phase(p, s)
            assert (xi2, f2, fp2) == pytest.approx((xi, f, fp), rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            to_phase(P21, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            to_phase(P21, 1.0, 0.0, 0.0)


class TestJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = Params(m=1.0 + rng.uniform(0.2, 3.0), sigma=rng.uniform(0.0, 4.0))
            s = PhaseState(rng.uniform(0, 2), rng.normal(), rng.uniform(0, 2))
            jac = jacobian_main(p, s)
            h = 1e-6
            for j in range(3):
                delta = np.zeros(3)
                delta[j] = h
                sp = PhaseState(*(s.as_array() + delta))
                sm_arr = s.as_array() - delta
                sm_arr[0] = max(sm_arr[0], 0.0)
                sm_arr[2] = max(sm_arr[2], 0.0)
                sm = PhaseState(*sm_arr)
                fd = (np.array(vf_main(p, sp)) - np.array(vf_main(p, sm))) \
                    / (sp.as_array()[j] - sm.as_array()[j])
                assert np.max(np.abs(fd - jac[:, j])) < 1e-6

    def test_structure_at_p3(self):
        jac = jacobian_main(P21, PhaseState(0.0, 0.0, 1.0))
        expected = np.array([[0.0, 0.0, 0.0],
                             [0.0, 0.0, -1.0],
                             [1.0, 1.0, 0.0]])  # sigma = 1, m - 1 = 1
        assert np.allclose(jac, expected, atol=1e-15)

    def test_structure_at_p0(self):
        p = Params(2.0, 1.0)
        jac = jacobian_main(p, PhaseState(0.0, p.h0, 0.0))
        h0 = p.h0
        expected = np.array([[0.5 * h0, 0.0, 0.0],
                             [0.0, -3.0 * h0, -1.0],
                             [0.0, 0.0, h0]])
        assert np.allclose(jac, expected, atol=1e-15)


class TestCriticalPoints:
    def test_p0_eigenvalues_m2_sigma1(self):
        cps = {cp.label: cp for cp in critical_points(P21)}
        vals = sorted(v.real for v in cps["P0"].eigenvalues)
        assert vals == pytest.approx([-2.449489742783178, 0.408248290463863,
                                      0.816496580927726], abs=1e-12)

    def test_p2_unstable_eigenvalue(self):
        cps = {cp.label: cp for cp in critical_points(P21)}
        lam3 = max(v.real for v in cps["P2"].eigenvalues)
        assert lam3 == pytest.approx(1.5 * P21.h0, abs=1e-14)

    def test_p3_pure_imaginary(self):
        for p in (P21, Params(5.0, 0.3)):
            cps = {cp.label: cp for cp in critical_points(p)}
            vals = np.sort_complex(np.array(cps["P3"].eigenvalues))
            w = np.sqrt(p.m - 1.0)
            assert np.allclose(vals, [-1j * w, 0.0, 1j * w], atol=1e-15)

    def test_eigen_catalog_matches_jacobian(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = Params(m=1.0 + rng.uniform(0.05, 4.0),
                       sigma=rng.uniform(1e-3, 5.0))
            for cp in critical_points(p):
                if cp.at_infinity or cp.label == "P3":
                    continue
                num = np.sort_complex(np.linalg.eigvals(jacobian_main(p, cp.state())))
                ref = np.sort_complex(np.array(cp.eigenvalues))
                assert np.max(np.abs(num - ref)) < 1e-10

    def test_eigenvectors_satisfy_eigen_equation(self):
        for p in (P21, Params(3.0, 2.0)):
            for cp in critical_points(p):
                if cp.eigenvectors is None or cp.at_infinity:
                    continue
                jac = jacobian_main(p, cp.state())
                for k, lam in enumerate(cp.eigenvalues):
                    v = cp.eigenvectors[:, k]
                    assert np.max(np.abs(jac @ v - lam.real * v)) < 1e-12

    def test_p2_outgoing_vector_against_normal(self):
        # the P2 unstable direction points outside the cylinder:
        # n(P2) . e3 = sigma (m-1) h0 / (2m) > 0
        for p in (P21, Params(3.0, 0.7)):
            e3 = p2_outgoing_eigenvector(p)
            n = np.array([0.0, 2.0 * p.h0, 1.0 / p.m])
            assert n @ e3 == pytest.approx(
                p.sigma * (p.m - 1.0) * p.h0 / (2.0 * p.m), rel=1e-12)

    def test_catalog_completeness(self):
        labels = [cp.label for cp in critical_points(P21)]
        assert labels == ["P0", "P1", "P2", "P3", "Q1", "Q2", "Q3", "Q4", "Q5"]
        kinds = {cp.label: cp.kind for cp in critical_points(P21)}
        assert kinds["Q1"] == "unstable-node"
        assert kinds["Q2"] == "unstable-node"
        assert kinds["Q3"] == "stable-node"
        assert kinds["Q4"] == "nonhyperbolic"
        assert kinds["Q5"] == "saddle-2u1s"

    def test_q5_direction(self):
        cps = {cp.label: cp for cp in critical_points(P21)}
        q5 = cps["Q5"].coords
        assert q5[:2] == pytest.approx([2.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0)])
        assert np.linalg.norm(q5) == pytest.approx(1.0)


class TestCylinder:
    def test_value_on_equilibria(self):
        for p in (P21, Params(3.0, 2.0)):
            for cp in critical_points(p):
                if cp.label in ("P0", "P1", "P2"):
                    assert cylinder_value(p, cp.state()) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_p3(self):
        assert cylinder_value(P21, PhaseState(0.0, 0.0, 1.0)) == \
            pytest.approx(-1.0 / 6.0)

    def test_origin_inside(self):
        for p in (P21, Params(4.0, 0.2)):
            assert cylinder_value(p, PhaseState(0.0, 0.0, 0.0)) == \
                pytest.approx(-2.0 / (p.m + 1.0))

    def test_flux_zero_on_axis_and_sigma0(self):
        assert cylinder_flux(P21, cylinder_point(P21, 0.3, 0.0)) == 0.0
        p0 = Params(2.0, 0.0)
        assert cylinder_flux(p0, cylinder_point(p0, 0.4, 2.0)) == 0.0

    def test_flux_direct_value(self):
        s = cylinder_point(P21, 0.0, 1.0)
        assert s.Z == pytest.approx(4.0 / 3.0)
        assert cylinder_flux(P21, s) == pytest.approx(2.0 / 3.0)

    def test_flux_identity_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            p = Params(m=1.0 + rng.uniform(0.2, 3.0), sigma=rng.uniform(0.0, 5.0))
            s = cylinder_point(p, rng.uniform(-p.h0, p.h0), rng.uniform(0.0, 5.0))
            assert cylinder_flux(p, s) >= 0.0

    def test_flux_requires_on_cylinder(self):
        with pytest.raises(ValueError):
            cylinder_flux(P21, PhaseState(1.0, 0.0, 0.1))

    def test_invariant_k_on_cylinder_is_zero(self):
        for Y in (-0.5, 0.0, 0.5):
            s = cylinder_point(P21, Y)
            assert invariant_K(P21, s) == pytest.approx(0.0, abs=1e-14)


class TestNormalForm:
    def test_g200(self):
        assert normal_form_p3(P21).G200 == pytest.approx(-3.0)
        assert normal_form_p3(Params(3.0, 2.5)).G200 == pytest.approx(-4.5)

    def test_h_values_m2_sigma1(self):
        nf = normal_form_p3(P21)
        assert nf.H110 == pytest.approx(7.0 / 4.0)
        assert nf.H210 == pytest.approx(-49.0 / 32.0 * 1j)
        assert nf.H021 == pytest.approx(0.5j * (-35.0 / 24.0))

    def test_zero_coefficients_exact(self):
        for m in (1.5, 2.0, 4.0):
            for s in (0.1, 1.0, 3.0):
                nf = normal_form_p3(Params(m, s))
                assert nf.G011 == 0.0 and nf.G111 == 0.0 and nf.G300 == 0.0

    def test_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            normal_form_p3(Params(2.0, 0.0))

    def test_taylor_data_against_transformed_field(self):
        # independent route: push vf_main through v = (m-1)Y + sigma X,
        # u = sqrt(m-1)(Z-1), z = X, w = v + iu and compare the quadratic
        # polynomial built from the stored Taylor data (the nonlinearity is
        # exactly quadratic, so agreement is to rounding)
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = Params(m=1.0 + rng.uniform(0.3, 3.0), sigma=rng.uniform(0.1, 4.0))
            m, sigma = p.m, p.sigma
            w_lin = np.sqrt(m - 1.0)
            z, v, u = rng.normal(scale=0.3, size=3)
            X = abs(z)
            Y = (v - sigma * X) / (m - 1.0)
            Z = 1.0 + u / w_lin
            if Z <= 0:
                continue
            dX, dY, dZ = vf_main(p, PhaseState(X, Y, Z))
            dv = (m - 1.0) * dY + sigma * dX
            du = w_lin * dZ
            dz = dX
            w = v + 1j * u
            wb = np.conj(w)
            g, h = taylor_coeffs_p3(p)
            dz_pred = (0.5 * g["g200"] * X * X + g["g110"] * X * w
                       + g["g101"] * X * wb).real
            dw_pred = (1j * w_lin * w + 0.5 * h["h200"] * X * X
                       + 0.5 * h["h020"] * w * w + 0.5 * h["h002"] * wb * wb
                       + h["h110"] * X * w + h["h101"] * X * wb
                       + h["h011"] * w * wb)
            assert dz == pytest.approx(dz_pred, abs=1e-13)
            assert dv + 1j * du == pytest.approx(dw_pred, abs=1e-12)


class TestSpiralDiagnostic:
    def test_outgoing_spiral(self):
        radii = p3_spiral_diagnostic(P21, PhaseState(0.05, 0.01, 1.01), turns=5)
        assert len(radii) == 5
        assert np.all(np.diff(radii) > 0.0)

    def test_x_zero_orbit_is_closed(self):
        # on the invariant plane X = 0 the orbit is periodic: the section
        # radii neither grow nor escape
        radii = p3_spiral_diagnostic(P21, PhaseState(0.0, 0.01, 1.01), turns=4)
        assert len(radii) == 4
        assert np.ptp(radii) < 1e-8

    def test_growth_vanishes_with_sigma(self):
        # the radial drift per turn is proportional to sigma
        drifts = []
        for sigma in (0.5, 0.05):
            p = Params(2.0, sigma)
            r = p3_spiral_diagnostic(p, PhaseState(0.02, 0.005, 1.005), turns=4)
            drifts.append((r[-1] - r[0]) / r[0])
        assert drifts[1] < 0.3 * drifts[0]


class TestVectorFieldsAgainstProfileODE:
    """Both autonomous systems must push forward the profile flow exactly.

    Given (xi, f, f') with f'' supplied by the profile equation, the chain
    rule determines the state derivatives in either system after the proper
    time rescalings; the vector fields must reproduce them at any point.
    """

    @staticmethod
    def _fpp(p, xi, f, fp):
        m, sigma = p.m, p.sigma
        return (f / (m - 1.0) - xi ** sigma * f ** m
                - m * (m - 1.0) * f ** (m - 2.0) * fp ** 2) \
            / (m * f ** (m - 1.0))

    def test_main_system(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            p = Params(m=1.0 + rng.uniform(0.3, 3.0), sigma=rng.uniform(0.0, 3.0))
            m = p.m
            xi, f, fp = rng.uniform(0.5, 4.0), rng.uniform(0.2, 2.0), rng.normal()
            fpp = self._fpp(p, xi, f, fp)
            s = to_phase(p, xi, f, fp)
            # d(eta)/d(xi) = f^(-(m-1)/2)/sqrt(m(m-1))
            scale = np.sqrt(m * (m - 1.0)) * f ** ((m - 1.0) / 2.0)
            root = np.sqrt(m * (m - 1.0))
            half = (m - 1.0) / 2.0
            dX = root * (half * f ** (half - 1.0) * fp / xi - f ** half / xi ** 2)
            dY = (2.0 * root / (m - 1.0)) * (half * (half - 1.0) * f ** (half - 2.0) * fp ** 2
                                             + half * f ** (half - 1.0) * fpp)
            dZ = (m - 1.0) * (p.sigma * xi ** (p.sigma - 1.0) * f ** (m - 1.0)
                              + xi ** p.sigma * (m - 1.0) * f ** (m - 2.0) * fp)
            expected = scale * np.array([dX, dY, dZ])
            got = np.array(vf_main(p, s))
            assert np.max(np.abs(got - expected)) < 1e-9 * max(1.0, np.max(np.abs(expected)))

    def test_alt_system(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            p = Params(m=1.0 + rng.uniform(0.3, 3.0), sigma=rng.uniform(0.0, 3.0))
            m = p.m
            xi, f, fp = rng.uniform(0.5, 4.0), rng.uniform(0.2, 2.0), rng.normal()
            fpp = self._fpp(p, xi, f, fp)
            s = AltPhaseState(f ** (m - 1.0), f ** (m - 2.0) * fp, xi)
            # d(xi)/d(eta) = m*x
            scale = m * s.x
            dx = (m - 1.0) * f ** (m - 2.0) * fp
            dy = (m - 2.0) * f ** (m - 3.0) * fp ** 2 + f ** (m - 2.0) * fpp
            dz = 1.0
            expected = scale * np.array([dx, dy, dz])
            got = np.array(vf_alt(p, s))
            assert np.max(np.abs(got - expected)) < 1e-9 * max(1.0, np.max(np.abs(expected)))
