import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import blowup.model
from blowup.integrate import _BLOCK_ROWS
from blowup.model import (AXIS_CELLS, ForwardShot, Params, Profile,
                          explicit_interface_F0, explicit_profile_F0,
                          hyperbola_equilibrium, hyperbola_phi_max,
                          integral_identity_residual, rhs_g,
                          weighted_g_square_integral)
from blowup.shooting import profile_rhs, shoot_backward
from tracemem import peak_bytes


class TestParams:
    def test_derived_constants(self):
        p = Params(m=2.0, sigma=1.0)
        assert p.h0 == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)
        assert p.alpha == 1.0
        assert p.h0 ** 2 * (p.m + 1.0) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("m", [1.0, 0.5, -2.0, np.nan])
    def test_rejects_bad_m(self, m):
        with pytest.raises(ValueError):
            Params(m=m, sigma=1.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            Params(m=2.0, sigma=-0.1)

    def test_sigma_zero_allowed(self):
        assert Params(m=2.0, sigma=0.0).sigma == 0.0

    def test_large_m_allowed_at_runtime(self):
        # validated range in tests is m <= 10, but construction is open-ended
        for m in (1.01, 5.0, 10.0, 50.0):
            assert Params(m=m, sigma=0.5).m == m


class TestRhsG:
    def test_weight_vanishes_at_axis(self):
        assert rhs_g(Params(2.0, 1.0), 0.0, 1.0) == pytest.approx(1.0)

    def test_balance_point(self):
        assert rhs_g(Params(2.0, 1.0), 1.0, 1.0) == pytest.approx(0.0)

    def test_direct_evaluation(self):
        # 0.25^(1/2)/1 - 4^0.5*0.25 = 0.5 - 0.5
        assert rhs_g(Params(2.0, 0.5), 4.0, 0.25) == pytest.approx(0.0, abs=1e-15)

    def test_zero_g(self):
        assert rhs_g(Params(2.0, 1.0), 2.0, 0.0) == 0.0

    def test_clamps_roundoff(self):
        val = rhs_g(Params(2.0, 1.0), 1.0, -5e-15)
        assert val == pytest.approx(5e-15, abs=1e-20)

    def test_rejects_negative_g(self):
        with pytest.raises(ValueError):
            rhs_g(Params(2.0, 1.0), 1.0, -1e-8)


class TestOneProfileODE:
    @settings(max_examples=1000, deadline=None)
    @given(m=st.floats(1.01, 10.0), sigma=st.floats(0.0, 5.0),
           xi=st.floats(0.0, 100.0), g=st.floats(0.0, 1e6),
           dg=st.floats(-1e3, 1e3))
    def test_rhs_g_is_the_integrator_rhs(self, m, sigma, xi, g, dg):
        # bit for bit: the domain-checked and the integrator form are one
        p = Params(m, sigma)
        got = rhs_g(p, xi, g)
        ref = profile_rhs(p)(xi, [g, dg])[1]
        assert float(got).hex() == float(ref).hex()


class TestExplicitProfile:
    def test_amplitude_m2(self):
        assert explicit_profile_F0(2.0, 0.0) == pytest.approx(4.0 / 3.0)

    def test_interface_location_m2(self):
        # first zero of the cosine: omega * xi = pi/2 with omega = (m-1)/(2m)
        xi0 = explicit_interface_F0(2.0)
        assert xi0 == pytest.approx(2.0 * np.pi, abs=1e-14)
        assert explicit_profile_F0(2.0, xi0) == 0.0
        assert explicit_profile_F0(2.0, xi0 + 1.0) == 0.0

    def test_maximum_at_axis(self):
        for m in (1.5, 2.0, 3.0):
            xs = np.linspace(0.0, explicit_interface_F0(m), 500)
            vals = explicit_profile_F0(m, xs)
            assert np.argmax(vals) == 0
            h = 1e-6
            deriv = (explicit_profile_F0(m, h) - explicit_profile_F0(m, 0.0)) / h
            assert abs(deriv) < 1e-5

    @pytest.mark.parametrize("m", [1.5, 2.0, 3.0, 4.0])
    def test_solves_profile_equation(self, m):
        # sup-norm residual of g'' = g^(1/m)/(m-1) - g over the support
        # interior, g = F0^m, with a Richardson-extrapolated second-difference
        # stencil; normalized by 1 + g since the amplitude grows as m -> 1
        params = Params(m=m, sigma=0.0)
        xi0 = explicit_interface_F0(m)
        xs = np.linspace(0.05 * xi0, 0.9 * xi0, 200)
        g = lambda x: explicit_profile_F0(m, x) ** m
        h = 1e-3
        d2h = (g(xs + h) - 2.0 * g(xs) + g(xs - h)) / h**2
        d2h2 = (g(xs + h / 2) - 2.0 * g(xs) + g(xs - h / 2)) / (h / 2)**2
        d2 = (4.0 * d2h2 - d2h) / 3.0
        resid = np.abs(d2 - rhs_g(params, xs, g(xs))) / (1.0 + g(xs))
        assert np.max(resid) < 1e-8


class TestHyperbolas:
    def test_sigma0_constant(self):
        p = Params(2.0, 0.0)
        for xi in (0.5, 1.0, 7.0):
            assert hyperbola_equilibrium(p, xi) == pytest.approx(1.0)

    def test_unit_point(self):
        assert hyperbola_equilibrium(Params(2.0, 1.0), 1.0) == pytest.approx(1.0)

    def test_direct_evaluation(self):
        val = hyperbola_equilibrium(Params(3.0, 2.0), 4.0)
        assert val == pytest.approx(np.sqrt(0.5) / 4.0, rel=1e-12)

    def test_equilibrium_identity(self):
        # (m-1) xi^sigma f^(m-1) = 1 along the curve
        p = Params(2.5, 1.3)
        for xi in (0.2, 1.0, 3.7, 11.0):
            f = hyperbola_equilibrium(p, xi)
            assert (p.m - 1.0) * xi ** p.sigma * f ** (p.m - 1.0) == \
                pytest.approx(1.0, rel=1e-12)

    def test_phi_max_values(self):
        assert hyperbola_phi_max(Params(2.0, 1.0), 1.0) == pytest.approx(0.5)
        assert hyperbola_phi_max(Params(2.0, 0.0), 3.3) == pytest.approx(0.5)

    def test_ratio_identity(self):
        p = Params(3.0, 0.7)
        for xi in (0.3, 1.0, 9.0):
            expected = hyperbola_equilibrium(p, xi) * p.m ** (-1.0 / (p.m - 1.0))
            assert hyperbola_phi_max(p, xi) == pytest.approx(expected, rel=1e-12)

    def test_domain_error_at_zero(self):
        with pytest.raises(ValueError):
            hyperbola_equilibrium(Params(2.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            hyperbola_phi_max(Params(2.0, 1.0), 0.0)


def _analytic_profile(m: float, n: int = 4001) -> Profile:
    params = Params(m=m, sigma=0.0)
    xi0 = explicit_interface_F0(m)
    xs = np.linspace(0.0, xi0, n)
    amp = (2.0 * m / ((m + 1.0) * (m - 1.0))) ** (1.0 / (m - 1.0))
    omega = (m - 1.0) / (2.0 * m)
    g = (amp * np.cos(omega * xs) ** (2.0 / (m - 1.0))) ** m
    p = 2.0 * m / (m - 1.0)
    dg = -amp ** m * p * omega * np.cos(omega * xs) ** (p - 1.0) * np.sin(omega * xs)
    return Profile(params=params, xi=xs, g=g, dg=dg,
                   provenance=ForwardShot(a=amp), maxima=(0.0,),
                   interface=xi0, slope_at_origin=0.0)


class TestWeightedIntegral:
    def test_against_quadrature_oracle(self):
        # smooth synthetic g on a nonuniform grid vs adaptive quadrature
        params = Params(m=2.0, sigma=0.7)
        rng = np.random.default_rng(42)
        xs = np.sort(np.concatenate([[0.0], rng.uniform(0.0, 3.0, 400), [3.0]]))
        g = np.cos(xs) + 2.0
        dg = -np.sin(xs)
        val = weighted_g_square_integral(params, xs, g, dg)
        ref, _ = quad(lambda x: 0.7 * x ** (-0.3) * (np.cos(x) + 2.0) ** 2,
                      0.0, 3.0, limit=200)
        assert val == pytest.approx(ref, abs=5e-8)

    def test_sigma_zero_is_axis_mass(self):
        # at sigma = 0 the measure collapses to a unit mass at xi = 0
        params = Params(m=2.0, sigma=0.0)
        xs = np.linspace(0.0, 2.0, 50)
        g = 3.0 + xs ** 2
        dg = 2.0 * xs
        val = weighted_g_square_integral(params, xs, g, dg)
        assert val == pytest.approx(9.0, rel=1e-12)

    def test_smooth_weight(self):
        params = Params(m=2.0, sigma=3.0)
        xs = np.linspace(0.0, 2.0, 600)
        g = np.exp(-xs)
        dg = -np.exp(-xs)
        ref, _ = quad(lambda x: 3.0 * x ** 2 * np.exp(-2.0 * x), 0.0, 2.0)
        assert weighted_g_square_integral(params, xs, g, dg) == \
            pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("xi_node", [1.0, 20.0, 40.642])
    def test_short_cell_adds_nothing(self, xi_node):
        # a node 1e-7 after a grid node (as a dense sample next to a step
        # end) splits a cell without changing the integrand: the integral
        # must not move
        params = Params(m=2.0, sigma=0.1)
        xs = np.linspace(0.0, 50.0, 50001)
        k = int(np.searchsorted(xs, xi_node))
        split = np.insert(xs, k + 1, xs[k] + 1e-7)

        def integral(x):
            g = 1.0 + 0.5 * np.sin(x / 3.0)
            dg = np.cos(x / 3.0) / 6.0
            return weighted_g_square_integral(params, x, g, dg)

        assert integral(split) == pytest.approx(integral(xs), rel=1e-12)


def _unblocked_integral(params, xi, g, dg):
    # weighted_g_square_integral as one formula over all cells at once: the
    # reference for the bits of the blocked evaluation
    s = params.sigma
    a, b = xi[:-1], xi[1:]
    h = b - a
    if a.size == 0:
        return 0.0
    G, dG = g * g, 2.0 * g * dg
    Ga, Gb, dGa, dGb = G[:-1], G[1:], dG[:-1], dG[1:]
    far = a > AXIS_CELLS * h
    af, hf = a[far], h[far]
    Gaf, Gbf, dGaf, dGbf = Ga[far], Gb[far], dGa[far], dGb[far]
    total = 0.0
    for x, w in zip(blowup.model._GL_NODES, blowup.model._GL_WEIGHTS):
        h00 = (1.0 + 2.0 * x) * (1.0 - x) ** 2
        h10 = x * (1.0 - x) ** 2
        h01 = x * x * (3.0 - 2.0 * x)
        h11 = x * x * (x - 1.0)
        model = h00 * Gaf + h01 * Gbf + (h10 * dGaf + h11 * dGbf) * hf
        total += w * float(np.sum(model * hf * (af + x * hf) ** (s - 1.0)))
    total *= s
    near = ~far
    a, b, h = a[near], b[near], h[near]
    Ga, Gb, dGa, dGb = Ga[near], Gb[near], dGa[near], dGb[near]
    c2 = 3.0 * (Gb - Ga) / h**2 - (2.0 * dGa + dGb) / h
    c3 = -2.0 * (Gb - Ga) / h**3 + (dGa + dGb) / h**2
    pw = blowup.model._powm1
    n0 = (pw(b, s + 1.0) - pw(a, s + 1.0)) / (s + 1.0)
    n1 = (pw(b, s + 2.0) - pw(a, s + 2.0)) / (s + 2.0) - a * n0
    n2 = ((pw(b, s + 3.0) - pw(a, s + 3.0)) / (s + 3.0)
          - 2.0 * a * (pw(b, s + 2.0) - pw(a, s + 2.0)) / (s + 2.0)
          + a * a * n0)
    bs = pw(b, s)
    m0 = bs - pw(a, s)
    m1 = h * bs - n0
    m2 = h * h * bs - 2.0 * n1
    m3 = h * h * h * bs - 3.0 * n2
    return total + float(np.sum(Ga * m0 + dGa * m1 + c2 * m2 + c3 * m3))


@pytest.fixture(scope="module")
def long_profile():
    # `blowup profile --m 2 --sigma 0.1 --xi0 78.624`: 78,935 samples
    prof, _ = shoot_backward(Params(2.0, 0.1), 78.624)
    return prof


class TestWeightedIntegralBlocks:
    """The far cells are evaluated in blocks of _BLOCK_ROWS; the integral
    keeps the bits of the formula over all cells at once."""

    def test_long_profile_residual_bits(self, long_profile, monkeypatch):
        xi0 = float(long_profile.xi[-1])
        blocked = integral_identity_residual(long_profile, xi0)
        monkeypatch.setattr(blowup.model, "weighted_g_square_integral",
                            _unblocked_integral)
        assert blocked.hex() == \
            integral_identity_residual(long_profile, xi0).hex()

    @pytest.mark.parametrize("n", [2, 3, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   _BLOCK_ROWS + 2, 3 * _BLOCK_ROWS + 5])
    @pytest.mark.parametrize("sigma", [0.0, 0.1, 0.7, 3.0])
    def test_bits_across_block_edges(self, n, sigma):
        # a nonuniform grid from the axis with one long cell halfway, so
        # that near cells (a <= 4 h) sit at the start and among far cells
        rng = np.random.default_rng(n)
        steps = rng.uniform(0.5, 1.5, n - 1)
        steps[len(steps) // 2] += steps[:len(steps) // 2].sum()
        xs = np.concatenate([[0.0], np.cumsum(steps)])
        xs *= 3.0 / xs[-1]
        g, dg = 2.0 + np.cos(xs), -np.sin(xs)
        params = Params(2.0, sigma)
        assert weighted_g_square_integral(params, xs, g, dg).hex() == \
            _unblocked_integral(params, xs, g, dg).hex()

    def test_memory(self, long_profile):
        # about 4.8 of the profile's 8-byte columns (the four nodes' summands
        # and a block's temporaries), 13 with all cells at once
        p = long_profile
        peak = peak_bytes(lambda: weighted_g_square_integral(
            p.params, p.xi, p.g, p.dg))
        assert peak <= 6 * p.xi.nbytes, peak / p.xi.nbytes


class TestIntegralIdentity:
    def test_explicit_profile_all_points(self):
        prof = _analytic_profile(2.0)
        for xi0 in (1.0, 3.0, 5.0, float(prof.xi[-1])):
            assert integral_identity_residual(prof, xi0) < 1e-6

    def test_zero_profile(self):
        params = Params(2.0, 1.0)
        xs = np.linspace(0.0, 2.0, 20)
        prof = Profile(params=params, xi=xs, g=np.zeros_like(xs),
                       dg=np.zeros_like(xs), provenance=ForwardShot(a=1.0))
        assert integral_identity_residual(prof, 1.5) == 0.0

    def test_forward_shot_sigma_half(self):
        from blowup.shooting import shoot_forward
        prof, _ = shoot_forward(Params(2.0, 0.5), 1.0, xi_max=30.0)
        assert integral_identity_residual(prof, float(prof.xi[-1])) < 1e-6

    def test_out_of_range_signals(self):
        prof = _analytic_profile(2.0)
        with pytest.raises(ValueError):
            integral_identity_residual(prof, 100.0)


class TestProfileContainer:
    def test_requires_monotone_xi(self):
        params = Params(2.0, 0.0)
        with pytest.raises(ValueError):
            Profile(params=params, xi=np.array([0.0, 1.0, 1.0]),
                    g=np.ones(3), dg=np.zeros(3),
                    provenance=ForwardShot(a=1.0))

    def test_rejects_negative_g(self):
        params = Params(2.0, 0.0)
        with pytest.raises(ValueError):
            Profile(params=params, xi=np.array([0.0, 1.0]),
                    g=np.array([1.0, -1e-3]), dg=np.zeros(2),
                    provenance=ForwardShot(a=1.0))

    def test_f_fprime_recovery(self):
        prof = _analytic_profile(3.0)
        m = 3.0
        f = prof.f
        assert f[0] == pytest.approx(prof.g[0] ** (1.0 / m))
        # fprime = dg / (m f^(m-1)) away from the interface
        mid = len(f) // 2
        assert prof.fprime[mid] == pytest.approx(
            prof.dg[mid] / (m * f[mid] ** (m - 1.0)), rel=1e-12)


class TestWeightedIntegralSigmaOne:
    def test_sigma_one_is_plain_integral(self):
        # at sigma = 1 the measure is Lebesgue: compare to the closed form
        # of int (x^2+1)^2 dx on [0, 2]
        params = Params(m=2.0, sigma=1.0)
        xs = np.linspace(0.0, 2.0, 801)
        g = xs ** 2 + 1.0
        dg = 2.0 * xs
        ref = 32.0 / 5.0 + 2.0 * 8.0 / 3.0 + 2.0
        assert weighted_g_square_integral(params, xs, g, dg) == \
            pytest.approx(ref, rel=1e-12)
