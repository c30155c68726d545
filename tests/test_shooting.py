import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blowup import shooting
from blowup.integrate import (EventKind, EventRecord, IntegratorConfig,
                              integrate)
from blowup.model import Params, explicit_interface_F0, g_field
from blowup.shooting import (DEFAULT_SLOPE_TOL, EPS_REL, SERIES_ORDER,
                             Exhausted, Interface, ReachedOrigin,
                             SeedUnderflow, VanishKind, VerticalSlope, _itp_root, _validate_good,
                             classify_vanish, count_maxima,
                             find_good_profiles, interface_series,
                             multiplicity_scan, nonexistence_gap,
                             profile_rhs, series_constant, series_exponent,
                             shoot_backward, shoot_forward, slope_fn)

P20 = Params(m=2.0, sigma=0.0)
P201 = Params(m=2.0, sigma=0.1)
TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


_series_params = dict(m=st.floats(1.1, 5.0, exclude_min=True),
                      sigma=st.floats(0.0, 5.0),
                      xi0=st.floats(0.2, 80.0))


class TestSeriesSeed:
    def test_constant_value(self):
        # C = (m-1) h0 / (2 sqrt(m(m-1))) = sqrt((m-1)/(2m(m+1)))
        for m in (2.0, 3.0, 1.5):
            p = Params(m=m, sigma=0.3)
            assert series_constant(p) == pytest.approx(
                np.sqrt((m - 1.0) / (2.0 * m * (m + 1.0))), rel=1e-14)

    def test_seed_state(self):
        # at sigma = 0 and m = 2 the series is (C delta)^4 (1 - delta^2/24
        # + O(delta^4)), D2 = 6*5 - 4*3/2 = 24
        p = Params(m=2.0, sigma=0.0)
        C, d = series_constant(p), 1e-4
        g, dg = interface_series(p, 5.0).state(d)
        assert g == pytest.approx((C * d) ** 4 * (1.0 - d * d / 24.0),
                                  rel=1e-14)
        assert dg == pytest.approx(
            -4.0 * C * (C * d) ** 3 * (1.0 - 1.5 * d * d / 24.0), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            interface_series(P20, -1.0)
        # the seed distance, 8.7e-18, rounds to xi0 - delta == xi0
        assert 0.0 < interface_series(Params(2.0, 16.0),
                                      100.0).seed_distance() < 1e-17
        with pytest.raises(ValueError):
            shoot_backward(Params(2.0, 16.0), 100.0)
        with pytest.raises(SeedUnderflow):
            slope_fn(Params(2.0, 16.0), 100.0)

    @settings(max_examples=200, deadline=None)
    @given(**_series_params)
    def test_closed_form_low_terms(self, m, sigma, xi0):
        # the forms _project_interface used inline, to the bit
        c = interface_series(Params(m, sigma), xi0).coefs
        p = 2.0 * m / (m - 1.0)
        d2 = (p + 2.0) * (p + 1.0) - p * (p - 1.0) / m
        d3 = (p + 3.0) * (p + 2.0) - p * (p - 1.0) / m
        assert len(c) == SERIES_ORDER + 1
        assert c[:2] == (1.0, 0.0)
        assert c[2] == -xi0 ** sigma / d2
        assert c[3] == sigma * xi0 ** (sigma - 1.0) / d3

    @settings(max_examples=300, deadline=None)
    @given(**_series_params, frac=st.floats(1e-3, 1.0))
    def test_solves_the_profile_equation(self, m, sigma, xi0, frac):
        # the series' own g'' against the field, at every delta up to the
        # seed: equal up to rounding, which the power g = (C delta)^p
        # amplifies p-fold
        params = Params(m, sigma)
        series = interface_series(params, xi0)
        seed = series.seed_distance()
        assert 0.0 < seed <= 0.5 * xi0
        d = frac * seed
        g, _ = series.state(d)
        assume(g > 1e-250)
        C, p = series_constant(params), series_exponent(params)
        g2 = (C * d) ** p * sum(c * (p + k) * (p + k - 1.0) * d ** (k - 2)
                                for k, c in enumerate(series.coefs))
        scale = g ** (1.0 / m) / (m - 1.0)
        assert abs(g2 - g_field(params)(xi0 - d, g)) \
            <= 16.0 * p * 2.0 ** -52 * scale

    @pytest.mark.parametrize("m", [1.25, 1.5, 2.0, 3.0, 5.0])
    def test_sigma0_explicit_profile(self, m):
        # at sigma = 0 the vanishing branch is F0^m with
        # F0 = amp cos^(2/(m-1))(omega xi) and omega xi0 = pi/2, so
        # g = amp^m sin^p(omega delta): the series state, dg included,
        # matches it up to the seed
        params = Params(m, 0.0)
        xi0 = explicit_interface_F0(m)
        series = interface_series(params, xi0)
        p, omega = series_exponent(params), (m - 1.0) / (2.0 * m)
        amp_m = (2.0 * m / ((m + 1.0) * (m - 1.0))) ** (m / (m - 1.0))
        for d in series.seed_distance() * np.array([1.0, 0.5, 1e-2, 1e-4]):
            g, dg = series.state(d)
            s, c = np.sin(omega * d), np.cos(omega * d)
            assert g == pytest.approx(amp_m * s ** p, rel=64 * p * 2.0 ** -52)
            assert dg == pytest.approx(-amp_m * p * s ** (p - 1.0) * omega * c,
                                       rel=64 * p * 2.0 ** -52)


_LEADING_ORDER_CASES = [(2.0, 0.1, 12.0), (2.0, 0.0, 2.0 * np.pi),
                        (2.0, 4.0, 8.045), (2.0, 4.0, 0.545),
                        (1.5, 0.1, 10.0), (3.0, 0.3, 12.5), (1.25, 0.5, 3.0),
                        (4.0, 0.1, 20.0), (2.0, 0.1, 79.0)]


class TestSeriesSeedShots:
    @pytest.mark.parametrize("m, sigma, xi0", _LEADING_ORDER_CASES)
    def test_slope_matches_leading_order_seed(self, m, sigma, xi0):
        # the axis slope from the series seed against a shot seeded as
        # before, by the leading term at EPS_REL * xi0, with the same
        # absolute tolerances and no events
        params = Params(m, sigma)
        C, p = series_constant(params), series_exponent(params)
        eps = EPS_REL * xi0
        g0, dg0 = (C * eps) ** p, -p * C * (C * eps) ** (p - 1.0)
        cfg = IntegratorConfig(abs_tol=np.array([1e-8 * g0, 1e-8 * abs(dg0)]))
        res = integrate(profile_rhs(params), [g0, dg0], (xi0 - eps, 0.0),
                        config=cfg)
        g, dg = res.y[-1]
        old = dg / (m * g ** ((m - 1.0) / m))
        new = slope_fn(params, xi0)
        assert abs(new - old) <= 1e-9 * (1.0 + abs(old))

    @pytest.mark.parametrize("sigma, xi0", [(0.1, 12.0), (4.0, 0.545)])
    def test_dense_tail(self, sigma, xi0):
        # dense profiles end at xi0 - EPS_REL xi0; from there to the seed
        # they hold series samples on the dense_dx grid, which the first
        # integrated samples continue
        params, dx = Params(2.0, sigma), 1e-3
        series = interface_series(params, xi0)
        prof, out = shoot_backward(params, xi0, dense_dx=dx)
        assert isinstance(out, ReachedOrigin)
        # the seed distance, rounded to where the float seed point sits
        eps = prof.provenance.epsilon
        assert eps == xi0 - (xi0 - series.seed_distance())
        assert prof.xi[-1] == xi0 - EPS_REL * xi0
        tail = prof.xi > xi0 - eps
        assert np.count_nonzero(tail) == int(np.ceil((eps - EPS_REL * xi0)
                                                     / dx))
        assert np.allclose(np.diff(prof.xi[tail]), dx, rtol=0.0, atol=1e-12)
        assert np.all(prof.g >= 0.0)
        g, dg = series.state(xi0 - prof.xi[tail])
        assert np.array_equal(prof.g[tail], g)
        assert np.array_equal(prof.dg[tail], dg)
        near = (prof.xi <= xi0 - eps) & (prof.xi > xi0 - 2.0 * eps)
        g, dg = series.state(xi0 - prof.xi[near])
        assert np.count_nonzero(near) > 3
        assert np.allclose(prof.g[near], g, rtol=1e-9, atol=0.0)
        assert np.allclose(prof.dg[near], dg, rtol=1e-9, atol=0.0)

    def test_config_dense_dx_takes_no_samples(self, monkeypatch):
        # a shot takes dense samples from its dense_dx argument alone: the
        # bare shot of slope_fn under a config with dense_dx set samples
        # nothing and keeps the bits of its slope
        slope = slope_fn(P201, 12.0)
        results = []

        def recording(*args, **kwargs):
            results.append(integrate(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(shooting, "integrate", recording)
        cfg = IntegratorConfig(dense_dx=1e-3)
        assert slope_fn(P201, 12.0, config=cfg).hex() == slope.hex()
        assert len(results) == 1
        assert len(results[0].t) - 1 == results[0].n_steps

    def test_bare_shot_rejections(self, monkeypatch):
        # toward the axis, where the weight xi^sigma is not smooth, the
        # error estimate rises from step to step
        results = []

        def recording(*args, **kwargs):
            results.append(integrate(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(shooting, "integrate", recording)
        slope_fn(P201, 12.0)
        assert len(results) == 1
        assert results[0].n_rejected <= 20, results[0].n_rejected

    def test_bare_shot_starts_at_the_seed(self):
        prof, _ = shoot_backward(P201, 12.0, dense_dx=None)
        series = interface_series(P201, 12.0)
        assert prof.xi[-1] == 12.0 - series.seed_distance()
        assert (prof.g[-1], prof.dg[-1]) == series.state(
            prof.provenance.epsilon)


class TestForwardShot:
    def test_sigma0_explicit_interface(self):
        # the sigma=0 shot from the explicit amplitude lands its interface at
        # pi*m/(m-1); tight tolerances since the interface layer amplifies
        # integration error into the projected location
        prof, out = shoot_forward(P20, 4.0 / 3.0, xi_max=20.0, config=TIGHT)
        assert isinstance(out, Interface)
        assert out.xi0 == pytest.approx(2.0 * np.pi, abs=1e-5)
        assert prof.interface == out.xi0
        assert prof.maxima == (0.0,)
        assert count_maxima(prof) == 1

    def test_sigma0_constant_solution(self):
        prof, out = shoot_forward(P20, 1.0, xi_max=10.0)
        assert isinstance(out, Exhausted)
        assert np.max(np.abs(prof.g - 1.0)) < 1e-9
        assert count_maxima(prof) == 0

    def test_sigma_half_vertical_slope(self):
        prof, out = shoot_forward(Params(2.0, 0.5), 3.0, xi_max=50.0)
        assert isinstance(out, VerticalSlope)
        # transversal vanishing: dg stays O(1) at the crossing
        assert abs(prof.dg[-1]) > 1e-3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shoot_forward(P20, -1.0)
        with pytest.raises(ValueError):
            shoot_forward(P20, 1.0, xi_max=0.0)

    def test_small_sigma_good_profile_roundtrip(self):
        # backward shot at a slope root, re-shot forward from its axis data,
        # must place the interface back at the root
        prof_b, out_b = shoot_backward(P201, 9.6355)
        assert isinstance(out_b, ReachedOrigin)
        prof_f, out_f = shoot_forward(P201, out_b.f0, slope0=out_b.slope,
                                      xi_max=20.0, config=TIGHT)
        assert isinstance(out_f, Interface)
        assert out_f.xi0 == pytest.approx(9.6355, abs=5e-3)


class TestBackwardShot:
    def test_sigma0_recovers_explicit(self):
        prof, out = shoot_backward(P20, explicit_interface_F0(2.0))
        assert isinstance(out, ReachedOrigin)
        assert out.f0 == pytest.approx(4.0 / 3.0, abs=1e-4)
        assert out.slope == pytest.approx(0.0, abs=1e-4)
        assert count_maxima(prof) == 1
        assert prof.maxima == (0.0,)

    def test_interface_annotations(self):
        prof, _ = shoot_backward(P20, 2.0 * np.pi)
        assert prof.interface == pytest.approx(2.0 * np.pi)
        # seeded essentially at the interface: g and dg vanish there
        assert prof.g[-1] < 1e-20
        assert abs(prof.dg[-1]) < 1e-15
        assert np.all(np.diff(prof.xi) > 0.0)

    def test_small_sigma_slope_signs(self):
        # the slope of the backward shot at the axis, at the reference points
        # xi0 = 10, 12, 14 for sigma = 0.1: all negative
        slopes = [shoot_backward(P201, x, dense_dx=None, track_events=False)[1].slope
                  for x in (10.0, 12.0, 14.0)]
        assert all(s < 0.0 for s in slopes)

    def test_positive_slope_window(self):
        # between the slope roots near 6.9 and 9.64 the slope is positive
        _, out = shoot_backward(P201, 8.0, dense_dx=None, track_events=False)
        assert isinstance(out, ReachedOrigin) and out.slope > 0.0

    def test_rejects_bad_xi0(self):
        with pytest.raises(ValueError):
            shoot_backward(P20, -2.0)

    @pytest.mark.parametrize("xi0, n_extrema", [(40.0, 9), (79.0, 18)])
    def test_long_steps_find_every_extremum(self, xi0, n_extrema):
        # the 8th-order steps span many dense samples; the event scan on
        # EVENT_SAMPLES subintervals per step must still find each dg = 0
        # crossing, one per sign change of dg in the dense samples
        prof, out = shoot_backward(P201, xi0)
        assert isinstance(out, ReachedOrigin)
        extrema = np.array(sorted(prof.maxima + prof.minima))
        i = np.nonzero(np.sign(prof.dg[:-1]) * np.sign(prof.dg[1:]) < 0.0)[0]
        xi_a, xi_b, dg_a, dg_b = (prof.xi[i], prof.xi[i + 1], prof.dg[i],
                                  prof.dg[i + 1])
        changes = xi_a - dg_a * (xi_b - xi_a) / (dg_b - dg_a)
        assert len(extrema) == len(changes) == n_extrema
        assert np.max(np.abs(extrema - changes)) < 1.5e-3

    def test_step_count(self):
        # the 8th-order stepper takes 89 accepted steps on this shot from the
        # series seed; every stored point without dense output is a step end
        prof, out = shoot_backward(P201, 12.0, dense_dx=None)
        assert isinstance(out, ReachedOrigin)
        assert len(prof.xi) - 1 <= 100


class TestClassifyVanish:
    def test_interface_record(self):
        rec = EventRecord(EventKind.GZERO, 5.0, np.array([0.0, 1e-9]))
        assert classify_vanish(Params(2.0, 0.5), rec, dg_scale=1.0) \
            is VanishKind.INTERFACE

    def test_vertical_record(self):
        rec = EventRecord(EventKind.GZERO, 5.0, np.array([0.0, -0.3]))
        assert classify_vanish(Params(2.0, 0.5), rec, dg_scale=1.0) \
            is VanishKind.VERTICAL_SLOPE

    def test_wrong_kind_rejected(self):
        rec = EventRecord(EventKind.DG_ZERO, 5.0, np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            classify_vanish(Params(2.0, 0.5), rec, dg_scale=1.0)


class TestSlopeFn:
    def test_sigma0_root(self):
        assert slope_fn(P20, explicit_interface_F0(2.0)) == \
            pytest.approx(0.0, abs=1e-4)

    def test_sign_structure_small_sigma(self):
        # slope changes sign across the roots at ~6.90, ~9.64, ~15.39
        assert slope_fn(P201, 6.5) < 0.0
        assert slope_fn(P201, 8.0) > 0.0
        assert slope_fn(P201, 12.0) < 0.0
        assert slope_fn(P201, 16.0) > 0.0

    def test_nonexistence_regime_all_negative(self):
        p = Params(2.0, 4.0)
        for xi0 in (0.5, 2.0, 8.0, 20.0):
            assert slope_fn(p, xi0) < 0.0


class TestFindGoodProfiles:
    def test_sigma0_unique_hump(self):
        found = find_good_profiles(P20, 5.0, 7.0, grid_n=9)
        assert len(found) == 1
        gp = found[0]
        assert gp.xi0 == pytest.approx(2.0 * np.pi, abs=1e-3)
        assert gp.n_max == 1
        assert gp.a == pytest.approx(4.0 / 3.0, abs=1e-4)
        assert abs(gp.slope) < 1e-6
        assert gp.residual < 1e-6

    def test_two_roots_in_window(self):
        found = find_good_profiles(P201, 8.0, 16.0, grid_n=33)
        xi0s = sorted(gp.xi0 for gp in found)
        assert len(xi0s) == 2
        assert xi0s[0] == pytest.approx(9.6355, abs=0.05)
        assert xi0s[1] == pytest.approx(15.3854, abs=0.05)
        n_by_xi0 = {round(gp.xi0, 1): gp.n_max for gp in found}
        assert n_by_xi0[9.6] == 1
        assert n_by_xi0[15.4] == 2

    def test_sigma0_root_kept_at_loose_slope_tol(self):
        # the search stops once |f'(0)| < 1e-4, on either side of the root;
        # test_sigma0_flat_start_below_root covers the f'(0) < 0 side
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = find_good_profiles(Params(2, 0), 5.9, 6.9, grid_n=4,
                                       slope_tol=1e-4)
        assert len(found) == 1
        assert found[0].xi0 == pytest.approx(2.0 * np.pi, abs=1e-3)
        assert found[0].n_max == 1

    def test_sigma0_flat_start_below_root(self):
        # just below 2 pi the axis slope is -5e-5: within a loose slope_tol
        # but not flat by a tighter ORIGIN_FLAT_TOL.  The flat concave axis
        # start must still count as the profile's maximum.
        xi0 = 2.0 * np.pi - 3e-4
        assert -1e-4 < slope_fn(Params(2, 0), xi0) < 0.0
        gp = _validate_good(Params(2, 0), xi0, 1e-4, None)
        assert gp.n_max == 1
        assert gp.profile.maxima == (0.0,)

    def test_empty_when_no_sign_change(self):
        found = find_good_profiles(Params(2.0, 4.0), 1.0, 10.0, grid_n=13)
        assert found == []

    def test_window_validation(self):
        with pytest.raises(ValueError):
            find_good_profiles(P20, 3.0, 2.0)
        with pytest.raises(ValueError):
            find_good_profiles(P20, 1.0, 2.0, grid_n=1)


@pytest.fixture(scope="module")
def counted_window():
    """find_good_profiles(P201, 8, 16, grid_n=33) and its slope_fn calls."""
    calls = []
    original = shooting.slope_fn

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    shooting.slope_fn = counting
    try:
        found = find_good_profiles(P201, 8.0, 16.0, grid_n=33)
    finally:
        shooting.slope_fn = original
    return found, calls


class TestSearchContract:
    def test_root_slope_is_the_slope_fn_value(self, counted_window):
        # the root finder and the validated profile read the same number
        found, _ = counted_window
        assert len(found) == 2
        for gp in found:
            assert gp.slope == slope_fn(P201, gp.xi0)
            assert abs(gp.slope) < DEFAULT_SLOPE_TOL

    def test_evaluations_per_root(self, counted_window):
        # one slope_fn call per grid point, then ITP for each root
        found, calls = counted_window
        assert len(calls) - 33 <= 5 * len(found)


def _cubic(root, c, d, sign):
    """A strictly monotone cubic with its one real zero at root."""
    return lambda x: sign * (c * (x - root) ** 3 + d * (x - root))


_itp_cases = dict(
    lo=st.floats(-50.0, 50.0), width=st.floats(1e-3, 20.0),
    frac=st.floats(0.0, 1.0), c=st.floats(0.0, 10.0),
    d=st.floats(1e-3, 10.0), sign=st.sampled_from([-1.0, 1.0]))


class TestItpRoot:
    @settings(max_examples=300, deadline=None)
    @given(**_itp_cases, tol=st.floats(1e-9, 1e-2))
    def test_converges_inside_the_bracket(self, lo, width, frac, c, d, sign,
                                          tol):
        hi = lo + width
        f = _cubic(lo + frac * width, c, d, sign)
        assume(abs(f(lo)) >= tol and abs(f(hi)) >= tol)
        xs = []

        def slope(x):
            xs.append(x)
            return f(x)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _itp_root(slope, lo, hi, f(lo), f(hi), tol, 60)
        assert lo < x < hi
        assert abs(f(x)) < tol
        assert x == xs[-1]
        assert len(xs) <= 60

    @settings(max_examples=200, deadline=None)
    @given(**_itp_cases, max_depth=st.integers(1, 12))
    def test_budget_exhausted(self, lo, width, frac, c, d, sign, max_depth):
        # tol = 0 is never reached: exactly max_depth evaluations, then None
        hi = lo + width
        f = _cubic(lo + frac * width, c, d, sign)
        assume(f(lo) * f(hi) < 0.0)
        xs = []

        def slope(x):
            xs.append(x)
            return f(x)

        with pytest.warns(UserWarning, match="did not reach"):
            assert _itp_root(slope, lo, hi, f(lo), f(hi), 0.0,
                             max_depth) is None
        assert len(xs) == max_depth
        assert all(lo <= x <= hi for x in xs)

    @settings(max_examples=100, deadline=None)
    @given(**_itp_cases, n_ok=st.integers(0, 5))
    def test_failed_evaluation_aborts(self, lo, width, frac, c, d, sign,
                                      n_ok):
        hi = lo + width
        f = _cubic(lo + frac * width, c, d, sign)
        assume(f(lo) * f(hi) < 0.0)
        xs = []

        def slope(x):
            xs.append(x)
            return f(x) if len(xs) <= n_ok else None

        with pytest.warns(UserWarning, match="aborted"):
            assert _itp_root(slope, lo, hi, f(lo), f(hi), 0.0, 60) is None
        assert len(xs) == n_ok + 1

    def test_worst_case_bracket_matches_bisection(self):
        # the projection (n0 = 1) keeps the bracket after j evaluations
        # within (hi - lo) 2^-(j-1), one evaluation behind bisection
        f = _cubic(0.3, 5.0, 1e-3, 1.0)
        lo, hi, brackets = 0.0, 1.0, []
        s_lo, s_hi = f(lo), f(hi)

        def slope(x):
            nonlocal lo, hi
            s = f(x)
            if s < 0.0:
                lo = x
            else:
                hi = x
            brackets.append(hi - lo)
            return s

        with pytest.warns(UserWarning):
            _itp_root(slope, lo, hi, s_lo, s_hi, 0.0, 20)
        for j, w in enumerate(brackets, start=1):
            assert w <= 2.0 ** -(j - 1) * (1.0 + 1e-12)


class TestGoodProfileInvariants:
    def test_maxima_above_equilibrium_hyperbola(self):
        found = find_good_profiles(P201, 8.0, 16.0, grid_n=33)
        for gp in found:
            m, sigma = gp.params.m, gp.params.sigma
            for xi_m in gp.profile.maxima:
                if xi_m == 0.0:
                    continue
                i = gp.profile.nearest_index(xi_m)
                level = (m - 1.0) * xi_m ** sigma \
                    * float(gp.profile.f[i]) ** (m - 1.0)
                assert level >= 1.0 - 1e-6

    def test_interface_end_state(self):
        found = find_good_profiles(P20, 5.5, 7.0, grid_n=9)
        prof = found[0].profile
        assert prof.g[-1] < 1e-12
        assert abs(prof.dg[-1]) < 1e-12


class TestMultiplicityScan:
    def test_sigma0_one_hump_window(self):
        rows = multiplicity_scan(2.0, [0.0], 7.0, xi0_lo=4.0, grid_dx=0.5)
        assert rows[0].count == 1
        assert rows[0].xi0s[0] == pytest.approx(2.0 * np.pi, abs=1e-3)

    def test_failure_recorded_not_raised(self):
        rows = multiplicity_scan(2.0, [0.0, -1.0], 7.0, xi0_lo=4.0)
        by_sigma = {r.sigma: r for r in rows}
        assert by_sigma[-1.0].error is not None
        assert by_sigma[0.0].error is None

    def test_seed_underflow_drops_grid_points(self):
        # at sigma = 16 the seed distance near xi0 = 100 rounds to 0: each
        # such grid point is an unreliable slope, named in the warning, and
        # the row is a count, not an error
        with pytest.warns(UserWarning, match=r"dropped xi0 = \[95\.0, "):
            rows = multiplicity_scan(2.0, [16.0], 100.0, xi0_lo=95.0,
                                     grid_dx=2.5)
        assert rows[0].error is None and rows[0].count == 0

    def test_programming_error_propagates(self):
        # only numerical failures and invalid parameters become error rows
        with pytest.raises(TypeError):
            multiplicity_scan(2.0, [0.0], None)


class TestNonexistenceGap:
    def test_reference_values_m2_sigma4(self):
        gb = nonexistence_gap(Params(2.0, 4.0))
        assert gb.xi_plus == pytest.approx((48.0 / 5.0) ** (1.0 / 6.0), abs=1e-12)
        assert gb.xi_minus == pytest.approx(12.0 ** (1.0 / 6.0), abs=1e-12)
        assert gb.gap is True

    def test_no_gap_at_small_sigma(self):
        gb = nonexistence_gap(Params(2.0, 1.0))
        assert gb.gap is False
        assert gb.xi_minus < gb.xi_plus

    def test_threshold_value(self):
        gb = nonexistence_gap(Params(2.0, 1.0))
        assert gb.sigma_threshold == pytest.approx(4.0 * np.sqrt(0.8), rel=1e-12)

    def test_threshold_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = 1.0 + rng.uniform(0.1, 4.0)
            sigma = rng.uniform(0.05, 8.0)
            gb = nonexistence_gap(Params(m, sigma))
            assert gb.gap == (sigma * sigma * (2.0 * m + 1.0) > 8.0 * m ** 3)

    def test_requires_positive_sigma(self):
        with pytest.raises(ValueError):
            nonexistence_gap(Params(2.0, 0.0))


class TestCountMaxima:
    def test_explicit_profile(self):
        prof, _ = shoot_forward(P20, 4.0 / 3.0, xi_max=20.0)
        assert count_maxima(prof) == 1

    def test_constant_profile(self):
        prof, _ = shoot_forward(P20, 1.0, xi_max=10.0)
        assert count_maxima(prof) == 0

    def test_oscillating_profile(self):
        # the root near 15.39 carries two maxima and one interior minimum
        prof, out = shoot_backward(P201, 15.3854)
        assert isinstance(out, ReachedOrigin)
        assert count_maxima(prof) == 2
        assert len(prof.minima) >= 1


class TestGapImpliesEmpty:
    @pytest.mark.parametrize("m,sigma,hi", [(2.0, 4.0, 12.0), (3.0, 6.0, 8.0)])
    def test_gap_windows_are_empty(self, m, sigma, hi):
        params = Params(m, sigma)
        assert nonexistence_gap(params).gap
        cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-12)
        found = find_good_profiles(params, 0.5, hi, grid_n=17, config=cfg)
        assert found == []


class TestMultiSigmaScan:
    def test_rows_sorted_and_complete(self):
        rows = multiplicity_scan(2.0, [0.1, 0.0], 7.0, xi0_lo=4.0,
                                 grid_dx=0.5)
        assert [r.sigma for r in rows] == [0.0, 0.1]
        assert rows[0].count == 1          # the explicit sigma=0 hump
        assert rows[1].count >= 1          # the first sigma=0.1 root at 6.9
        for r in rows:
            assert len(r.xi0s) == r.count == len(r.n_maxs)


class TestIndependentCollocationOracle:
    def test_bvp_collocation_confirms_root(self):
        # independent route to the first sigma=0.1 good profile in [8, 16]:
        # collocation (scipy.solve_bvp) on s = xi/xi0 with xi0 an unknown
        # parameter, boundary conditions dg(0) = 0 plus the interface-series
        # contact at the right end.  Started from a deformed guess (5%
        # amplitude distortion, 2% off in xi0), it must come back to the
        # shooting answer through an entirely different discretization.
        from scipy.integrate import solve_bvp

        params = P201
        C = series_constant(params)
        pw = 4.0  # series exponent at m = 2
        eps_rel = 1e-3

        def ode(s, y, p):
            xi0 = p[0]
            g = np.maximum(y[0], 0.0)
            return np.vstack([xi0 * y[1],
                              xi0 * (np.sqrt(g) - (xi0 * s) ** 0.1 * y[0])])

        def bc(ya, yb, p):
            eps = eps_rel * p[0]
            return np.array([ya[1],
                             yb[0] - (C * eps) ** pw,
                             yb[1] + pw * C * (C * eps) ** (pw - 1.0)])

        root = _bisect(params, 9.5, 9.8)
        prof, out = shoot_backward(params, root, dense_dx=None)
        s_nodes = np.linspace(0.0, 1.0 - eps_rel, 400)
        g_i = np.interp(s_nodes * root, prof.xi, prof.g) * 1.05
        dg_i = np.interp(s_nodes * root, prof.xi, prof.dg) * 1.05
        sol = solve_bvp(ode, bc, s_nodes, np.vstack([g_i, dg_i]),
                        p=[1.02 * root], tol=1e-8, max_nodes=60000)
        assert sol.p[0] == pytest.approx(root, abs=1e-4)
        assert np.sqrt(sol.y[0][0]) == pytest.approx(out.f0, abs=1e-5)


def _bisect(params, lo, hi, tol=1e-7):
    s_lo = slope_fn(params, lo)
    assert s_lo * slope_fn(params, hi) < 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        s_mid = slope_fn(params, mid)
        if abs(s_mid) < tol:
            return mid
        if (s_lo < 0.0) == (s_mid < 0.0):
            lo, s_lo = mid, s_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestVerticalSlopeSteepness:
    def test_f_slope_blows_up_at_vanish(self):
        # transversal vanishing has dg bounded away from zero, so the slope
        # of f itself diverges approaching the zero
        prof, out = shoot_forward(Params(2.0, 0.5), 3.0, xi_max=50.0)
        assert isinstance(out, VerticalSlope)
        fp = prof.fprime
        interior = prof.g > 1e-12
        assert fp[interior][-1] < -10.0


class TestSigmaZeroRegressionM3:
    def test_roundtrip_with_cubic_series(self):
        # m = 3 exercises the p = 3 interface series (g ~ delta^3): the
        # explicit profile has amplitude sqrt(3)/2 and interface 3*pi/2
        m = 3.0
        p = Params(m, 0.0)
        from blowup.model import explicit_interface_F0, explicit_profile_F0
        a = explicit_profile_F0(m, 0.0)
        xi0 = explicit_interface_F0(m)
        assert a == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-15)
        assert xi0 == pytest.approx(1.5 * np.pi, rel=1e-15)

        prof, out = shoot_forward(p, a, xi_max=10.0, config=TIGHT)
        assert isinstance(out, Interface)
        assert out.xi0 == pytest.approx(xi0, abs=1e-5)

        _, back = shoot_backward(p, xi0)
        assert isinstance(back, ReachedOrigin)
        assert back.f0 == pytest.approx(a, abs=1e-8)
        assert back.slope == pytest.approx(0.0, abs=1e-8)
