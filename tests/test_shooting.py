import importlib
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blowup import analysis, shooting
from blowup.integrate import DEFAULT_REL_TOL, IntegratorConfig, integrate
from blowup.model import (Params, explicit_interface_F0,
                          explicit_profile_F0, g_field)
from blowup.phase import PhaseState
from blowup.shooting import (DEFAULT_SLOPE_TOL, EPS_REL, HANDOFF_TOL,
                             SERIES_ORDER, Diverged, Exhausted, Interface,
                             ReachedOrigin, SeedUnderflow, SeriesOverflow,
                             VerticalSlope, _itp_root, _validate_good,
                             find_good_profiles, interface_series,
                             multiplicity_scan, nonexistence_gap, profile_rhs,
                             series_constant, series_exponent, shoot_backward,
                             shoot_forward, slope_fn)

from tracemem import peak_bytes

INTEGRATE = importlib.import_module("blowup.integrate")
P20 = Params(m=2.0, sigma=0.0)
P201 = Params(m=2.0, sigma=0.1)
TIGHT = dict(rel_tol=1e-12, abs_tol=1e-14)


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
        # the weight's Taylor coefficients xi0^(sigma - j) overflow at 100,
        # and the sums of the recursion at 10
        for xi0 in (100.0, 10.0):
            with pytest.raises(SeriesOverflow):
                slope_fn(Params(2.0, 200.0), xi0)

    @settings(max_examples=200, deadline=None)
    @given(**_series_params)
    def test_closed_form_low_terms(self, m, sigma, xi0):
        # the closed forms of c_2 and c_3, to the bit
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
        # integration error into the located interface
        prof, out = shoot_forward(P20, 4.0 / 3.0, xi_max=20.0, **TIGHT)
        assert isinstance(out, Interface)
        assert out.xi0 == pytest.approx(2.0 * np.pi, abs=1e-5)
        assert prof.interface == out.xi0
        assert prof.maxima == (0.0,)
        assert len(prof.maxima) == 1

    def test_sigma0_constant_solution(self):
        prof, out = shoot_forward(P20, 1.0, xi_max=10.0)
        assert isinstance(out, Exhausted)
        assert np.max(np.abs(prof.g - 1.0)) < 1e-9
        assert len(prof.maxima) == 0

    def test_sigma_half_vertical_slope(self):
        prof, out = shoot_forward(Params(2.0, 0.5), 3.0, xi_max=50.0)
        assert isinstance(out, VerticalSlope)
        # transversal vanishing: dg stays O(1) at the crossing
        assert abs(prof.dg[-1]) > 1e-3

    @pytest.mark.parametrize("m", [2.0, 3.0])
    def test_small_amplitude_orbit_is_exhausted(self, m):
        # from a = 1e-3 the orbit is periodic about the equilibrium and
        # returns to g = a^m with dg = 0: the floor, capped at 1e-3 of the
        # launch amplitude, lies below it (uncapped, the shot ends at a false
        # Interface near 12.48 at m = 2 and 9.42 at m = 3)
        _, out = shoot_forward(Params(m, 0.0), 1e-3, xi_max=60.0,
                               dense_dx=None)
        assert out == Exhausted(60.0), out

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
                                      xi_max=20.0, **TIGHT)
        assert isinstance(out_f, Interface)
        assert out_f.xi0 == pytest.approx(9.6355, abs=5e-3)


class TestSeriesHandoff:
    """A shot hands off at the g-floor to the interface series through the
    floor state's g, found by Newton's method on the distance."""

    @settings(max_examples=200, deadline=None)
    @given(**_series_params, frac=st.floats(1e-3, 1.0))
    def test_exact_series_state_round_trip(self, m, sigma, xi0, frac):
        # the state of the full series at any depth up to the handoff depth
        # is on the interface branch, and Newton recovers its xi0
        params = Params(m, sigma)
        series = interface_series(params, xi0)
        d = frac * series.seed_distance(HANDOFF_TOL)
        xi = xi0 - d
        g, dg = series.state(xi0 - xi)
        assume(g > 1e-250)
        found = shooting._handoff(params, xi, g, dg, 1.0)
        assert found is not None
        assert found == pytest.approx(xi0, rel=1e-12)

    # the error of the forward interface against pi m/(m-1) at sigma = 0,
    # from the exact amplitude; at rel_tol 1e-10 and 1e-12 it was
    # +1.8e-8, -6.2e-9 (m = 1.5), +1.7e-8, +3.1e-10 (1.75),
    # +1.4e-8, +3.4e-10 (2) and +3.7e-9, +1.6e-10 (3)
    @pytest.mark.parametrize("m", [1.5, 1.75, 2.0, 3.0])
    @pytest.mark.parametrize("rel_tol, bound", [(1e-10, 5e-8), (1e-12, 2e-8)])
    def test_sigma0_forward_interface(self, m, rel_tol, bound):
        ref = explicit_interface_F0(m)
        _, out = shoot_forward(Params(m, 0.0), explicit_profile_F0(m, 0.0),
                               xi_max=2.5 * ref,
                               rel_tol=rel_tol, dense_dx=None)
        assert isinstance(out, Interface), out
        assert abs(out.xi0 - ref) < bound

    def test_backward_shot_past_the_floor_reaches_the_axis(self):
        # from 4 pi - 0.17 the sigma = 0 branch passes g = 5.3e-6 at the
        # axis, below the floor: the series through the floor state
        # vanishes at xi0 < 0, so the shot goes on to the axis, where
        # f'(0) = -sin(xi0/2)/3
        xi0 = 12.4
        prof, out = shoot_backward(P20, xi0, dense_dx=None,
                                   track_events=False)
        assert isinstance(out, ReachedOrigin), out
        assert out.slope == pytest.approx(-np.sin(0.5 * xi0) / 3.0, rel=1e-3)
        assert prof.g.min() < 1e-3

    def test_sigma0_m3_error_falls_with_the_tolerance(self):
        ref = explicit_interface_F0(3.0)
        errors = [abs(shoot_forward(
            Params(3.0, 0.0), explicit_profile_F0(3.0, 0.0), xi_max=2.5 * ref,
            rel_tol=tol, dense_dx=None)[1].xi0 - ref)
            for tol in (1e-10, 1e-12)]
        assert errors[1] < 0.1 * errors[0]


class TestShotLegs:
    """A shot is at most two legs of integrate: to the g-floor, and on from
    there to the zero floor when the floor state is off the interface
    branch."""

    P = Params(2.0, 0.5)

    def shot(self):
        # 60 steps to the g-floor, then 4 to g = 0
        return shoot_forward(self.P, 3.0, xi_max=50.0, dense_dx=None)

    def test_failure_on_the_first_leg(self, monkeypatch):
        full, _ = self.shot()
        monkeypatch.setattr(INTEGRATE, "MAX_STEPS", 30)
        prof, out = self.shot()
        assert isinstance(out, Diverged) and "30 steps" in out.reason, out
        # the partial trajectory: the start and 30 accepted steps
        assert len(prof.xi) == 31
        assert np.array_equal(prof.xi, full.xi[:31])
        assert np.array_equal(prof.g, full.g[:31])

    def test_failure_on_the_second_leg(self, monkeypatch):
        full, out = self.shot()
        assert isinstance(out, VerticalSlope), out
        calls = []

        def second_leg_capped(*args, **kwargs):
            if calls:
                monkeypatch.setattr(INTEGRATE, "MAX_STEPS", 2)
            calls.append(args[2])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(shooting, "integrate", second_leg_capped)
        prof, out = self.shot()
        assert len(calls) == 2
        assert isinstance(out, Diverged) and "2 steps" in out.reason, out
        # the first leg's 61 points, the last of them where the second leg
        # starts, then that leg's 2 steps
        n = len(full.xi) - 2
        assert len(prof.xi) == n and prof.xi[-3] == calls[1][0]
        assert np.array_equal(prof.xi, full.xi[:n])
        assert np.array_equal(prof.dg, full.dg[:n])

    def test_steep_start_reaches_a_vertical_slope(self):
        # g'' <= g^(1/m)/(m-1) grows sublinearly, so no profile escapes to
        # infinity at finite xi: from slope 1e9 at sigma = 0 the shot rises
        # past g = 1e9 and comes back down to g = 0 near pi
        _, out = shoot_forward(P20, 1.0, slope0=1e9, xi_max=30.0,
                               dense_dx=None)
        assert isinstance(out, VerticalSlope), out
        assert abs(out.xi0 - np.pi) < 1e-3


class TestBackwardShot:
    def test_sigma0_recovers_explicit(self):
        prof, out = shoot_backward(P20, explicit_interface_F0(2.0))
        assert isinstance(out, ReachedOrigin)
        assert out.f0 == pytest.approx(4.0 / 3.0, abs=1e-4)
        assert out.slope == pytest.approx(0.0, abs=1e-4)
        assert len(prof.maxima) == 1
        assert prof.maxima == (0.0,)

    def test_dense_shot_memory(self):
        # the long dense shot's temporaries stay near its profile's size:
        # about 3.2 times its xi, g and dg arrays here, against 10 times with
        # the samples' coefficients gathered at once as (8, samples, 2)
        prof, _ = shoot_backward(P201, 78.624)
        assert len(prof.xi) > 78_000
        arrays = prof.xi.nbytes + prof.g.nbytes + prof.dg.nbytes
        assert peak_bytes(lambda: shoot_backward(P201, 78.624)) <= 6 * arrays

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


def _assert_alternating(profile):
    # maxima and minima interleave, at strictly increasing xi
    points = sorted([(x, 1) for x in profile.maxima]
                    + [(x, -1) for x in profile.minima])
    for (xa, ka), (xb, kb) in zip(points, points[1:]):
        assert xa < xb and ka != kb, points


class TestExtrema:
    @pytest.mark.parametrize("m, sigma, xi0", _LEADING_ORDER_CASES)
    def test_alternate_on_dense_shots(self, m, sigma, xi0):
        prof, out = shoot_backward(Params(m, sigma), xi0)
        assert isinstance(out, ReachedOrigin), out
        _assert_alternating(prof)

    def test_alternate_on_good_profiles(self, counted_window):
        # the two good profiles of acceptance check 2's window
        found, _ = counted_window
        assert len(found) == 2
        for gp in found:
            _assert_alternating(gp.profile)


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
        gp = _validate_good(Params(2, 0), xi0, 1e-4, DEFAULT_REL_TOL)
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


def _search_tol(slope_tol):
    # find_good_profiles' search tolerance at the default rel_tol
    return max(DEFAULT_REL_TOL,
               min(shooting.SEARCH_REL_TOL, slope_tol / 100.0))


class TestSearchTolerance:
    """Grid and ITP shots run at a looser tolerance than the caller's; the
    margin 10 L must cover their slope error, and the caller's tolerance
    must decide every root they misplace."""

    # (sigma, xi0 window, slope_tol, spacing): the windows of the search
    # benchmark (each seed's placement) and of acceptance checks 2 and 3
    @pytest.mark.parametrize("sigma, lo, hi, slope_tol, dx", [
        (0.1, 7.5, 17.5, 1e-4, 0.25),
        (0.0, 5.0, 7.5, DEFAULT_SLOPE_TOL, 0.125),
        (4.0, 0.45, 8.05, DEFAULT_SLOPE_TOL, 0.2),
        (0.1, 8.0, 16.0, DEFAULT_SLOPE_TOL, 0.25),
        (0.1, 0.05, 80.0, 1e-4, 0.4996875),
    ])
    def test_loose_slope_error(self, sigma, lo, hi, slope_tol, dx):
        params = Params(2.0, sigma)
        L = _search_tol(slope_tol)
        for x in np.arange(lo, hi + 1e-9, dx):
            s = slope_fn(params, float(x))
            s_loose = slope_fn(params, float(x), rel_tol=L)
            err = abs(s_loose - s) / (1.0 + abs(s))
            # the error grows with xi0 at sigma = 0.1: 6.2 L near xi0 = 74
            bound = 10.0 * L / (3.0 if x <= 60.0 else 1.0)
            assert err < bound, (x, err / L)

    def test_biased_loose_slopes_fall_back(self, monkeypatch):
        # loose slopes 2 slope_tol off put every loose root where the
        # validating shot fails: each cell is searched again at the caller's
        # tolerance, which must give that search's roots exactly
        slope_tol = 1e-4
        original = shooting.slope_fn
        tols = []

        def biased(params, xi0, rel_tol):
            # None marks a shot at the caller's tolerance
            loose = rel_tol != DEFAULT_REL_TOL
            s = original(params, xi0, rel_tol=rel_tol)
            tols.append(rel_tol if loose else None)
            return s + 2.0 * slope_tol if loose else s

        monkeypatch.setattr(shooting, "slope_fn", biased)
        found = find_good_profiles(P201, 8.5, 16.5, grid_n=9,
                                   slope_tol=slope_tol)
        assert _search_tol(slope_tol) in tols and None in tols
        monkeypatch.setattr(shooting, "SEARCH_REL_TOL", DEFAULT_REL_TOL)
        want = find_good_profiles(P201, 8.5, 16.5, grid_n=9,
                                  slope_tol=slope_tol)
        assert [gp.xi0 for gp in found] == [gp.xi0 for gp in want]
        assert [gp.n_max for gp in found] == [gp.n_max for gp in want]
        assert [gp.n_max for gp in want] == [1, 2]

    def test_failed_loose_itp_evaluation_retried(self, monkeypatch):
        # every ITP evaluation at the search tolerance fails: each is taken
        # again at the caller's tolerance, and the roots are still found
        slope_tol = 1e-4
        grid = set(np.linspace(8.5, 16.5, 9).tolist())
        original = shooting.slope_fn
        calls = []

        def failing(params, xi0, rel_tol):
            calls.append((xi0, rel_tol))
            if rel_tol != DEFAULT_REL_TOL and xi0 not in grid:
                raise shooting.SlopeUnreliable("loose ITP evaluation")
            return original(params, xi0, rel_tol=rel_tol)

        monkeypatch.setattr(shooting, "slope_fn", failing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = find_good_profiles(P201, 8.5, 16.5, grid_n=9,
                                       slope_tol=slope_tol)
        assert [gp.n_max for gp in found] == [1, 2]
        failed = [i for i, (x, tol) in enumerate(calls)
                  if tol != DEFAULT_REL_TOL and x not in grid]
        assert failed
        for i in failed:
            assert calls[i + 1] == (calls[i][0], DEFAULT_REL_TOL)

    def test_root_discarded_when_its_cell_fails_again(self, monkeypatch):
        # validation fails at the loose root and again at its cell's root
        # at the caller's tolerance: the root is dropped with one warning
        validated = []

        def failing(params, xi0, slope_tol, rel_tol):
            validated.append(xi0)
            raise shooting.SlopeUnreliable("validation")

        monkeypatch.setattr(shooting, "_validate_good", failing)
        with pytest.warns(UserWarning, match="discarding root") as record:
            found = find_good_profiles(P201, 8.5, 16.5, grid_n=9,
                                       slope_tol=1e-4)
        assert found == []
        assert len(validated) == 4 and len(record) == 2
        # each warning names the root of its cell's search at rel_tol
        for rec, xi0 in zip(record, validated[1::2]):
            assert f"xi0={xi0}:" in str(rec.message)

    def test_root_discarded_when_its_cell_has_no_root(self, monkeypatch):
        # validation fails at the loose root and its cell, searched again at
        # the caller's tolerance, shows no root: still one warning per root
        def failing(params, xi0, slope_tol, rel_tol):
            raise shooting.SlopeUnreliable("validation")

        monkeypatch.setattr(shooting, "_validate_good", failing)
        monkeypatch.setattr(shooting, "_cell_root", lambda *args: None)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            found = find_good_profiles(P201, 8.5, 16.5, grid_n=9,
                                       slope_tol=1e-4)
        assert found == []
        messages = [str(rec.message) for rec in record]
        # the two roots of the window, 9.635 and 15.385, each named once
        assert len(messages) == 2, messages
        for message, near in zip(messages, (9.635, 15.385)):
            assert message.startswith("discarding root at xi0=")
            xi0 = float(message.split("=")[1].split(":")[0])
            assert xi0 == pytest.approx(near, abs=1e-2)
            assert "no root in its cell" in message

    def test_sigma0_past_4pi(self):
        # loose shots reach the axis beyond 4 pi, where those at the
        # caller's tolerance stop on the g-floor; no root is invented there
        rows = multiplicity_scan(2.0, [0.0], 20.0, grid_dx=0.5,
                                 slope_tol=1e-4)
        assert rows[0].count == 1
        assert rows[0].xi0s[0] == pytest.approx(2.0 * np.pi, abs=1e-3)

    def test_caller_tolerance_at_search_tolerance(self, monkeypatch):
        # rel_tol at or above the search tolerance: no margin, every shot at
        # the caller's rel_tol
        tols = []
        original = shooting.integrate

        def recording(*args, **kwargs):
            tols.append(kwargs["config"].rel_tol)
            return original(*args, **kwargs)

        monkeypatch.setattr(shooting, "integrate", recording)
        found = find_good_profiles(P201, 8.5, 16.5, grid_n=9, slope_tol=1e-4,
                                   rel_tol=1e-6)
        assert len(found) == 2
        assert len(tols) > 9 and set(tols) == {1e-6}


class TestToleranceArguments:
    """Shots, searches and orbits build the IntegratorConfig of each
    integrate call from the tolerances they take."""

    @staticmethod
    def _configs(monkeypatch, module, run):
        seen = []

        def recording(rhs, y0, t_span, events=(), config=None):
            seen.append(config)
            return integrate(rhs, y0, t_span, events=events, config=config)

        monkeypatch.setattr(module, "integrate", recording)
        run()
        return seen

    def test_every_integrate_call_gets_them(self, monkeypatch):
        rel_tol, abs_tol = 1e-11, 1e-13
        # a forward shot continued past the failed handoff to g = 0
        seen = self._configs(monkeypatch, shooting, lambda: shoot_forward(
            Params(2.0, 0.5), 3.0, xi_max=50.0, rel_tol=rel_tol,
            abs_tol=abs_tol))
        assert len(seen) == 2
        assert all(c.rel_tol == rel_tol and c.abs_tol == abs_tol
                   for c in seen)
        seen = self._configs(monkeypatch, shooting, lambda: shoot_backward(
            P201, 12.0, rel_tol=rel_tol))
        assert len(seen) == 1 and seen[0].rel_tol == rel_tol
        seen = self._configs(monkeypatch, analysis, lambda: (
            analysis.integrate_orbit(Params(2.0, 1.0),
                                     PhaseState(0.05, 0.01, 1.01), 5.0,
                                     rel_tol=rel_tol, abs_tol=abs_tol)))
        assert len(seen) == 1
        assert (seen[0].rel_tol, seen[0].abs_tol) == (rel_tol, abs_tol)
        # a search: grid and ITP shots at the search tolerance, all others,
        # the dense validating shots among them, at rel_tol
        seen = self._configs(monkeypatch, shooting, lambda: (
            find_good_profiles(P201, 8.5, 16.5, grid_n=9, slope_tol=1e-4,
                               rel_tol=rel_tol)))
        assert {c.rel_tol for c in seen} == {_search_tol(1e-4), rel_tol}
        dense = [c for c in seen if c.dense_dx]
        assert len(dense) == 2 and all(c.rel_tol == rel_tol for c in dense)


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

    def test_series_overflow_recorded(self):
        # at sigma = 200 the weight's Taylor coefficients xi0^(sigma - j)
        # overflow a float near xi0 = 100: like a seed underflow, each such
        # grid point is dropped and named in the warning, and the row is a
        # count, not an error
        with pytest.raises(OverflowError):
            interface_series(Params(2.0, 200.0), 95.0)
        with pytest.warns(UserWarning, match=r"dropped xi0 = \[95\.0, "):
            rows = multiplicity_scan(2.0, [200.0], 100.0, xi0_lo=95.0,
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
        assert len(prof.maxima) == 1

    def test_constant_profile(self):
        prof, _ = shoot_forward(P20, 1.0, xi_max=10.0)
        assert len(prof.maxima) == 0

    def test_oscillating_profile(self):
        # the root near 15.39 carries two maxima and one interior minimum
        prof, out = shoot_backward(P201, 15.3854)
        assert isinstance(out, ReachedOrigin)
        assert len(prof.maxima) == 2
        assert len(prof.minima) >= 1


class TestGapImpliesEmpty:
    @pytest.mark.parametrize("m,sigma,hi", [(2.0, 4.0, 12.0), (3.0, 6.0, 8.0)])
    def test_gap_windows_are_empty(self, m, sigma, hi):
        params = Params(m, sigma)
        assert nonexistence_gap(params).gap
        found = find_good_profiles(params, 0.5, hi, grid_n=17, rel_tol=1e-8)
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

        prof, out = shoot_forward(p, a, xi_max=10.0, **TIGHT)
        assert isinstance(out, Interface)
        assert out.xi0 == pytest.approx(xi0, abs=1e-5)

        _, back = shoot_backward(p, xi0)
        assert isinstance(back, ReachedOrigin)
        assert back.f0 == pytest.approx(a, abs=1e-8)
        assert back.slope == pytest.approx(0.0, abs=1e-8)
