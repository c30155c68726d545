import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup import analysis, phase, shooting
from blowup.integrate import (EVENT_TOL, Event, EventKind, IntegrationError,
                              IntegratorConfig, MaxStepsExceeded,
                              NonFiniteState, StepUnderflow, integrate)
from blowup.model import Params

# the module itself: the package rebinds blowup.integrate to the function
INTEGRATE = importlib.import_module("blowup.integrate")


def _decay(t, y):
    return (-y[0],)


def _oscillator(t, y):
    return (y[1], -y[0])


class TestBasicIntegration:
    def test_exponential_decay(self):
        res = integrate(_decay, [1.0], (0.0, 1.0))
        assert res.reason == "completed"
        assert res.y[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_backward_span(self):
        res = integrate(_decay, [1.0], (1.0, 0.0))
        assert res.y[-1, 0] == pytest.approx(np.e, rel=1e-9)

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            integrate(_decay, [1.0], (1.0, 1.0))

    def test_reverse_consistency(self):
        # out and back across a smooth span returns the initial state
        cfg = IntegratorConfig()
        fwd = integrate(_oscillator, [1.0, 0.0], (0.0, 2.0), config=cfg)
        back = integrate(_oscillator, fwd.y[-1], (2.0, 0.0), config=cfg)
        assert np.max(np.abs(back.y[-1] - [1.0, 0.0])) < 100 * cfg.rel_tol


class TestEvents:
    def test_oscillator_zero_crossing(self):
        ev = Event(EventKind.SECTION_CROSS, lambda t, y: y[0], direction=-1,
                   terminal=True)
        res = integrate(_oscillator, [1.0, 0.0], (0.0, 10.0), events=(ev,))
        assert res.reason == "terminal_event"
        assert res.terminal_event.t == pytest.approx(np.pi / 2.0, abs=1e-9)

    def test_event_refinement_tolerance(self):
        ev = Event(EventKind.SECTION_CROSS, lambda t, y: y[0], direction=0,
                   terminal=False)
        res = integrate(_oscillator, [1.0, 0.0], (0.0, 12.0), events=(ev,))
        assert len(res.events) == 4  # odd multiples of pi/2 below 12
        for rec, k in zip(res.events, (1, 3, 5, 7)):
            assert abs(rec.y[0]) < EVENT_TOL
            assert rec.t == pytest.approx(k * np.pi / 2.0, abs=1e-9)

    def test_direction_filter(self):
        rising = Event(EventKind.SECTION_CROSS, lambda t, y: y[0],
                       direction=+1, terminal=True)
        res = integrate(_oscillator, [1.0, 0.0], (0.0, 12.0), events=(rising,))
        # first rising crossing of y = 0 is at 3*pi/2
        assert res.terminal_event.t == pytest.approx(1.5 * np.pi, abs=1e-8)

    def test_no_retrigger_from_exact_zero(self):
        # trajectory starts on the event surface; must not fire at t = 0
        ev = Event(EventKind.DG_ZERO, lambda t, y: y[1], direction=0,
                   terminal=True)
        res = integrate(_oscillator, [1.0, 0.0], (0.0, 5.0), events=(ev,))
        assert res.terminal_event.t == pytest.approx(np.pi, abs=1e-8)

    def test_profile_floor_event_location(self):
        # g-floor crossing on the explicit sigma=0 solution, analytic oracle:
        # (16/9) cos^4(xi/4) = floor  =>  xi = 4 arccos((9 floor/16)^(1/4))
        params = Params(m=2.0, sigma=0.0)

        def rhs(xi, y):
            g = np.where(np.asarray(y[0]) > 0.0, y[0], 0.0)
            return np.array([y[1], np.sqrt(g) - y[0]])

        floor = 1e-2
        ev = Event(EventKind.GZERO, lambda t, y: y[0] - floor, direction=-1,
                   terminal=True)
        res = integrate(rhs, [(4.0 / 3.0) ** 2, 0.0], (0.0, 10.0), events=(ev,))
        xi_ref = 4.0 * np.arccos((9.0 * floor / 16.0) ** 0.25)
        assert res.terminal_event.t == pytest.approx(xi_ref, abs=1e-7)

    def test_terminal_truncates_trajectory(self):
        ev = Event(EventKind.STATE_BOUND, lambda t, y: 0.5 - y[0],
                   direction=+1, terminal=True)
        res = integrate(_decay, [1.0], (0.0, 10.0), events=(ev,))
        assert res.t[-1] == res.terminal_event.t
        assert res.y[-1, 0] == pytest.approx(0.5, abs=1e-10)


class TestSelfConvergence:
    def test_halving_rel_tol(self):
        ev = Event(EventKind.SECTION_CROSS, lambda t, y: y[0], direction=-1,
                   terminal=True)
        locs = []
        for rel in (1e-8, 5e-9):
            cfg = IntegratorConfig(rel_tol=rel, abs_tol=1e-14)
            res = integrate(_oscillator, [1.0, 0.0], (0.0, 10.0), events=(ev,),
                            config=cfg)
            locs.append(res.terminal_event.t)
        assert abs(locs[0] - locs[1]) < 10 * 1e-8


class TestFailures:
    def test_max_steps(self, monkeypatch):
        monkeypatch.setattr(INTEGRATE, "MAX_STEPS", 5)
        with pytest.raises(MaxStepsExceeded) as err:
            integrate(_oscillator, [1.0, 0.0], (0.0, 100.0))
        assert err.value.partial is not None
        assert err.value.partial.t.size >= 1

    def test_nonfinite_state(self, monkeypatch):
        def blowup_rhs(t, y):
            return (y[0] * y[0],)  # finite-time blow-up at t = 1

        # a finite-time blow-up ends in one of the typed failures: the step
        # shrinks below 10 ulp before the state overflows
        monkeypatch.setattr(INTEGRATE, "MAX_STEPS", 100_000)
        with pytest.raises((NonFiniteState, StepUnderflow)):
            integrate(blowup_rhs, [1.0], (0.0, 2.0))

    def test_nonfinite_initial_state(self):
        with pytest.raises(NonFiniteState):
            integrate(_decay, [np.nan], (0.0, 1.0))


def _square(t, y):
    return (y[0] * y[0],)  # y(0) = 1: y = 1/(1 - t), blow-up at t = 1


class TestStepControl:
    """The predictive controller follows a steadily rising error estimate,
    as on an orbit that blows up, instead of failing on every other step."""

    def test_blowup_without_rejections(self):
        res = integrate(_square, [1.0], (0.0, 1.0 - 1e-6))
        assert res.n_rejected <= 5, (res.n_steps, res.n_rejected)
        assert abs(res.y[-1, 0] * 1e-6 - 1.0) < 1e-4

    def test_blowup_stopped_by_state_bound(self):
        ev = Event(EventKind.STATE_BOUND, lambda t, y: 1e6 - y[0],
                   direction=-1, terminal=True)
        res = integrate(_square, [1.0], (0.0, 2.0), events=(ev,))
        assert res.reason == "terminal_event"
        assert res.n_rejected <= 5, (res.n_steps, res.n_rejected)
        assert res.terminal_event.t == pytest.approx(1.0 - 1e-6, abs=1e-10)

    def test_partial_result_counts_rejections(self):
        # past the pole the step shrinks below 10 ulp only by rejections
        with pytest.raises(StepUnderflow) as err:
            integrate(_square, [1.0], (0.0, 2.0))
        assert 1 <= err.value.partial.n_rejected <= 5

    def test_deterministic(self):
        from blowup.shooting import interface_series, profile_rhs
        params, xi0 = Params(2.0, 0.1), 12.0
        series = interface_series(params, xi0)
        eps = series.seed_distance()
        g0, dg0 = series.state(eps)
        cfg = IntegratorConfig(abs_tol=np.array([1e-8 * g0, 1e-8 * abs(dg0)]))
        a, b = (integrate(profile_rhs(params), [g0, dg0], (xi0 - eps, 0.0),
                          config=cfg) for _ in range(2))
        assert a.t.tobytes() == b.t.tobytes()
        assert a.y.tobytes() == b.y.tobytes()
        assert (a.n_steps, a.n_rejected) == (b.n_steps, b.n_rejected)


class TestDenseSampling:
    def test_uniform_samples_merged(self):
        cfg = IntegratorConfig(dense_dx=0.01)
        res = integrate(_decay, [1.0], (0.0, 1.0), config=cfg)
        dt = np.diff(res.t)
        assert np.all(dt > 0.0)
        assert np.max(dt) <= 0.01 + 1e-12
        # dense samples are on the interpolant, so they satisfy the ODE
        assert np.max(np.abs(res.y[:, 0] - np.exp(-res.t))) < 1e-9


def _poly_ref(x, q):
    # the 7th-order dense-output polynomial written out on floats, in the
    # operation order of the interpolant: the reference for batched samples
    u, f0, f1, f2, f3, f4, f5, f6 = q
    return u + x * (f0 + (1.0 - x) * (f1 + x * (f2 + (1.0 - x) * (
        f3 + x * (f4 + (1.0 - x) * (f5 + x * f6))))))


class TestBatchedDenseSamples:
    """Dense samples are evaluated in one numpy pass when the trajectory is
    returned; they must be exactly what a per-sample loop would produce."""

    @staticmethod
    def _grid(t0, dx, direction, t_end):
        # the sequential sums t0 + dx + dx + ... before t_end (1e-12 relative)
        sums, t = [], t0
        while True:
            t += dx * direction
            if direction * (t_end - t) <= 1e-12 * max(1.0, abs(t_end)):
                return sums
            sums.append(t)

    @staticmethod
    def _interpolant(rhs, steps, k):
        # the coefficients of accepted step k, recomputed from its start
        from blowup.integrate import _dp_step, _interpolant
        t_old, t_new = float(steps.t[k]), float(steps.t[k + 1])
        y_old = tuple(steps.y[k].tolist())
        h = t_new - t_old
        y_new, stages = _dp_step(rhs, t_old, y_old, rhs(t_old, y_old), h)
        assert list(y_new) == steps.y[k + 1].tolist()
        return t_old, h, _interpolant(rhs, t_old, h, y_old, y_new, stages,
                                      rhs(t_new, y_new))

    def _check(self, rhs, y0, t_span, cfg, events=()):
        from blowup.integrate import _dense_states
        res = integrate(rhs, y0, t_span, events=events, config=cfg)
        # the same accepted steps over the whole span, without samples
        steps = integrate(rhs, y0, t_span,
                          config=replace(cfg, dense_dx=None))
        direction = 1.0 if t_span[1] > t_span[0] else -1.0
        assert np.all(direction * np.diff(res.t) > 0.0)

        is_sample = ~np.isin(res.t, steps.t)
        if res.reason == "terminal_event":
            is_sample[-1] = False
        n_ends = len(res.t) - int(np.count_nonzero(is_sample))
        if res.reason == "terminal_event":
            n_ends -= 1
        assert np.array_equal(res.t[~is_sample][:n_ends], steps.t[:n_ends])
        assert np.array_equal(res.y[~is_sample][:n_ends], steps.y[:n_ends])

        samples = res.t[is_sample]
        assert samples.tolist() == self._grid(float(t_span[0]), cfg.dense_dx,
                                              direction, float(res.t[-1]))
        ends = np.sort(steps.t)
        pos = np.clip(np.searchsorted(ends, samples), 1, len(ends) - 1)
        gap = np.minimum(np.abs(samples - ends[pos - 1]),
                         np.abs(samples - ends[pos]))
        assert np.all(gap > 1e-13 * np.maximum(1.0, np.abs(samples)))

        step_of = np.searchsorted(direction * steps.t, direction * samples) - 1
        coefs = {}
        for s, k, y in zip(samples.tolist(), step_of.tolist(),
                           res.y[is_sample].tolist()):
            if k not in coefs:
                coefs[k] = self._interpolant(rhs, steps, k)
            t_old, h, q = coefs[k]
            ref = [_poly_ref((s - t_old) / h, c) for c in q]
            assert y == ref
            assert list(_dense_states(q, t_old, h, [s])[0]) == ref
        return res, steps, samples

    def test_backward_profile_shot(self):
        from blowup.shooting import interface_series, profile_rhs
        params, xi0 = Params(2.0, 0.1), 12.0
        eps = 1e-6 * xi0
        g0, dg0 = interface_series(params, xi0).state(eps)
        cfg = IntegratorConfig(abs_tol=np.array([1e-8 * g0, 1e-8 * abs(dg0)]),
                               dense_dx=1e-3)
        _, steps, samples = self._check(profile_rhs(params), [g0, dg0],
                                        (xi0 - eps, 0.0), cfg)
        assert len(samples) > 11_000 and steps.n_steps > 100

    def test_forward_terminal_event_mid_step(self):
        ev = Event(EventKind.SECTION_CROSS, lambda t, y: y[0], direction=-1,
                   terminal=True)
        cfg = IntegratorConfig(dense_dx=0.01)
        res, steps, samples = self._check(_oscillator, [1.0, 0.0],
                                          (0.0, 20.0), cfg, events=(ev,))
        assert res.reason == "terminal_event"
        t_term = res.terminal_event.t
        assert res.t[-1] == t_term
        # the step holding the event reaches past the next grid point, whose
        # sample is dropped with the rest of the step
        k = int(np.searchsorted(steps.t, t_term))
        assert steps.t[k] > samples[-1] + 2 * cfg.dense_dx
        assert samples[-1] > steps.t[k - 1]

    def test_grid_points_on_step_ends_are_not_repeated(self):
        # y' = 1 is integrated exactly, so the first step is first_step = 0.5
        # long and the second grows to the end of the span: the grid of
        # spacing 0.25 falls on both step ends
        def unit(t, y):
            return (1.0,)

        cfg = IntegratorConfig(first_step=0.5, dense_dx=0.25)
        for span in ((0.0, 1.5), (1.5, 0.0)):
            res = integrate(unit, [0.0], span, config=cfg)
            assert res.n_steps == 2
            assert res.t.tolist() == np.linspace(*span, 7).tolist()

    def test_grid_drift_past_the_count_estimate(self):
        # 150,000 sums of 0.0013 fall behind the nominal grid by about 5e-12
        # relative, more than the 1e-12 stop rule, so a grid point just
        # beyond the step end nominally is a sample: the count estimated
        # from the step length is one short and the grid must run on
        def unit(t, y):
            return (1.0,)

        dx = 0.0013
        end = dx * 150_001 - 1e-10
        res = integrate(unit, [0.0], (0.0, end),
                        config=IntegratorConfig(first_step=end, dense_dx=dx))
        assert res.n_steps == 1
        grid = self._grid(0.0, dx, 1.0, end)
        assert len(grid) == 150_001 and grid[-1] < end
        assert res.t[1:-1].tolist() == grid

    def test_grid_below_float_spacing(self):
        # 1 + 1e-17 == 1: the sums never advance over a step longer than the
        # 1e-12 stop distance, which is an error, not an endless grid
        def unit(t, y):
            return (1.0,)

        cfg = IntegratorConfig(first_step=1e-11, dense_dx=1e-17)
        with pytest.raises(ValueError, match="float spacing"):
            integrate(unit, [0.0], (1.0, 1.0 + 1e-11), config=cfg)

    @pytest.mark.parametrize("t_span", [(0.0, 100.0), (100.0, 0.0)])
    def test_max_steps_partial(self, t_span, monkeypatch):
        cfg = IntegratorConfig(dense_dx=0.01)
        with monkeypatch.context() as patched:
            patched.setattr(INTEGRATE, "MAX_STEPS", 5)
            with pytest.raises(MaxStepsExceeded) as err:
                integrate(_oscillator, [1.0, 0.0], t_span, config=cfg)
        part = err.value.partial
        direction = 1.0 if t_span[1] > t_span[0] else -1.0
        assert part.n_steps == 5 and part.reason == "aborted"
        assert np.all(direction * np.diff(part.t) > 0.0)
        assert len(part.t) > 5 + 1
        steps = integrate(_oscillator, [1.0, 0.0], t_span,
                          config=replace(cfg, dense_dx=None))
        assert part.t[-1] == steps.t[5]
        assert part.y[-1].tolist() == steps.y[5].tolist()


@st.composite
def _coefficients(draw):
    """(y_old, F0, ..., F6) with magnitudes from 1e-300 to 1e300 and signed
    zeros.  Each coefficient is a signed zero or m 10^e with 1 <= |m| < 10;
    e is one decade for the whole tuple, where the terms are alike and the
    bounds can be tight, or is drawn for each coefficient."""
    decade = st.integers(-300, 299)
    shared = draw(st.one_of(st.none(), decade))
    q = []
    for _ in range(8):
        if draw(st.integers(0, 3)) == 0:
            q.append(draw(st.sampled_from([0.0, -0.0])))
            continue
        m = draw(st.floats(1.0, 10.0, exclude_max=True))
        e = draw(decade) if shared is None else shared
        q.append(draw(st.sampled_from([1.0, -1.0])) * m * 10.0 ** e)
    return tuple(q)


@st.composite
def _tight_coefficients(draw):
    """Tuples on which the bound without its rounding allowance is attained
    at x = 1/2: F0, F2, F4 and F6 signed zeros, F1, F3 and F5 of one sign,
    and all in one decade."""
    e = draw(st.integers(-300, 299))
    sign = draw(st.sampled_from([1.0, -1.0]))
    mantissa = st.floats(1.0, 10.0, exclude_max=True)
    zero = st.sampled_from([0.0, -0.0])
    u = draw(st.sampled_from([1.0, -1.0])) * draw(mantissa) * 10.0 ** e
    return (u, draw(zero), sign * draw(mantissa) * 10.0 ** e, draw(zero),
            sign * draw(mantissa) * 10.0 ** e, draw(zero),
            sign * draw(mantissa) * 10.0 ** e, draw(zero))


class TestDenseBox:
    """_dense_box must enclose every float value of the dense-output
    polynomial on [0, 1], or an event certificate could clear a step on
    which the event changes sign."""

    # the sub-points of event sampling and a fine grid
    XS = sorted(set([i / 8 for i in range(9)]
                    + np.linspace(0.0, 1.0, 401).tolist()))

    # F0 = F2 = F4 = F6 = 0 at x = 1/2: the bound without its rounding
    # allowance is attained, and the nested evaluation rounds past it
    @example((-0.13446586418989326, 0.0, -0.762280082457942, 0.0,
              -0.0021060533511106927, 0.0, -0.4453871940548014, 0.0))
    @example((-0.24406233131278388, 0.0, 0.34693088456262167, 0.0,
              0.2057617572947047, 0.0, 0.6741530142468641, 0.0))
    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(_coefficients(), _tight_coefficients()))
    def test_encloses_the_polynomial(self, q):
        from blowup.integrate import _dense_box, _dense_poly
        lo, hi = _dense_box(q)
        for x in self.XS:
            assert lo <= _dense_poly(x, q) <= hi, x

    def test_nan_coefficients_give_nan_bounds(self):
        from blowup.integrate import _dense_box
        for k in range(1, 8):
            q = [1.0] * 8
            q[k] = float("nan")
            assert all(np.isnan(_dense_box(tuple(q)))), k


class TestEventScreen:
    """Certificates only skip the sampling of steps on which it would find
    no sign change: with them stripped every step is sampled, and each
    integration must return the same bits."""

    @staticmethod
    def _both(monkeypatch, module, run):
        """Results of the integrate calls made by run() through module, with
        the events' certificates and without, and the event calls made."""
        results, calls = {}, {}
        for screened in (True, False):
            out, count = [], [0]

            def counted(ev, screened=screened, count=count):
                def fn(t, y):
                    count[0] += 1
                    return ev.fn(t, y)
                return replace(ev, fn=fn,
                               one_sign=ev.one_sign if screened else None)

            def recording(rhs, y0, t_span, events=(), config=None, out=out,
                          counted=counted):
                try:
                    res = integrate(rhs, y0, t_span,
                                    events=[counted(ev) for ev in events],
                                    config=config)
                except IntegrationError as err:
                    out.append(err.partial)
                    raise
                out.append(res)
                return res

            monkeypatch.setattr(module, "integrate", recording)
            run()
            results[screened], calls[screened] = out, count[0]
        return results[True], results[False], calls[True], calls[False]

    def _assert_same(self, monkeypatch, module, run):
        screened, sampled, n_screened, n_sampled = self._both(
            monkeypatch, module, run)
        assert screened and len(screened) == len(sampled)
        for a, b in zip(screened, sampled):
            assert a.t.tobytes() == b.t.tobytes()
            assert a.y.tobytes() == b.y.tobytes()
            assert (a.reason, a.n_steps) == (b.reason, b.n_steps)
            assert ([(r.kind, r.t, r.y.tobytes(), r.terminal)
                     for r in a.events]
                    == [(r.kind, r.t, r.y.tobytes(), r.terminal)
                        for r in b.events])
        # and the screen cleared most steps
        assert 3 * n_screened < n_sampled, (n_screened, n_sampled)
        return screened

    def test_dense_backward_shot_with_extrema(self, monkeypatch):
        res = self._assert_same(monkeypatch, shooting, lambda: (
            shooting.shoot_backward(Params(2.0, 0.1), 40.0)))
        kinds = [r.kind for r in res[0].events]
        assert kinds.count(EventKind.DG_ZERO) >= 9

    def test_forward_shot_floor_handoff(self, monkeypatch):
        res = self._assert_same(monkeypatch, shooting, lambda: (
            shooting.shoot_forward(Params(2.0, 0.0), 4.0 / 3.0)))
        assert res[0].terminal_event.kind is EventKind.GZERO

    def test_forward_shot_vertical_slope(self, monkeypatch):
        # the shot continues past the floor to g = 0 with a zero floor
        res = self._assert_same(monkeypatch, shooting, lambda: (
            shooting.shoot_forward(Params(2.0, 0.5), 3.0, xi_max=50.0)))
        assert len(res) == 2
        assert res[1].terminal_event.kind is EventKind.GZERO

    def test_backward_shot_large_sigma(self, monkeypatch):
        res = self._assert_same(monkeypatch, shooting, lambda: (
            shooting.shoot_backward(Params(2.0, 4.0), 8.0)))
        assert res[0].reason == "completed"

    def test_p3_spiral(self, monkeypatch):
        res = self._assert_same(monkeypatch, phase, lambda: (
            phase.p3_spiral_diagnostic(Params(2.0, 1.0),
                                       phase.PhaseState(0.05, 0.01, 1.01),
                                       turns=8, full=True)))
        kinds = [r.kind for part in res for r in part.events]
        assert kinds.count(EventKind.SECTION_CROSS) >= 8
        assert res[-1].terminal_event.kind is EventKind.STATE_BOUND

    def test_cylinder_orbit_to_norm_bound(self, monkeypatch):
        res = self._assert_same(monkeypatch, analysis, lambda: (
            analysis.integrate_orbit(Params(2.0, 0.5),
                                     phase.PhaseState(1.0, -1.0, 1.0), 50.0)))
        assert res[0].terminal_event.kind is EventKind.STATE_BOUND

    def test_p2_hyperbola_orbit(self, monkeypatch):
        res = self._assert_same(monkeypatch, analysis, lambda: (
            analysis.p2_orbit_profile(Params(2.0, 4.0))))
        assert res[0].terminal_event.kind is EventKind.HYP_PHI_MAX_CROSS


class TestConfigValidation:
    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(abs_tol=0.0)  # a zero scale on a zero state

    def test_bad_dense_dx(self):
        # a grid running away from the step end would never reach it
        for dx in (-0.01, float("nan")):
            with pytest.raises(ValueError):
                IntegratorConfig(dense_dx=dx)
        assert IntegratorConfig(dense_dx=0.0).dense_dx == 0.0  # no samples


class TestScipyOracle:
    """scipy's DOP853 has the tableau of the owned stepper but the classic
    step control, so the two take different steps along the same solution.

    The owned steps are read against scipy's 7th-order dense output, at the
    step ends and at dense samples between them: the states agree to well
    within the tolerances of both.  Single steps from scipy's accepted
    states land on scipy's next states to rounding, since the tableau is
    the same.
    """

    @staticmethod
    def _scipy_rhs(rhs):
        return lambda t, y: np.asarray(rhs(t, tuple(y)), dtype=float)

    def _assert_same_solution(self, rhs, y0, t_span, cfg):
        from scipy.integrate import solve_ivp
        res = integrate(rhs, y0, t_span, config=cfg)
        ref = solve_ivp(self._scipy_rhs(rhs), t_span,
                        np.asarray(y0, dtype=float), method="DOP853",
                        rtol=cfg.rel_tol, atol=cfg.abs_tol, dense_output=True)
        assert ref.success
        # step ends, and the 7th-order dense output between them
        dense = integrate(rhs, y0, t_span, config=replace(cfg, dense_dx=0.01))
        for t, y in ((res.t, res.y), (dense.t, dense.y)):
            y_ref = ref.sol(t).T
            scale = np.max(np.abs(y_ref), axis=1, keepdims=True)
            assert np.all(np.abs(y - y_ref) <= 1e-9 * scale)

    def _assert_same_single_steps(self, rhs, y0, t_span, cfg):
        # each step from scipy's accepted state lands on scipy's next state
        from scipy.integrate import DOP853
        from blowup.integrate import _dp_step
        solver = DOP853(self._scipy_rhs(rhs), t_span[0],
                        np.asarray(y0, dtype=float), t_span[1],
                        rtol=cfg.rel_tol, atol=cfg.abs_tol)
        while solver.status == "running":
            t, y, f = solver.t, tuple(solver.y.tolist()), tuple(solver.f.tolist())
            solver.step()
            y_new, _ = _dp_step(rhs, t, y, f, solver.t - t)
            assert np.max(np.abs(np.subtract(y_new, solver.y))) \
                <= 1e-13 * np.max(np.abs(solver.y))

    def test_harmonic_oscillator(self):
        cfg = IntegratorConfig()
        self._assert_same_solution(_oscillator, [1.0, 0.0], (0.0, 20.0),
                                   cfg)
        self._assert_same_single_steps(_oscillator, [1.0, 0.0], (0.0, 20.0),
                                       cfg)

    def test_profile_ode_from_interface_seed(self):
        from blowup.shooting import interface_series, profile_rhs
        params, xi0 = Params(2.0, 0.1), 12.0
        eps = 1e-6 * xi0
        g0, dg0 = interface_series(params, xi0).state(eps)
        # the backward shot's tolerances, without its events
        cfg = IntegratorConfig(abs_tol=np.array([1e-8 * g0, 1e-8 * abs(dg0)]))
        rhs = profile_rhs(params)
        self._assert_same_solution(rhs, [g0, dg0], (xi0 - eps, 0.0), cfg)
        self._assert_same_single_steps(rhs, [g0, dg0], (xi0 - eps, 0.0), cfg)


class TestRuntimeDependencies:
    def test_shot_runs_without_scipy(self):
        # scipy is a test-only dependency: a fresh interpreter that imports
        # the package and makes a backward shot never loads it
        import os
        import subprocess
        import sys
        from pathlib import Path
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        code = ("import sys\n"
                "from blowup import Params, ReachedOrigin, shoot_backward\n"
                "_, out = shoot_backward(Params(2.0, 0.1), 12.0)\n"
                "assert isinstance(out, ReachedOrigin), out\n"
                "assert 'scipy' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
