import importlib
import math
import traceback
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

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError):
            integrate(_decay, [], (0.0, 1.0))

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

    @pytest.mark.parametrize("value, span", [
        (math.nan, (0.0, 2.0)),     # the starting step is NaN
        (1e308, (0.0, 10.0)),       # its scaled norm overflows: h0 = 0
        (math.inf, (0.0, 10.0)),
    ])
    def test_nonfinite_rhs_from_the_start(self, value, span):
        rhs, calls = _bad_rhs(value, at_call=1)
        with pytest.raises(NonFiniteState) as err:
            integrate(rhs, [1.0], span)
        part = err.value.partial
        assert part.n_steps == 0 and part.n_rejected == 1
        assert part.t.tolist() == [span[0]]
        assert part.n_rhs == calls[0]

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e308, -1e308])
    @pytest.mark.parametrize("at_call", [2, 3, 14, 100])
    def test_rhs_turns_nonfinite(self, value, at_call):
        # a typed failure with the partial trajectory, within the call
        # budget: from t = 0 the step shrinks to 10 ulp in ~460 rejections
        rhs, calls = _bad_rhs(value, at_call)
        with pytest.raises(IntegrationError) as err:
            integrate(rhs, [1.0], (0.0, 10.0))
        part = err.value.partial
        assert part is not None and part.n_rhs == calls[0]
        assert np.isfinite(part.y).all()


class _OverBudget(Exception):
    pass


def _bad_rhs(value, at_call, budget=20_000):
    """y' = -y up to call at_call, then value on every call; raises
    _OverBudget after budget calls, so that a hang fails instead of
    stalling."""
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        if calls[0] > budget:
            raise _OverBudget(calls[0])
        return (value,) if calls[0] >= at_call else (-y[0],)

    return rhs, calls


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

    def test_partial_result_counts_accepted_steps(self):
        # the step in progress when the step size underflows is not counted
        with pytest.raises(StepUnderflow) as err:
            integrate(_square, [1.0], (0.0, 2.0))
        part = err.value.partial
        assert part.n_steps == len(part.t) - 1 == 270

    def test_failure_on_the_first_step(self):
        # the pole at t = 1 + 1e-20 lies within one ulp of t = 1
        with pytest.raises(StepUnderflow) as err:
            integrate(_square, [1e20], (1.0, 2.0))
        assert err.value.partial.n_steps == 0
        assert len(err.value.partial.t) == 1

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
    """Dense samples are evaluated in numpy blocks when the trajectory is
    returned; they must be exactly what a per-sample loop and one numpy pass
    over all samples would produce."""

    @staticmethod
    def _grid(t0, dx, direction, t_end):
        # the points t0 + k dx, k = 1, 2, ..., before t_end (1e-12 relative)
        points, k = [], 1
        while True:
            t = t0 + dx * direction * k
            if direction * (t_end - t) <= 1e-12 * max(1.0, abs(t_end)):
                return points
            points.append(t)
            k += 1

    @staticmethod
    def _interpolant(rhs, steps, k):
        # the coefficients of accepted step k, recomputed from its start
        from blowup.integrate import _kernels
        t_old, t_new = float(steps.t[k]), float(steps.t[k + 1])
        y_old = tuple(steps.y[k].tolist())
        h = t_new - t_old
        dp_step, _, interpolant = _kernels(len(y_old))
        y_new, stages = dp_step(rhs, t_old, y_old, rhs(t_old, y_old), h)
        assert list(y_new) == steps.y[k + 1].tolist()
        return t_old, h, interpolant(rhs, t_old, h, y_old, y_new, stages,
                                     rhs(t_new, y_new))

    def _check(self, rhs, y0, t_span, cfg, events=()):
        from blowup.integrate import _dense_poly, _dense_states
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

        # one numpy pass over every sample, its coefficients gathered as
        # (8, samples, components): the blocks change no bit
        starts, widths, coef = (np.array(v) for v in zip(
            *(coefs[k] for k in step_of.tolist())))
        one_pass = _dense_poly(((samples - starts) / widths)[:, None],
                               coef.transpose(2, 0, 1))
        assert res.y[is_sample].tobytes() == one_pass.tobytes()
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

    @pytest.mark.parametrize("case", ["backward", "forward", "terminal"])
    def test_more_than_three_blocks(self, case):
        # a backward profile shot, a forward orbit, and a terminal event
        # inside a step, each with more than three blocks of samples
        from blowup.integrate import _BLOCK_ROWS
        from blowup.shooting import interface_series, profile_rhs
        events = ()
        if case == "backward":
            params, xi0 = Params(2.0, 0.1), 16.0
            eps = 1e-6 * xi0
            g0, dg0 = interface_series(params, xi0).state(eps)
            rhs, y0, t_span = profile_rhs(params), [g0, dg0], (xi0 - eps, 0.0)
            cfg = IntegratorConfig(
                abs_tol=np.array([1e-8 * g0, 1e-8 * abs(dg0)]), dense_dx=1e-3)
        else:
            rhs, y0, t_span = _oscillator, [1.0, 0.0], (0.0, 20.0)
            cfg = IntegratorConfig(dense_dx=1e-3)
            if case == "terminal":
                events = (Event(EventKind.SECTION_CROSS, lambda t, y: y[0],
                                direction=-1, terminal=True),)
                cfg = IntegratorConfig(dense_dx=1e-4)
        res, steps, samples = self._check(rhs, y0, t_span, cfg, events)
        assert len(samples) > 3 * _BLOCK_ROWS
        if case == "terminal":
            # the event ends the trajectory inside a step
            assert res.reason == "terminal_event"
            assert res.t[-1] not in steps.t

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

    def test_grid_does_not_drift(self):
        # sequential sums of 0.0013 would fall behind the nominal grid by
        # about 5e-12 relative after 150,000 terms; each sample is the
        # product k dx instead, exactly
        def unit(t, y):
            return (1.0,)

        dx = 0.0013
        end = dx * 150_001.5
        res = integrate(unit, [0.0], (0.0, end),
                        config=IntegratorConfig(first_step=end, dense_dx=dx))
        assert res.n_steps == 1
        assert res.t[1:-1].tolist() == [dx * k for k in range(1, 150_002)]

    def test_grid_below_float_spacing(self):
        # 1 + 1e-17 == 1: the grid would not advance, which is an error, not
        # an endless or repeating grid
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


# the plain-loop stepper: the reference for the generated kernels, written
# from the sparse tableau with every sum of stages added left to right in
# its term order

def _weight(name):
    return getattr(INTEGRATE, name)


def _stage_sum(weights, stages, k, d):
    # sum of weights[j] k_j[d] over the stages in order
    total = None
    for w, j in zip(weights, stages):
        term = w * k[j][d]
        total = term if total is None else total + term
    return total


def _ref_stage(rhs, i, t, h, y, k):
    # stage i from (t, y); C_12 = 1, and 1.0 * h is h
    stages = INTEGRATE._A_STAGES[i]
    a = [_weight(f"_A{i}_{j}") for j in stages]
    c = 1.0 if i == 12 else _weight(f"_C{i}")
    return rhs(t + c * h, tuple(y[d] + h * _stage_sum(a, stages, k, d)
                                for d in range(len(y))))


def _ref_step(rhs, t, y, k1, h):
    k = {1: k1}
    for i in range(2, 13):
        k[i] = _ref_stage(rhs, i, t, h, y, k)
    stages = INTEGRATE._B_STAGES
    b = [_weight(f"_B{j}") for j in stages]
    y_new = tuple(y[d] + h * _stage_sum(b, stages, k, d)
                  for d in range(len(y)))
    return y_new, tuple(k[i] for i in range(1, 13))


def _ref_error_norm(h, y, y_new, stages, atol, rtol):
    k = dict(enumerate(stages, 1))
    cols = INTEGRATE._B_STAGES
    er = [_weight(f"_ER{j}") for j in cols]
    # the 3rd-order weights B - BHH, BHH zero where it has no constant
    e3 = [_weight(f"_B{j}") - getattr(INTEGRATE, f"_BHH{j}")
          if hasattr(INTEGRATE, f"_BHH{j}") else _weight(f"_B{j}")
          for j in cols]
    sq5 = sq3 = 0.0
    for d in range(len(y)):
        u, v = abs(y[d]), abs(y_new[d])
        scale = atol[d] + (u if u > v else v) * rtol
        e5 = _stage_sum(er, cols, k, d) / scale
        e3d = _stage_sum(e3, cols, k, d) / scale
        sq5 += e5 * e5
        sq3 += e3d * e3d
    if sq5 == 0.0 and sq3 == 0.0:
        return 0.0
    return abs(h) * sq5 / math.sqrt((sq5 + 0.01 * sq3) * len(y))


def _ref_interpolant(rhs, t_old, h, y_old, y_new, stages, f_new):
    k = dict(enumerate(stages, 1))
    k[13] = f_new
    for i in (14, 15, 16):
        k[i] = _ref_stage(rhs, i, t_old, h, y_old, k)
    cols = INTEGRATE._D_STAGES
    q = []
    for d in range(len(y_old)):
        f0 = y_new[d] - y_old[d]
        upper = [h * _stage_sum([_weight(f"_D{r}_{j}") for j in cols], cols,
                                k, d)
                 for r in (3, 4, 5, 6)]
        q.append((y_old[d], f0, h * k[1][d] - f0,
                  2.0 * f0 - h * (k[1][d] + k[13][d]), *upper))
    return q


def _nonlinear(t, y):
    n = len(y)
    return tuple(math.sin(t * u) + 0.5 * math.cos(u * y[(d + 1) % n])
                 + 0.1 * u * u for d, u in enumerate(y))


def _bits(x):
    """The float bits of a nested sequence of floats, as hex strings."""
    if isinstance(x, float):
        return x.hex()
    return [_bits(v) for v in x]


class TestKernels:
    """The generated straight-line kernels make the same float operations
    in the same order as the plain loops over the sparse tableau."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.floats(-50.0, 50.0),
           st.floats(-2.0, 2.0).filter(lambda h: h != 0.0),
           st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
           st.lists(st.floats(1e-14, 1e-2), min_size=3, max_size=3),
           st.floats(1e-13, 1e-3))
    def test_bit_identical_to_the_plain_loops(self, n, t, h, y, atol, rtol):
        from blowup.integrate import _kernels
        y, atol = tuple(y[:n]), atol[:n]
        dp_step, error_norm, interpolant = _kernels(n)
        k1 = _nonlinear(t, y)
        y_new, stages = dp_step(_nonlinear, t, y, k1, h)
        ref_y_new, ref_stages = _ref_step(_nonlinear, t, y, k1, h)
        assert _bits(y_new) == _bits(ref_y_new)
        assert len(stages) == 12
        assert _bits(stages) == _bits(ref_stages)
        assert (_bits(error_norm(h, y, y_new, stages, atol, rtol))
                == _bits(_ref_error_norm(h, y, y_new, stages, atol, rtol)))
        f_new = _nonlinear(t + h, y_new)
        assert (_bits(interpolant(_nonlinear, t, h, y, y_new, stages, f_new))
                == _bits(_ref_interpolant(_nonlinear, t, h, y, y_new, stages,
                                          f_new)))

    def test_traceback_shows_the_generated_line(self):
        # calls 1-4: rhs(t0, y0), the initial step, stages 2 and 3
        calls = [0]

        def failing(t, y):
            calls[0] += 1
            if calls[0] == 5:
                raise ZeroDivisionError("the fifth call")
            return _oscillator(t, y)

        with pytest.raises(ZeroDivisionError):
            try:
                integrate(failing, [1.0, 0.0], (0.0, 1.0))
            except ZeroDivisionError:
                text = traceback.format_exc()
                raise
        assert 'File "<dop853 dim=2>"' in text, text
        assert "k4 = rhs(t + _C4 * h, (" in text, text


class TestRhsCount:
    """IntegrationResult.n_rhs, counted by arithmetic, is the number of
    calls a counting rhs sees."""

    @staticmethod
    def _counting(rhs):
        calls = [0]

        def counted(t, y):
            calls[0] += 1
            return rhs(t, y)

        return counted, calls

    def _shots(self, monkeypatch, run):
        # (result, rhs calls) of each integrate call run() makes in shooting
        seen = []

        def recording(rhs, y0, t_span, events=(), config=None):
            counted, calls = self._counting(rhs)
            res = integrate(counted, y0, t_span, events=events, config=config)
            seen.append((res, calls[0]))
            return res

        monkeypatch.setattr(shooting, "integrate", recording)
        run()
        return seen

    def test_bare_backward_shot_with_rejections(self, monkeypatch):
        [(res, calls)] = self._shots(monkeypatch, lambda: (
            shooting.slope_fn(Params(2.0, 0.1), 12.0)))
        assert res.n_rejected > 0
        assert res.n_rhs == calls

    def test_dense_shot_with_events(self, monkeypatch):
        seen = self._shots(monkeypatch, lambda: (
            shooting.shoot_backward(Params(2.0, 0.1), 40.0)))
        assert seen and len(seen[0][0].events) > 0
        assert len(seen[0][0].t) > seen[0][0].n_steps + 1  # dense samples
        for res, calls in seen:
            assert res.n_rhs == calls

    @pytest.mark.parametrize("first_step", [None, 1e-3])
    def test_square_to_the_pole(self, first_step):
        counted, calls = self._counting(_square)
        cfg = IntegratorConfig(first_step=first_step)
        res = integrate(counted, [1.0], (0.0, 1.0 - 1e-6), config=cfg)
        assert res.n_rhs == calls[0]

    def test_partial_result(self):
        counted, calls = self._counting(_square)
        with pytest.raises(StepUnderflow) as err:
            integrate(counted, [1.0], (0.0, 2.0))
        assert err.value.partial.n_rejected > 0
        assert err.value.partial.n_rhs == calls[0]


class TestConfigValidation:
    def test_bad_tolerances(self):
        # 0 for abs_tol: a zero scale on a zero state
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                IntegratorConfig(rel_tol=bad)
            with pytest.raises(ValueError):
                IntegratorConfig(abs_tol=bad)
            with pytest.raises(ValueError):
                IntegratorConfig(abs_tol=np.array([1e-12, bad]))

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
        from blowup.integrate import _kernels
        dp_step = _kernels(len(y0))[0]
        solver = DOP853(self._scipy_rhs(rhs), t_span[0],
                        np.asarray(y0, dtype=float), t_span[1],
                        rtol=cfg.rel_tol, atol=cfg.abs_tol)
        while solver.status == "running":
            t, y, f = solver.t, tuple(solver.y.tolist()), tuple(solver.f.tolist())
            solver.step()
            y_new, _ = dp_step(rhs, t, y, f, solver.t - t)
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
