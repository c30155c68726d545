from dataclasses import replace

import numpy as np
import pytest

from blowup.integrate import (Event, EventKind, IntegratorConfig,
                              MaxStepsExceeded, NonFiniteState, StepUnderflow,
                              integrate)
from blowup.model import Params


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
        cfg = IntegratorConfig(event_tol=1e-12)
        ev = Event(EventKind.SECTION_CROSS, lambda t, y: y[0], direction=0,
                   terminal=False)
        res = integrate(_oscillator, [1.0, 0.0], (0.0, 12.0), events=(ev,),
                        config=cfg)
        assert len(res.events) == 4  # odd multiples of pi/2 below 12
        for rec, k in zip(res.events, (1, 3, 5, 7)):
            assert abs(rec.y[0]) < cfg.event_tol
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
    def test_max_steps(self):
        cfg = IntegratorConfig(max_steps=5)
        with pytest.raises(MaxStepsExceeded) as err:
            integrate(_oscillator, [1.0, 0.0], (0.0, 100.0), config=cfg)
        assert err.value.partial is not None
        assert err.value.partial.t.size >= 1

    def test_nonfinite_state(self):
        def blowup_rhs(t, y):
            return (y[0] * y[0],)  # finite-time blow-up at t = 1

        # a finite-time blow-up ends in one of the typed failures: the step
        # shrinks below 10 ulp before the state overflows
        with pytest.raises((NonFiniteState, StepUnderflow)):
            integrate(blowup_rhs, [1.0], (0.0, 2.0),
                      config=IntegratorConfig(max_steps=100000))

    def test_nonfinite_initial_state(self):
        with pytest.raises(NonFiniteState):
            integrate(_decay, [np.nan], (0.0, 1.0))


class TestDenseSampling:
    def test_uniform_samples_merged(self):
        cfg = IntegratorConfig(dense_dx=0.01)
        res = integrate(_decay, [1.0], (0.0, 1.0), config=cfg)
        dt = np.diff(res.t)
        assert np.all(dt > 0.0)
        assert np.max(dt) <= 0.01 + 1e-12
        # dense samples are on the interpolant, so they satisfy the ODE
        assert np.max(np.abs(res.y[:, 0] - np.exp(-res.t))) < 1e-9


class TestConfigValidation:
    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(abs_tol=0.0)  # a zero scale on a zero state
        with pytest.raises(ValueError):
            IntegratorConfig(max_steps=0)


class TestMaxStep:
    def test_max_step_respected(self):
        cfg = IntegratorConfig(max_step=0.05)
        res = integrate(_oscillator, [1.0, 0.0], (0.0, 3.0), config=cfg)
        assert np.max(np.diff(res.t)) <= 0.05 + 1e-12


class TestScipyOracle:
    """scipy's DOP853 has the tableau and the step control of the owned
    stepper, so it must take as many accepted steps along the same solution.

    The step ends are compared loosely: a short step's error estimate is
    mostly rounding, and scipy forms its stage sums with BLAS dot products
    that round differently, so step sizes can differ in the last digits
    early on and the ends drift apart by up to about 1e-7 (oscillator).  The
    states, read at the same t, agree to rounding, at the step ends and at
    dense samples between them.
    """

    @staticmethod
    def _scipy_rhs(rhs):
        return lambda t, y: np.asarray(rhs(t, tuple(y)), dtype=float)

    def _assert_same_steps(self, rhs, y0, t_span, cfg):
        from scipy.integrate import solve_ivp
        res = integrate(rhs, y0, t_span, config=cfg)
        ref = solve_ivp(self._scipy_rhs(rhs), t_span,
                        np.asarray(y0, dtype=float), method="DOP853",
                        rtol=cfg.rel_tol, atol=cfg.abs_tol, dense_output=True)
        assert ref.success
        assert res.n_steps == len(ref.t) - 1
        assert np.all(np.abs(res.t - ref.t)
                      <= 1e-5 * np.maximum(1.0, np.abs(ref.t)))
        # step ends, and the 7th-order dense output between them
        dense = integrate(rhs, y0, t_span, config=replace(cfg, dense_dx=0.01))
        for t, y in ((res.t, res.y), (dense.t, dense.y)):
            y_ref = ref.sol(t).T
            scale = np.max(np.abs(y_ref), axis=1, keepdims=True)
            assert np.all(np.abs(y - y_ref) <= 1e-10 * scale)

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
        self._assert_same_steps(_oscillator, [1.0, 0.0], (0.0, 20.0), cfg)
        self._assert_same_single_steps(_oscillator, [1.0, 0.0], (0.0, 20.0),
                                       cfg)

    def test_profile_ode_from_interface_seed(self):
        from blowup.shooting import interface_series_state, profile_rhs
        params, xi0 = Params(2.0, 0.1), 12.0
        eps = 1e-6 * xi0
        g0, dg0 = interface_series_state(params, xi0, eps)
        # the backward shot's tolerances, without its events
        cfg = IntegratorConfig(abs_tol=np.array([1e-8 * g0, 1e-8 * abs(dg0)]))
        rhs = profile_rhs(params)
        self._assert_same_steps(rhs, [g0, dg0], (xi0 - eps, 0.0), cfg)
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
