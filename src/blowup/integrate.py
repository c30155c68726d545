"""Adaptive explicit integration with event location.

The package's own Dormand-Prince 5(4) stepper (Dormand & Prince 1980,
J. Comput. Appl. Math. 6; Hairer, Norsett & Wanner, Solving ODEs I,
II.4-II.6), run on tuples of Python floats: the systems integrated here have
two or three components, where array arithmetic costs more than it saves.
The tableau and the step control are those of scipy's RK45, so both take the
same steps: RMS error norm, safety factor 0.9, step factor clamped to
[0.2, 10], no growth right after a rejected step, a minimum step of 10 ulp
of t, and Hairer's initial-step selection.  Dense output is the method's
4th-order continuous extension (Shampine 1986).

Around the stepper sits the loop the shooting experiments need: (i) event
bracketing on several dense-output subsamples per accepted step (the
profile ODE produces closely spaced crossings), (ii) a hard cap on the
number of steps with typed failures, and (iii) optional uniformly spaced
dense samples merged into the returned trajectory so that quadrature over
stored samples is accurate.

Events are located by sign change over EVENT_SAMPLES equal subintervals of
each accepted step, then refined by bisection on the dense output until the
event function is below `event_tol` (bisection rather than Newton: near the
degenerate interface the relevant functions are extremely flat).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import Params

__all__ = [
    "EventKind",
    "Event",
    "EventRecord",
    "IntegratorConfig",
    "IntegrationResult",
    "IntegrationError",
    "MaxStepsExceeded",
    "StepUnderflow",
    "NonFiniteState",
    "integrate",
    "classify_vanish",
    "VanishKind",
]

#: dense-output subintervals per accepted step on which event signs are read
EVENT_SAMPLES = 8

# Dormand-Prince 5(4): nodes C, stage weights A, 5th-order weights B (the
# second stage has weight 0), error weights E (5th minus 4th order, on the
# seven stages including rhs(t + h, y_new)), and the dense-output matrix P
# (column j multiplies theta^(j+1); its second row is zero).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
_P12, _P13, _P14 = (-8048581381 / 2820520608, 8663915743 / 2820520608,
                    -12715105075 / 11282082432)
_P32, _P33, _P34 = (131558114200 / 32700410799, -68118460800 / 10900136933,
                    87487479700 / 32700410799)
_P42, _P43, _P44 = (-1754552775 / 470086768, 14199869525 / 1410260304,
                    -10690763975 / 1880347072)
_P52, _P53, _P54 = (127303824393 / 49829197408, -318862633887 / 49829197408,
                    701980252875 / 199316789632)
_P62, _P63, _P64 = (-282668133 / 205662961, 2019193451 / 616988883,
                    -1453857185 / 822651844)
_P72, _P73, _P74 = (40617522 / 29380423, -110615467 / 29380423,
                    69997945 / 29380423)

# step control
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 5          # -1/(error estimator order + 1)
_MIN_REL_TOL = 100 * sys.float_info.epsilon


class EventKind(enum.Enum):
    GZERO = "g_zero"
    DG_ZERO = "dg_zero"
    HYP_PHI_MAX_CROSS = "hyperbola_phi_max_cross"
    STATE_BOUND = "state_bound"
    SECTION_CROSS = "section_cross"


@dataclass(frozen=True)
class Event:
    """A scalar event function fn(t, y) -> float, tracked along the flow.

    direction: +1 fires on -/+ crossings, -1 on +/-, 0 on both, always read
    along the direction of integration.  fn is called once per point, with a
    float t and the state y as a tuple of floats.
    """

    kind: EventKind
    fn: Callable
    direction: int = 0
    terminal: bool = False


@dataclass(frozen=True)
class EventRecord:
    kind: EventKind
    t: float
    y: np.ndarray
    terminal: bool = False


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: Union[float, np.ndarray] = 1e-12
    max_step: float = np.inf
    first_step: Optional[float] = None
    max_steps: int = 10_000_000
    event_tol: float = 1e-12
    dense_dx: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or np.any(np.asarray(self.abs_tol) <= 0):
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class IntegrationResult:
    t: np.ndarray                     # trajectory abscissae, integration order
    y: np.ndarray                     # shape (len(t), dim)
    events: List[EventRecord] = field(default_factory=list)
    reason: str = "completed"         # "completed" | "terminal_event"
    n_steps: int = 0

    @property
    def terminal_event(self) -> Optional[EventRecord]:
        for rec in reversed(self.events):
            if rec.terminal:
                return rec
        return None


class IntegrationError(RuntimeError):
    """Base class; carries the partial trajectory for post-mortems."""

    def __init__(self, message: str, partial: Optional[IntegrationResult] = None):
        super().__init__(message)
        self.partial = partial


class MaxStepsExceeded(IntegrationError):
    pass


class StepUnderflow(IntegrationError):
    pass


class NonFiniteState(IntegrationError):
    pass


# --------------------------------------------------------------------------
# the Dormand-Prince 5(4) stepper
# --------------------------------------------------------------------------

def _rms(values: Sequence[float]) -> float:
    return math.sqrt(sum([v * v for v in values])) / len(values) ** 0.5


def _dp_step(rhs: Callable, t: float, y: tuple, k1: Sequence[float],
             h: float) -> Tuple[tuple, tuple]:
    """One step of size h from (t, y), where k1 = rhs(t, y).

    Returns the 5th-order state at t + h and the seven stages; the last is
    rhs(t + h, y_new), the first stage of the next step.
    """
    k2 = rhs(t + _C2 * h, tuple([u + h * (_A21 * a) for u, a in zip(y, k1)]))
    k3 = rhs(t + _C3 * h, tuple([u + h * (_A31 * a + _A32 * b)
                                 for u, a, b in zip(y, k1, k2)]))
    k4 = rhs(t + _C4 * h, tuple([u + h * (_A41 * a + _A42 * b + _A43 * c)
                                 for u, a, b, c in zip(y, k1, k2, k3)]))
    k5 = rhs(t + _C5 * h, tuple([u + h * (_A51 * a + _A52 * b + _A53 * c
                                          + _A54 * d)
                                 for u, a, b, c, d in zip(y, k1, k2, k3, k4)]))
    k6 = rhs(t + h, tuple([u + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d
                                    + _A65 * e)
                           for u, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)]))
    y_new = tuple([u + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
                   for u, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)])
    k7 = rhs(t + h, y_new)
    return y_new, (k1, k2, k3, k4, k5, k6, k7)


def _error_norm(h: float, y: tuple, y_new: tuple, stages: tuple,
                atol: Sequence[float], rtol: float) -> float:
    # RMS of the embedded error estimate, scaled by atol + max(|y|, |y_new|) rtol
    k1, _, k3, k4, k5, k6, k7 = stages
    return _rms([(_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g)
                 * h / (tol + (abs(u) if abs(u) > abs(v) else abs(v)) * rtol)
                 for u, v, tol, a, c, d, e, f, g
                 in zip(y, y_new, atol, k1, k3, k4, k5, k6, k7)])


def _initial_step(rhs: Callable, t0: float, y0: tuple, f0: Sequence[float],
                  t_bound: float, max_step: float, direction: float,
                  rtol: float, atol: Sequence[float]) -> float:
    """Hairer's starting step (Solving ODEs I, II.4), costing one rhs call."""
    interval = abs(t_bound - t0)
    scale = [tol + abs(u) * rtol for u, tol in zip(y0, atol)]
    d0 = _rms([u / s for u, s in zip(y0, scale)])
    d1 = _rms([a / s for a, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    y1 = tuple([u + h0 * direction * a for u, a in zip(y0, f0)])
    f1 = rhs(t0 + h0 * direction, y1)
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval, max_step)


def _interpolant(t_old: float, h: float, y_old: tuple, stages: tuple
                 ) -> Callable[[Sequence[float]], List[tuple]]:
    """Dense output on the step [t_old, t_old + h]: y_old + h sum_j q_j x^j,
    x = (t - t_old)/h, with q = K^T P the stages through the 4th-order
    continuous extension.

    The returned dense(ts) gives the states at all points ts, looping over
    the points inside each component (cheaper than a call per point).
    """
    k1, _, k3, k4, k5, k6, k7 = stages
    q = [(u, a,
          _P12 * a + _P32 * c + _P42 * d + _P52 * e + _P62 * f + _P72 * g,
          _P13 * a + _P33 * c + _P43 * d + _P53 * e + _P63 * f + _P73 * g,
          _P14 * a + _P34 * c + _P44 * d + _P54 * e + _P64 * f + _P74 * g)
         for u, a, c, d, e, f, g in zip(y_old, k1, k3, k4, k5, k6, k7)]

    def dense(ts: Sequence[float]) -> List[tuple]:
        xs = [(t - t_old) / h for t in ts]
        return list(zip(*[[u + h * (x * (q1 + x * (q2 + x * (q3 + x * q4))))
                           for x in xs]
                          for u, q1, q2, q3, q4 in q]))

    return dense


# --------------------------------------------------------------------------
# events
# --------------------------------------------------------------------------

def _crossing_ok(ev: Event, fa: float, fb: float) -> bool:
    # crossings out of an exact zero are skipped so trajectories starting on
    # an event surface do not retrigger it
    if fa == 0.0 or fa * fb > 0.0:
        return False
    rising = fb > fa
    if ev.direction > 0:
        return rising
    if ev.direction < 0:
        return not rising
    return True


def _bisect_event(fn: Callable, dense: Callable, ta: float, tb: float,
                  fa: float, event_tol: float) -> Tuple[float, tuple]:
    # fa has the sign to keep on the left; stop on |f| < event_tol
    lo, hi, flo = ta, tb, fa
    width_tol = 1e-14 * max(1.0, abs(ta), abs(tb))
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        ym = dense([mid])[0]
        fm = fn(mid, ym)
        if abs(fm) < event_tol or abs(hi - lo) < width_tol:
            return mid, ym
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return mid, dense([mid])[0]


# --------------------------------------------------------------------------
# the integration loop
# --------------------------------------------------------------------------

def integrate(rhs: Callable, y0: Sequence[float], t_span: Tuple[float, float],
              events: Sequence[Event] = (),
              config: Optional[IntegratorConfig] = None) -> IntegrationResult:
    """Integrate y' = rhs(t, y) over t_span with event location.

    rhs gets a float t and the state y as a tuple of floats and returns a
    sequence of floats.  Returns the accepted-step trajectory (plus uniform
    dense samples when config.dense_dx is set), the located events in
    trajectory order, and the termination reason.  A terminal event
    truncates the trajectory at the event.  Raises MaxStepsExceeded /
    StepUnderflow / NonFiniteState with the partial trajectory attached.
    """
    cfg = config or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t0 == t1:
        raise ValueError("empty integration span")
    y = tuple(np.asarray(y0, dtype=float).ravel().tolist())
    if not all(map(math.isfinite, y)):
        raise NonFiniteState("non-finite initial state")
    atol = np.broadcast_to(np.asarray(cfg.abs_tol, dtype=float),
                           (len(y),)).tolist()
    rtol = max(cfg.rel_tol, _MIN_REL_TOL)
    max_step = float(cfg.max_step)
    if max_step <= 0.0:
        raise ValueError("max_step must be positive")
    direction = 1.0 if t1 > t0 else -1.0
    toward = direction * math.inf

    f = rhs(t0, y)
    if cfg.first_step is None:
        h_abs = _initial_step(rhs, t0, y, f, t1, max_step, direction, rtol,
                              atol)
    elif 0.0 < cfg.first_step <= abs(t1 - t0):
        h_abs = float(cfg.first_step)
    else:
        raise ValueError("first_step must be positive and within the span")

    t = t0
    ts: List[float] = [t0]
    ys: List[Sequence[float]] = [y]
    records: List[EventRecord] = []
    n_steps = 0
    next_dense = t0 + cfg.dense_dx * direction if cfg.dense_dx else None
    # event values at the current point, reused as the left end of each step
    ev_vals = [ev.fn(t0, y) for ev in events]

    def partial(reason: str = "aborted") -> IntegrationResult:
        return IntegrationResult(np.asarray(ts), np.asarray(ys), records,
                                 reason, n_steps)

    while direction * (t - t1) < 0.0:
        if n_steps >= cfg.max_steps:
            raise MaxStepsExceeded(f"exceeded {cfg.max_steps} steps", partial())
        n_steps += 1

        # --- one accepted step under RK45's step-size control ---
        min_step = 10.0 * abs(math.nextafter(t, toward) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepUnderflow("Required step size is less than spacing "
                                    "between numbers.", partial())
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0.0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            y_new, stages = _dp_step(rhs, t, y, f, h)
            error_norm = _error_norm(h, y, y_new, stages, atol, rtol)
            if error_norm < 1.0:
                factor = (_MAX_FACTOR if error_norm == 0.0 else
                          min(_MAX_FACTOR,
                              _SAFETY * error_norm ** _ERROR_EXPONENT))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        if not all(map(math.isfinite, y_new)):
            raise NonFiniteState(f"non-finite state at t={t_new}", partial())

        t_old, y_old = t, y
        t, y, f = t_new, y_new, stages[6]
        if events or next_dense is not None:
            dense = _interpolant(t_old, h, y_old, stages)

        # --- event detection on subsampled dense output ---
        stop_t: Optional[float] = None
        step_hits: List[EventRecord] = []
        if events:
            dt = h / EVENT_SAMPLES
            tt = [t_old + i * dt for i in range(EVENT_SAMPLES)] + [t_new]
            yy = dense(tt[1:-1]) + [y_new]
            for k, ev in enumerate(events):
                fn = ev.fn
                vals = [ev_vals[k]] + [fn(s, u) for s, u in zip(tt[1:], yy)]
                ev_vals[k] = vals[-1]
                if min(vals) > 0.0 or max(vals) < 0.0:
                    continue  # one strict sign: no crossing in this step
                for i in range(EVENT_SAMPLES):
                    if not _crossing_ok(ev, vals[i], vals[i + 1]):
                        continue
                    te, ye = _bisect_event(fn, dense, tt[i], tt[i + 1],
                                           vals[i], cfg.event_tol)
                    step_hits.append(EventRecord(ev.kind, te, np.array(ye),
                                                 ev.terminal))
            step_hits.sort(key=lambda r: direction * r.t)
            for rec in step_hits:
                if rec.terminal:
                    stop_t = rec.t
                    break

        kept = [r for r in step_hits
                if stop_t is None or direction * r.t <= direction * stop_t]
        end_t = stop_t if stop_t is not None else t_new

        # --- merge uniform dense samples up to end_t ---
        if next_dense is not None:
            samples: List[float] = []
            last = ts[-1]
            while direction * (end_t - next_dense) > 1e-12 * max(1.0, abs(end_t)):
                if direction * (next_dense - last) > 1e-13 * max(1.0, abs(next_dense)):
                    samples.append(next_dense)
                    last = next_dense
                next_dense += cfg.dense_dx * direction
            ts.extend(samples)
            ys.extend(dense(samples))

        if stop_t is not None:
            term = next(r for r in kept if r.terminal and r.t == stop_t)
            records.extend(kept[: kept.index(term) + 1])
            ts.append(term.t)
            ys.append(term.y)
            return IntegrationResult(np.asarray(ts), np.asarray(ys), records,
                                     "terminal_event", n_steps)
        records.extend(kept)
        ts.append(t_new)
        ys.append(y_new)

    return IntegrationResult(np.asarray(ts), np.asarray(ys), records,
                             "completed", n_steps)


class VanishKind(enum.Enum):
    INTERFACE = "interface"
    VERTICAL_SLOPE = "vertical_slope"


def classify_vanish(params: Params, record: EventRecord, dg_scale: float,
                    vanish_rel_tol: float = 1e-6) -> VanishKind:
    """Classify a g = 0 crossing as a true interface or a vertical-slope zero.

    At an interface g ~ (xi0 - xi)^(2m/(m-1)), so dg -> 0 there; at a
    vertical-slope vanishing point g ~ C2 - C1*(...)  with dg bounded away
    from zero.  dg_scale should be max|dg| along the trajectory.
    """
    if record.kind is not EventKind.GZERO:
        raise ValueError("classify_vanish expects a GZERO event record")
    tol = vanish_rel_tol * max(dg_scale, 1e-300)
    return (VanishKind.INTERFACE if abs(float(record.y[1])) < tol
            else VanishKind.VERTICAL_SLOPE)
