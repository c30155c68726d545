"""Adaptive explicit integration with event location.

A thin custom loop around scipy's Dormand-Prince RK5(4) stepper.  The loop
exists because the shooting experiments need three things solve_ivp does not
give directly: (i) event bracketing on several dense-output subsamples per
accepted step (the profile ODE produces closely spaced crossings), (ii) a
hard cap on the number of steps with typed failures, and (iii) optional
uniformly spaced dense samples merged into the returned trajectory so that
quadrature over stored samples is accurate.

Events are located by sign change over EVENT_SAMPLES equal subintervals of
each accepted step, then refined by bisection on the dense output until the
event function is below `event_tol` (bisection rather than Newton: near the
degenerate interface the relevant functions are extremely flat).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.integrate import RK45

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


class EventKind(enum.Enum):
    GZERO = "g_zero"
    DG_ZERO = "dg_zero"
    HYP_PHI_MAX_CROSS = "hyperbola_phi_max_cross"
    STATE_BOUND = "state_bound"
    SECTION_CROSS = "section_cross"


@dataclass(frozen=True)
class Event:
    """A scalar event function fn(t, y) -> value, tracked along the flow.

    direction: +1 fires on -/+ crossings, -1 on +/-, 0 on both, always read
    along the direction of integration.  The function must accept vectorized
    input (t of shape (n,), y of shape (dim, n)).
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
        if self.rel_tol <= 0 or np.any(np.asarray(self.abs_tol) < 0):
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


def _eval_event(ev: Event, t, y) -> np.ndarray:
    return np.asarray(ev.fn(t, y), dtype=float)


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


def _bisect_event(ev: Event, dense, ta: float, tb: float, fa: float,
                  event_tol: float) -> Tuple[float, np.ndarray]:
    # fa has the sign to keep on the left; stop on |f| < event_tol
    lo, hi, flo = ta, tb, fa
    width_tol = 1e-14 * max(1.0, abs(ta), abs(tb))
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        fm = float(_eval_event(ev, mid, dense(mid)))
        if abs(fm) < event_tol or abs(hi - lo) < width_tol:
            return mid, np.asarray(dense(mid), dtype=float)
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return mid, np.asarray(dense(mid), dtype=float)


def integrate(rhs: Callable, y0: Sequence[float], t_span: Tuple[float, float],
              events: Sequence[Event] = (),
              config: Optional[IntegratorConfig] = None) -> IntegrationResult:
    """Integrate y' = rhs(t, y) over t_span with event location.

    Returns the accepted-step trajectory (plus uniform dense samples when
    config.dense_dx is set), the located events in trajectory order, and the
    termination reason.  A terminal event truncates the trajectory at the
    event.  Raises MaxStepsExceeded / StepUnderflow / NonFiniteState with the
    partial trajectory attached.
    """
    cfg = config or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t0 == t1:
        raise ValueError("empty integration span")
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise NonFiniteState("non-finite initial state")

    solver = RK45(rhs, t0, y0, t_bound=t1, rtol=cfg.rel_tol,
                  atol=cfg.abs_tol, max_step=cfg.max_step,
                  first_step=cfg.first_step)
    direction = 1.0 if t1 > t0 else -1.0

    ts: List[float] = [t0]
    ys: List[np.ndarray] = [y0.copy()]
    records: List[EventRecord] = []
    n_steps = 0
    next_dense = t0 + cfg.dense_dx * direction if cfg.dense_dx else None

    def partial(reason: str = "aborted") -> IntegrationResult:
        return IntegrationResult(np.asarray(ts), np.asarray(ys), records,
                                 reason, n_steps)

    while solver.status == "running":
        if n_steps >= cfg.max_steps:
            raise MaxStepsExceeded(f"exceeded {cfg.max_steps} steps", partial())
        msg = solver.step()
        n_steps += 1
        if solver.status == "failed":
            raise StepUnderflow(msg or "step size underflow", partial())
        if not np.all(np.isfinite(solver.y)):
            raise NonFiniteState(f"non-finite state at t={solver.t}", partial())

        t_old, t_new = solver.t_old, solver.t
        dense = solver.dense_output()

        # --- event detection on subsampled dense output ---
        stop_t: Optional[float] = None
        step_hits: List[EventRecord] = []
        if events:
            tt = np.linspace(t_old, t_new, EVENT_SAMPLES + 1)
            yy = dense(tt)
            for ev in events:
                vals = _eval_event(ev, tt, yy)
                for i in range(len(tt) - 1):
                    fa, fb = float(vals[i]), float(vals[i + 1])
                    if not _crossing_ok(ev, fa, fb):
                        continue
                    te, ye = _bisect_event(ev, dense, tt[i], tt[i + 1], fa,
                                           cfg.event_tol)
                    step_hits.append(EventRecord(ev.kind, te, ye, ev.terminal))
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
            while direction * (end_t - next_dense) > 1e-12 * max(1.0, abs(end_t)):
                if direction * (next_dense - ts[-1]) > 1e-13 * max(1.0, abs(next_dense)):
                    ts.append(next_dense)
                    ys.append(np.asarray(dense(next_dense), dtype=float))
                next_dense += cfg.dense_dx * direction

        if stop_t is not None:
            term = next(r for r in kept if r.terminal and r.t == stop_t)
            records.extend(kept[: kept.index(term) + 1])
            ts.append(term.t)
            ys.append(term.y.copy())
            return IntegrationResult(np.asarray(ts), np.asarray(ys), records,
                                     "terminal_event", n_steps)
        records.extend(kept)
        ts.append(t_new)
        ys.append(solver.y.copy())

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
