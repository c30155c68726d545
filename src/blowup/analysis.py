"""Cross-cutting verification oracles.

Everything here re-derives a structural property of the flow numerically:
one-way crossing of the cylinder, positivity at the axis of profiles shot
backward from an interface, the phi-function extremum behind the ordering
argument, the no-crossing (monotone exclusion) property of ordered shots, and
the two shooting bounds that the non-existence gap is built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .integrate import (DEFAULT_ABS_TOL, DEFAULT_REL_TOL, Event, EventKind,
                        IntegratorConfig, IntegrationError, integrate,
                        off_level)
from .model import Params
from .phase import (PhaseState, Z_DIVERGENCE_BOUND, critical_points,
                    cylinder_value, from_phase, main_rhs,
                    p2_outgoing_eigenvector)
from .shooting import (ReachedOrigin, nonexistence_gap, shoot_backward,
                       shoot_forward)

__all__ = [
    "OrbitReport",
    "integrate_orbit",
    "cylinder_invariance_check",
    "interface_origin_check",
    "phi_extremum",
    "monotone_exclusion_check",
    "p2_orbit_profile",
    "p2_lower_bound_check",
    "backward_crossing_bound_check",
]

#: radius (max-norm) used when matching an orbit endpoint to a catalog point
NEIGHBORHOOD_RADIUS = 0.05
#: integrate_orbit stops an orbit whose state max-norm passes this
ORBIT_BOUND = 1e3
#: an orbit re-enters the cylinder when its cylinder value falls below -this
CYLINDER_TOL = 1e-8
#: phi'(x0) must vanish to this, relative to max(1, xi1^sigma)
PHI_CHECK_TOL = 1e-12
#: monotone_exclusion_check shoots both profiles up to this xi
EXCLUSION_XI_MAX = 50.0
#: ordered shots cross when g2 < g1 - this times the larger max g
EXCLUSION_TOL = 1e-9
#: p2_orbit_profile gives up when the orbit has not reached Z = 1/m by this eta
P2_ETA_MAX = 200.0
#: absolute slack of the f bounds in p2_lower_bound_check and
#: backward_crossing_bound_check
BOUND_TOL = 1e-8


@dataclass
class OrbitReport:
    start: PhaseState
    eta: np.ndarray
    states: np.ndarray            # shape (n, 3)
    cylinder_values: np.ndarray
    classification: str           # catalog label, "diverged:<dir>", "interior"


def _norm_bound_event(bound: float) -> Event:
    def one_sign(t_a, t_b, boxes):
        # every component inside the bound, or one of them beyond it
        if all(-bound < lo and hi < bound for lo, hi in boxes):
            return True
        return any(lo > bound or hi < -bound for lo, hi in boxes)

    return Event(EventKind.STATE_BOUND,
                 lambda t, y: bound - max(abs(y[0]), abs(y[1]), abs(y[2])),
                 direction=-1, terminal=True, one_sign=one_sign)


def integrate_orbit(params: Params, start: PhaseState, eta_max: float,
                    rel_tol: float = DEFAULT_REL_TOL,
                    abs_tol: float = DEFAULT_ABS_TOL) -> OrbitReport:
    """Integrate the main system from start, tracking the cylinder sign.

    Stops when the state norm passes ORBIT_BOUND or at eta_max.  The terminal
    classification is the nearest finite catalog point within
    NEIGHBORHOOD_RADIUS, a divergence direction, or "interior".
    """
    res = integrate(main_rhs(params), start.as_array(), (0.0, eta_max),
                    events=(_norm_bound_event(ORBIT_BOUND),),
                    config=IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol))
    states = res.y
    cyl = (states[:, 1] ** 2 - 2.0 / (params.m + 1.0)
           + states[:, 2] / params.m)

    end = states[-1]
    classification = "interior"
    if res.reason == "terminal_event":
        if end[2] >= Z_DIVERGENCE_BOUND:
            classification = "diverged:anomalous-Z"
        else:
            dominant = int(np.argmax(np.abs(end)))
            axis = "XYZ"[dominant]
            sign = "+" if end[dominant] > 0 else "-"
            classification = f"diverged:{sign}{axis}"
    else:
        for cp in critical_points(params):
            if cp.at_infinity:
                continue
            if np.max(np.abs(end - cp.coords)) < NEIGHBORHOOD_RADIUS:
                classification = cp.label
                break
    return OrbitReport(start=start, eta=res.t, states=states,
                       cylinder_values=cyl, classification=classification)


def cylinder_invariance_check(params: Params, start: PhaseState,
                              eta_max: float) -> Optional[bool]:
    """True iff an orbit started outside the cylinder never re-enters it
    (cylinder_value > -CYLINDER_TOL along the whole computed orbit).

    Integration failures return None (indeterminate), never False.
    """
    if cylinder_value(params, start) <= 0.0:
        raise ValueError("start must lie strictly outside the cylinder")
    try:
        report = integrate_orbit(params, start, eta_max)
    except IntegrationError:
        return None
    return bool(np.min(report.cylinder_values) > -CYLINDER_TOL)


def interface_origin_check(params: Params, xi0: float) -> bool:
    """True iff the backward shot from xi0 reaches the axis with f(0) > 0."""
    if xi0 <= 0.0:
        raise ValueError("xi0 must be > 0")
    _, outcome = shoot_backward(params, xi0, dense_dx=None, track_events=False)
    return isinstance(outcome, ReachedOrigin) and outcome.f0 > 0.0


def phi_extremum(params: Params, xi1: float) -> float:
    """Argmax x0 of phi(x) = x^(1/m)/(m-1) - xi1^sigma x on x > 0:

        x0 = (m(m-1))^(-m/(m-1)) * xi1^(-m sigma/(m-1));

    phi'(x0) is verified to vanish to PHI_CHECK_TOL, and x0^(1/m) equals
    hyperbola_phi_max(xi1).
    """
    if xi1 <= 0.0:
        raise ValueError("xi1 must be > 0")
    m, sigma = params.m, params.sigma
    x0 = (m * (m - 1.0)) ** (-m / (m - 1.0)) * xi1 ** (-m * sigma / (m - 1.0))
    dphi = x0 ** (1.0 / m - 1.0) / (m * (m - 1.0)) - xi1 ** sigma
    if abs(dphi) > PHI_CHECK_TOL * max(1.0, xi1 ** sigma):
        raise AssertionError(f"phi'(x0) = {dphi}, expected 0")
    return float(x0)


# --------------------------------------------------------------------------
# monotone exclusion (ordered shots cannot cross early)
# --------------------------------------------------------------------------

def _first_phi_max_sample(profile) -> Optional[int]:
    """Index of the first sample (ascending xi) on or above the phi-max
    hyperbola, (m-1) xi^sigma f^(m-1) >= 1/m, or None if there is none."""
    m, sigma = profile.params.m, profile.params.sigma
    lvl = (m - 1.0) * profile.xi ** sigma * np.maximum(profile.g, 0.0) \
        ** ((m - 1.0) / m) - 1.0 / m
    above = np.where(lvl >= 0.0)[0]
    return int(above[0]) if above.size else None


def monotone_exclusion_check(params: Params, a1: float,
                             a2: Optional[float] = None,
                             slope2: float = 0.0) -> bool:
    """No-crossing property of ordered shots from the axis.

    Either f2(0) = f1(0) = a1 with slope2 > 0 (and f1 flat), or
    f2(0) = a2 > a1 with both flat.  The two profiles may not cross before
    each has crossed the phi-max hyperbola; this shoots both up to
    EXCLUSION_XI_MAX and checks g2 > g1 - EXCLUSION_TOL max(g1, g2) on a
    common grid up to the later of the two first crossings.
    """
    if a2 is None and slope2 <= 0.0:
        raise ValueError("need either a2 > a1 or slope2 > 0")
    p1, _ = shoot_forward(params, a1, xi_max=EXCLUSION_XI_MAX, dense_dx=0.01,
                          track_events=False)
    p2, _ = shoot_forward(params, a2 if a2 is not None else a1,
                          slope0=slope2, xi_max=EXCLUSION_XI_MAX,
                          dense_dx=0.01, track_events=False)
    c1 = _first_phi_max_sample(p1)
    c2 = _first_phi_max_sample(p2)
    # the ordering claim is vacuous past the point where both have crossed
    limit = min(p1.xi[-1], p2.xi[-1])
    if c1 is not None and c2 is not None:
        limit = min(limit, max(p1.xi[c1], p2.xi[c2]))
    grid = np.linspace(0.0, limit, 2001)[1:]
    g1 = np.interp(grid, p1.xi, p1.g)
    g2 = np.interp(grid, p2.xi, p2.g)
    scale = max(float(np.max(p1.g)), float(np.max(p2.g)))
    return bool(np.min(g2 - g1) > -EXCLUSION_TOL * scale)


# --------------------------------------------------------------------------
# the two gap bounds, checked on actual orbits
# --------------------------------------------------------------------------

def p2_orbit_profile(params: Params, delta: float = 1e-6
                     ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Profile samples (xi, f) on the unique orbit leaving P2 into Z > 0,
    up to its first crossing of the plane Z = 1/m (by eta = P2_ETA_MAX, else
    IntegrationError).

    The orbit is launched at P2 + delta * e3 (e3 the outgoing eigenvector,
    normalized, oriented into Z > 0); profile points are recovered from
    phase states via xi^(sigma+2) = m Z / X^2.  Returns (xi, f, xi_cross).
    """
    m = params.m
    cps = {cp.label: cp for cp in critical_points(params)}
    p2 = cps["P2"].coords
    e3 = p2_outgoing_eigenvector(params)
    e3 = e3 / np.linalg.norm(e3)
    if e3[2] < 0:
        e3 = -e3
    start = p2 + delta * e3

    level = 1.0 / m
    cross = Event(EventKind.HYP_PHI_MAX_CROSS, lambda t, y: y[2] - level,
                  direction=+1, terminal=True, one_sign=off_level(2, level))
    res = integrate(main_rhs(params), start, (0.0, P2_ETA_MAX),
                    events=(cross,))
    if res.terminal_event is None:
        raise IntegrationError("P2 orbit did not reach Z = 1/m "
                               f"within eta_max={P2_ETA_MAX}")
    xs, fs = [], []
    for state in res.y:
        X, Y, Z = state
        if X <= 0.0 or Z <= 0.0:
            continue
        xi, f, _ = from_phase(params, PhaseState(X, Y, max(Z, 0.0)))
        xs.append(xi)
        fs.append(f)
    xi_cross, _, _ = from_phase(params, PhaseState(*res.terminal_event.y))
    return np.asarray(xs), np.asarray(fs), float(xi_cross)


def p2_lower_bound_check(params: Params) -> Tuple[bool, float]:
    """The P2-orbit profile dominates [c*xi]^(2/(m-1)) with
    c = ((m-1)/(2m)) sqrt((2m+1)/(m(m+1))) up to its first phi-max crossing,
    to BOUND_TOL, and that crossing happens at xi <= xi_plus.  Returns
    (ok, xi_cross).
    """
    m = params.m
    xi, f, xi_cross = p2_orbit_profile(params)
    c = (m - 1.0) / (2.0 * m) * np.sqrt((2.0 * m + 1.0) / (m * (m + 1.0)))
    lower = (c * xi) ** (2.0 / (m - 1.0))
    ok = bool(np.all(f >= lower - BOUND_TOL - 1e-12 * np.abs(f)))
    gap = nonexistence_gap(params)
    ok = ok and (xi_cross <= gap.xi_plus + 1e-6)
    return ok, xi_cross


def backward_crossing_bound_check(params: Params, xi0: float
                                  ) -> Tuple[bool, float]:
    """Backward shots cross the phi-max hyperbola for the last time no closer
    to the axis than xi_minus, with f there below
    [((m-1)h0/sigma) xi]^(2/(m-1)) up to BOUND_TOL.

    Returns (ok, xi_last_crossing).
    """
    m, sigma = params.m, params.sigma
    profile, _ = shoot_backward(params, xi0, dense_dx=0.01,
                                track_events=False)
    # the crossing is read off the samples: the last downward crossing of
    # Z = 1/m towards the axis is the first sample above it in ascending xi
    i = _first_phi_max_sample(profile)
    if i is None:
        raise ValueError(f"backward shot from xi0={xi0} never reaches "
                         "the phi-max hyperbola")
    xi_c = float(profile.xi[i])
    f_c = float(profile.f[i])
    bound = ((m - 1.0) * params.h0 / sigma * xi_c) ** (2.0 / (m - 1.0))
    gap = nonexistence_gap(params)
    ok = (f_c <= bound + BOUND_TOL) and (xi_c >= gap.xi_minus - 1e-6)
    return bool(ok), xi_c
