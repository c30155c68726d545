"""Forward and backward shooting for profiles with interface.

Forward shots integrate the g-equation from the axis (g = a^m, dg = 0);
backward shots start near an interface point xi0, seeded by the local series

    g = (C delta)^p (1 + c_2 delta^2 + c_3 delta^3 + ... + c_8 delta^8),

with delta = xi0 - xi, p = 2m/(m-1) and C = (m-1) h0 / (2 sqrt(m(m-1)))
(the leading term is f^((m-1)/2) ~ C delta).  The coefficients follow from
one recursion (interface_series), and the seed sits where the last two terms
fall below 2^-52, typically at delta ~ 1e-3 .. 0.1: there the series is the
exact solution to rounding and carries the shot through the interface layer
in place of the stepper.  The same series is used on the way *in*:
integrating down to g = 0 across the degenerate contact is hopeless (the
trajectory grazes zero tangentially), so a shot is at most two legs of the
integrator.  The first ends on a positive g-floor (_g_floor_fn), which at
sigma = 0 and for large xi0 lies no deeper than where the series' last two
terms reach HANDOFF_TOL.  There _handoff inverts the series through the
floor state's g by Newton's method, and the state is on the interface
branch when its dg matches the series' to HANDOFF_TOL: the shot ends at
that Interface.  That is the one interface test.  A shot that fails it is
continued by a second leg on the zero floor, and when that crosses g = 0 it
does so with dg bounded away from 0, a vertical slope.

Good profiles (f'(0) = 0) are located as roots in xi0 of the slope of the
backward shot at the axis, bracketed on a grid and refined by the ITP method;
for each fixed xi0 the profile with interface there is unique, so the slope
is a well-defined function of xi0.  The search reads only signs and a stop
test, so its shots run at a looser relative tolerance (at most
SEARCH_REL_TOL); each root it returns is then validated by one shot at the
caller's tolerance, which supplies every reported number.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .integrate import (DEFAULT_ABS_TOL, DEFAULT_REL_TOL, Event, EventKind,
                        EventRecord, IntegrationError, IntegratorConfig,
                        IntegrationResult, integrate, off_level)
from .model import (BackwardShot, ForwardShot, Params, Profile,
                    explicit_interface_F0, g_field,
                    integral_identity_residual)

__all__ = [
    "Interface",
    "VerticalSlope",
    "ReachedOrigin",
    "Diverged",
    "Exhausted",
    "ShotOutcome",
    "GoodProfile",
    "SlopeUnreliable",
    "SeedUnderflow",
    "SeriesOverflow",
    "series_constant",
    "series_exponent",
    "InterfaceSeries",
    "interface_series",
    "shoot_forward",
    "shoot_backward",
    "slope_fn",
    "find_good_profiles",
    "multiplicity_scan",
    "ScanRow",
    "nonexistence_gap",
    "GapBounds",
]

#: the relative accuracy at which the interface series stands in for a shot
#: at the g-floor: the floor sits no deeper than where the unweighted
#: series' last two terms reach it, and a floor state whose dg matches that
#: of the series through its g to it lies on the interface branch
HANDOFF_TOL = 1e-4
#: order of the interface series seeding backward shots: it keeps the terms
#: c_0 .. c_SERIES_ORDER
SERIES_ORDER = 8
#: backward shots are seeded where the last two series terms fall below this
SERIES_TAIL = 2.0 ** -52
#: relative distance xi0 - xi = EPS_REL * xi0 at which dense backward profiles
#: end, and whose series state scales the absolute tolerances of backward
#: shots
EPS_REL = 1e-6
#: default spacing of dense profile samples (quadrature accuracy ~ dx^4)
PROFILE_DENSE_DX = 1e-3
#: relative allowance for the rounding of the g-floor's power between its
#: values at the two ends of a step, thousands of ulps
FLOOR_SLACK = 1e-12

DEFAULT_XI_MAX = 1e3
DEFAULT_SLOPE_TOL = 1e-6
#: the loosest relative tolerance a sign decision on a slope uses: the grid
#: and ITP shots of find_good_profiles run at it or tighter
SEARCH_REL_TOL = 1e-6
#: evaluation budget of the ITP refinement of one bracketing grid cell: the
#: bracket it leaves is at most 2^-(ITP_MAX_DEPTH - 1) of the cell
ITP_MAX_DEPTH = 60
#: |f'(0)| below this counts as a flat axis start when classifying extrema;
#: it must not be tighter than the loosest slope_tol a search uses, or a
#: sigma = 0 root whose search stopped at f'(0) < 0 loses its maximum
ORIGIN_FLAT_TOL = 1e-4


@dataclass(frozen=True)
class Interface:
    xi0: float


@dataclass(frozen=True)
class VerticalSlope:
    xi0: float


@dataclass(frozen=True)
class ReachedOrigin:
    f0: float
    slope: float


@dataclass(frozen=True)
class Diverged:
    reason: str


@dataclass(frozen=True)
class Exhausted:
    xi_max: float


ShotOutcome = Union[Interface, VerticalSlope, ReachedOrigin, Diverged, Exhausted]


class SlopeUnreliable(RuntimeError):
    pass


class SeedUnderflow(SlopeUnreliable, ValueError):
    """The interface series' seed distance rounds to 0 at xi0: no backward
    shot can start there."""


class SeriesOverflow(SlopeUnreliable, OverflowError):
    """The interface series at xi0 overflows a float."""


# --------------------------------------------------------------------------
# series seeding and events
# --------------------------------------------------------------------------

def series_constant(params: Params) -> float:
    """C in f^((m-1)/2) ~ C (xi0 - xi) at an interface."""
    m = params.m
    return (m - 1.0) * params.h0 / (2.0 * np.sqrt(m * (m - 1.0)))


def series_exponent(params: Params) -> float:
    """p = 2m/(m-1): g vanishes like (xi0 - xi)^p at an interface."""
    return 2.0 * params.m / (params.m - 1.0)


@dataclass(frozen=True)
class InterfaceSeries:
    """The vanishing branch at an interface xi0, as a truncated series.

    With delta = xi0 - xi, C = series_constant and p = series_exponent,

        g = (C delta)^p (c_0 + c_1 delta + ... + c_K delta^K),

    where K = len(coefs) - 1; see interface_series for the coefficients.
    """

    params: Params
    xi0: float
    coefs: Tuple[float, ...]

    def state(self, delta):
        """(g, dg) at xi = xi0 - delta, for a float or an array of delta."""
        C = series_constant(self.params)
        p = series_exponent(self.params)
        poly = dpoly = 0.0
        for k in range(len(self.coefs) - 1, -1, -1):
            poly = poly * delta + self.coefs[k]
            dpoly = dpoly * delta + (p + k) * self.coefs[k]
        cd = C * delta
        return cd ** p * poly, -C * cd ** (p - 1.0) * dpoly

    def seed_distance(self, tail: float = SERIES_TAIL) -> float:
        """The largest delta at which each of the last two terms is below
        tail relative to c_0 = 1, at most xi0/2."""
        n = len(self.coefs)
        delta = 0.5 * self.xi0
        for k in (n - 2, n - 1):
            c = abs(self.coefs[k])
            if c > 0.0:
                delta = min(delta, (tail / c) ** (1.0 / k))
        return delta


def interface_series(params: Params, xi0: float) -> InterfaceSeries:
    """The interface series at xi0, with the coefficients c_0 .. c_K,
    K = SERIES_ORDER.

    Put g = A delta^p U(delta), U = sum_k c_k delta^k, c_0 = 1, into
    g'' = g^(1/m)/(m-1) - (xi0 - delta)^sigma g.  The leading balance fixes
    A = C^p (A^(1-1/m) p(p-1)(m-1) = 1); what is left is

        D_k c_k = p(p-1) N_k - sum_(j <= k-2) w_j c_(k-2-j),
        D_k = (p+k)(p+k-1) - p(p-1)/m,

    with w_j the Taylor coefficients of (xi0 - delta)^sigma and N_k the part
    of the delta^k coefficient of U^(1/m) that c_k does not enter (Miller's
    power recursion).  D_k > 0 for k >= 1, so no term resonates; c_1 = 0,
    c_2 = -xi0^sigma/D_2 and c_3 = sigma xi0^(sigma-1)/D_3.
    """
    if not xi0 > 0.0:
        raise ValueError("xi0 must be > 0")
    m, sigma = params.m, params.sigma
    p = series_exponent(params)
    inv_m = 1.0 / m
    pp1 = p * (p - 1.0)
    w = []
    binom = 1.0
    for j in range(SERIES_ORDER - 1):
        w.append(binom * xi0 ** (sigma - j))
        binom *= -(sigma - j) / (j + 1)
    c = [1.0]
    v = [1.0]  # coefficients of U^(1/m)
    for k in range(1, SERIES_ORDER + 1):
        nk = sum(((inv_m + 1.0) * j - k) * c[j] * v[k - j]
                 for j in range(1, k)) / k
        forcing = sum(w[j] * c[k - 2 - j] for j in range(k - 1))
        dk = (p + k) * (p + (k - 1)) - pp1 / m
        c.append((pp1 * nk - forcing) / dk)
        v.append(nk + inv_m * c[k])
    return InterfaceSeries(params, float(xi0), tuple(c))


def profile_rhs(params: Params):
    """rhs(xi, (g, dg)) of the first-order profile system, for the integrator."""
    field = g_field(params)

    def rhs(xi, y):
        return (y[1], field(xi, y[0]))

    return rhs


def _g_floor_event(floor: Callable) -> Event:
    """Terminal handoff event at g = floor(xi).

    The floor must sit well below the oscillation minima of live profiles
    (which track the equilibrium hyperbola: g-scale ~ xi^(-m sigma/(m-1)))
    while staying above the integration-noise bounce near a true interface,
    hence the xi-dependent floor built in _g_floor_fn.  floor must be
    nonnegative and monotone in xi: the event's certificate bounds it on a
    step by its values at the two ends, widened by FLOOR_SLACK for the
    rounding of the power in it.
    """

    def one_sign(t_a, t_b, boxes):
        lo, hi = boxes[0]
        fa, fb = floor(t_a), floor(t_b)
        if fa > fb:
            fa, fb = fb, fa
        return lo > fb * (1.0 + FLOOR_SLACK) or hi < fa * (1.0 - FLOOR_SLACK)

    return Event(EventKind.GZERO, lambda t, y: y[0] - floor(t),
                 direction=-1, terminal=True, one_sign=one_sign)


def _dgzero_event() -> Event:
    return Event(EventKind.DG_ZERO, lambda t, y: y[1], direction=0,
                 terminal=False, one_sign=off_level(1, 0.0))


def _g_floor_fn(params: Params, g_start: float):
    """xi-dependent handoff floor: the least of a fraction of the launch
    amplitude, a fraction of the hyperbola g-scale (held at its xi = 1 value
    toward the axis, where it diverges for sigma > 0), and the g at which
    the unweighted interface series' last two terms reach HANDOFF_TOL.  The
    last scales like the hyperbola too: for large xi0 the weighted series
    is the unweighted one in the variable delta xi0^(sigma/2).

    The cap at 1e-3 g_start keeps the floor below a forward shot's own
    minima: from a small amplitude the orbit is periodic about the
    equilibrium and returns to g_start with dg = 0, never reaching g = 0.
    Without the cap, shoot_forward(Params(2, 0), 1e-3, xi_max=60) crosses
    the floor on its first return and ends at Interface(12.48...) instead
    of Exhausted; at m = 3, at Interface(9.42...)."""
    m = params.m
    series = interface_series(Params(m, 0.0), explicit_interface_F0(m))
    k = min(1e-3 * (1.0 / (m - 1.0)) ** (m / (m - 1.0)),
            series.state(series.seed_distance(HANDOFF_TOL))[0])
    cap = 1e-3 * g_start
    expo = -m * params.sigma / (m - 1.0)
    return lambda t: min(cap, k * (t if t > 1.0 else 1.0) ** expo)


# --------------------------------------------------------------------------
# extrema
# --------------------------------------------------------------------------

def _extrema(params: Params, records: Sequence[EventRecord],
             origin_g: Optional[float], origin_slope: Optional[float]
             ) -> Tuple[tuple, tuple]:
    field = g_field(params)
    maxima: List[float] = []
    minima: List[float] = []
    for rec in records:
        if rec.kind is not EventKind.DG_ZERO:
            continue
        curv = field(max(rec.t, 0.0), max(float(rec.y[0]), 0.0))
        if curv < 0.0:
            maxima.append(float(rec.t))
        elif curv > 0.0:
            minima.append(float(rec.t))
    # flat axis start: a maximum of f at xi = 0 iff g is concave there
    # (sigma > 0 always gives g''(0) > 0, so this only fires at sigma = 0).
    # A residual slope of size slope_tol displaces that maximum to
    # xi ~ slope/|f''| ~ 1e-5, so interior extrema that close to the axis are
    # the same feature and get absorbed.
    if (origin_g is not None and origin_slope is not None
            and abs(origin_slope) < ORIGIN_FLAT_TOL):
        curv0 = field(0.0, max(origin_g, 0.0))
        if curv0 != 0.0:
            maxima = [x for x in maxima if x > 1e-3]
            minima = [x for x in minima if x > 1e-3]
            (maxima if curv0 < 0.0 else minima).append(0.0)
    return tuple(sorted(maxima)), tuple(sorted(minima))


# --------------------------------------------------------------------------
# shooting
# --------------------------------------------------------------------------

def _handoff(params: Params, xi_h: float, g_h: float, dg_h: float,
             direction: float) -> Optional[float]:
    """The interface xi0 of the g-floor state (xi_h, g_h, dg_h), or None
    when the state is off the interface branch.  direction points from xi_h
    toward the interface.

    Newton's method on delta = |xi0 - xi_h|, started from the leading term
    delta = g_h^(1/p)/C, with the coefficients taken at each iterate's xi0,
    finds the xi0 whose series passes through g_h at xi_h; it stops when a
    step no longer shrinks, at rounding level.  The state is on the branch
    when its dg matches that series state's to HANDOFF_TOL: the shot ends
    there, since integrating deeper only degrades the state (the escaping
    linear mode amplifies its error like 1/delta^2).  None also when g_h is
    not positive or an iterate leaves xi0 > 0.
    """
    if not g_h > 0.0:
        return None
    delta = g_h ** (1.0 / series_exponent(params)) / series_constant(params)
    last = np.inf
    while True:
        xi0 = xi_h + direction * delta
        if not xi0 > 0.0:
            return None
        g, dg = interface_series(params, xi0).state(delta)
        step = (g - g_h) / dg
        if not abs(step) < last:
            break
        delta, last = delta + step, abs(step)
    # the series branch descends toward xi0 in either direction
    if abs(direction * dg_h - dg) < HANDOFF_TOL * abs(dg):
        return float(xi0)
    return None


def _shoot(params: Params, provenance: Union[ForwardShot, BackwardShot],
           y0: Sequence[float], t_span: Tuple[float, float], g_start: float,
           cfg: IntegratorConfig, track_events: bool,
           at_end: Callable[[IntegrationResult], ShotOutcome],
           origin: Optional[Tuple[float, float]] = None,
           interface: Optional[float] = None,
           head: Optional[Tuple[np.ndarray, np.ndarray]] = None
           ) -> Tuple[Profile, ShotOutcome]:
    """One shot of the profile ODE over t_span, assembled into a Profile.

    The shot is at most two legs of integrate.  Each ends on an integration
    failure (Diverged, with its partial trajectory), at the end of the span,
    where at_end(result) gives the outcome, or on its floor event.  The first
    leg's floor is the g-floor handoff: Interface when _handoff places the
    state on the interface series, and otherwise the second leg starts from
    the floor state (g clamped at 0), on the zero floor, which it hits at a
    VerticalSlope.  origin is the axis state (g, f') when the shot starts
    there; a ReachedOrigin outcome supplies it otherwise.  interface
    defaults to that of an Interface outcome.  head holds samples (t, y)
    that precede t_span[0].
    """
    rhs = profile_rhs(params)
    tracked = [_dgzero_event()] if track_events else []
    t_end = t_span[1]
    direction = 1.0 if t_end > t_span[0] else -1.0
    pieces = [head] if head is not None else []
    records: List[EventRecord] = []
    y_start, t_start = y0, t_span[0]
    for leg, floor in enumerate((_g_floor_fn(params, g_start),
                                 lambda t: 0.0)):
        events = [_g_floor_event(floor)] + tracked
        outcome: Optional[ShotOutcome] = None
        try:
            res = integrate(rhs, y_start, (t_start, t_end), events=events,
                            config=cfg)
        except IntegrationError as err:
            if err.partial is None:
                raise
            res, outcome = err.partial, Diverged(str(err))
        # the second leg starts on the first one's last point
        pieces.append((res.t[leg:], res.y[leg:]))
        records.extend(res.events)
        if outcome is None:
            term = res.terminal_event
            if term is None:
                outcome = at_end(res)
            elif leg:
                outcome = VerticalSlope(term.t)
            else:
                g_h, dg_h = max(float(term.y[0]), 0.0), float(term.y[1])
                xi0 = _handoff(params, term.t, g_h, dg_h, direction)
                if xi0 is None:
                    y_start, t_start = [g_h, dg_h], term.t
                    continue
                outcome = Interface(xi0)
        break

    # every leg is strictly monotone in t: a backward shot is reversed
    t = np.concatenate([piece[0] for piece in pieces])
    y = np.concatenate([piece[1] for piece in pieces])
    if direction < 0.0:
        t, y = t[::-1], y[::-1]
    if isinstance(outcome, ReachedOrigin):
        origin = (float(y[0, 0]), outcome.slope)
    if interface is None and isinstance(outcome, Interface):
        interface = outcome.xi0
    origin_g, origin_slope = origin or (None, None)
    maxima, minima = _extrema(params, records, origin_g, origin_slope)
    # dg is copied so that the profile does not keep the (n, 2) states
    # alive: held, they raised the profiles benchmark's peak RSS by 8 MB
    profile = Profile(params=params, xi=t, g=np.maximum(y[:, 0], 0.0),
                      dg=y[:, 1].copy(), provenance=provenance,
                      maxima=maxima, minima=minima, interface=interface,
                      slope_at_origin=origin_slope)
    return profile, outcome


def shoot_forward(params: Params, a: float, xi_max: float = DEFAULT_XI_MAX,
                  slope0: float = 0.0, rel_tol: float = DEFAULT_REL_TOL,
                  abs_tol: float = DEFAULT_ABS_TOL,
                  dense_dx: Optional[float] = PROFILE_DENSE_DX,
                  track_events: bool = True
                  ) -> Tuple[Profile, ShotOutcome]:
    """Integrate from the axis with f(0) = a, f'(0) = slope0 (default 0).

    Records interior extrema, stops on vanishing g (Interface where the
    g-floor state lies on the interface series, VerticalSlope where the
    continued shot crosses g = 0), on an integration failure (Diverged), or
    at xi_max (Exhausted).
    """
    if a <= 0.0 or xi_max <= 0.0:
        raise ValueError("need a > 0 and xi_max > 0")
    m, sigma = params.m, params.sigma
    g0 = a ** m
    dg0 = m * a ** (m - 1.0) * slope0
    # the weight xi^sigma is only Hoelder at 0; cap the first step
    cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol, dense_dx=dense_dx,
                           first_step=1e-6 if 0.0 < sigma < 1.0 else None)

    return _shoot(params, ForwardShot(a, slope0), [g0, dg0], (0.0, xi_max),
                  g0, cfg, track_events, lambda res: Exhausted(xi_max),
                  origin=(g0, float(slope0)))


def shoot_backward(params: Params, xi0: float,
                   rel_tol: float = DEFAULT_REL_TOL,
                   dense_dx: Optional[float] = PROFILE_DENSE_DX,
                   track_events: bool = True
                   ) -> Tuple[Profile, ShotOutcome]:
    """Integrate from the interface series seed near xi0 down to 0 at rel_tol.

    Returns ReachedOrigin(f0, slope) when g stays positive all the way to the
    axis; otherwise the vanishing is classified as for forward shots:
    Interface on the series handoff, VerticalSlope where the continued shot
    crosses g = 0 (a shot that vanishes again before the axis cannot carry a
    good profile).

    The seed is the state of interface_series at delta = eps, its
    seed_distance rounded so that xi0 - eps is a float: the series is the
    exact local solution to rounding up to there, so it carries the shot
    through the interface layer, where on g ~ delta^p the stepper would take
    about 16 steps per decade of delta.  SeedUnderflow is raised when eps
    rounds to 0, SeriesOverflow when the series overflows a float.  With
    dense samples (from dense_dx) the span from the seed to xi0 - EPS_REL xi0,
    where dense profiles end, is filled with series samples on the dense_dx
    grid.

    The absolute tolerances are 1e-8 times the series state at
    delta = min(eps, EPS_REL xi0): errors committed while g ~ (C delta)^p
    are amplified like (delta'/delta)^(p-1) on the way out of the interface
    layer, so a fixed abs_tol of 1e-12 would destroy the shot.  They stay at
    that depth when the seed lies farther out, so the steps after the seed
    are controlled as tightly as those of a shot seeded at EPS_REL xi0;
    scaled to the seed, they would admit errors of 1e-8 relative there.
    """
    try:
        series = interface_series(params, xi0)
    except OverflowError as err:
        raise SeriesOverflow(f"interface series at xi0={xi0}: {err}") from err
    xi_seed = xi0 - series.seed_distance()
    eps = xi0 - xi_seed  # the seed state sits at the float xi_seed exactly
    if not 0.0 < eps < xi0:
        raise SeedUnderflow(f"the seed distance at xi0={xi0} rounds to {eps}")
    g0, dg0 = series.state(eps)
    g_tol, dg_tol = series.state(min(eps, EPS_REL * xi0))
    if not np.all(np.isfinite((g0, dg0, g_tol, dg_tol))):  # sums overflowed
        raise SeriesOverflow(f"interface series at xi0={xi0}: not finite")
    abs_tol = np.array([max(1e-8 * g_tol, 1e-300),
                        max(1e-8 * abs(dg_tol), 1e-300)])
    cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol, dense_dx=dense_dx)
    head = _series_samples(series, xi_seed, dense_dx) if dense_dx else None

    def at_axis(res: IntegrationResult) -> ShotOutcome:
        g_end, dg_end = float(res.y[-1, 0]), float(res.y[-1, 1])
        if g_end <= 0.0:
            raise SlopeUnreliable(
                f"backward shot from xi0={xi0} reached the axis with g <= 0")
        m = params.m
        return ReachedOrigin(g_end ** (1.0 / m),
                             dg_end / (m * g_end ** ((m - 1.0) / m)))

    return _shoot(params, BackwardShot(xi0, eps), [g0, dg0], (xi_seed, 0.0),
                  np.inf, cfg, track_events, at_axis, interface=xi0,
                  head=head)


def _series_samples(series: InterfaceSeries, xi_seed: float, dx: float
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Series samples xi0 - EPS_REL xi0, ... - dx, ... down to the last point
    above xi_seed (none if the seed lies closer to xi0), with their (g, dg)
    rows, in the order of a backward shot."""
    xi0 = series.xi0
    xi_end = xi0 - EPS_REL * xi0
    xi = xi_end - dx * np.arange(np.ceil((xi_end - xi_seed) / dx))
    xi = xi[xi > xi_seed]
    g, dg = series.state(xi0 - xi)
    return xi, np.column_stack((g, dg))


def slope_fn(params: Params, xi0: float,
             rel_tol: float = DEFAULT_REL_TOL) -> float:
    """f'(0) of one bare backward shot from xi0 at rel_tol (shoot_backward
    with no dense samples and no extremum events).

    It is the slope of the dense, event-tracking shot from xi0, bit for bit:
    neither changes the accepted steps.  SlopeUnreliable is raised when the
    shot does not reach the axis.
    """
    _, outcome = shoot_backward(params, xi0, rel_tol=rel_tol, dense_dx=None,
                                track_events=False)
    if not isinstance(outcome, ReachedOrigin):
        raise SlopeUnreliable(
            f"backward shot from xi0={xi0} did not reach the axis: {outcome}")
    return outcome.slope


# --------------------------------------------------------------------------
# good-profile search
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GoodProfile:
    """A validated profile with f(0) = a > 0, f'(0) ~ 0 and an interface."""

    params: Params
    a: float
    xi0: float
    n_max: int
    slope: float
    residual: float
    profile: Profile


def _validate_good(params: Params, xi0: float, slope_tol: float,
                   rel_tol: float) -> GoodProfile:
    profile, outcome = shoot_backward(params, xi0, rel_tol=rel_tol,
                                      dense_dx=PROFILE_DENSE_DX,
                                      track_events=True)
    if not isinstance(outcome, ReachedOrigin):
        raise SlopeUnreliable(f"no axis contact from xi0={xi0}: {outcome}")
    if abs(outcome.slope) >= slope_tol:
        raise SlopeUnreliable(
            f"slope {outcome.slope} at xi0={xi0} above tolerance {slope_tol}")
    n_max = len(profile.maxima)
    if n_max < 1:
        raise SlopeUnreliable(f"profile at xi0={xi0} has no maximum")
    m, sigma = params.m, params.sigma
    for xi_m in profile.maxima:
        if xi_m == 0.0:
            continue
        i = profile.nearest_index(xi_m)
        f_m = float(profile.g[i]) ** (1.0 / m)
        lvl = (m - 1.0) * xi_m ** sigma * f_m ** (m - 1.0)
        if lvl < 1.0 - 1e-6:
            raise SlopeUnreliable(
                f"maximum at xi={xi_m} falls below the equilibrium hyperbola "
                f"(level {lvl})")
    residual = integral_identity_residual(profile, float(profile.xi[-1]))
    return GoodProfile(params=params, a=outcome.f0, xi0=xi0, n_max=n_max,
                       slope=outcome.slope, residual=residual, profile=profile)


def find_good_profiles(params: Params, xi0_lo: float, xi0_hi: float,
                       grid_n: int = 33, slope_tol: float = DEFAULT_SLOPE_TOL,
                       rel_tol: float = DEFAULT_REL_TOL) -> List[GoodProfile]:
    """Roots of slope_fn in every sign change on a uniform xi0 grid.

    Each bracketing grid cell is refined by ITP (_itp_root), one bare
    backward shot per evaluation and at most ITP_MAX_DEPTH evaluations.
    Every root is then validated by _validate_good on one dense shot at
    rel_tol, which sets the tolerance of the validated root: it must reach
    the axis with |f'(0)| < slope_tol and have a maximum, none of them below
    the equilibrium hyperbola.

    The grid and ITP shots run at the search tolerance
    L = max(rel_tol, min(SEARCH_REL_TOL, slope_tol / 100)), whose
    slope error was at most 6.3 L (1 + |f'(0)|) where it was measured (near
    xi0 = 74 at sigma = 0.1; below 1 L on smaller xi0).  When L is looser
    than rel_tol, ITP stops at |f'(0)| < slope_tol - 10 L, and rel_tol decides
    what L cannot: a grid slope within 10 L (1 + |f'(0)|) of zero or
    unreliable at L, an ITP evaluation unreliable at L, and the cell of a
    root that fails validation (as when the shot at rel_tol misses the axis
    or slope_tol), which is searched again.  Unreliable slope evaluations
    are dropped and failed roots discarded, each with a warning; roots
    closer than 1e-6 are deduplicated keeping the lower xi0.  A bad rel_tol
    raises ValueError before the first shot.
    """
    if not 0.0 < xi0_lo < xi0_hi:
        raise ValueError("need 0 < xi0_lo < xi0_hi")
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")

    # reject a bad rel_tol before max() makes it a valid search tolerance
    IntegratorConfig(rel_tol=rel_tol)
    search_tol = max(rel_tol, min(SEARCH_REL_TOL, slope_tol / 100.0))
    margin = 10.0 * search_tol if search_tol > rel_tol else 0.0

    def slope(x: float) -> Optional[float]:
        s = _try_slope(params, x, search_tol)
        if s is None and margin:
            s = _try_slope(params, x, rel_tol)
        return s

    def grid_slope(x: float) -> Optional[float]:
        s = _try_slope(params, x, search_tol)
        if margin and (s is None or abs(s) <= margin * (1.0 + abs(s))):
            s = _try_slope(params, x, rel_tol)
        return s

    grid = np.linspace(xi0_lo, xi0_hi, grid_n)
    slopes = [grid_slope(float(x)) for x in grid]
    dropped = [float(x) for x, s in zip(grid, slopes) if s is None]
    if dropped:
        warnings.warn(f"{len(dropped)} unreliable slope evaluation(s) on the "
                      f"grid, dropped xi0 = {dropped}")

    roots: List[Tuple[float, float, float]] = []
    for x_lo, x_hi, s_lo, s_hi in zip(grid[:-1], grid[1:], slopes[:-1],
                                      slopes[1:]):
        if s_lo is None or s_hi is None or s_lo * s_hi >= 0.0:
            continue
        root = _itp_root(slope, float(x_lo), float(x_hi), s_lo, s_hi,
                         slope_tol - margin, ITP_MAX_DEPTH)
        if root is not None:
            roots.append((root, float(x_lo), float(x_hi)))

    roots.sort()
    deduped: List[Tuple[float, float, float]] = []
    for cell in roots:
        if not deduped or cell[0] - deduped[-1][0] > 1e-6:
            deduped.append(cell)

    out: List[GoodProfile] = []
    for r, x_lo, x_hi in deduped:
        try:
            try:
                out.append(_validate_good(params, r, slope_tol, rel_tol))
            except (SlopeUnreliable, IntegrationError) as err:
                if not margin:
                    raise
                # L may have misplaced the root: search its cell at rel_tol
                cell_root = _cell_root(params, x_lo, x_hi, slope_tol, rel_tol)
                if cell_root is None:
                    raise SlopeUnreliable(
                        f"{err}; no root in its cell [{x_lo}, {x_hi}] at "
                        f"rel_tol={rel_tol}") from err
                r = cell_root
                out.append(_validate_good(params, r, slope_tol, rel_tol))
        except (SlopeUnreliable, IntegrationError) as err:
            warnings.warn(f"discarding root at xi0={r}: {err}")
    return out


def _cell_root(params: Params, x_lo: float, x_hi: float, slope_tol: float,
               rel_tol: float) -> Optional[float]:
    """The ITP root of the grid cell [x_lo, x_hi] with every shot at
    rel_tol, or None when the slopes at its ends do not change sign there."""
    s_lo = _try_slope(params, x_lo, rel_tol)
    s_hi = _try_slope(params, x_hi, rel_tol)
    if s_lo is None or s_hi is None or s_lo * s_hi >= 0.0:
        return None
    return _itp_root(lambda x: _try_slope(params, x, rel_tol), x_lo, x_hi,
                     s_lo, s_hi, slope_tol, ITP_MAX_DEPTH)


def _try_slope(params: Params, xi0: float, rel_tol: float) -> Optional[float]:
    try:
        return slope_fn(params, xi0, rel_tol=rel_tol)
    except (SlopeUnreliable, IntegrationError):
        return None


def _itp_root(slope: Callable[[float], Optional[float]], x_lo: float,
              x_hi: float, s_lo: float, s_hi: float, tol: float,
              max_depth: int) -> Optional[float]:
    """A point x in (x_lo, x_hi) with |slope(x)| < tol, by ITP.

    The interpolate-truncate-project method of Oliveira & Takahashi (2020,
    ACM TOMS 47(1)) with k1 = 0.2/(x_hi - x_lo), k2 = 2, n0 = 1 and
    eps = (x_hi - x_lo) 2^-(max_depth+1): a regula falsi step pulled toward
    the midpoint, then kept close enough to it that after j evaluations the
    bracket is at most (x_hi - x_lo) 2^-(j-1) wide, one evaluation behind
    bisection in the worst case.  Needs s_lo * s_hi < 0.  Returns None with
    a warning when an evaluation gives None or max_depth evaluations do not
    reach tol.
    """
    width = x_hi - x_lo
    k1 = 0.2 / width
    eps = width * 2.0 ** -(max_depth + 1)
    n_max = max_depth + 1
    for j in range(max_depth):
        w = x_hi - x_lo
        mid = 0.5 * (x_lo + x_hi)
        r = eps * 2.0 ** (n_max - j) - 0.5 * w
        delta = k1 * w * w
        # regula falsi as a fraction of the bracket: the products s * x of
        # the textbook form underflow to 0 on tiny brackets and slopes and
        # throw x_f out of the bracket; clamp what rounding is left
        x_f = min(max(x_lo + s_lo / (s_lo - s_hi) * w, x_lo), x_hi)
        toward = 1.0 if mid >= x_f else -1.0
        x_t = x_f + toward * delta if delta <= abs(mid - x_f) else mid
        x = x_t if abs(x_t - mid) <= r else mid - toward * r
        s = slope(x)
        if s is None:
            warnings.warn(f"root finding aborted near xi0={x}")
            return None
        if abs(s) < tol:
            return x
        if (s < 0.0) == (s_lo < 0.0):
            x_lo, s_lo = x, s
        else:
            x_hi, s_hi = x, s
    warnings.warn(f"root finding did not reach |slope| < {tol} "
                  f"in {max_depth} steps on [{x_lo}, {x_hi}]")
    return None


# --------------------------------------------------------------------------
# scans and the non-existence gap
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    sigma: float
    count: int
    xi0s: Tuple[float, ...]
    n_maxs: Tuple[int, ...]
    error: Optional[str] = None


def multiplicity_scan(m: float, sigmas: Sequence[float], xi0_hi: float,
                      xi0_lo: float = 0.05, grid_dx: float = 0.5,
                      slope_tol: float = DEFAULT_SLOPE_TOL,
                      rel_tol: float = DEFAULT_REL_TOL) -> List[ScanRow]:
    """Good-profile counts per sigma over (0, xi0_hi], searched at rel_tol.

    The count is a lower bound (window- and grid-limited).  Rows are sorted
    by sigma; per-sigma numerical failures and invalid parameters are
    recorded and the scan continues, but a bad rel_tol raises ValueError.
    Anything else is a bug and propagates.
    """
    IntegratorConfig(rel_tol=rel_tol)  # raise here, not once per sigma row
    rows: List[ScanRow] = []
    for sigma in sorted(sigmas):
        try:
            params = Params(m=m, sigma=float(sigma))
            grid_n = max(9, int(np.ceil((xi0_hi - xi0_lo) / grid_dx)) + 1)
            found = find_good_profiles(params, xi0_lo, xi0_hi, grid_n=grid_n,
                                       slope_tol=slope_tol, rel_tol=rel_tol)
            rows.append(ScanRow(sigma=float(sigma), count=len(found),
                                xi0s=tuple(gp.xi0 for gp in found),
                                n_maxs=tuple(gp.n_max for gp in found)))
        except (ValueError, IntegrationError, SlopeUnreliable,
                OverflowError) as err:
            rows.append(ScanRow(sigma=float(sigma), count=0, xi0s=(),
                                n_maxs=(), error=str(err)))
    return rows


@dataclass(frozen=True)
class GapBounds:
    xi_plus: float
    xi_minus: float
    sigma_threshold: float
    gap: bool


def nonexistence_gap(params: Params) -> GapBounds:
    """Shooting bounds whose ordering rules out good profiles with interface.

    xi_plus bounds (from above) the first phi-max-hyperbola crossing of any
    profile shot from the axis with flat slope; xi_minus bounds (from below)
    the last crossing of any profile shot backward from an interface.
    gap = (xi_minus > xi_plus) is equivalent to sigma^2 > 8 m^3 / (2m + 1),
    i.e. sigma > 2m sqrt(2m/(2m+1)); both routes are compared.
    """
    m, sigma = params.m, params.sigma
    if sigma <= 0.0:
        raise ValueError("the gap bounds need sigma > 0")
    xi_plus = (4.0 * m * m * (m + 1.0)
               / ((2.0 * m + 1.0) * (m - 1.0) ** 3)) ** (1.0 / (sigma + 2.0))
    xi_minus = ((m + 1.0) * sigma * sigma
                / (2.0 * m * (m - 1.0) ** 3)) ** (1.0 / (sigma + 2.0))
    threshold = 2.0 * m * np.sqrt(2.0 * m / (2.0 * m + 1.0))
    gap = sigma * sigma * (2.0 * m + 1.0) > 8.0 * m ** 3
    if (xi_minus > xi_plus) != gap and abs(xi_minus - xi_plus) > 1e-12:
        raise AssertionError(
            f"gap criteria disagree: xi-=({xi_minus}) vs xi+=({xi_plus}), "
            f"threshold test {gap}")
    return GapBounds(xi_plus=float(xi_plus), xi_minus=float(xi_minus),
                     sigma_threshold=float(threshold), gap=bool(gap))
