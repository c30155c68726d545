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
trajectory grazes zero tangentially), so shots terminate on a small positive
g-floor and the interface location is recovered from a curvature-corrected
projection built on the ratio r = p*g/|dg| and c_2, c_3 (see
_project_interface).

Good profiles (f'(0) = 0) are located as roots in xi0 of the slope of the
backward shot at the axis, bracketed on a grid and refined by the ITP method;
for each fixed xi0 the profile with interface there is unique, so the slope
is a well-defined function of xi0.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .integrate import (Event, EventKind, EventRecord, IntegrationError,
                        IntegratorConfig, IntegrationResult, integrate,
                        off_level)
from .model import (BackwardShot, ForwardShot, Params, Profile,
                    g_field, integral_identity_residual, rhs_g)

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
    "series_constant",
    "series_exponent",
    "InterfaceSeries",
    "interface_series",
    "shoot_forward",
    "shoot_backward",
    "classify_vanish",
    "VanishKind",
    "slope_fn",
    "find_good_profiles",
    "count_maxima",
    "multiplicity_scan",
    "ScanRow",
    "nonexistence_gap",
    "GapBounds",
]

#: distance from the interface (in the series variable) at which shots hand
#: over from integration to the local series.  Deeper is worse twice over:
#: default absolute tolerances cannot track the interface branch much below
#: this level (trajectories bounce off a positive minimum ~1e-7), and the
#: escaping linear mode amplifies state errors as the layer is descended.
#: The curvature-corrected projection from this depth is accurate to ~1e-7.
HANDOFF_DELTA = 0.15
#: |dg| may exceed the series prediction by at most this factor at the
#: handoff point and still count as an interface-type vanishing
SERIES_RATIO_CUT = 10.0
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
#: forward shots stop when g exceeds this (escape toward infinite slope data)
G_CEILING = 1e9
#: relative allowance for the rounding of the g-floor's power between its
#: values at the two ends of a step, thousands of ulps
FLOOR_SLACK = 1e-12

DEFAULT_XI_MAX = 1e3
DEFAULT_SLOPE_TOL = 1e-6
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

    def seed_distance(self) -> float:
        """The largest delta at which each of the last two terms is below
        SERIES_TAIL relative to c_0 = 1, at most xi0/2."""
        n = len(self.coefs)
        delta = 0.5 * self.xi0
        for k in (n - 2, n - 1):
            c = abs(self.coefs[k])
            if c > 0.0:
                delta = min(delta, (SERIES_TAIL / c) ** (1.0 / k))
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


def _series_dg(params: Params, g: float) -> float:
    # |dg| of an interface-type solution at level g
    C = series_constant(params)
    p = series_exponent(params)
    return p * C * g ** ((p - 1.0) / p)


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


def _g_ceiling_event(gmax: float) -> Event:
    return Event(EventKind.STATE_BOUND, lambda t, y: gmax - y[0],
                 direction=-1, terminal=True, one_sign=off_level(0, gmax))


def _g_floor_fn(params: Params, g_start: float):
    """xi-dependent handoff floor: min of the series depth, a fraction of the
    launch amplitude, and a fraction of the local hyperbola g-scale."""
    m, sigma = params.m, params.sigma
    C = series_constant(params)
    p = series_exponent(params)
    cap = min((C * HANDOFF_DELTA) ** p, 1e-3 * g_start)
    if sigma == 0.0:
        scale0 = 1e-3 * (1.0 / (m - 1.0)) ** (m / (m - 1.0))
        const = min(cap, scale0)
        return lambda t: const
    k = 1e-3 * (1.0 / (m - 1.0)) ** (m / (m - 1.0))
    expo = -m * sigma / (m - 1.0)

    # below t_cut the hyperbola scale exceeds the cap anyway; clamping there
    # avoids overflow in the negative power
    t_cut = (cap / k) ** (1.0 / expo)

    def floor(t):
        return min(cap, k * (t if t > t_cut else t_cut) ** expo)

    return floor


# --------------------------------------------------------------------------
# profile assembly
# --------------------------------------------------------------------------

def _extrema(params: Params, records: Sequence[EventRecord],
             origin_g: Optional[float], origin_slope: Optional[float]
             ) -> Tuple[tuple, tuple]:
    maxima: List[float] = []
    minima: List[float] = []
    for rec in records:
        if rec.kind is not EventKind.DG_ZERO:
            continue
        curv = rhs_g(params, max(rec.t, 0.0), max(float(rec.y[0]), 0.0))
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
        curv0 = rhs_g(params, 0.0, max(origin_g, 0.0))
        if curv0 != 0.0:
            maxima = [x for x in maxima if x > 1e-3]
            minima = [x for x in minima if x > 1e-3]
            (maxima if curv0 < 0.0 else minima).append(0.0)

    def dedup(points):
        out: List[float] = []
        for x in sorted(points):
            if not out or x - out[-1] > 1e-6:
                out.append(x)
        return tuple(out)

    return dedup(maxima), dedup(minima)


def _slope_from_state(params: Params, g: float, dg: float) -> float:
    m = params.m
    if g <= 0.0:
        raise ValueError("slope undefined at g <= 0")
    return dg / (m * g ** ((m - 1.0) / m))


def _merge(res1: IntegrationResult, res2: Optional[IntegrationResult]
           ) -> Tuple[np.ndarray, np.ndarray, List[EventRecord]]:
    if res2 is None:
        return res1.t, res1.y, list(res1.events)
    t = np.concatenate([res1.t, res2.t[1:]])
    y = np.concatenate([res1.y, res2.y[1:]], axis=0)
    return t, y, list(res1.events) + list(res2.events)


def _build_profile(params: Params, t: np.ndarray, y: np.ndarray,
                   provenance, maxima, minima, interface, slope_at_origin
                   ) -> Profile:
    order = np.argsort(t)
    xi = t[order]
    g = np.maximum(y[order, 0], 0.0)
    dg = y[order, 1]
    keep = np.concatenate([[True], np.diff(xi) > 0.0])
    return Profile(params=params, xi=xi[keep], g=g[keep], dg=dg[keep],
                   provenance=provenance, maxima=maxima, minima=minima,
                   interface=interface, slope_at_origin=slope_at_origin)


# --------------------------------------------------------------------------
# shooting
# --------------------------------------------------------------------------

def _project_interface(params: Params, xi: float, g: float, dg: float,
                       direction: float) -> float:
    """Interface location from the local series at (xi, g, dg).

    With delta the distance to the interface, the vanishing branch expands as
    g = A delta^p (1 + c2 delta^2 + c3 delta^3 + ...), the series of
    interface_series (c2 = -xi0^sigma / D2, c3 = sigma xi0^(sigma-1) / D3),
    here taken at the estimate xi0 = xi + r.  The raw ratio r = p g / |dg|
    equals delta (1 - (2/p) c2 delta^2 - ...), so

        delta = r (1 + (2/p) c2 r^2 + (3/p) c3 r^3) + O(r^4-ish).

    Where dg has been flattened by a grazing minimum the series inversion
    through the known amplitude C is used instead.
    """
    p = series_exponent(params)
    C = series_constant(params)
    delta_series = g ** (1.0 / p) / C
    if dg * direction < 0.0:
        r = min(p * g / abs(dg), 1.5 * delta_series)
        xi0_est = xi + direction * r
        if xi0_est > 0.0:
            _, _, c2, c3 = interface_series(params, xi0_est).coefs[:4]
            r = r * (1.0 + (2.0 / p) * c2 * r * r
                     + (3.0 / p) * c3 * r ** 3)
        delta = r
    else:
        delta = delta_series
    return xi + direction * delta


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


def _resolve_vanish(params: Params, res: IntegrationResult, rhs, events,
                    cfg: IntegratorConfig, t_end: float
                    ) -> Tuple[ShotOutcome, Optional[IntegrationResult]]:
    """Terminal g-floor hit: decide interface vs vertical slope.

    At the handoff state the series predicts |dg| for an interface-type
    approach.  Within SERIES_RATIO_CUT of it the interface location is
    projected through the curvature-corrected series right here: integrating
    deeper only degrades the state, since the escaping linear mode amplifies
    its error like 1/delta^2.  Otherwise dg is genuinely nonzero at vanishing
    and the shot is continued across g = 0, where the standard classification
    applies.
    """
    term = res.terminal_event
    xi_h, g_h, dg_h = term.t, max(float(term.y[0]), 0.0), float(term.y[1])
    direction = 1.0 if t_end >= xi_h else -1.0
    ratio = abs(dg_h) / max(_series_dg(params, max(g_h, 1e-300)), 1e-300)

    if dg_h * direction < 0.0 and ratio < SERIES_RATIO_CUT:
        xi0 = _project_interface(params, xi_h, g_h, dg_h, direction)
        return Interface(xi0), None

    # transversal vanishing: cross g = 0 properly and classify there
    cont_events = [_g_floor_event(lambda t: 0.0)] + [ev for ev in events
                                                     if not ev.terminal]
    try:
        res2 = integrate(rhs, [g_h, dg_h], (xi_h, t_end),
                         events=cont_events, config=cfg)
    except IntegrationError as err:
        return Diverged(str(err)), err.partial
    term2 = res2.terminal_event
    if term2 is None:
        return Exhausted(t_end), res2
    dg_scale = max(float(np.max(np.abs(res.y[:, 1]))),
                   float(np.max(np.abs(res2.y[:, 1]))))
    kind = classify_vanish(params, term2, dg_scale)
    if kind is VanishKind.INTERFACE:
        return Interface(term2.t), res2
    return VerticalSlope(term2.t), res2


def _shoot(params: Params, provenance: Union[ForwardShot, BackwardShot],
           y0: Sequence[float], t_span: Tuple[float, float], g_start: float,
           cfg: IntegratorConfig, track_events: bool,
           at_end: Callable[[IntegrationResult], ShotOutcome],
           origin: Optional[Tuple[float, float]] = None,
           interface: Optional[float] = None,
           head: Optional[Tuple[np.ndarray, np.ndarray]] = None
           ) -> Tuple[Profile, ShotOutcome]:
    """One shot of the profile ODE over t_span, assembled into a Profile.

    The shot stops on the g-floor handoff (classified by _resolve_vanish), on
    g passing G_CEILING or an integration failure (Diverged), or at the end of
    the span, where at_end(result) gives the outcome.  origin is the axis
    state (g, f') when the shot starts there; a ReachedOrigin outcome
    supplies it otherwise.  interface defaults to that of an Interface
    outcome.  head holds samples (t, y) that precede t_span[0].
    """
    rhs = profile_rhs(params)
    events = [_g_floor_event(_g_floor_fn(params, g_start)),
              _g_ceiling_event(G_CEILING)]
    if track_events:
        events.append(_dgzero_event())

    res2 = None
    try:
        res = integrate(rhs, y0, t_span, events=events, config=cfg)
    except IntegrationError as err:
        if err.partial is None:
            raise
        outcome: ShotOutcome = Diverged(str(err))
        res = err.partial
    else:
        term = res.terminal_event
        if term is None:
            outcome = at_end(res)
        elif term.kind is EventKind.STATE_BOUND:
            outcome = Diverged("g exceeded ceiling")
        else:
            outcome, res2 = _resolve_vanish(params, res, rhs, events, cfg,
                                            t_span[1])

    t, y, records = _merge(res, res2)
    if head is not None:
        t, y = np.concatenate((head[0], t)), np.concatenate((head[1], y))
    if isinstance(outcome, ReachedOrigin):
        origin = (float(y[np.argmin(t), 0]), outcome.slope)
    if interface is None and isinstance(outcome, Interface):
        interface = outcome.xi0
    origin_g, origin_slope = origin or (None, None)
    maxima, minima = _extrema(params, records, origin_g, origin_slope)
    profile = _build_profile(params, t, y, provenance, maxima, minima,
                             interface, origin_slope)
    return profile, outcome


def shoot_forward(params: Params, a: float, xi_max: float = DEFAULT_XI_MAX,
                  slope0: float = 0.0,
                  config: Optional[IntegratorConfig] = None,
                  dense_dx: Optional[float] = PROFILE_DENSE_DX,
                  track_events: bool = True
                  ) -> Tuple[Profile, ShotOutcome]:
    """Integrate from the axis with f(0) = a, f'(0) = slope0 (default 0).

    Records interior extrema, stops on vanishing g (classified interface /
    vertical slope), on g blowing past G_CEILING (Diverged), or at xi_max
    (Exhausted).
    """
    if a <= 0.0 or xi_max <= 0.0:
        raise ValueError("need a > 0 and xi_max > 0")
    m, sigma = params.m, params.sigma
    g0 = a ** m
    dg0 = m * a ** (m - 1.0) * slope0
    cfg = config or IntegratorConfig()
    if 0.0 < sigma < 1.0 and cfg.first_step is None:
        # the weight xi^sigma is only Hoelder at 0; cap the first step
        cfg = replace(cfg, first_step=1e-6)
    cfg = replace(cfg, dense_dx=dense_dx)

    return _shoot(params, ForwardShot(a, slope0), [g0, dg0], (0.0, xi_max),
                  g0, cfg, track_events, lambda res: Exhausted(xi_max),
                  origin=(g0, float(slope0)))


def shoot_backward(params: Params, xi0: float,
                   config: Optional[IntegratorConfig] = None,
                   dense_dx: Optional[float] = PROFILE_DENSE_DX,
                   track_events: bool = True
                   ) -> Tuple[Profile, ShotOutcome]:
    """Integrate from the interface series seed near xi0 down to 0.

    Returns ReachedOrigin(f0, slope) when g stays positive all the way to the
    axis; otherwise the vanishing is classified as for forward shots (a shot
    that vanishes again before the axis cannot carry a good profile).

    The seed is the state of interface_series at delta = eps, its
    seed_distance rounded so that xi0 - eps is a float: the series is the
    exact local solution to rounding up to there, so it carries the shot
    through the interface layer, where on g ~ delta^p the stepper would take
    about 16 steps per decade of delta.  SeedUnderflow is raised when eps
    rounds to 0.  With dense samples (from dense_dx; config.dense_dx is not
    read) the span from the seed to xi0 - EPS_REL xi0, where dense profiles
    end, is filled with series samples on the dense_dx grid.

    The absolute tolerances are 1e-8 times the series state at
    delta = min(eps, EPS_REL xi0): errors committed while g ~ (C delta)^p
    are amplified like (delta'/delta)^(p-1) on the way out of the interface
    layer, so a fixed abs_tol of 1e-12 would destroy the shot.  They stay at
    that depth when the seed lies farther out, so the steps after the seed
    are controlled as tightly as those of a shot seeded at EPS_REL xi0;
    scaled to the seed, they would admit errors of 1e-8 relative there.
    """
    series = interface_series(params, xi0)
    xi_seed = xi0 - series.seed_distance()
    eps = xi0 - xi_seed  # the seed state sits at the float xi_seed exactly
    if not 0.0 < eps < xi0:
        raise SeedUnderflow(f"the seed distance at xi0={xi0} rounds to {eps}")
    g0, dg0 = series.state(eps)
    g_tol, dg_tol = series.state(min(eps, EPS_REL * xi0))
    cfg = config or IntegratorConfig()
    abs_tol = np.array([max(1e-8 * g_tol, 1e-300),
                        max(1e-8 * abs(dg_tol), 1e-300)])
    cfg = replace(cfg, abs_tol=abs_tol, dense_dx=dense_dx)
    head = _series_samples(series, xi_seed, dense_dx) if dense_dx else None

    def at_axis(res: IntegrationResult) -> ShotOutcome:
        g_end, dg_end = float(res.y[-1, 0]), float(res.y[-1, 1])
        if g_end <= 0.0:
            raise SlopeUnreliable(
                f"backward shot from xi0={xi0} reached the axis with g <= 0")
        return ReachedOrigin(g_end ** (1.0 / params.m),
                             _slope_from_state(params, g_end, dg_end))

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
             config: Optional[IntegratorConfig] = None) -> float:
    """f'(0) of one bare backward shot from xi0 (shoot_backward with no
    dense samples and no extremum events).

    It is the slope of the dense, event-tracking shot from xi0, bit for bit:
    neither changes the accepted steps.  SlopeUnreliable is raised when the
    shot does not reach the axis.
    """
    _, outcome = shoot_backward(params, xi0, config=config, dense_dx=None,
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


def count_maxima(profile: Profile) -> int:
    """Number of local maxima of f (interior dg sign changes + -> -, plus a
    flat concave start at the axis)."""
    return len(profile.maxima)


def _validate_good(params: Params, xi0: float, slope_tol: float,
                   config: Optional[IntegratorConfig]) -> GoodProfile:
    profile, outcome = shoot_backward(params, xi0, config=config,
                                      dense_dx=PROFILE_DENSE_DX,
                                      track_events=True)
    if not isinstance(outcome, ReachedOrigin):
        raise SlopeUnreliable(f"no axis contact from xi0={xi0}: {outcome}")
    if abs(outcome.slope) >= slope_tol:
        raise SlopeUnreliable(
            f"slope {outcome.slope} at xi0={xi0} above tolerance {slope_tol}")
    n_max = count_maxima(profile)
    if n_max < 1:
        raise SlopeUnreliable(f"profile at xi0={xi0} has no maximum")
    m, sigma = params.m, params.sigma
    for xi_m in profile.maxima:
        if xi_m == 0.0:
            continue
        i = profile.nearest_index(xi_m)
        lvl = (m - 1.0) * xi_m ** sigma * float(profile.f[i]) ** (m - 1.0)
        if lvl < 1.0 - 1e-6:
            raise SlopeUnreliable(
                f"maximum at xi={xi_m} falls below the equilibrium hyperbola "
                f"(level {lvl})")
    residual = integral_identity_residual(profile, float(profile.xi[-1]))
    return GoodProfile(params=params, a=outcome.f0, xi0=xi0, n_max=n_max,
                       slope=outcome.slope, residual=residual, profile=profile)


def find_good_profiles(params: Params, xi0_lo: float, xi0_hi: float,
                       grid_n: int = 33, slope_tol: float = DEFAULT_SLOPE_TOL,
                       max_depth: int = 60,
                       config: Optional[IntegratorConfig] = None
                       ) -> List[GoodProfile]:
    """Roots of slope_fn in every sign change on a uniform xi0 grid.

    Each bracketing grid cell is refined by ITP (_itp_root) until
    |f'(0)| < slope_tol, one bare backward shot per evaluation.  Every root
    is then validated by _validate_good on one dense shot: it must reach
    the axis with |f'(0)| < slope_tol and have a maximum, none of them below
    the equilibrium hyperbola.  Unreliable slope evaluations are dropped and
    failed roots discarded, each with a warning; roots closer than 1e-6 are
    deduplicated keeping the lower xi0.
    """
    if not 0.0 < xi0_lo < xi0_hi:
        raise ValueError("need 0 < xi0_lo < xi0_hi")
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")

    grid = np.linspace(xi0_lo, xi0_hi, grid_n)
    slopes = [_try_slope(params, x, config) for x in grid]
    dropped = [float(x) for x, s in zip(grid, slopes) if s is None]
    if dropped:
        warnings.warn(f"{len(dropped)} unreliable slope evaluation(s) on the "
                      f"grid, dropped xi0 = {dropped}")

    def slope(x: float) -> Optional[float]:
        return _try_slope(params, x, config)

    roots: List[float] = []
    for x_lo, x_hi, s_lo, s_hi in zip(grid[:-1], grid[1:], slopes[:-1],
                                      slopes[1:]):
        if s_lo is None or s_hi is None or s_lo * s_hi >= 0.0:
            continue
        root = _itp_root(slope, float(x_lo), float(x_hi), s_lo, s_hi,
                         slope_tol, max_depth)
        if root is not None:
            roots.append(root)

    roots.sort()
    deduped: List[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-6:
            deduped.append(r)

    out: List[GoodProfile] = []
    for r in deduped:
        try:
            out.append(_validate_good(params, r, slope_tol, config))
        except (SlopeUnreliable, IntegrationError) as err:
            warnings.warn(f"discarding root at xi0={r}: {err}")
    return out


def _try_slope(params: Params, xi0: float,
               config: Optional[IntegratorConfig]) -> Optional[float]:
    try:
        return slope_fn(params, xi0, config=config)
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
                      config: Optional[IntegratorConfig] = None
                      ) -> List[ScanRow]:
    """Good-profile counts per sigma over (0, xi0_hi].

    The count is a lower bound (window- and grid-limited).  Rows are sorted
    by sigma; per-sigma numerical failures and invalid parameters are
    recorded and the scan continues.  Anything else is a bug and propagates.
    """
    rows: List[ScanRow] = []
    for sigma in sorted(sigmas):
        try:
            params = Params(m=m, sigma=float(sigma))
            grid_n = max(9, int(np.ceil((xi0_hi - xi0_lo) / grid_dx)) + 1)
            found = find_good_profiles(params, xi0_lo, xi0_hi, grid_n=grid_n,
                                       slope_tol=slope_tol, config=config)
            rows.append(ScanRow(sigma=float(sigma), count=len(found),
                                xi0s=tuple(gp.xi0 for gp in found),
                                n_maxs=tuple(gp.n_max for gp in found)))
        except (ValueError, IntegrationError, SlopeUnreliable,
                FloatingPointError) as err:
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
