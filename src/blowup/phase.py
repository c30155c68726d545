"""Phase-space side: autonomous systems, critical points, cylinder, normal form.

The profile equation maps onto a quadratic autonomous system via

    X = sqrt(m(m-1)) * f^((m-1)/2) / xi,
    Y = (2 sqrt(m(m-1))/(m-1)) * (f^((m-1)/2))',
    Z = (m-1) * xi^sigma * f^(m-1),

with a new time variable eta defined by d(eta)/d(xi) = f^(-(m-1)/2)/sqrt(m(m-1)):

    X' = (m-1)/2 * X*Y - X^2
    Y' = -(m+1)/2 * Y^2 + 1 - Z
    Z' = Z * ((m-1)*Y + sigma*X)

restricted to the quadrant X >= 0, Z >= 0.  (The tests cross-check this
system against an alternative polynomial one in x = f^(m-1),
y = f^(m-2) f', z = xi; that field lives with the tests.)

This module owns the main vector field (one definition, shared by vf_main
and the integrator's main_rhs), the analytic Jacobian, the nine-point
critical-point catalog with closed-form eigendata, the invariant cylinder
Y^2 = 2/(m+1) - Z/m and its outward flux, the fold-Hopf normal form of the
nonhyperbolic point P3 = (0,0,1), and the Poincare-section spiral diagnostic
around P3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .integrate import (Event, EventKind, IntegratorConfig, IntegrationResult,
                        integrate, off_level)
from .model import Params

__all__ = [
    "PhaseState",
    "CriticalPoint",
    "NormalFormCoeffs",
    "vf_main",
    "main_rhs",
    "to_phase",
    "from_phase",
    "jacobian_main",
    "critical_points",
    "cylinder_value",
    "cylinder_point",
    "cylinder_flux",
    "invariant_K",
    "taylor_coeffs_p3",
    "normal_form_p3",
    "p3_spiral_diagnostic",
    "SpiralDiagnostic",
    "FluxIdentityError",
    "NormalFormMismatch",
    "Z_DIVERGENCE_BOUND",
]

#: orbits whose Z coordinate exceeds this are flagged as diverged-with-anomaly
#: (no admissible orbit escapes with Z -> infinity)
Z_DIVERGENCE_BOUND = 1e6


@dataclass(frozen=True)
class PhaseState:
    X: float
    Y: float
    Z: float

    def __post_init__(self) -> None:
        if self.X < 0.0 or self.Z < 0.0:
            raise ValueError("phase space is restricted to X >= 0, Z >= 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.X, self.Y, self.Z], dtype=float)


def _main_field(m: float, sigma: float, X, Y, Z) -> Tuple:
    return (0.5 * (m - 1.0) * X * Y - X * X,
            -0.5 * (m + 1.0) * Y * Y + 1.0 - Z,
            Z * ((m - 1.0) * Y + sigma * X))


def vf_main(params: Params, s: PhaseState) -> Tuple[float, float, float]:
    """Right-hand side of the main (X, Y, Z) system."""
    return _main_field(params.m, params.sigma, s.X, s.Y, s.Z)


def main_rhs(params: Params) -> Callable:
    """rhs(eta, y) -> (X', Y', Z') of the main system, for the integrator."""
    m, sigma = params.m, params.sigma

    def rhs(_eta, y):
        return _main_field(m, sigma, y[0], y[1], y[2])

    return rhs


def to_phase(params: Params, xi: float, f: float, fprime: float) -> PhaseState:
    """Map a profile point (xi, f, f') to the main phase space."""
    if xi <= 0.0 or f <= 0.0:
        raise ValueError("to_phase requires xi > 0 and f > 0")
    m, sigma = params.m, params.sigma
    root = np.sqrt(m * (m - 1.0))
    X = root * f ** ((m - 1.0) / 2.0) / xi
    Y = (2.0 * root / (m - 1.0)) * 0.5 * (m - 1.0) * f ** ((m - 3.0) / 2.0) * fprime
    Z = (m - 1.0) * xi ** sigma * f ** (m - 1.0)
    return PhaseState(float(X), float(Y), float(Z))


def from_phase(params: Params, s: PhaseState) -> Tuple[float, float, float]:
    """Invert to_phase: recover (xi, f, f') from a state with X > 0, Z > 0.

    xi is pinned by consistency of the two f-expressions:
    xi^(sigma+2) = m Z / X^2.
    """
    m, sigma = params.m, params.sigma
    X, Y, Z = s.X, s.Y, s.Z
    if X <= 0.0 or Z <= 0.0:
        raise ValueError("from_phase requires X > 0 and Z > 0")
    xi = (m * Z / (X * X)) ** (1.0 / (sigma + 2.0))
    f = (Z / ((m - 1.0) * xi ** sigma)) ** (1.0 / (m - 1.0))
    fprime = Y * f ** ((3.0 - m) / 2.0) / np.sqrt(m * (m - 1.0))
    return float(xi), float(f), float(fprime)


def jacobian_main(params: Params, s: PhaseState) -> np.ndarray:
    """Analytic Jacobian of the main system at s."""
    m, sigma = params.m, params.sigma
    X, Y, Z = s.X, s.Y, s.Z
    return np.array([
        [0.5 * (m - 1.0) * Y - 2.0 * X, 0.5 * (m - 1.0) * X, 0.0],
        [0.0, -(m + 1.0) * Y, -1.0],
        [sigma * Z, (m - 1.0) * Z, (m - 1.0) * Y + sigma * X],
    ])


# --------------------------------------------------------------------------
# critical-point catalog
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalPoint:
    """Catalog entry: a finite critical point or a direction at infinity.

    For finite points coords has shape (3,); points at infinity are stored as
    unit direction 4-vectors (X, Y, Z, 0) on the equator of the compactified
    sphere and carry chart-local eigenvalues (they cannot be recomputed from
    jacobian_main).  kind is one of saddle-2u1s, saddle-1u2s, nonhyperbolic,
    unstable-node, stable-node.  expansion names the local profile behavior.
    """

    label: str
    coords: np.ndarray
    at_infinity: bool
    eigenvalues: Tuple[complex, ...]
    kind: str
    expansion: Optional[str] = None
    eigenvectors: Optional[np.ndarray] = None  # columns, same order as eigenvalues

    def state(self) -> PhaseState:
        if self.at_infinity:
            raise ValueError(f"{self.label} is at infinity")
        return PhaseState(*map(float, self.coords))


def p2_outgoing_eigenvector(params: Params) -> np.ndarray:
    """Unstable eigenvector of P2 (the unique orbit into Z > 0 leaves along it),
    oriented with positive Z component."""
    m, sigma = params.m, params.sigma
    h0 = params.h0
    return np.array([-(m - 1.0) / (2.0 * (sigma + 3.0)),
                     -1.0,
                     (sigma * (m - 1.0) + 4.0 * m) * h0 / 2.0])


def critical_points(params: Params) -> List[CriticalPoint]:
    """All nine critical points with closed-form eigendata.

    Finite points: P0 = (0, h0, 0), P1 = (0, -h0, 0), P2 = ((m-1)h0/2, h0, 0),
    P3 = (0, 0, 1).  Directions at infinity: Q1 = (1,0,0), Q2/Q3 = (0,+-1,0),
    Q4 = (0,0,1), Q5 = (m,1,0)/sqrt(1+m^2); only the quadrant X>=0, Z>=0 is
    catalogued.  Q4 admits no incoming orbit from the finite region, which is
    encoded operationally by the Z_DIVERGENCE_BOUND flag in orbit classification.
    """
    m, sigma = params.m, params.sigma
    h0 = params.h0

    lam_p0 = (0.5 * (m - 1.0) * h0, -(m + 1.0) * h0, (m - 1.0) * h0)
    lam_p2 = (-0.5 * (m - 1.0) * h0, -(m + 1.0) * h0,
              0.5 * (m - 1.0) * (sigma + 2.0) * h0)
    omega = np.sqrt(m - 1.0)

    # eigenvectors of the triangular linearizations at P0/P1/P2; the unstable
    # direction at P2 is the one the analysis module launches along
    def upper_vecs(l1, l2, l3, off12):
        # eigenvectors of [[l1, off12, 0], [0, l2, -1], [0, 0, l3]]
        v1 = np.array([1.0, 0.0, 0.0])
        v2 = np.array([off12 / (l2 - l1), 1.0, 0.0])
        v3_y = 1.0 / (l2 - l3)
        v3 = np.array([off12 * v3_y / (l3 - l1), v3_y, 1.0])
        return np.column_stack([v1, v2, v3])

    vec_p0 = upper_vecs(*lam_p0, off12=0.0)
    vec_p1 = upper_vecs(*(-np.array(lam_p0)), off12=0.0)
    e3 = p2_outgoing_eigenvector(params)
    vec_p2 = upper_vecs(*lam_p2, off12=0.25 * (m - 1.0) ** 2 * h0)
    vec_p2 = vec_p2.copy()
    vec_p2[:, 2] = e3

    q5 = np.array([m, 1.0, 0.0, 0.0]) / np.sqrt(1.0 + m * m)

    return [
        CriticalPoint("P0", np.array([0.0, h0, 0.0]), False,
                      tuple(complex(v) for v in lam_p0), "saddle-2u1s",
                      expansion="behP0", eigenvectors=vec_p0),
        CriticalPoint("P1", np.array([0.0, -h0, 0.0]), False,
                      tuple(complex(-v) for v in lam_p0), "saddle-1u2s",
                      expansion="behP1", eigenvectors=vec_p1),
        CriticalPoint("P2", np.array([0.5 * (m - 1.0) * h0, h0, 0.0]), False,
                      tuple(complex(v) for v in lam_p2), "saddle-1u2s",
                      expansion="behP2", eigenvectors=vec_p2),
        CriticalPoint("P3", np.array([0.0, 0.0, 1.0]), False,
                      (0.0, complex(0.0, omega), complex(0.0, -omega)),
                      "nonhyperbolic", expansion=None),
        CriticalPoint("Q1", np.array([1.0, 0.0, 0.0, 0.0]), True,
                      (1.0, sigma + 1.0, 1.0), "unstable-node",
                      expansion="Q1-regular"),
        CriticalPoint("Q2", np.array([0.0, 1.0, 0.0, 0.0]), True,
                      (m, 0.5 * (3.0 * m - 1.0), 0.5 * (m + 1.0)),
                      "unstable-node", expansion="Q2-vertical"),
        CriticalPoint("Q3", np.array([0.0, -1.0, 0.0, 0.0]), True,
                      (-m, -0.5 * (3.0 * m - 1.0), -0.5 * (m + 1.0)),
                      "stable-node", expansion="Q3-vertical"),
        CriticalPoint("Q4", np.array([0.0, 0.0, 1.0, 0.0]), True,
                      (), "nonhyperbolic", expansion=None),
        CriticalPoint("Q5", q5, True,
                      (-1.0, (2.0 * m * (sigma + 1.0) + m - 1.0) / (2.0 * m),
                       (m + 1.0) / (2.0 * m)),
                      "saddle-2u1s", expansion="Q5-power"),
    ]


# --------------------------------------------------------------------------
# the cylinder
# --------------------------------------------------------------------------

class FluxIdentityError(RuntimeError):
    pass


def cylinder_value(params: Params, s: PhaseState) -> float:
    """c = Y^2 - 2/(m+1) + Z/m; c < 0 strictly inside the cylinder."""
    m = params.m
    return s.Y * s.Y - 2.0 / (m + 1.0) + s.Z / m


def cylinder_point(params: Params, Y: float, X: float = 0.0) -> PhaseState:
    """The on-cylinder state with given Y (|Y| <= h0) and X."""
    m = params.m
    if abs(Y) > params.h0 + 1e-15:
        raise ValueError("|Y| may not exceed h0 on the cylinder")
    Z = max(2.0 * m / (m + 1.0) - m * Y * Y, 0.0)
    return PhaseState(X, Y, Z)


def cylinder_flux(params: Params, s: PhaseState, identity_tol: float = 1e-12) -> float:
    """Outward normal flux of the flow on the cylinder at s: sigma*X*Z/m.

    s must lie on the cylinder (|cylinder_value| < 1e-10).  The unsimplified
    normal flow  -(m+1)Y^3 + 2Y - 2YZ + ((m-1)/m)YZ + (sigma/m)XZ, evaluated
    with Z eliminated through the cylinder equation, must agree with the
    simplified form to identity_tol, otherwise FluxIdentityError is raised.
    """
    m, sigma = params.m, params.sigma
    if abs(cylinder_value(params, s)) >= 1e-10:
        raise ValueError("state is not on the cylinder")
    X, Y = s.X, s.Y
    Zc = 2.0 * m / (m + 1.0) - m * Y * Y
    full = (-(m + 1.0) * Y ** 3 + 2.0 * Y - 2.0 * Y * Zc
            + (m - 1.0) / m * Y * Zc + sigma / m * X * Zc)
    simple = sigma * X * Zc / m
    if abs(full - simple) > identity_tol:
        raise FluxIdentityError(
            f"flux forms disagree by {abs(full - simple):.3e} at {s}")
    return simple


def invariant_K(params: Params, s: PhaseState) -> float:
    """First integral of the flow restricted to the invariant plane X = 0:

        K = Z^((m+1)/(m-1)) * [Y^2 + ((m+1)Z - 2m)/(m(m+1))].

    K = 0 is the cylinder; K < 0 fills its interior with closed orbits.
    """
    m = params.m
    Y, Z = s.Y, s.Z
    return Z ** ((m + 1.0) / (m - 1.0)) * (Y * Y + ((m + 1.0) * Z - 2.0 * m)
                                           / (m * (m + 1.0)))


# --------------------------------------------------------------------------
# fold-Hopf normal form at P3
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalFormCoeffs:
    """Coefficients of the Poincare normal form at P3.

    In shifted coordinates v = (m-1)Y + sigma*X, u = sqrt(m-1)(Z-1), z = X and
    w = v + i*u, the truncated normal form reads

        z' = (1/2) G200 z^2 + G011 |w|^2 + (1/6) G300 z^3 + G111 z |w|^2 + ...
        w' = i sqrt(m-1) w + H110 z w + (1/2) H210 z^2 w + (1/2) H021 w |w|^2 + ...

    G011 = G111 = G300 = 0 identically for this system.
    """

    G200: float
    G011: float
    G111: float
    G300: float
    H110: float
    H210: complex
    H021: complex


class NormalFormMismatch(RuntimeError):
    pass


def taylor_coeffs_p3(params: Params) -> Tuple[dict, dict]:
    """Quadratic Taylor data of the (z, w, wbar) system at P3.

    Convention: nonlinearities expanded as sum g_jkl/(j!k!l!) z^j w^k wbar^l
    (and the same with h for the w equation).  The z-equation is purely
    quadratic, so every cubic g-coefficient vanishes.
    """
    m, sigma = params.m, params.sigma
    g = {
        "g200": -(sigma + 2.0),
        "g110": 0.25,
        "g101": 0.25,
        "g020": 0.0,
        "g002": 0.0,
        "g011": 0.0,
    }
    h = {
        "h200": -2.0 * sigma * (m * sigma + m - 1.0) / (m - 1.0),
        "h020": 0.5 - (m + 1.0) / (4.0 * (m - 1.0)),
        "h002": -(0.5 + (m + 1.0) / (4.0 * (m - 1.0))),
        "h110": (3.0 * m + 1.0) * sigma / (4.0 * (m - 1.0)),
        "h101": (3.0 * m + 1.0) * sigma / (4.0 * (m - 1.0)),
        "h011": -(m + 1.0) / (4.0 * (m - 1.0)),
    }
    return g, h


def _normal_form_closed(params: Params) -> NormalFormCoeffs:
    m, sigma = params.m, params.sigma
    iw = 1j / (2.0 * np.sqrt(m - 1.0))
    H210 = -iw * (3.0 * m + 1.0) ** 2 * sigma ** 2 / (16.0 * (m - 1.0) ** 2)
    H021 = iw * (-(m + 1.0) ** 2 / (12.0 * (m - 1.0) ** 2)
                 - 5.0 * (m + 1.0) / (24.0 * (m - 1.0))
                 - 1.0 / 12.0)
    return NormalFormCoeffs(G200=-(sigma + 2.0), G011=0.0, G111=0.0, G300=0.0,
                            H110=(3.0 * m + 1.0) * sigma / (4.0 * (m - 1.0)),
                            H210=H210, H021=H021)


def _normal_form_generic(params: Params) -> NormalFormCoeffs:
    """Recompute the coefficients from the Taylor data through the generic
    resonant-coefficient formulas (the z-equation has no cubic terms, so the
    cubic z-coefficients vanish with g011)."""
    m = params.m
    g, h = taylor_coeffs_p3(params)
    iw = 1j / (2.0 * np.sqrt(m - 1.0))
    H210 = iw * (h["h200"] * (h["h020"] - 2.0 * g["g110"])
                 - abs(h["h101"]) ** 2
                 - h["h011"] * np.conj(h["h200"]))
    H021 = iw * (h["h011"] * h["h020"]
                 - 0.5 * g["g020"] * h["h101"]
                 - 2.0 * abs(h["h011"]) ** 2
                 - abs(h["h002"]) ** 2 / 3.0)
    return NormalFormCoeffs(G200=g["g200"], G011=g["g011"], G111=0.0, G300=0.0,
                            H110=h["h110"], H210=H210, H021=H021)


def normal_form_p3(params: Params, check_tol: float = 1e-12) -> NormalFormCoeffs:
    """Normal-form coefficients at P3, cross-checked two ways.

    The closed forms and the generic-formula recomputation from the Taylor
    data must agree to check_tol, else NormalFormMismatch.  Requires sigma > 0
    (at sigma = 0 the plane X = 0 analysis applies instead).
    """
    if params.sigma <= 0.0:
        raise ValueError("normal form at P3 is set up for sigma > 0")
    a = _normal_form_closed(params)
    b = _normal_form_generic(params)
    pairs = [(a.G200, b.G200), (a.G011, b.G011), (a.G111, b.G111),
             (a.G300, b.G300), (a.H110, b.H110), (a.H210, b.H210),
             (a.H021, b.H021)]
    worst = max(abs(np.complex128(x) - np.complex128(y)) for x, y in pairs)
    if worst > check_tol:
        raise NormalFormMismatch(
            f"closed-form vs generic normal-form coefficients differ by {worst:.3e}")
    return a


# --------------------------------------------------------------------------
# spiral diagnostic around P3
# --------------------------------------------------------------------------

@dataclass
class SpiralDiagnostic:
    radii: List[float]            # section distances to P3 in the (Y, Z) plane
    crossings: List[np.ndarray]   # states at the accepted section crossings
    exit_state: Optional[np.ndarray]  # state when |Y| grew past the exit bound
    result: IntegrationResult


def p3_spiral_diagnostic(params: Params, start: PhaseState, turns: int,
                         eta_max: float = 2000.0, exit_bound: float = 5.0,
                         config: Optional[IntegratorConfig] = None,
                         full: bool = False):
    """Distances r_k to P3 at successive returns to the section {Y=0, Z>1}.

    The orbit through `start` is integrated until it has produced `turns`
    section returns, left the P3 region (|Y| > exit_bound; with full=True
    integration always continues to the exit), or eta_max.  On the section
    Y = 0 with Z > 1 the flow has Y' = 1 - Z < 0, so crossings are detected
    on falling Y and filtered by Z > 1; r_k = Z_k - 1.  For X > 0 the radii
    grow strictly (outgoing spiral); on the invariant plane X = 0 the orbit
    is closed and the radii are constant.  Returns the list of radii, or the
    full SpiralDiagnostic when full=True.
    """
    if turns < 2:
        raise ValueError("need at least 2 returns to diagnose growth")
    cfg = config or IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)

    def inside_or_beyond_exit(t_a, t_b, boxes):
        lo, hi = boxes[1]
        return (-exit_bound < lo and hi < exit_bound
                or lo > exit_bound or hi < -exit_bound)

    section = Event(EventKind.SECTION_CROSS, lambda t, y: y[1],
                    direction=-1, terminal=False, one_sign=off_level(1, 0.0))
    exit_ev = Event(EventKind.STATE_BOUND,
                    lambda t, y: exit_bound - abs(y[1]),
                    direction=-1, terminal=True,
                    one_sign=inside_or_beyond_exit)
    z_guard = Event(EventKind.STATE_BOUND,
                    lambda t, y: Z_DIVERGENCE_BOUND - y[2],
                    direction=-1, terminal=True,
                    one_sign=off_level(2, Z_DIVERGENCE_BOUND))

    radii: List[float] = []
    crossings: List[np.ndarray] = []
    exit_state = None
    # integrate in chunks of a few rotation periods so a closed (X = 0) or
    # slowly opening spiral does not cost the whole eta budget
    chunk = 4.0 * 2.0 * np.pi / np.sqrt(params.m - 1.0)
    eta = 0.0
    y = start.as_array()
    res = None
    while eta < eta_max:
        span = min(chunk, eta_max - eta)
        res = integrate(main_rhs(params), y, (eta, eta + span),
                        events=(section, exit_ev, z_guard), config=cfg)
        for rec in res.events:
            if rec.kind is EventKind.SECTION_CROSS and rec.y[2] > 1.0:
                radii.append(float(rec.y[2] - 1.0))
                crossings.append(rec.y)
        term = res.terminal_event
        if term is not None and term.kind is EventKind.STATE_BOUND:
            exit_state = term.y
            break
        if len(radii) >= turns and not full:
            break
        eta += span
        y = res.y[-1]

    if full:
        return SpiralDiagnostic(radii, crossings, exit_state, res)
    return radii[:turns]
