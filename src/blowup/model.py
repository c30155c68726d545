"""Profile-side model for the blow-up ODE.

The self-similar profiles studied here solve

    (f^m)''(xi) = f(xi)/(m-1) - xi^sigma * f(xi)^m,      xi >= 0,

with m > 1 and sigma >= 0.  All numerics work in the regularized variable
g = f^m, for which the equation

    g'' = g^(1/m)/(m-1) - xi^sigma * g

is Lipschitz in g away from g = 0 and merely Hoelder at g = 0, where the
free boundary (interface) sits.  This module owns the parameter container,
the right-hand side, the explicit unweighted (sigma = 0) solution, the two
reference hyperbolas, and the energy-type integral identity used to
cross-check every computed profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .integrate import _BLOCK_ROWS

__all__ = [
    "Params",
    "ForwardShot",
    "BackwardShot",
    "Profile",
    "g_field",
    "rhs_g",
    "explicit_profile_F0",
    "explicit_interface_F0",
    "hyperbola_equilibrium",
    "hyperbola_phi_max",
    "integral_identity_residual",
    "weighted_g_square_integral",
]

#: negative g of smaller magnitude than this is treated as roundoff and clamped
G_CLAMP_TOL = 1e-14


@dataclass(frozen=True)
class Params:
    """Model parameters (m, sigma) with derived constants.

    m > 1 strictly (the degenerate-diffusion range); sigma >= 0, where
    sigma = 0 is the unweighted reference case.
    """

    m: float
    sigma: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.m) or self.m <= 1.0:
            raise ValueError(f"m must be a finite number > 1, got {self.m}")
        if not np.isfinite(self.sigma) or self.sigma < 0.0:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")

    @property
    def h0(self) -> float:
        """sqrt(2/(m+1)); the |Y| level of the equilibria P0, P1."""
        return float(np.sqrt(2.0 / (self.m + 1.0)))

    @property
    def alpha(self) -> float:
        """Temporal blow-up exponent 1/(m-1)."""
        return 1.0 / (self.m - 1.0)


@dataclass(frozen=True)
class ForwardShot:
    """Provenance: integrated from the axis with f(0) = a, f'(0) = slope0."""

    a: float
    slope0: float = 0.0


@dataclass(frozen=True)
class BackwardShot:
    """Provenance: integrated from the interface xi0 seeded at xi0 - epsilon.

    epsilon is the distance from xi0 at which integration starts, the seed
    distance of the interface series rounded so that xi0 - epsilon is a
    float; dense profiles hold series samples between there and
    xi0 - 1e-6 xi0.
    """

    xi0: float
    epsilon: float


@dataclass(frozen=True)
class Profile:
    """A sampled profile trajectory in g = f^m variables.

    Samples are stored as parallel arrays with strictly increasing xi
    (backward shots are reversed on construction).  `maxima`/`minima` are the
    xi locations of interior extrema of f (equivalently of g), plus the axis
    point when the profile starts flat and concave there.
    """

    params: Params
    xi: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    provenance: Union[ForwardShot, BackwardShot]
    maxima: tuple = ()
    minima: tuple = ()
    interface: Optional[float] = None
    slope_at_origin: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.xi) == 0:
            raise ValueError("profile needs at least one sample")
        if len(self.xi) != len(self.g) or len(self.xi) != len(self.dg):
            raise ValueError("xi, g, dg must have equal length")
        if len(self.xi) > 1 and not np.all(np.diff(self.xi) > 0):
            raise ValueError("profile samples must be strictly increasing in xi")
        if np.min(self.g) < -G_CLAMP_TOL:
            raise ValueError(f"negative g beyond roundoff: min g = {np.min(self.g)}")

    @property
    def f(self) -> np.ndarray:
        return np.maximum(self.g, 0.0) ** (1.0 / self.params.m)

    @property
    def fprime(self) -> np.ndarray:
        m = self.params.m
        gpos = np.maximum(self.g, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            fp = self.dg / (m * gpos ** ((m - 1.0) / m))
        return np.where(gpos > 0.0, fp, 0.0)

    def nearest_index(self, xi0: float) -> int:
        return int(np.argmin(np.abs(self.xi - xi0)))


def g_field(params: Params) -> Callable[[float, float], float]:
    """g''(xi, g) = g_+^(1/m)/(m-1) - xi^sigma * g on floats, with no domain
    check, and with 1/m and m-1 computed once for params.

    This is the one definition of the profile equation: rhs_g and the
    integrator's right-hand side both evaluate it, so both give the same
    bits.
    """
    inv_m, m1, sigma = 1.0 / params.m, params.m - 1.0, params.sigma

    def g2(xi, g):
        return (g if g > 0.0 else 0.0) ** inv_m / m1 - xi ** sigma * g

    return g2


def rhs_g(params: Params, xi: float, g: float):
    """Second derivative g'' = g^(1/m)/(m-1) - xi^sigma * g.

    g slightly negative (|g| <= G_CLAMP_TOL) is clamped to zero; more
    negative values are a domain error.  Accepts array input for g/xi,
    evaluated element by element on floats, exactly as the integrator
    evaluates it.
    """
    field = g_field(params)
    if np.ndim(g) == 0 and np.ndim(xi) == 0:
        g, xi = float(g), float(xi)
        if g < -G_CLAMP_TOL:
            raise ValueError(f"g < -{G_CLAMP_TOL:g} is outside the model domain (g={g})")
        return field(xi, g)
    g_arr = np.asarray(g, dtype=float)
    if np.any(g_arr < -G_CLAMP_TOL):
        raise ValueError(f"g < -{G_CLAMP_TOL:g} is outside the model domain (g={g})")
    return np.vectorize(field, otypes=[float])(np.asarray(xi, dtype=float),
                                               g_arr)


def explicit_profile_F0(m: float, xi) -> np.ndarray | float:
    """Explicit compactly supported solution of the unweighted (sigma=0) case.

        F0(xi) = [2m/((m+1)(m-1))]^(1/(m-1)) * (cos^2(omega*xi))_+^(1/(m-1))

    Substituting back into (f^m)'' = f/(m-1) - f^m pins both constants:
    matching the cos^2 terms forces omega = (m-1)/(2m) and the amplitude
    above.  Zero beyond the first zero of the cosine, i.e. for
    xi >= pi*m/(m-1).
    """
    if m <= 1.0:
        raise ValueError("m must be > 1")
    xi_arr = np.asarray(xi, dtype=float)
    amp = (2.0 * m / ((m + 1.0) * (m - 1.0))) ** (1.0 / (m - 1.0))
    omega = (m - 1.0) / (2.0 * m)
    inside = np.abs(xi_arr) * omega < 0.5 * np.pi
    c = np.where(inside, np.cos(omega * xi_arr), 0.0)
    out = amp * (c * c) ** (1.0 / (m - 1.0))
    return out if out.ndim else float(out)


def explicit_interface_F0(m: float) -> float:
    """First zero of explicit_profile_F0: xi0 = pi*m/(m-1)."""
    if m <= 1.0:
        raise ValueError("m must be > 1")
    return float(np.pi * m / (m - 1.0))


def hyperbola_equilibrium(params: Params, xi) -> np.ndarray | float:
    """f-level (1/(m-1))^(1/(m-1)) * xi^(-sigma/(m-1)) where reaction balances
    the zeroth-order term; profiles oscillate around this curve.

    Satisfies (m-1) * xi^sigma * f^(m-1) = 1 identically.
    """
    m, sigma = params.m, params.sigma
    xi_arr = np.asarray(xi, dtype=float)
    if sigma > 0.0 and np.any(xi_arr <= 0.0):
        raise ValueError("xi must be > 0 when sigma > 0")
    out = (1.0 / (m - 1.0)) ** (1.0 / (m - 1.0)) * xi_arr ** (-sigma / (m - 1.0))
    return out if out.ndim else float(out)


def hyperbola_phi_max(params: Params, xi) -> np.ndarray | float:
    """f-level (1/(m(m-1)))^(1/(m-1)) * xi^(-sigma/(m-1)).

    This is where phi(x) = x^(1/m)/(m-1) - xi^sigma*x (x = f^m) peaks; every
    shooting bound in the package is phrased through crossings of this curve.
    Equals hyperbola_equilibrium * m^(-1/(m-1)).
    """
    m, sigma = params.m, params.sigma
    xi_arr = np.asarray(xi, dtype=float)
    if sigma > 0.0 and np.any(xi_arr <= 0.0):
        raise ValueError("xi must be > 0 when sigma > 0")
    out = (1.0 / (m * (m - 1.0))) ** (1.0 / (m - 1.0)) * xi_arr ** (-sigma / (m - 1.0))
    return out if out.ndim else float(out)


def _powm1(b: np.ndarray, s: float) -> np.ndarray:
    # b**s with the convention 0**0 == 0, so that xi^sigma acts as the
    # cumulative weight W(xi) with W(0) = 0 (unit jump at 0 when sigma = 0).
    out = np.where(b > 0.0, b, 1.0) ** s
    return np.where(b > 0.0, out, 0.0)


#: Gauss-Legendre nodes and weights on [0, 1], exact for degree 7
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)
_GL_NODES = 0.5 * (1.0 + _GL_NODES)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS
#: cells [a, a + h] with a > AXIS_CELLS * h use Gauss-Legendre, the rest
#: exact moments of d(xi^sigma)
AXIS_CELLS = 4.0


def weighted_g_square_integral(params: Params, xi: np.ndarray, g: np.ndarray,
                               dg: np.ndarray) -> float:
    """sigma * int xi^(sigma-1) g(xi)^2 dxi over the sampled range.

    Evaluated as the Stieltjes integral int g^2 d(xi^sigma) with a cubic
    Hermite model of g^2 on each cell ((g^2)' = 2 g dg is available at the
    nodes).  On cells near the axis (a <= AXIS_CELLS * h) the model is
    integrated against exact moments of d(xi^sigma); this handles the
    xi^(sigma-1) endpoint singularity for sigma < 1 exactly, and at
    sigma = 0 reproduces the distributional limit g(0)^2 (unit mass at
    xi = 0) that the identity requires.  On the other cells the weight
    sigma xi^(sigma-1) is smooth, and the model in its Hermite basis form is
    integrated by 4-point Gauss-Legendre: that form has no dG/h^3 terms and
    no differences of xi^(sigma+k), so a very short cell far from the axis
    adds no cancellation error.
    """
    s = params.sigma
    xi = np.asarray(xi, dtype=float)
    n = len(xi) - 1
    if n <= 0:
        return 0.0

    # the far cells' summands at the four nodes are evaluated in blocks of
    # cells into one preallocated array and each node's row is summed once
    # as a whole: the temporaries are a block's, and each sum has the bits
    # of the unblocked formula
    blocks = [slice(i, i + _BLOCK_ROWS) for i in range(0, n, _BLOCK_ROWS)]
    far = np.empty(n, dtype=bool)
    for r in blocks:
        a = xi[:-1][r]
        far[r] = a > AXIS_CELLS * (xi[1:][r] - a)
    summands = np.empty((len(_GL_NODES), int(np.count_nonzero(far))))
    filled = 0
    for r in blocks:
        cells = np.flatnonzero(far[r]) + r.start
        af, hf = xi[cells], xi[cells + 1] - xi[cells]
        Gaf, Gbf = g[cells] * g[cells], g[cells + 1] * g[cells + 1]
        dGaf = 2.0 * g[cells] * dg[cells]
        dGbf = 2.0 * g[cells + 1] * dg[cells + 1]
        for j, x in enumerate(_GL_NODES):
            h00 = (1.0 + 2.0 * x) * (1.0 - x) ** 2
            h10 = x * (1.0 - x) ** 2
            h01 = x * x * (3.0 - 2.0 * x)
            h11 = x * x * (x - 1.0)
            model = h00 * Gaf + h01 * Gbf + (h10 * dGaf + h11 * dGbf) * hf
            summands[j, filled:filled + len(cells)] = \
                model * hf * (af + x * hf) ** (s - 1.0)
        filled += len(cells)
    total = 0.0
    for w, summand in zip(_GL_WEIGHTS, summands):
        total += w * float(np.sum(summand))
    total *= s

    near = np.flatnonzero(~far)
    a, b = xi[near], xi[near + 1]
    h = b - a
    Ga, Gb = g[near] * g[near], g[near + 1] * g[near + 1]
    dGa, dGb = 2.0 * g[near] * dg[near], 2.0 * g[near + 1] * dg[near + 1]

    # cubic Hermite coefficients in t = xi - a
    c0 = Ga
    c1 = dGa
    c2 = 3.0 * (Gb - Ga) / h**2 - (2.0 * dGa + dGb) / h
    c3 = -2.0 * (Gb - Ga) / h**3 + (dGa + dGb) / h**2

    # exact moments M_k = int_a^b (xi-a)^k d(xi^s), via N_j = int (xi-a)^j xi^s dxi
    bs = _powm1(b, s)
    as_ = _powm1(a, s)
    n0 = (_powm1(b, s + 1.0) - _powm1(a, s + 1.0)) / (s + 1.0)
    n1 = (_powm1(b, s + 2.0) - _powm1(a, s + 2.0)) / (s + 2.0) - a * n0
    n2 = ((_powm1(b, s + 3.0) - _powm1(a, s + 3.0)) / (s + 3.0)
          - 2.0 * a * (_powm1(b, s + 2.0) - _powm1(a, s + 2.0)) / (s + 2.0)
          + a * a * n0)
    m0 = bs - as_
    m1 = h * bs - n0
    m2 = h * h * bs - 2.0 * n1
    m3 = h * h * h * bs - 3.0 * n2

    return total + float(np.sum(c0 * m0 + c1 * m1 + c2 * m2 + c3 * m3))


def integral_identity_residual(profile: Profile, xi0: float) -> float:
    """|LHS - RHS| of the first-integral identity at xi0.

    Multiplying the g-equation by g' and integrating over (0, xi0) gives

        (g')^2(xi0) = (g')^2(0)
                      + 2m/((m+1)(m-1)) * [g(xi0)^((m+1)/m) - g(0)^((m+1)/m)]
                      - xi0^sigma * g(xi0)^2
                      + sigma * int_0^xi0 xi^(sigma-1) g^2 dxi.

    The identity is evaluated at the stored sample nearest to xi0; the
    profile must be sampled from xi = 0.
    """
    p = profile.params
    m, sigma = p.m, p.sigma
    if xi0 < profile.xi[0] - 1e-12 or xi0 > profile.xi[-1] + 1e-12:
        raise ValueError(f"xi0={xi0} outside sampled range "
                         f"[{profile.xi[0]}, {profile.xi[-1]}]")
    if profile.xi[0] > 1e-12:
        raise ValueError("identity requires samples starting at xi = 0")
    i0 = profile.nearest_index(xi0)
    x0 = float(profile.xi[i0])
    g0, dg0 = float(profile.g[0]), float(profile.dg[0])
    g1, dg1 = max(float(profile.g[i0]), 0.0), float(profile.dg[i0])

    coeff = 2.0 * m / ((m + 1.0) * (m - 1.0))
    lhs = dg1 * dg1
    rhs = (dg0 * dg0
           + coeff * (g1 ** ((m + 1.0) / m) - max(g0, 0.0) ** ((m + 1.0) / m))
           - x0 ** sigma * g1 * g1
           + weighted_g_square_integral(p, profile.xi[: i0 + 1],
                                        profile.g[: i0 + 1],
                                        profile.dg[: i0 + 1]))
    return abs(lhs - rhs)
