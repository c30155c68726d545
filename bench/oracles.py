"""Reference computations made apart from the blowup package.

Nothing here imports blowup.  Each oracle is derived from the profile
equation

    g'' = g^(1/m)/(m-1) - xi^sigma g,      g = f^m,

or from the phase-space system obtained from it, and is used to judge the
package's outputs.  `self_test` shows that each oracle rejects a
deliberately wrong input, so a pass is evidence and not an accident of a
loose tolerance.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_bvp, solve_ivp

#: |computed - closed-form| interface location at sigma = 0 (forward shots
#: place interfaces to ~1e-4 at the package's default tolerances)
INTERFACE_TOL = 1e-3
#: max |dg' - rhs| over the samples, relative to max(1, max |rhs|)
ODE_RESIDUAL_TOL = 1e-4
#: below this xi the weight xi^sigma (sigma > 0) is too rough for the
#: finite-difference residual
WEIGHT_XI_MIN = 0.05
#: |f - g^(1/m)| and |f' - dg/(m g^((m-1)/m))|, relative to the column scale
COLUMN_TOL = 1e-11
#: gap bounds and threshold, relative
GAP_TOL = 1e-12
#: eigenvalues of the central-difference Jacobian (step 1e-6)
EIGEN_TOL = 1e-6
#: drift of the first integral K along an X = 0 orbit
K_DRIFT_TOL = 1e-8


# --------------------------------------------------------------------------
# sigma = 0 closed forms
# --------------------------------------------------------------------------

def f0_amplitude(m: float) -> float:
    """f(0) of the explicit sigma = 0 profile: (2m/((m+1)(m-1)))^(1/(m-1))."""
    return (2.0 * m / ((m + 1.0) * (m - 1.0))) ** (1.0 / (m - 1.0))


def f0_interface(m: float) -> float:
    """Interface of the explicit sigma = 0 profile: pi m/(m-1)."""
    return math.pi * m / (m - 1.0)


def f0_closed(m: float, xi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(F0, F0') with F0 = amp cos^(2/(m-1))((m-1) xi/(2m)), zero outside."""
    xi = np.asarray(xi, dtype=float)
    omega = (m - 1.0) / (2.0 * m)
    k = 2.0 / (m - 1.0)
    c = np.clip(np.cos(omega * xi), 0.0, None)
    c = np.where(omega * xi < 0.5 * math.pi, c, 0.0)
    amp = f0_amplitude(m)
    f = amp * c ** k
    with np.errstate(divide="ignore", invalid="ignore"):
        fp = np.where(c > 0.0, -amp * k * c ** (k - 1.0) * omega
                      * np.sin(omega * xi), 0.0)
    return f, fp


def check_interface0(m: float, xi0: float, tol: float = INTERFACE_TOL
                     ) -> Optional[str]:
    ref = f0_interface(m)
    if not abs(xi0 - ref) < tol:
        return f"interface {xi0!r} is not pi m/(m-1) = {ref!r} (tol {tol})"
    return None


# --------------------------------------------------------------------------
# samples against the equation
# --------------------------------------------------------------------------

def ode_rhs(m: float, sigma: float, xi: np.ndarray, g: np.ndarray
            ) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    weight = np.where(xi > 0.0, xi, 0.0) ** sigma if sigma > 0.0 else 1.0
    return np.maximum(g, 0.0) ** (1.0 / m) / (m - 1.0) - weight * g


def _thin(xi: np.ndarray, min_dx: float) -> np.ndarray:
    keep = [0]
    for i in range(1, xi.size):
        if xi[i] - xi[keep[-1]] >= min_dx:
            keep.append(i)
    return np.asarray(keep)


def ode_residual(m: float, sigma: float, xi: np.ndarray, g: np.ndarray,
                 dg: np.ndarray, min_dx: float = 5e-4) -> float:
    """max |dg' - rhs| / max(1, max |rhs|) at interior samples.

    dg' is the three-point derivative on the (non-uniform) sample grid,
    second-order accurate in the spacing.  Samples closer than min_dx to the
    previous kept one are skipped: across the tiny steps the integrator takes
    near xi = 0 (where xi^sigma is not smooth) a difference quotient measures
    the integration noise, not the equation.  For sigma > 0 the quotient's
    error grows like h^2 xi^(sigma-2) as xi -> 0, so points with
    xi < WEIGHT_XI_MIN are not judged.
    """
    xi, g, dg = (np.asarray(a, dtype=float) for a in (xi, g, dg))
    keep = _thin(xi, min_dx)
    xi, g, dg = xi[keep], g[keep], dg[keep]
    if xi.size < 3:
        raise ValueError("need at least three samples")
    h1 = xi[1:-1] - xi[:-2]
    h2 = xi[2:] - xi[1:-1]
    d = (h1 * h1 * dg[2:] - h2 * h2 * dg[:-2]
         + (h2 * h2 - h1 * h1) * dg[1:-1]) / (h1 * h2 * (h1 + h2))
    r = ode_rhs(m, sigma, xi[1:-1], g[1:-1])
    judged = xi[1:-1] >= (WEIGHT_XI_MIN if sigma > 0.0 else 0.0)
    err = np.abs(d - r)[judged]
    return float(np.max(err) / max(1.0, float(np.max(np.abs(r)))))


def check_samples(m: float, sigma: float, xi, f, fprime, g, dg,
                  tol: float = ODE_RESIDUAL_TOL) -> Optional[str]:
    """Profile samples (xi, f, f', g, dg) against g'' = rhs and f = g^(1/m)."""
    xi, f, fprime, g, dg = (np.asarray(a, dtype=float)
                            for a in (xi, f, fprime, g, dg))
    if not np.all(np.diff(xi) > 0.0):
        return "samples are not strictly increasing in xi"
    if np.min(g) < 0.0:
        return f"negative g {np.min(g)!r}"
    scale_f = max(1.0, float(np.max(f)))
    err_f = float(np.max(np.abs(f - g ** (1.0 / m)))) / scale_f
    if not err_f < COLUMN_TOL:
        return f"f differs from g^(1/m) by {err_f:.3e}"
    pos = g > 0.0
    fp_ref = dg[pos] / (m * g[pos] ** ((m - 1.0) / m))
    scale_fp = max(1.0, float(np.max(np.abs(fp_ref))))
    err_fp = float(np.max(np.abs(fprime[pos] - fp_ref))) / scale_fp
    if not err_fp < COLUMN_TOL:
        return f"f' differs from dg/(m g^((m-1)/m)) by {err_fp:.3e}"
    res = ode_residual(m, sigma, xi, g, dg)
    if not res < tol:
        return f"samples miss g'' = g^(1/m)/(m-1) - xi^sigma g by {res:.3e}"
    return None


# --------------------------------------------------------------------------
# the non-existence gap
# --------------------------------------------------------------------------

def gap_bounds(m: float, sigma: float) -> Tuple[float, float, float]:
    """(xi+, xi-, threshold) in closed form.

    xi+ = (4 m^2 (m+1) / ((2m+1)(m-1)^3))^(1/(sigma+2)),
    xi- = ((m+1) sigma^2 / (2m (m-1)^3))^(1/(sigma+2)),
    threshold = 2m sqrt(2m/(2m+1)); xi- > xi+ exactly above the threshold.
    """
    xi_plus = (4.0 * m * m * (m + 1.0) / ((2.0 * m + 1.0) * (m - 1.0) ** 3)) \
        ** (1.0 / (sigma + 2.0))
    xi_minus = ((m + 1.0) * sigma * sigma / (2.0 * m * (m - 1.0) ** 3)) \
        ** (1.0 / (sigma + 2.0))
    threshold = 2.0 * m * math.sqrt(2.0 * m / (2.0 * m + 1.0))
    return xi_plus, xi_minus, threshold


def check_gap(m: float, sigma: float, xi_plus: float, xi_minus: float,
              threshold: float, gap: bool) -> Optional[str]:
    ref_p, ref_m, ref_t = gap_bounds(m, sigma)
    for name, got, ref in (("xi+", xi_plus, ref_p), ("xi-", xi_minus, ref_m),
                           ("threshold", threshold, ref_t)):
        if not abs(got - ref) <= GAP_TOL * abs(ref):
            return f"{name} = {got!r}, closed form {ref!r}"
    if gap != (sigma > ref_t):
        return f"gap flag {gap} but sigma={sigma} vs threshold {ref_t}"
    if gap != (ref_m > ref_p):
        return "closed-form ordering of xi-/xi+ disagrees with the threshold"
    return None


# --------------------------------------------------------------------------
# phase space
# --------------------------------------------------------------------------

def phase_field(m: float, sigma: float, v: np.ndarray) -> np.ndarray:
    """(X, Y, Z)' from X = sqrt(m(m-1)) f^((m-1)/2)/xi,
    Y = (2 sqrt(m(m-1))/(m-1)) (f^((m-1)/2))', Z = (m-1) xi^sigma f^(m-1)."""
    X, Y, Z = v
    return np.array([0.5 * (m - 1.0) * X * Y - X * X,
                     1.0 - 0.5 * (m + 1.0) * Y * Y - Z,
                     Z * ((m - 1.0) * Y + sigma * X)])


def fd_eigenvalues(m: float, sigma: float, point: Sequence[float],
                   h: float = 1e-6) -> np.ndarray:
    p = np.asarray(point, dtype=float)
    jac = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        jac[:, j] = (phase_field(m, sigma, p + e)
                     - phase_field(m, sigma, p - e)) / (2.0 * h)
    return np.linalg.eigvals(jac)


def _match(a: Iterable[complex], b: Iterable[complex]) -> float:
    # worst distance under the best pairing (greedy is exact for 3 values
    # that are either equal or well separated)
    rest = list(b)
    worst = 0.0
    for x in a:
        k = min(range(len(rest)), key=lambda i: abs(rest[i] - x))
        worst = max(worst, abs(rest.pop(k) - x))
    return worst


def check_catalog(m: float, sigma: float,
                  points: Sequence[Tuple[str, Sequence[float],
                                     Sequence[complex]]]
                  ) -> Optional[str]:
    """Finite critical points: the field vanishes there and the closed-form
    eigenvalues equal those of a finite-difference Jacobian."""
    for label, coords, eigs in points:
        v = phase_field(m, sigma, np.asarray(coords, dtype=float))
        if not float(np.max(np.abs(v))) < 1e-12:
            return f"{label} is not a zero of the field ({v})"
        if len(eigs) != 3:
            return f"{label} has {len(eigs)} eigenvalues"
        dev = _match(eigs, fd_eigenvalues(m, sigma, coords))
        if not dev < EIGEN_TOL:
            return f"{label} eigenvalues off the Jacobian by {dev:.3e}"
    return None


def invariant_K(m: float, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """First integral on X = 0:
    Z^((m+1)/(m-1)) (Y^2 + ((m+1)Z - 2m)/(m(m+1)))."""
    Z = np.maximum(np.asarray(Z, dtype=float), 0.0)
    return Z ** ((m + 1.0) / (m - 1.0)) * (np.asarray(Y) ** 2
                                           + ((m + 1.0) * Z - 2.0 * m)
                                           / (m * (m + 1.0)))


def check_K_drift(m: float, states: np.ndarray) -> Optional[str]:
    states = np.asarray(states, dtype=float)
    if np.any(states[:, 0] != 0.0):
        return "orbit left the plane X = 0"
    K = invariant_K(m, states[:, 1], states[:, 2])
    drift = float(np.max(np.abs(K - K[0])))
    if not drift < K_DRIFT_TOL:
        return f"K drifts by {drift:.3e}"
    return None


# --------------------------------------------------------------------------
# shots and collocation
# --------------------------------------------------------------------------

def _series(m: float, sigma: float, xi0: float, delta: float
            ) -> Tuple[float, float]:
    """(g, g') at xi0 - delta on the branch vanishing at xi0:
    g = A delta^p (1 + c2 delta^2), p = 2m/(m-1), A = C^p,
    C = (m-1) h0/(2 sqrt(m(m-1))), h0 = sqrt(2/(m+1)),
    c2 = -xi0^sigma / ((p+2)(p+1) - p(p-1)/m)."""
    p = 2.0 * m / (m - 1.0)
    C = (m - 1.0) * math.sqrt(2.0 / (m + 1.0)) \
        / (2.0 * math.sqrt(m * (m - 1.0)))
    c2 = -xi0 ** sigma / ((p + 2.0) * (p + 1.0) - p * (p - 1.0) / m)
    A = C ** p
    g = A * delta ** p * (1.0 + c2 * delta * delta)
    dgd = A * (p * delta ** (p - 1.0) * (1.0 + c2 * delta * delta)
               + 2.0 * c2 * delta ** (p + 1.0))
    return g, -dgd


def backward_slope(m: float, sigma: float, xi0: float) -> Tuple[float, float]:
    """(f(0), f'(0)) of the profile with interface at xi0, by scipy's DOP853
    from a series seed at xi0 (1 - 1e-6)."""
    eps = 1e-6 * xi0
    g0, dg0 = _series(m, sigma, xi0, eps)

    def rhs(x, y):
        return [y[1], max(y[0], 0.0) ** (1.0 / m) / (m - 1.0)
                - (x ** sigma if sigma > 0.0 else 1.0) * y[0]]

    sol = solve_ivp(rhs, (xi0 - eps, 0.0), [g0, dg0], method="DOP853",
                    rtol=1e-10, atol=[1e-8 * g0, 1e-8 * abs(dg0)])
    g, dg = float(sol.y[0, -1]), float(sol.y[1, -1])
    if sol.status != 0 or not g > 0.0:
        raise ArithmeticError(f"reference shot from xi0={xi0} failed: "
                              f"status {sol.status}, g(0)={g}")
    return g ** (1.0 / m), dg / (m * g ** ((m - 1.0) / m))


def check_root_bracket(m: float, sigma: float, xi0: float, h: float
                       ) -> Optional[str]:
    """A good profile at xi0 needs f'(0) to change sign on [xi0-h, xi0+h]."""
    s_lo = backward_slope(m, sigma, xi0 - h)[1]
    s_hi = backward_slope(m, sigma, xi0 + h)[1]
    if not s_lo * s_hi < 0.0:
        return (f"no sign change of f'(0) across xi0={xi0!r} +- {h}: "
                f"{s_lo:+.3e}, {s_hi:+.3e}")
    return None


def collocate_root(m: float, sigma: float, xi0_guess: float, xi: np.ndarray,
                   g: np.ndarray, dg: np.ndarray) -> Tuple[float, float]:
    """Good profile as a boundary-value problem with xi0 unknown.

    On [xa, xi0 - d] (xa = 1e-3, d = 0.1): the axis series
    g' = xa g^(1/m)/(m-1) - g xa^(sigma+1)/(sigma+1) on the left (f'(0) = 0,
    error O(xa^3)), the interface series at distance d on the right.  The
    guess (xi, g, dg) only seeds the Newton iteration.  Returns (xi0, f(0)).
    """
    xa, d = 1e-3, 0.1

    def fun(s, y, p):
        L = p[0] - d - xa
        x = xa + s * L
        return np.vstack([L * y[1], L * (np.maximum(y[0], 0.0) ** (1.0 / m)
                                          / (m - 1.0) - x ** sigma * y[0])])

    def bc(ya, yb, p):
        ga = max(ya[0], 0.0)
        ge, dge = _series(m, sigma, p[0], d)
        return np.array([ya[1] - (xa * ga ** (1.0 / m) / (m - 1.0)
                                  - ga * xa ** (sigma + 1.0) / (sigma + 1.0)),
                         yb[0] - ge, yb[1] - dge])

    s = np.linspace(0.0, 1.0, 200)
    x = xa + s * (xi0_guess - d - xa)
    guess = np.vstack([np.interp(x, xi, g), np.interp(x, xi, dg)])
    sol = solve_bvp(fun, bc, s, guess, p=[xi0_guess], tol=1e-8,
                    max_nodes=20000)
    if sol.status != 0:
        raise ArithmeticError(f"collocation did not converge: {sol.message}")
    ga = float(sol.y[0, 0])
    return float(sol.p[0]), ga ** (1.0 / m)


# --------------------------------------------------------------------------
# self-test
# --------------------------------------------------------------------------

def _spurious_samples(m: float, sigma: float) -> Tuple[np.ndarray, ...]:
    """Samples of g'' = m (g^(1/m)/(m-1) - xi^sigma g): the equation with the
    extra factor m that reproduces the stated references of acceptance
    checks 1-2."""
    def rhs(x, y):
        return [y[1], m * (max(y[0], 0.0) ** (1.0 / m) / (m - 1.0)
                           - x ** sigma * y[0])]

    xi = np.linspace(0.0, 3.0, 3001)
    sol = solve_ivp(rhs, (0.0, 3.0), [1.0, 0.0], method="DOP853", t_eval=xi,
                    rtol=1e-12, atol=1e-14)
    g, dg = sol.y
    f = g ** (1.0 / m)
    return xi, f, dg / (m * g ** ((m - 1.0) / m)), g, dg


def self_test() -> List[str]:
    """Each oracle accepts a correct input and rejects a wrong one.
    Returns the list of oracles that misbehaved (empty when all is well)."""
    bad: List[str] = []

    def expect(name: str, verdict: Optional[str], ok: bool) -> None:
        if (verdict is None) != ok:
            bad.append(f"{name}: {'rejected' if ok else 'accepted'} "
                       f"({verdict})")

    m = 2.0
    expect("interface accepts 2 pi", check_interface0(m, 2.0 * math.pi), True)
    expect("interface rejects pi sqrt(2)",
           check_interface0(m, math.pi * math.sqrt(2.0)), False)

    xi = np.linspace(0.0, 0.999 * f0_interface(m), 4001)
    f, fp = f0_closed(m, xi)
    g, dg = f ** m, m * f ** (m - 1.0) * fp
    expect("residual accepts F0", check_samples(m, 0.0, xi, f, fp, g, dg), True)
    expect("residual rejects the factor-m equation",
           check_samples(m, 0.1, *_spurious_samples(m, 0.1)), False)

    xp, xm, th = gap_bounds(2.0, 4.0)
    expect("gap accepts closed forms",
           check_gap(2.0, 4.0, xp, xm, th, True), True)
    expect("gap rejects swapped bounds",
           check_gap(2.0, 4.0, xm, xp, th, True), False)
    expect("gap rejects threshold 2m sqrt(2m)",
           check_gap(2.0, 4.0, xp, xm, 2.0 * m * math.sqrt(2.0 * m), True),
           False)

    w = math.sqrt(m - 1.0)
    p3 = [("P3", (0.0, 0.0, 1.0), (0.0, 1j * w, -1j * w))]
    expect("eigen accepts P3", check_catalog(m, 1.0, p3), True)
    expect("eigen rejects P3 with frequency m",
           check_catalog(m, 1.0, [("P3", (0.0, 0.0, 1.0),
                                   (0.0, 1j * m, -1j * m))]), False)

    flat = np.array([[0.0, 0.1, 0.5]] * 3)
    expect("K accepts a constant state", check_K_drift(m, flat), True)
    drifting = flat * np.array([1.0, 1.0, 1.0 + 1e-6])[None, :] ** \
        np.arange(3)[:, None]
    expect("K rejects a drifting state", check_K_drift(m, drifting), False)

    expect("bracket accepts 2 pi",
           check_root_bracket(m, 0.0, 2.0 * math.pi, 0.01), True)
    expect("bracket rejects pi sqrt(2)",
           check_root_bracket(m, 0.0, math.pi * math.sqrt(2.0), 0.01), False)
    return bad
