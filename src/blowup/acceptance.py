"""Acceptance suite: one callable per criterion, shared by CLI and tests.

Each check returns (passed, details).  Checks 1 and 2 encode externally
supplied reference numbers that do not satisfy the profile equation the
package integrates (they are reproduced instead by an equation carrying a
spurious factor m; see the README).  They are kept as stated for
traceability and are expected to fail; the corrected regressions live in
the unit test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import analysis, model, phase, shooting
from .integrate import IntegratorConfig
from .model import Params

__all__ = ["CheckResult", "CHECKS", "run_acceptance", "EXPECTED_FAILURES"]

#: checks whose stated reference values are inconsistent with the profile
#: equation (measured values are reported in the details)
EXPECTED_FAILURES = (1, 2)


@dataclass
class CheckResult:
    check_id: int
    name: str
    passed: bool
    details: str
    seconds: float


def _check_1_sigma0_regression(seed: int) -> Tuple[bool, str]:
    """Forward shot (m=2, a=4/3) hits pi*sqrt(2) to 1e-5; backward shot from
    pi*sqrt(2) recovers (4/3, 0) to 1e-4."""
    params = Params(m=2.0, sigma=0.0)
    ref = np.pi * np.sqrt(2.0)
    _, fwd = shooting.shoot_forward(params, 4.0 / 3.0, xi_max=20.0)
    ok_f = isinstance(fwd, shooting.Interface) and abs(fwd.xi0 - ref) < 1e-5
    xi_f = fwd.xi0 if isinstance(fwd, shooting.Interface) else float("nan")

    _, bwd = shooting.shoot_backward(params, ref)
    ok_b = (isinstance(bwd, shooting.ReachedOrigin)
            and abs(bwd.f0 - 4.0 / 3.0) < 1e-4 and abs(bwd.slope) < 1e-4)
    f0 = bwd.f0 if isinstance(bwd, shooting.ReachedOrigin) else float("nan")
    sl = bwd.slope if isinstance(bwd, shooting.ReachedOrigin) else float("nan")
    details = (f"forward interface {xi_f:.6f} (reference {ref:.6f}); "
               f"backward f0={f0:.6f}, slope={sl:+.2e} (reference 4/3, 0); "
               f"measured interface sits at 2*pi={2*np.pi:.6f} - the stated "
               "reference does not solve the profile equation")
    return ok_f and ok_b, details


def _check_2_multiplicity(seed: int) -> Tuple[bool, str]:
    """(m=2, sigma=0.1): slope signs (-,+,-) at xi0 = 10, 12, 14 and two good
    profiles in [8, 16] at 11.1 +- 0.3 and 12.83 +- 0.3."""
    params = Params(m=2.0, sigma=0.1)
    slopes = [shooting.slope_fn(params, x) for x in (10.0, 12.0, 14.0)]
    signs = tuple(np.sign(slopes))
    ok_signs = signs == (-1.0, 1.0, -1.0)

    found = shooting.find_good_profiles(params, 8.0, 16.0, grid_n=33)
    xi0s = sorted(gp.xi0 for gp in found)
    ok_roots = (len(xi0s) == 2 and abs(xi0s[0] - 11.1) <= 0.3
                and abs(xi0s[1] - 12.83) <= 0.3)
    details = (f"slopes at (10,12,14) = ({slopes[0]:+.4f}, {slopes[1]:+.4f}, "
               f"{slopes[2]:+.4f}), reference signs (-,+,-); roots found "
               f"{[round(float(x), 4) for x in xi0s]}, reference 11.1/12.83 - the "
               "references correspond to an equation with a spurious factor m")
    return ok_signs and ok_roots, details


def _check_3_extended_multiplicity(seed: int) -> Tuple[bool, str]:
    """(m=2, sigma=0.1) over (0, 80]: at least 3 good profiles with pairwise
    distinct maxima counts."""
    # count-only criterion: a loose slope tolerance keeps the root finding
    # short
    rows = shooting.multiplicity_scan(2.0, [0.1], 80.0, grid_dx=0.5,
                                      slope_tol=1e-4)
    row = rows[0]
    if row.error:
        return False, f"scan failed: {row.error}"
    distinct = len(set(row.n_maxs))
    details = (f"{row.count} good profiles; xi0 = "
               f"{[round(float(x), 3) for x in row.xi0s]}; "
               f"n_max = {list(row.n_maxs)}; "
               f"{distinct} distinct maxima counts")
    return distinct >= 3, details


def _check_4_nonexistence_gap(seed: int) -> Tuple[bool, str]:
    """(m=2, sigma=4): closed-form bounds to 1e-12, all-negative slope scan on
    (0, 20] with 201 points, and the threshold identity on a parameter grid."""
    params = Params(m=2.0, sigma=4.0)
    gb = shooting.nonexistence_gap(params)
    ok_vals = (abs(gb.xi_plus - (48.0 / 5.0) ** (1.0 / 6.0)) < 1e-12
               and abs(gb.xi_minus - 12.0 ** (1.0 / 6.0)) < 1e-12
               and gb.gap)

    # sign-only scan: single shots at a relaxed tolerance (slopes are
    # O(1e-2..0.4) here, far above the integration noise this admits)
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-12)
    xs = np.linspace(0.1, 20.0, 201)
    n_pos = 0
    n_bad = 0
    for x in xs:
        _, out = shooting.shoot_backward(params, float(x), config=cfg,
                                         dense_dx=None, track_events=False)
        if not isinstance(out, shooting.ReachedOrigin):
            n_bad += 1
        elif out.slope >= 0.0:
            n_pos += 1
    ok_scan = n_pos == 0 and n_bad == 0

    rng = np.random.default_rng(seed + 4)
    ok_identity = True
    for _ in range(100):
        m = rng.uniform(1.2, 5.0)
        sigma = rng.uniform(0.05, 8.0)
        gbi = shooting.nonexistence_gap(Params(m=m, sigma=sigma))
        if gbi.gap != (sigma * sigma * (2.0 * m + 1.0) > 8.0 * m ** 3):
            ok_identity = False
            break
    details = (f"xi+={gb.xi_plus:.6f}, xi-={gb.xi_minus:.6f}, gap={gb.gap}; "
               f"scan: {n_pos} non-negative slopes, {n_bad} failures of 201; "
               f"threshold identity on 100 random (m, sigma): {ok_identity}")
    return ok_vals and ok_scan and ok_identity, details


def _check_5_negative_slope(seed: int) -> Tuple[bool, str]:
    """(m=2, sigma=0.5): backward shots from xi0 = 1..4 all reach the axis
    with negative slope."""
    params = Params(m=2.0, sigma=0.5)
    slopes = [shooting.slope_fn(params, float(x)) for x in (1, 2, 3, 4)]
    details = "slopes: " + ", ".join(f"{s:+.5f}" for s in slopes)
    return all(s < 0.0 for s in slopes), details


def _check_6_critical_points(seed: int) -> Tuple[bool, str]:
    """Numerical Jacobian eigenvalues match the closed forms at P0, P1, P2 to
    1e-10 for 50 random (m, sigma); P3 eigenvalues are {0, +-i sqrt(m-1)}."""
    rng = np.random.default_rng(seed + 6)
    worst = 0.0
    for _ in range(50):
        params = Params(m=1.0 + rng.uniform(1e-2, 4.0),
                        sigma=rng.uniform(1e-3, 5.0))
        for cp in phase.critical_points(params):
            if cp.at_infinity or cp.label == "P3":
                continue
            jac = phase.jacobian_main(params, cp.state())
            num = np.sort_complex(np.linalg.eigvals(jac))
            ref = np.sort_complex(np.array(cp.eigenvalues))
            worst = max(worst, float(np.max(np.abs(num - ref))))
    params = Params(m=2.0, sigma=1.0)
    p3 = next(cp for cp in phase.critical_points(params) if cp.label == "P3")
    jac3 = phase.jacobian_main(params, p3.state())
    num3 = np.sort_complex(np.linalg.eigvals(jac3))
    ref3 = np.sort_complex(np.array(p3.eigenvalues))
    worst3 = float(np.max(np.abs(num3 - ref3)))
    details = f"max eigenvalue deviation {worst:.2e} (P0/P1/P2), {worst3:.2e} (P3)"
    return worst < 1e-10 and worst3 < 1e-12, details


def _check_7_normal_form(seed: int) -> Tuple[bool, str]:
    """Closed-form normal-form coefficients equal the generic recomputation to
    1e-12 on a 10x10 grid; the three zero coefficients are exactly zero."""
    ms = np.linspace(1.5, 5.0, 10)
    sigmas = np.linspace(0.1, 5.0, 10)
    try:
        for m in ms:
            for s in sigmas:
                nf = phase.normal_form_p3(Params(m=float(m), sigma=float(s)))
                if not (nf.G011 == 0.0 and nf.G111 == 0.0 and nf.G300 == 0.0):
                    return False, f"nonzero G011/G111/G300 at m={m}, sigma={s}"
    except phase.NormalFormMismatch as err:
        return False, str(err)
    return True, "closed forms == generic recomputation on the full grid"


def _check_8_spiral(seed: int) -> Tuple[bool, str]:
    """Orbit from (0.05, 0.01, 1.01) at (m=2, sigma=1): strictly increasing
    section radii for >= 5 returns, then exit with Y < 0."""
    params = Params(m=2.0, sigma=1.0)
    diag = phase.p3_spiral_diagnostic(params, phase.PhaseState(0.05, 0.01, 1.01),
                                      turns=8, full=True)
    r = np.asarray(diag.radii)
    increasing = r.size >= 5 and bool(np.all(np.diff(r[:max(5, r.size)]) > 0.0))
    exited = diag.exit_state is not None and diag.exit_state[1] < 0.0
    y_exit = None if diag.exit_state is None else diag.exit_state[1]
    details = (f"{r.size} returns, radii {np.array2string(r, precision=4)}, "
               f"monotone={increasing}, exit Y={y_exit}")
    return increasing and exited, details


def _check_9_cylinder(seed: int) -> Tuple[bool, str]:
    """Flux identity at 1e4 on-cylinder points; 100 outside starts stay
    outside; K-invariant conserved on X = 0 orbits at sigma = 0."""
    rng = np.random.default_rng(seed + 9)
    params = Params(m=2.0, sigma=1.0)
    worst = 0.0
    for _ in range(10_000):
        Y = rng.uniform(-params.h0, params.h0)
        X = rng.uniform(0.0, 5.0)
        s = phase.cylinder_point(params, Y, X)
        flux = phase.cylinder_flux(params, s)   # raises on identity mismatch
        worst = max(worst, abs(flux - params.sigma * s.X * s.Z / params.m))
        if flux < 0.0:
            return False, f"negative flux {flux} at {s}"

    combos = [Params(2.0, 0.5), Params(2.0, 2.0), Params(3.0, 1.0)]
    n_fail = n_indet = 0
    for i in range(100):
        p = combos[i % len(combos)]
        while True:
            s = phase.PhaseState(rng.uniform(0.0, 2.0), rng.uniform(-1.5, 1.5),
                                 rng.uniform(0.0, 2.5))
            if phase.cylinder_value(p, s) > 0.01:
                break
        ok = analysis.cylinder_invariance_check(p, s, eta_max=50.0)
        if ok is None:
            n_indet += 1
        elif not ok:
            n_fail += 1

    p0 = Params(m=2.0, sigma=0.0)
    drift = 0.0
    for Z0 in (0.4, 0.8, 1.2):
        start = phase.PhaseState(0.0, 0.0, Z0)
        report = analysis.integrate_orbit(p0, start, eta_max=25.0)
        K = np.array([phase.invariant_K(p0, phase.PhaseState(0.0, st[1], max(st[2], 0.0)))
                      for st in report.states])
        drift = max(drift, float(np.max(np.abs(K - K[0]))))

    details = (f"flux identity max dev {worst:.1e}; outside-orbit failures "
               f"{n_fail} (indeterminate {n_indet}) of 100; K drift {drift:.2e}")
    return worst < 1e-12 and n_fail == 0 and drift < 1e-8, details


def _check_10_identity_monotonicity(seed: int) -> Tuple[bool, str]:
    """Integral-identity residual < 1e-6 on profiles from checks 1-5;
    monotone-exclusion on 20 random ordered pairs per (m, sigma) in
    {2,3} x {0.25, 0.5, 1}."""
    worst = 0.0
    n_profiles = 0

    def track(profile):
        nonlocal worst, n_profiles
        res = model.integral_identity_residual(profile, float(profile.xi[-1]))
        worst = max(worst, res)
        n_profiles += 1

    p_sigma0 = Params(m=2.0, sigma=0.0)
    prof, _ = shooting.shoot_forward(p_sigma0, 4.0 / 3.0, xi_max=20.0)
    track(prof)
    prof, _ = shooting.shoot_backward(p_sigma0, np.pi * np.sqrt(2.0))
    track(prof)
    prof, _ = shooting.shoot_backward(p_sigma0, model.explicit_interface_F0(2.0))
    track(prof)

    p_01 = Params(m=2.0, sigma=0.1)
    for gp in shooting.find_good_profiles(p_01, 8.0, 16.0, grid_n=33):
        track(gp.profile)

    p_4 = Params(m=2.0, sigma=4.0)
    for xi0 in (1.0, 5.0, 10.0, 20.0):
        prof, _ = shooting.shoot_backward(p_4, xi0)
        track(prof)

    p_05 = Params(m=2.0, sigma=0.5)
    for xi0 in (1.0, 2.0, 3.0, 4.0):
        prof, _ = shooting.shoot_backward(p_05, xi0)
        track(prof)

    ok_resid = worst < 1e-6

    rng = np.random.default_rng(seed + 10)
    n_cross = 0
    n_pairs = 0
    for m in (2.0, 3.0):
        for sigma in (0.25, 0.5, 1.0):
            params = Params(m=m, sigma=sigma)
            for k in range(20):
                a1 = rng.uniform(0.5, 2.5)
                if k % 2 == 0:
                    ok = analysis.monotone_exclusion_check(
                        params, a1, slope2=rng.uniform(0.05, 0.5))
                else:
                    ok = analysis.monotone_exclusion_check(
                        params, a1, a2=a1 + rng.uniform(0.1, 1.0))
                n_pairs += 1
                if not ok:
                    n_cross += 1
    details = (f"max residual {worst:.2e} over {n_profiles} profiles; "
               f"{n_cross} early crossings of {n_pairs} ordered pairs")
    return ok_resid and n_cross == 0, details


CHECKS: List[Tuple[int, str, Callable[[int], Tuple[bool, str]]]] = [
    (1, "sigma=0 regression (stated references)", _check_1_sigma0_regression),
    (2, "multiplicity at sigma=0.1 (stated references)", _check_2_multiplicity),
    (3, "extended multiplicity over (0, 80]", _check_3_extended_multiplicity),
    (4, "non-existence gap and all-negative scan", _check_4_nonexistence_gap),
    (5, "negative-slope regime at sigma=0.5", _check_5_negative_slope),
    (6, "critical-point eigenvalue catalog", _check_6_critical_points),
    (7, "fold-Hopf normal form coefficients", _check_7_normal_form),
    (8, "outgoing spiral around P3", _check_8_spiral),
    (9, "cylinder flux, invariance, K-integral", _check_9_cylinder),
    (10, "integral identity and monotone exclusion", _check_10_identity_monotonicity),
]


def run_acceptance(seed: int = 0, ids: Optional[Sequence[int]] = None
                   ) -> List[CheckResult]:
    results = []
    for check_id, name, fn in CHECKS:
        if ids is not None and check_id not in ids:
            continue
        t0 = time.perf_counter()
        try:
            passed, details = fn(seed)
        except Exception as err:  # a crashed check is a failed check
            passed, details = False, f"raised {type(err).__name__}: {err}"
        results.append(CheckResult(check_id, name, passed, details,
                                   time.perf_counter() - t0))
    return results
