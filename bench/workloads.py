"""The benchmark's workloads: seeded inputs, the timed calls, and their checks.

Each workload is a list of operations.  One round runs every operation once;
a run repeats rounds on the same inputs.  An operation's output is judged in
full the first time (against `oracles` or a property the mathematics
requires) and must repeat exactly in every later round, since the package
promises deterministic results.

The program is called only through module attributes (`shooting.x`, not a
name bound at import), so that a traced round sees the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional

import numpy as np

import oracles
from blowup import analysis, cli, phase, shooting
from blowup.model import Params
from blowup.phase import PhaseState
from blowup.shooting import DEFAULT_SLOPE_TOL

#: slope tolerance of the small-sigma search (the count-only setting of
#: acceptance check 3); it sets how far a root may sit from the true xi0.
#: The sigma = 0 window keeps the package default: above ORIGIN_FLAT_TOL
#: (1e-5) the root there is discarded whenever bisection stops on the side
#: where f'(0) < 0.
SEARCH_SLOPE_TOL = 1e-4
#: half-width of the bracket in which the independent slope must change sign
ROOT_BRACKET_H = 1e-2
#: forward re-shots must land their interface (and maxima) this close to xi0
RESHOT_TOL = 5e-3
#: a search root and an independent reference agree on xi0 to this (the
#: bisection stops once |f'(0)| < SEARCH_SLOPE_TOL, ~6e-4 in xi0 here)
ROOT_TOL = 2e-3
IDENTITY_TOL = 1e-6


@dataclass
class Op:
    name: str
    run: Callable[[], Any]                   # the timed call into the program
    check: Callable[[Any], Optional[str]]    # full judgement of one output
    signature: Callable[[Any], Any]          # must repeat exactly per round
    known_failure: bool = False


@dataclass
class Workload:
    ops: List[Op]
    final_check: Callable[[List[Any]], List[str]]


def warm_up() -> None:
    """First call into the integrator, so lazy set-up is not timed."""
    shooting.shoot_backward(Params(2.0, 0.1), 4.0, dense_dx=None,
                            track_events=False)


# --------------------------------------------------------------------------
# search: good profiles by slope evaluations and bisection
# --------------------------------------------------------------------------

def _check_root(params: Params, gp, slope_tol: float) -> Optional[str]:
    m, sigma = params.m, params.sigma
    if not abs(gp.slope) < slope_tol:
        return f"root {gp.xi0}: slope {gp.slope} above tolerance"
    if not gp.residual < IDENTITY_TOL:
        return f"root {gp.xi0}: identity residual {gp.residual:.3e}"
    pr = gp.profile
    err = oracles.check_samples(m, sigma, pr.xi, pr.f, pr.fprime, pr.g, pr.dg)
    if err:
        return f"root {gp.xi0}: {err}"
    err = oracles.check_root_bracket(m, sigma, gp.xi0, ROOT_BRACKET_H)
    if err:
        return err
    fwd, out = shooting.shoot_forward(params, gp.a, slope0=gp.slope,
                                      xi_max=2.0 * gp.xi0, dense_dx=None)
    if not isinstance(out, shooting.Interface):
        return f"root {gp.xi0}: forward re-shot ends {out}"
    if not abs(out.xi0 - gp.xi0) < RESHOT_TOL:
        return f"root {gp.xi0}: forward re-shot lands at {out.xi0}"
    if len(fwd.maxima) != len(pr.maxima) or any(
            abs(a - b) >= RESHOT_TOL for a, b in zip(fwd.maxima, pr.maxima)):
        return (f"root {gp.xi0}: maxima {pr.maxima} but forward re-shot "
                f"{fwd.maxima}")
    return None


def _search_op(label: str, params: Params, lo: float, hi: float, grid_n: int,
               slope_tol: float, judge: Callable[[list], Optional[str]]) -> Op:
    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            found = shooting.find_good_profiles(params, lo, hi, grid_n=grid_n,
                                                slope_tol=slope_tol)
        return found, [str(w.message) for w in caught]

    def check(out) -> Optional[str]:
        found, caught = out
        if caught:
            return f"{label}: dropped evaluations: {caught}"
        for gp in found:
            if not lo <= gp.xi0 <= hi:
                return f"{label}: root {gp.xi0} outside [{lo}, {hi}]"
            err = _check_root(params, gp, slope_tol)
            if err:
                return f"{label}: {err}"
        return judge(found)

    def signature(out):
        found, caught = out
        return (tuple((gp.xi0, gp.a, gp.n_max, gp.slope, gp.residual)
                      for gp in found), tuple(caught))

    return Op(f"search:{label}", run, check, signature)


def search(seed: int, workdir: Path) -> Workload:
    """Three find_good_profiles windows placed by the seed.

    The two windows with roots move by whole grid spacings, so each root is
    bracketed by the same grid cell and bisected along the same path: the
    seed changes where the scan starts and ends, not how much root finding
    it does.  Roots of f'(0) at sigma = 0.1 sit near 6.9, 9.64, 15.38 and
    17.9; every placement holds exactly the middle two, with one and two
    maxima.  At sigma = 0 the one root is pi m/(m-1) = 2 pi.
    """
    rng = np.random.default_rng(seed)
    p_small, p_zero = Params(2.0, 0.1), Params(2.0, 0.0)
    p_gap = Params(2.0, 4.0)
    k_small, k_zero = (int(k) for k in rng.integers(-1, 2, size=2))
    shift_gap = float(rng.uniform(-0.05, 0.05))
    win_small = (8.5 + k_small, 16.5 + k_small)          # 9 points, spacing 1
    win_zero = (5.5 + 0.5 * k_zero, 7.0 + 0.5 * k_zero)  # 4 points, spacing 0.5
    win_gap = (0.5 + shift_gap, 8.0 + shift_gap)         # 6 points

    def judge_small(found) -> Optional[str]:
        if len(found) < 2 or len({gp.n_max for gp in found}) < 2:
            return (f"small sigma: want two roots with distinct n_max, got "
                    f"{[(gp.xi0, gp.n_max) for gp in found]}")
        return None

    def judge_zero(found) -> Optional[str]:
        if len(found) != 1:
            return f"sigma=0: want the one explicit root, got {len(found)}"
        gp = found[0]
        err = oracles.check_interface0(p_zero.m, gp.xi0, ROOT_TOL)
        if err:
            return f"sigma=0: {err}"
        amp = oracles.f0_amplitude(p_zero.m)
        if not abs(gp.a - amp) < 1e-4 * amp:
            return f"sigma=0: f(0) = {gp.a}, closed form {amp}"
        return None

    def judge_gap(found) -> Optional[str]:
        m, sigma = p_gap.m, p_gap.sigma
        gb = shooting.nonexistence_gap(p_gap)
        err = oracles.check_gap(m, sigma, gb.xi_plus, gb.xi_minus,
                                gb.sigma_threshold, gb.gap)
        if err:
            return f"gap: {err}"
        if not gb.gap:
            return f"gap: sigma={sigma} is not above the threshold"
        if found:
            return f"gap: {len(found)} good profiles above the threshold"
        for x in np.linspace(win_gap[0], win_gap[1], 6):
            _, slope = oracles.backward_slope(m, sigma, float(x))
            if not slope < 0.0:
                return f"gap: reference slope at xi0={x} is {slope}"
        return None

    ops = [
        _search_op("small_sigma", p_small, *win_small, 9, SEARCH_SLOPE_TOL,
                   judge_small),
        _search_op("sigma0", p_zero, *win_zero, 4, DEFAULT_SLOPE_TOL,
                   judge_zero),
        _search_op("gap", p_gap, *win_gap, 6, DEFAULT_SLOPE_TOL, judge_gap),
    ]

    def final_check(first: List[Any]) -> List[str]:
        found, _ = first[0]
        if not found:
            return []
        gp = found[0]
        pr = gp.profile
        try:
            xi0, f0 = oracles.collocate_root(p_small.m, p_small.sigma, gp.xi0,
                                             pr.xi, pr.g, pr.dg)
        except ArithmeticError as err:
            return [f"collocation: {err}"]
        if not (abs(xi0 - gp.xi0) < ROOT_TOL
                and abs(f0 - gp.a) < ROOT_TOL * gp.a):
            return [f"collocation puts the root at xi0={xi0}, f(0)={f0}; "
                    f"search found {gp.xi0}, {gp.a}"]
        return []

    return Workload(ops, final_check)


# --------------------------------------------------------------------------
# profiles: `blowup profile` through cli.main
# --------------------------------------------------------------------------

def _read_profile(csv: Path):
    with csv.open() as fh:
        header = fh.readline().strip()
    if header != "xi,f,fprime,g,dg":
        raise ValueError(f"unexpected CSV header {header!r}")
    data = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    meta = json.loads(csv.with_suffix(".json").read_text())
    return data.T, meta


def _digest(csv: Path) -> str:
    h = hashlib.sha256(csv.read_bytes())
    h.update(csv.with_suffix(".json").read_bytes())
    return h.hexdigest()


def _profile_op(name: str, argv: List[str], csv: Path,
                judge: Callable[[Any, dict], Optional[str]],
                known_failure: bool = False) -> Op:
    def run():
        return cli.main(argv)

    def check(rc) -> Optional[str]:
        if rc != 0:
            return f"{name}: exit code {rc}"
        (xi, f, fp, g, dg), meta = _read_profile(csv)
        m, sigma = meta["m"], meta["sigma"]
        err = oracles.check_samples(m, sigma, xi, f, fp, g, dg)
        if err:
            return f"{name}: {err}"
        if xi[0] != 0.0:
            return f"{name}: samples start at xi={xi[0]}, not on the axis"
        if meta["integral_identity_residual"] is None:
            return f"{name}: no identity residual in the sidecar"
        return judge((xi, f, fp, g, dg), meta)

    def signature(rc):
        return rc, _digest(csv)

    return Op(f"profiles:{name}", run, check, signature, known_failure)


def _judge_backward(xi0: float):
    def judge(cols, meta) -> Optional[str]:
        xi, f = cols[0], cols[1]
        out = meta["outcome"]
        if out["kind"] != "reached_origin":
            return f"backward xi0={xi0}: outcome {out}"
        if not abs(out["f0"] - f[0]) <= 1e-12 * f[0]:
            return f"backward xi0={xi0}: f0 {out['f0']} but f(0) = {f[0]}"
        if not abs(xi[-1] - xi0) <= 2e-6 * xi0:
            return f"backward xi0={xi0}: last sample at {xi[-1]}"
        # the identity residual is not bounded here: on long profiles it
        # jumps erratically with xi0 (up to ~1.4e-6 near 78), a rounding
        # fault of the quadrature on very short cells; the samples are
        # judged by the finite-difference residual instead
        return None
    return judge


def _judge_sigma0(m: float, forward: bool):
    amp = oracles.f0_amplitude(m)

    def judge(cols, meta) -> Optional[str]:
        xi, f = cols[0], cols[1]
        out = meta["outcome"]
        if forward:
            if out["kind"] != "interface":
                return f"sigma=0 m={m} forward: outcome {out}"
            err = oracles.check_interface0(m, out["xi0"])
            if err:
                return f"sigma=0 m={m} forward: {err}"
        else:
            if out["kind"] != "reached_origin":
                return f"sigma=0 m={m} backward: outcome {out}"
            if not (abs(out["f0"] - amp) < 1e-8 * amp
                    and abs(out["slope"]) < 1e-7):
                return (f"sigma=0 m={m} backward: f(0)={out['f0']}, "
                        f"f'(0)={out['slope']}; closed form {amp}, 0")
        res = meta["integral_identity_residual"]
        if not res < IDENTITY_TOL:
            return f"sigma=0 m={m}: identity residual {res}"
        inner = xi < 0.9 * oracles.f0_interface(m)
        ref, _ = oracles.f0_closed(m, xi[inner])
        dev = float(np.max(np.abs(f[inner] - ref))) / amp
        if not dev < 1e-5:
            return f"sigma=0 m={m}: samples leave the closed form by {dev:.2e}"
        return None
    return judge


def profiles(seed: int, workdir: Path) -> Workload:
    """Backward shots at sigma = 0.1 with xi0 spread up to ~80 (one per
    stratum, shifted by the seed), plus the sigma = 0 forward and backward
    shots from the closed form for m in {1.5, 2, 3, 4}."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops: List[Op] = []
    # the two longest shots cost about the same, so the 90th percentile of
    # a run's operation times falls between them whatever the round count
    for k, centre in enumerate((5.0, 20.0, 40.0, 75.0, 79.0)):
        xi0 = centre + float(rng.uniform(-1.0, 1.0))
        csv = workdir / f"backward{k}.csv"
        argv = ["profile", "--m", "2", "--sigma", "0.1", "--xi0", repr(xi0),
                "--out", str(csv)]
        ops.append(_profile_op(f"backward xi0={xi0:.3f}", argv, csv,
                               _judge_backward(xi0)))
    for m in (1.5, 2.0, 3.0, 4.0):
        amp, xi0 = oracles.f0_amplitude(m), oracles.f0_interface(m)
        csv = workdir / f"forward0-m{m}.csv"
        argv = ["profile", "--m", repr(m), "--sigma", "0", "--a", repr(amp),
                "--xi-max", repr(2.5 * xi0), "--out", str(csv)]
        # m = 1.5 ends Exhausted instead of at its interface 3 pi
        ops.append(_profile_op(f"sigma0 forward m={m}", argv, csv,
                               _judge_sigma0(m, True),
                               known_failure=(m == 1.5)))
        csv = workdir / f"backward0-m{m}.csv"
        argv = ["profile", "--m", repr(m), "--sigma", "0", "--xi0", repr(xi0),
                "--out", str(csv)]
        ops.append(_profile_op(f"sigma0 backward m={m}", argv, csv,
                               _judge_sigma0(m, False)))

    def final_check(first: List[Any]) -> List[str]:
        # the README promises byte-identical output for identical invocations
        op = ops[1]
        csv = workdir / "backward1.csv"
        before = _digest(csv)
        if op.run() != 0 or _digest(csv) != before:
            return [f"{op.name}: repeated invocation is not byte-identical"]
        return []

    return Workload(ops, final_check)


# --------------------------------------------------------------------------
# orbits: the 3-D phase system, its catalog and the analysis oracles
# --------------------------------------------------------------------------

def _outside_cylinder(m: float, s: PhaseState) -> float:
    return s.Y * s.Y - 2.0 / (m + 1.0) + s.Z / m


def orbits(seed: int, workdir: Path) -> Workload:
    """Spirals near P3, outside-cylinder orbits, X = 0 orbits at sigma = 0,
    ordered shot pairs and critical-point catalogs, all from seeded inputs."""
    rng = np.random.default_rng(seed)
    ops: List[Op] = []

    # starts within 2% of acceptance check 8's (0.05, 0.01, 1.01): wider
    # starts change the number of turns before exit, and with it the
    # spirals' cost, which sets op_p90_s
    for k in range(8):
        params = (Params(2.0, 1.0), Params(3.0, 2.0))[k % 2]
        j = rng.uniform(0.98, 1.02, size=3)
        start = PhaseState(0.05 * j[0], 0.01 * j[1], 1.0 + 0.01 * j[2])

        def run(params=params, start=start):
            return phase.p3_spiral_diagnostic(params, start, turns=8, full=True)

        def check(d) -> Optional[str]:
            r = np.asarray(d.radii)
            if r.size < 3 or not np.all(np.diff(r) > 0.0):
                return f"spiral radii not strictly increasing: {r}"
            if d.exit_state is None or not d.exit_state[1] < 0.0:
                return f"spiral does not exit with Y < 0: {d.exit_state}"
            return None

        ops.append(Op(f"orbits:spiral{k}", run, check,
                      lambda d: (tuple(d.radii), tuple(d.exit_state))))

    # 24 fixed starts outside the cylinder, each moved by the seed within 2%
    # per coordinate: how long an orbit runs depends strongly on its start,
    # and freely drawn starts made the median operation time depend on the
    # seed more than on the program
    design = np.random.default_rng(0)
    combos = (Params(2.0, 0.5), Params(2.0, 2.0), Params(3.0, 1.0))
    for k in range(24):
        params = combos[k % 3]
        while True:
            base = design.uniform((0.0, -1.5, 0.0), (2.0, 1.5, 2.5))
            if _outside_cylinder(params.m, PhaseState(*base)) > 0.1:
                break
        while True:
            start = PhaseState(*(base * rng.uniform(0.98, 1.02, size=3)))
            if _outside_cylinder(params.m, start) > 0.01:
                break

        def run(params=params, start=start):
            return analysis.cylinder_invariance_check(params, start,
                                                      eta_max=50.0)

        def check(ok) -> Optional[str]:
            if ok is None:
                return "cylinder check indeterminate"
            return None if ok else "orbit from outside re-entered the cylinder"

        ops.append(Op(f"orbits:cylinder{k}", run, check, lambda ok: ok))

    p0 = Params(2.0, 0.0)
    for k, (lo, hi) in enumerate(((0.3, 0.5), (0.7, 0.9), (1.1, 1.3))):
        start = PhaseState(0.0, 0.0, float(rng.uniform(lo, hi)))

        def run(start=start):
            return analysis.integrate_orbit(p0, start, eta_max=25.0)

        ops.append(Op(f"orbits:K{k}", run,
                      lambda rep: oracles.check_K_drift(p0.m, rep.states),
                      lambda rep: rep.states.tobytes()))

    for k in range(6):
        params = Params((2.0, 3.0)[k % 2], (0.25, 0.5, 1.0)[k % 3])
        a1 = float(rng.uniform(0.5, 2.5))
        if k % 2 == 0:
            kwargs = {"slope2": float(rng.uniform(0.05, 0.5))}
        else:
            kwargs = {"a2": a1 + float(rng.uniform(0.1, 1.0))}

        def run(params=params, a1=a1, kwargs=kwargs):
            return analysis.monotone_exclusion_check(params, a1, **kwargs)

        ops.append(Op(f"orbits:ordered{k}", run,
                      lambda ok: None if ok else "ordered shots cross early",
                      lambda ok: ok))

    # as many catalogs (microseconds) as slower operations, so that the
    # median operation is a mid-range cylinder orbit
    for k in range(13):
        params = Params(float(rng.uniform(1.2, 5.0)),
                        float(rng.uniform(0.05, 5.0)))

        def run(params=params):
            return phase.critical_points(params)

        def check(cat, params=params) -> Optional[str]:
            if len(cat) != 9:
                return f"catalog has {len(cat)} points"
            finite = [(cp.label, cp.coords, cp.eigenvalues) for cp in cat
                      if not cp.at_infinity]
            return oracles.check_catalog(params.m, params.sigma, finite)

        ops.append(Op(f"orbits:catalog{k}", run, check,
                      lambda cat: tuple((cp.label, tuple(cp.coords),
                                         cp.eigenvalues) for cp in cat)))

    return Workload(ops, lambda first: [])


WORKLOADS = {"search": search, "profiles": profiles, "orbits": orbits}
