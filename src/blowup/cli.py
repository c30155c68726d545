"""Command-line front end.

Subcommands: profile, scan, phase, points, bounds, verify.  Data is emitted
as CSV (with a JSON metadata sidecar) or as a single JSON document; all
floating-point output uses 17 significant digits so identical invocations
produce byte-identical files.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, TextIO

import numpy as np

from . import __version__, acceptance, phase, shooting
from .analysis import integrate_orbit
from .integrate import (_BLOCK_ROWS, DEFAULT_ABS_TOL, DEFAULT_REL_TOL,
                        IntegrationError)
from .model import Params, integral_identity_residual
from .shooting import (Diverged, Interface, ReachedOrigin, ShotOutcome,
                       SlopeUnreliable, VerticalSlope)

SCHEMA = "v1"


class UsageError(ValueError):
    pass


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


#: the one float format: 17 significant digits, the text of format(x, ".17g")
_FLOAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT % float(x)


@contextlib.contextmanager
def _opened(path: Optional[Path]) -> Iterator[TextIO]:
    # the one output stream: stdout without a path, else the file, written
    # with "\n" line ends
    if path is None:
        yield sys.stdout
    else:
        with path.open("w", newline="\n") as stream:
            yield stream


def _write(path: Optional[Path], text: str) -> None:
    with _opened(path) as stream:
        stream.write(text)


def _csv(path: Optional[Path], header: Sequence[str], rows) -> None:
    # rows are tuples as wide as the header, mixing floats with other values
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    _write(path, "\n".join(lines) + "\n")


def _float_csv(path: Optional[Path], header: Sequence[str],
               columns: Sequence[np.ndarray]) -> None:
    # columns are float arrays of equal length, one per header name.  The
    # rows are written in blocks of _BLOCK_ROWS, the values of each block
    # formatted by one % operation over its flattened rows, so the boxed
    # values and the text held at once are a block's, not the table's
    row = ",".join([_FLOAT] * len(header)) + "\n"
    with _opened(path) as stream:
        stream.write(",".join(header) + "\n")
        for b in range(0, len(columns[0]), _BLOCK_ROWS):
            block = np.column_stack([c[b:b + _BLOCK_ROWS] for c in columns])
            stream.write((row * len(block)) % tuple(block.ravel().tolist()))


def _json_out(path: Optional[Path], payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _sidecar(path: Path) -> Path:
    return path.with_suffix(".json") if path.suffix != ".json" \
        else path.with_suffix(".meta.json")


def _outcome_dict(outcome: ShotOutcome) -> dict:
    if isinstance(outcome, Interface):
        return {"kind": "interface", "xi0": outcome.xi0}
    if isinstance(outcome, VerticalSlope):
        return {"kind": "vertical_slope", "xi0": outcome.xi0}
    if isinstance(outcome, ReachedOrigin):
        return {"kind": "reached_origin", "f0": outcome.f0,
                "slope": outcome.slope}
    if isinstance(outcome, Diverged):
        return {"kind": "diverged", "reason": outcome.reason}
    # ShotOutcome is a closed union: what is left is Exhausted
    return {"kind": "exhausted", "xi_max": outcome.xi_max}


def cmd_profile(args) -> int:
    params = Params(m=args.m, sigma=args.sigma)
    if args.xi0 is not None and args.abs_tol is not None:
        raise UsageError("--abs-tol applies to forward shots only: backward "
                         "shots set their absolute tolerances from the "
                         "interface series")
    if args.a is not None:
        profile, outcome = shooting.shoot_forward(
            params, args.a, xi_max=args.xi_max, rel_tol=args.rel_tol,
            abs_tol=DEFAULT_ABS_TOL if args.abs_tol is None else args.abs_tol)
    else:
        profile, outcome = shooting.shoot_backward(
            params, args.xi0, rel_tol=args.rel_tol)

    residual = None
    if profile.xi[0] <= 1e-12:
        residual = integral_identity_residual(profile, float(profile.xi[-1]))
    meta = {
        "schema": SCHEMA,
        "command": "profile",
        "m": params.m,
        "sigma": params.sigma,
        "provenance": ("forward" if args.a is not None else "backward"),
        "a": args.a,
        "xi0": args.xi0,
        "outcome": _outcome_dict(outcome),
        "maxima": list(profile.maxima),
        "minima": list(profile.minima),
        "interface": profile.interface,
        "slope_at_origin": profile.slope_at_origin,
        "integral_identity_residual": residual,
        "n_samples": int(len(profile.xi)),
    }
    names = ["xi", "f", "fprime", "g", "dg"]
    columns = [profile.xi, profile.f, profile.fprime, profile.g, profile.dg]
    if args.format == "csv":
        out = Path(args.out) if args.out else None
        if out is None:
            raise UsageError("--out is required for csv output")
        _float_csv(out, names, columns)
        _json_out(_sidecar(out), meta)
    else:
        meta["samples"] = {name: col.tolist()
                           for name, col in zip(names, columns)}
        _json_out(Path(args.out) if args.out else None, meta)
    return EXIT_OK


def cmd_scan(args) -> int:
    rows = shooting.multiplicity_scan(
        args.m, args.sigma, args.xi0_max, grid_dx=args.grid_dx,
        rel_tol=args.rel_tol)
    meta = {
        "schema": SCHEMA,
        "command": "scan",
        "m": args.m,
        "xi0_max": args.xi0_max,
        "rows": [{
            "sigma": r.sigma,
            "count": r.count,
            "xi0": list(r.xi0s),
            "n_max": list(r.n_maxs),
            "error": r.error,
        } for r in rows],
    }
    if args.format == "csv":
        out = Path(args.out) if args.out else None
        if out is None:
            raise UsageError("--out is required for csv output")
        table = [(float(r.sigma), r.count,
                  ";".join(_fmt(x) for x in r.xi0s),
                  ";".join(str(n) for n in r.n_maxs)) for r in rows]
        _csv(out, ["sigma", "count", "xi0_list", "n_max_list"], table)
        _json_out(_sidecar(out), meta)
    else:
        _json_out(Path(args.out) if args.out else None, meta)
    return EXIT_OK


def cmd_phase(args) -> int:
    params = Params(m=args.m, sigma=args.sigma)
    try:
        x, y, z = (float(v) for v in args.start.split(","))
    except ValueError:
        raise UsageError("--start must be X,Y,Z")
    abs_tol = DEFAULT_ABS_TOL if args.abs_tol is None else args.abs_tol
    report = integrate_orbit(params, phase.PhaseState(x, y, z),
                             eta_max=args.eta_max, rel_tol=args.rel_tol,
                             abs_tol=abs_tol)
    names = ["eta", "X", "Y", "Z", "cylinder_value"]
    columns = [report.eta, *report.states.T, report.cylinder_values]
    meta = {
        "schema": SCHEMA,
        "command": "phase",
        "m": params.m,
        "sigma": params.sigma,
        "start": [x, y, z],
        "classification": report.classification,
        "n_samples": len(report.eta),
    }
    if args.format == "csv":
        out = Path(args.out) if args.out else None
        if out is None:
            raise UsageError("--out is required for csv output")
        _float_csv(out, names, columns)
        _json_out(_sidecar(out), meta)
    else:
        meta["samples"] = np.column_stack(columns).tolist()
        _json_out(Path(args.out) if args.out else None, meta)
    return EXIT_OK


def cmd_points(args) -> int:
    params = Params(m=args.m, sigma=args.sigma)
    cat = []
    for cp in phase.critical_points(params):
        cat.append({
            "label": cp.label,
            "coords": [float(v) for v in cp.coords],
            "at_infinity": cp.at_infinity,
            "eigenvalues": [[float(np.real(v)), float(np.imag(v))]
                            for v in cp.eigenvalues],
            "kind": cp.kind,
            "expansion": cp.expansion,
            "eigenvectors": (None if cp.eigenvectors is None
                             else [[float(v) for v in col]
                                   for col in cp.eigenvectors.T]),
        })
    _json_out(Path(args.out) if args.out else None, {
        "schema": SCHEMA, "command": "points",
        "m": params.m, "sigma": params.sigma, "points": cat,
    })
    return EXIT_OK


def cmd_bounds(args) -> int:
    params = Params(m=args.m, sigma=args.sigma)
    gb = shooting.nonexistence_gap(params)
    _json_out(Path(args.out) if args.out else None, {
        "schema": SCHEMA, "command": "bounds",
        "m": params.m, "sigma": params.sigma,
        "xi_plus": gb.xi_plus, "xi_minus": gb.xi_minus,
        "sigma_threshold": gb.sigma_threshold, "gap": gb.gap,
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    ids = args.check if args.check else None
    results = acceptance.run_acceptance(seed=args.seed, ids=ids)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        expected = (" [expected failure: stated reference values]"
                    if not r.passed and r.check_id in acceptance.EXPECTED_FAILURES
                    else "")
        print(f"[{status}] check {r.check_id:2d} ({r.seconds:7.2f}s) "
              f"{r.name}{expected}")
        print(f"        {r.details}")
        all_ok = all_ok and r.passed
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return EXIT_OK if all_ok else EXIT_VERIFY


def _add_common(p: argparse.ArgumentParser, sigma_list: bool = False) -> None:
    p.add_argument("--m", type=float, required=True, help="exponent m > 1")
    if sigma_list:
        p.add_argument("--sigma", type=float, nargs="+", required=True,
                       help="weight exponent(s) sigma >= 0")
    else:
        p.add_argument("--sigma", type=float, required=True,
                       help="weight exponent sigma >= 0")
    p.add_argument("--out", type=str, default=None, help="output path")


def _add_integration(p: argparse.ArgumentParser, abs_tol: bool = True) -> None:
    # scan runs backward shots only, which set their own absolute tolerances;
    # --abs-tol defaults to None so that profile --xi0 can tell it was given
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    if abs_tol:
        p.add_argument("--abs-tol", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blowup",
        description="Self-similar blow-up profiles of u_t = (u^m)_xx + "
                    "|x|^sigma u^m: shooting, phase-space catalog, bounds.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="compute one profile (forward or backward)")
    _add_common(p)
    _add_integration(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--a", type=float, default=None,
                   help="forward shot from f(0) = a, f'(0) = 0")
    g.add_argument("--xi0", type=float, default=None,
                   help="backward shot from an interface at xi0")
    p.add_argument("--xi-max", dest="xi_max", type=float, default=1e3)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("scan", help="good-profile multiplicity scan over sigma")
    _add_common(p, sigma_list=True)
    _add_integration(p, abs_tol=False)
    p.add_argument("--xi0-max", dest="xi0_max", type=float, required=True)
    p.add_argument("--grid", dest="grid_dx", type=float, default=0.5,
                   help="xi0 grid spacing for the sign scan")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("phase", help="integrate one orbit of the (X,Y,Z) system")
    _add_common(p)
    _add_integration(p)
    p.add_argument("--start", type=str, required=True, help="X,Y,Z")
    p.add_argument("--eta-max", dest="eta_max", type=float, default=500.0)
    p.set_defaults(fn=cmd_phase)

    p = sub.add_parser("points", help="dump the critical-point catalog")
    _add_common(p)
    p.set_defaults(fn=cmd_points)

    p = sub.add_parser("bounds", help="non-existence bounds xi+/xi- and threshold")
    _add_common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", type=int, nargs="*", default=None,
                   help="restrict to these check ids")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (IntegrationError, SlopeUnreliable, OverflowError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:
        print(f"invalid arguments: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
