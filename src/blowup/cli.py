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
import functools
import json
import sys
from pathlib import Path
from typing import (Iterator, List, NamedTuple, Optional, Sequence, TextIO,
                    Tuple)

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


# _FLOAT % v in numpy, for the float tables of _float_csv.  A value with
# 1e-280 <= |v| <= 1e280 has the decimal exponent e = floor(log10 |v|) and
# the 17 digits D = round(|v| 10^(16-e)) in [10^16, 10^17).  |v| 10^(16-e)
# is formed as p + t, Dekker's exact product of |v| with hi plus |v| lo,
# where hi + lo = 10^(16-e) to about 2^-106; p is an integer and t is off
# its exact value by about 1e-14, so D = p + round(t) is the correctly
# rounded one unless t is within 1e-6 of a half.  Such near-ties, nan,
# +-inf, +-0 and the values outside that range go through _FLOAT % v one
# by one, so _FLOAT stays the one definition of the text.
#
# The text of a value is laid out in a row of _TEXT_WIDTH bytes.  Column 0
# holds a "-", kept for negative values.  In fixed notation (-4 <= e <= 16)
# the digits and "." follow at columns fixed by e; a scientific value has
# the layout of e = 0 followed by "e", the exponent's sign and at least two
# of its digits.  The rows are sorted by that layout class (a stable int8
# argsort), so that each class writes its columns as slices, and unsorted.
# A separator follows the last kept digit, and a mask keeps the columns
# from the sign through the separator.

#: 10^k is tabled for k = 16 - e from _POW10_MIN to 297 (|e| <= 281)
_POW10_MIN = -265
#: the longest text of _FLOAT, "-1.2345678901234567e-308", and a separator
_TEXT_WIDTH = 25
#: Dekker's splitter 2^27 + 1: a double is the sum of two 26-bit halves
_SPLIT = 134217729.0


class _G17Tables(NamedTuple):
    hi: np.ndarray      # 10^k rounded, at index k - _POW10_MIN
    hi_top: np.ndarray  # hi split in two 26-bit halves for Dekker's product
    hi_low: np.ndarray
    lo: np.ndarray      # 10^k - hi, rounded
    digits: np.ndarray  # "%04d" % i as 4 bytes in a uint32, i < 10000
    zeros: np.ndarray   # the trailing zeros of "%04d" % i
    end: np.ndarray     # end of the text at [class * 18 + digit count]
    masks: np.ndarray   # columns start to stop - 1 as one void of 0 and 1
    #                     bytes, at [start * (_TEXT_WIDTH + 1) + stop]


@functools.lru_cache(maxsize=None)
def _g17_tables() -> _G17Tables:
    # built on first use, from integers
    hi, lo = [], []
    for k in range(_POW10_MIN, 298):
        if k >= 0:
            h = float(10 ** k)
            hi.append(h)
            lo.append(float(10 ** k - int(h)))
        else:
            n = 10 ** -k
            h = 1 / n
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * n) / (den * n))
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_top = c - (c - hi)
    i = np.arange(10000)
    words = (np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
             + ord("0")).astype(np.uint8)
    nd = np.arange(18)
    end = np.zeros((23, 18), np.intp)
    for c in range(-4, 17):
        end[c + 4] = np.where(nd > c + 1, nd + 2, c + 2) if c >= 0 \
            else 2 - c + nd
    end[21] = end[4]
    masks = np.zeros((2, _TEXT_WIDTH + 1, _TEXT_WIDTH), np.uint8)
    for start in (0, 1):
        for stop in range(start, _TEXT_WIDTH + 1):
            masks[start, stop, start:stop] = 1
    return _G17Tables(
        hi, hi_top, hi - hi_top, np.array(lo),
        words.view(np.uint32).ravel(),
        np.cumprod(words[:, ::-1] == ord("0"), axis=1).sum(axis=1).astype(
            np.int8),
        end.ravel(), masks.view(f"V{_TEXT_WIDTH}").ravel())


def _times_pow10(a: np.ndarray, i: np.ndarray,
                 tables: _G17Tables) -> Tuple[np.ndarray, np.ndarray]:
    # a 10^k as p + t: p = fl(a hi), and t the error of p (exact, Dekker)
    # plus a lo; i indexes k in the tables
    hi = tables.hi[i]
    p = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    hh, hl = tables.hi_top[i], tables.hi_low[i]
    return p, ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * tables.lo[i]


def _g17(v: np.ndarray, sep: int, text: np.ndarray) -> np.ndarray:
    """Write the text of _FLOAT % x and then the byte sep for each x in v to
    the rows of text, and return the index of each row's mask in
    _g17_tables().masks."""
    tables = _g17_tables()
    digits = tables.digits
    n = len(v)
    a = np.abs(v)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    p, t = _times_pow10(a, (16 - _POW10_MIN) - e, tables)
    # log10 may miss e by one next to a power of ten
    shift = (((p > 1e17) | ((p == 1e17) & (t >= 0))).view(np.int8)
             - ((p < 1e16) | ((p == 1e16) & (t < 0))).view(np.int8))
    redo = np.flatnonzero(shift)
    if redo.size:
        e[redo] += shift[redo]
        p[redo], t[redo] = _times_pow10(a[redo], (16 - _POW10_MIN) - e[redo],
                                        tables)
    whole = np.floor(t)
    frac = t - whole
    fast &= np.abs(frac - 0.5) > 1e-6
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry

    # layout class: e + 4 in fixed notation, 21 scientific, 22 fallback;
    # from here on the rows are in the order of their classes
    layout = np.where(fast, np.where((e < -4) | (e > 16), 21, e + 4), 22)
    order = np.argsort(layout.astype(np.int8), kind="stable")
    counts = np.bincount(layout, minlength=23)
    first = np.cumsum(counts) - counts
    d, e, v, layout = d[order], e[order], v[order], layout[order]

    # the digits in groups of 4, the first group d0 alone, as bytes (d0 the
    # last of its 4), and the end of each text from its class and the count
    # of digits through the last nonzero one
    groups = np.empty((n, 5), np.int32)
    top = d // 10 ** 8
    low = (d - top * 10 ** 8).astype(np.int32)
    top = top.astype(np.int32)
    groups[:, 0] = q = top // 10 ** 8
    top -= q * 10 ** 8
    groups[:, 1] = q = top // 10 ** 4
    groups[:, 2] = top - q * 10 ** 4
    groups[:, 3] = q = low // 10 ** 4
    groups[:, 4] = low - q * 10 ** 4
    x = digits[groups].view(np.uint8).reshape(n, 20)[:, 3:]
    zeros = tables.zeros[groups[:, 4]]
    for j in (3, 2, 1):
        more = np.flatnonzero(zeros == 4 * (4 - j))
        zeros[more] += tables.zeros[groups[more, j]]
    end = tables.end[layout * 18 + 17 - zeros]

    out = np.empty((n, _TEXT_WIDTH), np.uint8)
    out[:, 0] = ord("-")
    for k in np.flatnonzero(counts[:22]):
        rows = slice(first[k], first[k] + counts[k])
        c = 0 if k == 21 else k - 4
        if c >= 0:
            out[rows, 1:c + 2] = x[rows, :c + 1]
            out[rows, c + 2] = ord(".")
            out[rows, c + 3:19] = x[rows, c + 1:]
        else:
            out[rows, 1:2 - c] = np.frombuffer(b"0." + b"0" * (-c - 1),
                                               np.uint8)
            out[rows, 2 - c:19 - c] = x[rows]
    flat = out.ravel()
    sci = slice(first[21], first[22])
    if counts[21]:
        # "e", the sign, and the last 2 or 3 of the exponent's 4 digits,
        # written before the sign so that a leading 0 lands under it
        exp = np.abs(e[sci])
        three = exp >= 100
        at = np.arange(first[21], first[22]) * _TEXT_WIDTH + end[sci]
        exp_digits = digits[exp].view(np.uint8).reshape(-1, 4)
        for j in (1, 2, 3):
            flat[at + three + j] = exp_digits[:, j]
        flat[at + 1] = np.where(e[sci] < 0, ord("-"), ord("+"))
        flat[at] = ord("e")
        end[sci] += 4 + three
    slow = slice(first[22], n)
    if counts[22]:
        words = [(_FLOAT % y).encode() for y in v[slow].tolist()]
        out[slow] = np.array(words, f"S{_TEXT_WIDTH}").view(
            np.uint8).reshape(-1, _TEXT_WIDTH)
        end[slow] = [len(w) for w in words]
    flat[np.arange(0, n * _TEXT_WIDTH, _TEXT_WIDTH) + end] = sep
    text.view(f"V{_TEXT_WIDTH}")[order] = out.view(f"V{_TEXT_WIDTH}")
    start = v > 0
    start[slow] = False
    keep = np.empty(n, np.intp)
    keep[order] = start * (_TEXT_WIDTH + 1) + end + 1
    return keep


def _float_csv(path: Optional[Path], header: Sequence[str],
               columns: Sequence[np.ndarray]) -> None:
    # columns are float arrays of equal length, one per header name.  The
    # rows are written in blocks of _BLOCK_ROWS, so the text held at once is
    # a block's; each value reads _FLOAT % v, with "," between the values of
    # a row and "\n" after each row
    masks = _g17_tables().masks
    seps = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    with _opened(path) as stream:
        stream.write(",".join(header) + "\n")
        for b in range(0, len(columns[0]), _BLOCK_ROWS):
            block = [np.asarray(c[b:b + _BLOCK_ROWS], np.float64)
                     for c in columns]
            text = np.empty((len(block[0]), len(block), _TEXT_WIDTH),
                            np.uint8)
            keep = np.empty(text.shape[:2], np.intp)
            for j, (v, sep) in enumerate(zip(block, seps)):
                keep[:, j] = _g17(v, sep, text[:, j])
            stream.write(text.ravel()[masks[keep.ravel()].view(bool)]
                         .tobytes().decode("ascii"))


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


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was, so main builds it once
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
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
