"""Command-line front end.

Subcommands: profile, scan, phase, points, bounds, verify.  Data is emitted
as CSV (with a JSON metadata sidecar) or as a single JSON document.  A float
in a CSV reads "%.17g" % v, 17 significant digits; a float in JSON is
Python's shortest repr, as json.dumps writes it.  Both texts are
deterministic, so identical invocations produce byte-identical files.

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
# The text of a value is laid out in a row of _TEXT_WIDTH bytes, in words
# gathered from tables.  Columns 8-23 hold the digits of D after the first,
# d0, in groups of 4.  Columns 0-7 depend on d0 and on the value's class of
# layout: e + 4 in fixed notation (-4 <= e <= 16), then _SCI and _SLOW.
# When e < 0 they end in "-0.", -e - 1 zeros and d0 (e = -3: "-0.00d0");
# when e >= 0 or the value is scientific, in "-d0.".  The "-" is kept for
# negative values only.  When e >= 1, the e digits after d0 are moved one
# column left and the "." follows them.  A scientific value is followed by
# "e", the exponent's sign and at least two of its digits.  A separator
# follows the last kept digit, and a mask keeps the columns from the sign
# through the separator.  All rows of a block are laid out by the same
# numpy operations, whatever their classes.

#: 10^k is tabled for k = 16 - e from _POW10_MIN to 297 (|e| <= 281)
_POW10_MIN = -265
#: 8 words of 4 bytes: the longest text of _FLOAT, "-1.2345678901234567e-308",
#: starts at column 5 and is followed by a separator
_TEXT_WIDTH = 32
#: Dekker's splitter 2^27 + 1: a double is the sum of two 26-bit halves
_SPLIT = 134217729.0
#: the layout classes after the fixed ones, e + 4 for -4 <= e <= 16
_SCI, _SLOW = 21, 22


class _G17Tables(NamedTuple):
    hi: np.ndarray      # 10^k rounded, at index k - _POW10_MIN
    hi_top: np.ndarray  # the upper 26-bit half of hi, for Dekker's product
    lo: np.ndarray      # 10^k - hi, rounded
    layout: np.ndarray  # the class of e = 16 - k, at the index of k
    lead: np.ndarray    # columns 0-7 as a uint64, at [class * 10 + d0]
    digits: np.ndarray  # "%04d" % i as 4 bytes in a uint32, i < 10000
    zeros: np.ndarray   # the trailing zeros of "%04d" % i
    sign: np.ndarray    # by class: the column of the "-"
    head: np.ndarray    # by class: the digits moved one column left
    end: np.ndarray     # end of the text at [class * 17 + trailing zeros]
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
    exponent = 16 - np.arange(_POW10_MIN, 298)
    # the e of each class's layout, e = 0 for _SCI and _SLOW
    es = list(range(-4, 17)) + [0, 0]
    lead = np.array([(("-0." + "0" * (-e - 1) + d) if e < 0 else
                      ("-" + d + ".")).rjust(8, "\0").encode("ascii")
                     for e in es for d in "0123456789"])
    i = np.arange(10000)
    words = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10],
                     axis=1) + ord("0")
    # the last kept digit is 16 - zeros, at column 23 - zeros; the "." at
    # 7 + e is kept when a digit follows it
    zeros = np.arange(17)
    end = np.array([np.where((e < 0) | (16 - zeros > e), 24 - zeros, 7 + e)
                    for e in es])
    masks = np.zeros((_TEXT_WIDTH + 1, _TEXT_WIDTH + 1, _TEXT_WIDTH),
                     np.uint8)
    for start in range(_TEXT_WIDTH + 1):
        for stop in range(start, _TEXT_WIDTH + 1):
            masks[start, stop, start:stop] = 1
    es = np.array(es)
    return _G17Tables(
        hi, c - (c - hi), np.array(lo),
        np.where((exponent < -4) | (exponent > 16), _SCI, exponent + 4),
        lead.view(np.uint64), words.astype(np.uint8).view(np.uint32).ravel(),
        np.cumprod(words[:, ::-1] == ord("0"), axis=1).sum(axis=1),
        5 + np.minimum(es, 0), np.maximum(es, 0), end.ravel(),
        masks.view(f"V{_TEXT_WIDTH}").ravel())


def _times_pow10(a: np.ndarray, i: np.ndarray,
                 tables: _G17Tables) -> Tuple[np.ndarray, np.ndarray]:
    # a 10^k as p + t: p = fl(a hi), and t the error of p (exact, Dekker)
    # plus a lo; i indexes k in the tables
    hi = tables.hi[i]
    p = a * hi
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    hh = tables.hi_top[i]
    hl = hi - hh
    # ((ah hh - p) + ah hl + al hh) + al hl + a lo, summed left to right
    t = ah * hh
    t -= p
    t += ah * hl
    t += al * hh
    t += al * hl
    t += a * tables.lo[i]
    return p, t


def _decimal(v: np.ndarray, tables: _G17Tables
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    # D, the index of 10^(16-e) in the tables and the class of layout of
    # each value in v
    a = np.abs(v)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    k = (16 - _POW10_MIN) - np.floor(np.log10(a)).astype(np.intp)
    p, t = _times_pow10(a, k, tables)
    # log10 may miss e by one next to a power of ten, where p is not inside
    # (1e16, 1e17); there p and t decide, and the product is formed again
    edge = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if edge.size:
        pe, te = p[edge], t[edge]
        k[edge] += (((pe < 1e16) | ((pe == 1e16) & (te < 0))).view(np.int8)
                    - ((pe > 1e17) | ((pe == 1e17) & (te >= 0))).view(np.int8))
        p[edge], t[edge] = _times_pow10(a[edge], k[edge], tables)
    r = np.rint(t)
    fast &= np.abs(t - r) < 0.5 - 1e-6
    d = p.astype(np.int64) + r.astype(np.int64)
    carry = np.flatnonzero(d == 10 ** 17)
    d[carry] = 10 ** 16
    k[carry] -= 1
    return d, k, np.where(fast, tables.layout[k], _SLOW)


def _rows(v: np.ndarray, seps: np.ndarray, tables: _G17Tables
          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the text of each value in v and its separator in a row of text, and
    # the columns where the text starts and where the separator is
    n = len(v)
    d, k, layout = _decimal(v, tables)
    # d0, then the digits after it in groups of 4, split off in place
    d0 = d // 10 ** 16
    d -= d0 * 10 ** 16
    top = d // 10 ** 8
    d -= top * 10 ** 8
    groups = [top // 10 ** 4, top, d // 10 ** 4, d]
    top -= groups[0] * 10 ** 4
    d -= groups[2] * 10 ** 4
    words = np.empty((n, _TEXT_WIDTH // 4), np.uint32)
    words.view(np.uint64)[:, 0] = tables.lead[layout * 10 + d0]
    for j, g in enumerate(groups):
        words[:, j + 2] = tables.digits[g]
    text = words.view(np.uint8)
    flat = text.ravel()
    # the count of trailing zeros of D, a group at a time while any row has
    # only zeros so far
    zeros = tables.zeros[groups[3]]
    for j in (2, 1, 0):
        more = np.flatnonzero(zeros == 4 * (3 - j))
        if not more.size:
            break
        zeros[more] += tables.zeros[groups[j][more]]
    end = tables.end[layout * 17 + zeros]

    # e >= 1: the e digits after d0 move one column left, and the "."
    # follows them
    head = tables.head[layout]
    for j in range(1, head.max() + 1):
        np.copyto(text[:, 6 + j], text[:, 7 + j], where=head >= j)
    moved = np.flatnonzero(head)
    text[moved, 7 + head[moved]] = ord(".")
    rows = np.arange(0, n * _TEXT_WIDTH, _TEXT_WIDTH)
    sci = np.flatnonzero(layout == _SCI)
    if sci.size:
        # "e", the sign, and the last 2 or 3 of the exponent's 4 digits,
        # written before the sign so that a leading 0 lands under it
        e = (16 - _POW10_MIN) - k[sci]
        exp = np.abs(e)
        three = exp >= 100
        at = rows[sci] + end[sci]
        exp_digits = tables.digits[exp].view(np.uint8).reshape(-1, 4)
        for j in (1, 2, 3):
            flat[at + three + j] = exp_digits[:, j]
        flat[at + 1] = np.where(e < 0, ord("-"), ord("+"))
        flat[at] = ord("e")
        end[sci] += 4 + three
    start = tables.sign[layout] + (v > 0)
    slow = np.flatnonzero(layout == _SLOW)
    if slow.size:
        texts = [(_FLOAT % y).encode() for y in v[slow].tolist()]
        text[slow] = np.array(texts, f"S{_TEXT_WIDTH}").view(
            np.uint8).reshape(-1, _TEXT_WIDTH)
        end[slow] = [len(w) for w in texts]
        start[slow] = 0
    flat[rows + end] = seps
    return text, start, end


def _g17(v: np.ndarray, seps: np.ndarray) -> bytes:
    """The text of _FLOAT % x followed by the byte sep, for each x in v and
    sep in seps, in order."""
    tables = _g17_tables()
    # the temporaries of _rows are freed before the mask and the kept bytes
    # are made, which lowers the peak of a block by about a quarter
    text, start, end = _rows(v, seps, tables)
    keep = tables.masks[start * (_TEXT_WIDTH + 1) + end + 1]
    return text.ravel()[keep.view(bool)].tobytes()


def _float_csv(path: Optional[Path], header: Sequence[str],
               columns: Sequence[np.ndarray]) -> None:
    # columns are float arrays of equal length, one per header name.  The
    # rows are written in blocks of _BLOCK_ROWS, so the text held at once is
    # a block's; each value reads _FLOAT % v, with "," between the values of
    # a row and "\n" after each row.  _g17 formats a block in one call, on
    # its values row by row
    seps = np.tile(np.array([ord(",")] * (len(columns) - 1) + [ord("\n")],
                            np.uint8), _BLOCK_ROWS)
    with _opened(path) as stream:
        stream.write(",".join(header) + "\n")
        for b in range(0, len(columns[0]), _BLOCK_ROWS):
            block = np.stack([np.asarray(c[b:b + _BLOCK_ROWS], np.float64)
                              for c in columns], axis=1).ravel()
            stream.write(_g17(block, seps[:len(block)]).decode("ascii"))


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
