"""Benchmark of the blowup package.

    python3 bench/run.py --workload {search,profiles,orbits} --seed N \
        --seconds S --trace {0,1}

The package is imported from src/ of the checkout that holds this file.
Rounds of the workload's operations are repeated on the seed's inputs for
about S seconds, in this one process and thread.  Every output
is checked (see workloads.py and oracles.py).  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the run):
setup_s, wall_s (one round), op_p50_s, op_p90_s (one operation) and
peak_rss_mb.  With --trace 1 untraced and traced rounds alternate, and
the metrics are the per-layer ones of one traced round (see tracing.py)
plus trace.overhead_s.  Spans of the traced rounds are written to
.bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: fresh processes started to time set-up; the median is reported
SETUP_REPEATS = 5
SETUP_CODE = """
import sys
sys.path.insert(0, {src!r})
import numpy, scipy.integrate
from blowup import Params, shoot_backward
shoot_backward(Params(2.0, 0.1), 4.0, dense_dx=None, track_events=False)
"""


class OpError:
    """An operation that raised instead of returning."""

    def __init__(self, err: BaseException) -> None:
        self.message = f"raised {type(err).__name__}: {err}"


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports numpy, scipy and
    blowup and makes a first call into the integrator."""
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile(values: List[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def _signature(op, out) -> Any:
    try:
        return op.signature(out)
    except Exception as err:  # judged by check() on the first round
        return f"unreadable: {type(err).__name__}: {err}"


class Runner:
    """Runs rounds, judges every output, and keeps the timings."""

    def __init__(self, workload) -> None:
        self.ops = workload.ops
        self.workload = workload
        self.first: Optional[List[Any]] = None
        self.first_sig: List[Any] = []
        self.first_verdict: List[Optional[str]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.op_times: List[float] = []

    def _judge(self, outs: List[Any]) -> None:
        if self.first is None:
            self.first = outs
            for op, out in zip(self.ops, outs):
                if isinstance(out, OpError):
                    self.first_sig.append(None)
                    self.first_verdict.append(f"{op.name}: {out.message}")
                    continue
                self.first_sig.append(_signature(op, out))
                try:
                    self.first_verdict.append(op.check(out))
                except Exception as err:  # an unreadable output is wrong
                    self.first_verdict.append(
                        f"{op.name}: check raised {type(err).__name__}: {err}")
        for i, (op, out) in enumerate(zip(self.ops, outs)):
            verdict = self.first_verdict[i]
            if isinstance(out, OpError):
                verdict = f"{op.name}: {out.message}"
            elif _signature(op, out) != self.first_sig[i]:
                verdict = f"{op.name}: output differs from the first round"
            self.attempted += 1
            if verdict is None:
                continue
            if op.known_failure:
                self.failed += 1
            else:
                self.errors.append(verdict)

    def _round(self, tracer) -> tuple:
        outs = []
        t_round = time.perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as err:  # judged as a failed operation
                out = OpError(err)
            if tracer is None:
                self.op_times.append(time.perf_counter() - t0)
            outs.append(out)
        return outs, time.perf_counter() - t_round

    def rounds(self, seconds: float, tracer=None) -> tuple:
        """Whole rounds until the next one would end past `seconds`.

        With a tracer, untraced and traced rounds alternate (at least one of
        each), so a drift in machine speed hits both alike.  Returns the
        untraced and traced round times and each traced round's metrics.
        """
        walls: Dict[bool, List[float]] = {False: [], True: []}
        layer_metrics: List[Dict[str, float]] = []
        start = time.perf_counter()
        traced = False
        while True:
            if traced:
                tracer.reset()
                tracer.round += 1
                tracer.install()
            try:
                outs, wall = self._round(tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(wall)
            if traced:
                layer_metrics.append(tracer.metrics())
            self._judge(outs)
            over = time.perf_counter() - start + wall > seconds
            if over and (tracer is None or walls[True]):
                return walls[False], walls[True], layer_metrics
            traced = tracer is not None and not traced

    def final_check(self) -> None:
        if not self.errors:
            self.errors.extend(self.workload.final_check(self.first))


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("search", "profiles", "orbits"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "blowup" / "__init__.py").is_file():
        print(f"no blowup package under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    # one thread: scan parallelism at its default, BLAS pools of one
    os.environ.pop("BLOWUP_NUM_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import oracles
    import tracing
    import workloads

    broken = oracles.self_test()
    if broken:
        print("oracle self-test failed: " + "; ".join(broken), file=sys.stderr)
        return 1

    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workloads.warm_up()
    runner = Runner(workload)

    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace == 0:
        setup_s = measure_setup()
        walls, _, _ = runner.rounds(args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_s": (percentile(runner.op_times, 0.5), "s"),
            "op_p90_s": (percentile(runner.op_times, 0.9), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        tracer = tracing.Tracer()
        plain, traced, per_round = runner.rounds(args.seconds, tracer)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units = tracing.UNITS
        for key in per_round[0]:
            metrics[key] = {
                "value": statistics.median(r[key] for r in per_round),
                "unit": units[key]}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain),
            "unit": "s"}

    runner.final_check()
    shutil.rmtree(workdir, ignore_errors=True)
    for err in runner.errors:
        print(f"INCORRECT {err}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {runner.attempted} operations, {runner.failed} "
          f"failed (known), {len(runner.errors)} incorrect")
    print(json.dumps({"correct": not runner.errors,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
