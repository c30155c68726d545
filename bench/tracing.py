"""Per-layer tracing of the blowup package from outside it.

`Tracer.install` replaces the public functions of each layer (the package's
modules) with wrappers that record a span per call and count the work done,
in every blowup module that holds a reference to them; `uninstall` puts the
originals back.  The program itself is not changed, so untraced runs measure
exactly the shipped code.

A layer's self time is its spans' durations minus the part covered by their
direct child spans.  The integrator has no traced children, so its self time
includes the right-hand-side and event evaluations it drives.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List

from blowup.integrate import IntegrationError
from blowup.shooting import SlopeUnreliable

#: layer -> (module, public functions wrapped)
LAYERS = {
    "integrate": ("blowup.integrate", ("integrate",)),
    "shooting": ("blowup.shooting", ("shoot_forward", "shoot_backward",
                                     "slope_fn", "find_good_profiles")),
    "model": ("blowup.model", ("integral_identity_residual",)),
    "phase": ("blowup.phase", ("p3_spiral_diagnostic", "critical_points")),
    "analysis": ("blowup.analysis", ("integrate_orbit",
                                     "cylinder_invariance_check",
                                     "monotone_exclusion_check")),
    "cli": ("blowup.cli", ("main",)),
}


UNITS = {
    "integrate.calls": "count", "integrate.steps": "count",
    "integrate.rhs_evals": "count",
    "integrate.rhs_evals_per_step": "evals/step",
    "integrate.event_evals": "count", "integrate.self_s": "s",
    "integrate.us_per_step": "us", "integrate.dense_samples": "count",
    "integrate.dense_samples_per_s": "1/s",
    "shooting.backward_shots": "count", "shooting.forward_shots": "count",
    "shooting.backward_shot_s": "s", "shooting.slope_evals": "count",
    "shooting.slope_eval_s": "s", "shooting.slope_evals_per_root": "evals/root",
    "shooting.unreliable_slopes": "count", "shooting.roots": "count",
    "shooting.self_s": "s",
    "model.identity_calls": "count", "model.identity_s": "s",
    "model.identity_samples_per_s": "1/s",
    "cli.calls": "count", "cli.self_s": "s", "cli.bytes_written": "bytes",
    "cli.write_mb_per_s": "MB/s",
    "phase.spiral_calls": "count", "phase.spiral_s": "s",
    "phase.catalog_s": "s",
    "analysis.orbit_calls": "count", "analysis.orbit_s": "s",
    "analysis.exclusion_s": "s", "analysis.self_s": "s",
}


class Tracer:
    """Spans and per-round counters of the wrapped layer functions."""

    def __init__(self) -> None:
        # (id, parent, layer, name, t0, t1, round, op)
        self.spans: List[tuple] = []
        self._stack: List[list] = []     # [id, layer, name, t0, child_s]
        self._patched: List[tuple] = []  # (module, attr, original)
        self.round = -1
        self.op = -1
        self.reset()

    # -- counters ----------------------------------------------------------

    def reset(self) -> None:
        """Start a new round of counters (spans are kept)."""
        self.count: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)

    def metrics(self) -> Dict[str, float]:
        c, incl, own = self.count, self.incl_s, self.self_s

        def ratio(a: float, b: float) -> float:
            return a / b if b > 0.0 else 0.0

        steps = c["integrate.steps"]
        return {
            "integrate.calls": c["integrate.integrate"],
            "integrate.steps": steps,
            "integrate.rhs_evals": c["integrate.rhs_evals"],
            "integrate.rhs_evals_per_step": ratio(c["integrate.rhs_evals"],
                                                  steps),
            "integrate.event_evals": c["integrate.event_evals"],
            "integrate.self_s": own["integrate"],
            "integrate.us_per_step": 1e6 * ratio(own["integrate"], steps),
            "integrate.dense_samples": c["integrate.dense_samples"],
            "integrate.dense_samples_per_s": ratio(c["integrate.dense_samples"],
                                                   incl["integrate.dense"]),
            "shooting.backward_shots": c["shooting.shoot_backward"],
            "shooting.forward_shots": c["shooting.shoot_forward"],
            "shooting.backward_shot_s": incl["shooting.shoot_backward"],
            "shooting.slope_evals": c["shooting.slope_fn"],
            "shooting.slope_eval_s": incl["shooting.slope_fn"],
            "shooting.slope_evals_per_root": ratio(c["shooting.slope_fn"],
                                                   c["shooting.roots"]),
            "shooting.unreliable_slopes": c["shooting.unreliable_slopes"],
            "shooting.roots": c["shooting.roots"],
            "shooting.self_s": own["shooting"],
            "model.identity_calls": c["model.integral_identity_residual"],
            "model.identity_s": incl["model.integral_identity_residual"],
            "model.identity_samples_per_s": ratio(
                c["model.identity_samples"],
                incl["model.integral_identity_residual"]),
            "cli.calls": c["cli.main"],
            "cli.self_s": own["cli"],
            "cli.bytes_written": c["cli.bytes_written"],
            "cli.write_mb_per_s": ratio(c["cli.bytes_written"] / 1e6,
                                        own["cli"]),
            "phase.spiral_calls": c["phase.p3_spiral_diagnostic"],
            "phase.spiral_s": incl["phase.p3_spiral_diagnostic"],
            "phase.catalog_s": incl["phase.critical_points"],
            "analysis.orbit_calls": c["analysis.integrate_orbit"],
            "analysis.orbit_s": incl["analysis.integrate_orbit"],
            "analysis.exclusion_s": incl["analysis.monotone_exclusion_check"],
            "analysis.self_s": own["analysis"],
        }

    # -- spans -------------------------------------------------------------

    def _enter(self, layer: str, name: str) -> list:
        frame = [len(self.spans) + len(self._stack), layer, name,
                 time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        span_id, layer, name, t0, child_s = frame
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += dur
        key = f"{layer}.{name}"
        self.count[key] += 1
        self.incl_s[key] += dur
        self.self_s[layer] += dur - child_s
        self.spans.append((span_id, None if parent is None else parent[0],
                           layer, name, t0, t1, self.round, self.op))

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        hook = getattr(self, f"_hook_{layer}_{name}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(layer, name)
            try:
                if hook is not None:
                    return hook(fn, *args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    # -- per-function counters -----------------------------------------------

    def _hook_integrate_integrate(self, fn, rhs, y0, t_span,
                                  events=(), config=None):
        c = self.count

        def counted_rhs(t, y):
            c["integrate.rhs_evals"] += 1
            return rhs(t, y)

        def counted_event(ev):
            def evfn(t, y):
                c["integrate.event_evals"] += 1
                return ev.fn(t, y)
            return replace(ev, fn=evfn)

        dense = config is not None and config.dense_dx is not None
        t0 = time.perf_counter()
        try:
            res = fn(counted_rhs, y0, t_span,
                     events=[counted_event(ev) for ev in events], config=config)
        except IntegrationError as err:
            if err.partial is not None:
                c["integrate.steps"] += err.partial.n_steps
            raise
        finally:
            if dense:
                self.incl_s["integrate.dense"] += time.perf_counter() - t0
        c["integrate.steps"] += res.n_steps
        if dense:
            # every accepted step adds one point; the rest are dense samples
            c["integrate.dense_samples"] += len(res.t) - 1 - res.n_steps
        return res

    def _hook_shooting_slope_fn(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (SlopeUnreliable, IntegrationError):
            self.count["shooting.unreliable_slopes"] += 1
            raise

    def _hook_shooting_find_good_profiles(self, fn, *args, **kwargs):
        found = fn(*args, **kwargs)
        self.count["shooting.roots"] += len(found)
        return found

    def _hook_model_integral_identity_residual(self, fn, profile, *args,
                                               **kwargs):
        self.count["model.identity_samples"] += len(profile.xi)
        return fn(profile, *args, **kwargs)

    def _hook_cli_main(self, fn, argv=None):
        rc = fn(argv)
        if argv and "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            for path in (out, out.with_suffix(".json")):
                if path.is_file():
                    self.count["cli.bytes_written"] += path.stat().st_size
        return rc

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        homes = {layer: importlib.import_module(modname)
                 for layer, (modname, _) in LAYERS.items()}
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "blowup" or key.startswith("blowup.")]
        for layer, (_, names) in LAYERS.items():
            home = homes[layer]
            for name in names:
                original = getattr(home, name)
                wrapped = self._wrap(layer, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "layer", "name", "start", "end", "round", "op")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
