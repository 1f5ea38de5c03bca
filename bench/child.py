"""Run one ``lifted-heston`` command in this fresh process for the benchmark.

    python3 bench/child.py RECORD MODE CLI_ARG...

MODE is ``plain`` or ``trace``.  The command is ``liftedheston.cli.main``
called with CLI_ARG, exactly what the ``lifted-heston`` entry point runs.
Both modes time the scheme drivers the CLI calls (``simulate_clp`` and
``simulate_euler``) and note when the first one starts, which ends
set-up.  ``trace`` also wraps the public functions of every package
module, keeps their spans in memory and writes them next to RECORD when
the command ends (see ``Tracer``).  RECORD receives a JSON summary; the
exit code is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from array import array

MODULES = ("cli", "clp", "numerics", "params", "sampling", "euler", "pricing", "state")

# Methods and private functions on a layer boundary that the per-layer
# metrics need, besides each module's public functions: CSV emission,
# the raw draws and the summary statistics.  A missing one is skipped.
EXTRA = (
    ("cli", None, "_write_csv"),
    ("sampling", "RngStream", "normal"),
    ("sampling", "RngStream", "uniform"),
    ("state", "SimOutput", "summary"),
)

# Counter fields of SimDiagnostics add up across steps; the rest are
# running extrema or run metadata.
_SUMMED = ("total_draws", "constrained_draws", "degenerate_mean_draws", "clamped_variance_values")


def _size(size) -> int:
    if size is None:
        return 1
    if isinstance(size, int):
        return size
    return math.prod(size)


class Tracer:
    """Spans and counts recorded at the boundaries of the package modules.

    A span is (name id, parent span, start, end) with ``perf_counter``
    times; spans are numbered in the order they start, so a parent always
    precedes its children.  Counts are taken at the same boundaries:
    numbers drawn, path-steps, CSV bytes, NaN implied vols, and the
    C-LP diagnostics of every step, the latter by giving each
    ``clp_step`` call a fresh ``SimDiagnostics`` and merging it into the
    caller's afterwards, which leaves the caller's values unchanged.
    """

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = dict.fromkeys(
            (
                "sampling.draws",
                "clp.path_steps",
                "euler.path_steps",
                "cli.csv_bytes",
                "pricing.iv_nan",
            ),
            0,
        )
        self.clp_runs = 0
        self.clp_steps: list[dict] = []

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span per call; ``hook(fn, args, kwargs)`` makes the call."""
        nid = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # -- count hooks ------------------------------------------------------

    def _draw(self, fn, args, kwargs):
        self.counts["sampling.draws"] += _size(args[1] if len(args) > 1 else kwargs.get("size"))
        return fn(*args, **kwargs)

    def _simulate_clp(self, fn, args, kwargs):
        self.clp_runs += 1
        return fn(*args, **kwargs)

    def _clp_step(self, fn, args, kwargs):
        from liftedheston.state import SimDiagnostics  # imported by the package already

        args = list(args)
        caller = args.pop(4) if len(args) > 4 else kwargs.pop("diagnostics", None)
        step = SimDiagnostics()
        out = fn(*args, diagnostics=step, **kwargs)
        if caller is not None:
            for key in _SUMMED:
                setattr(caller, key, getattr(caller, key) + getattr(step, key))
            for key in ("min_variance", "min_beta", "min_constraint_at_zero"):
                setattr(caller, key, min(getattr(caller, key), getattr(step, key)))
            caller.max_beta_over_limit = max(caller.max_beta_over_limit, step.max_beta_over_limit)
        pre = args[1] if len(args) > 1 else kwargs["pre"]
        n = out.n_paths
        self.counts["clp.path_steps"] += n
        self.clp_steps.append(
            {
                "run": self.clp_runs,
                "t_start": pre.t_start,
                "dt": pre.dt,
                "paths": n,
                "constrained_draws": step.constrained_draws,
                "degenerate_mean_draws": step.degenerate_mean_draws,
                "min_variance": step.min_variance,
                "max_beta_over_beta_limit": step.max_beta_over_limit + 1.0,
            }
        )
        return out

    def _euler_step(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.counts["euler.path_steps"] += out.n_paths
        return out

    def _implied_vol(self, fn, args, kwargs):
        vol = fn(*args, **kwargs)
        if math.isnan(vol):
            self.counts["pricing.iv_nan"] += 1
        return vol

    def _write_csv(self, fn, args, kwargs):
        fn(*args, **kwargs)
        self.counts["cli.csv_bytes"] += os.path.getsize(args[0])

    # -- installation and output -------------------------------------------

    def install(self) -> None:
        """Wrap every target and point each package module's reference at the wrapper.

        A caller looks a function up in its own module's globals (``from
        .numerics import precompute_step`` binds ``clp.precompute_step``),
        so every module attribute that holds an original is replaced.
        """
        import importlib

        hooks = {
            "sampling.RngStream.normal": self._draw,
            "sampling.RngStream.uniform": self._draw,
            "clp.simulate_clp": self._simulate_clp,
            "clp.clp_step": self._clp_step,
            "euler.euler_step": self._euler_step,
            "pricing.implied_vol_black": self._implied_vol,
            "cli._write_csv": self._write_csv,
        }
        mods = {m: importlib.import_module(f"liftedheston.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    wrapped[id(fn)] = self.wrap(name, fn, hooks.get(name))
        for short, cls_name, attr in EXTRA:
            owner = getattr(mods[short], cls_name, None) if cls_name else mods[short]
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            name = ".".join(p for p in (short, cls_name, attr) if p)
            traced = self.wrap(name, fn, hooks.get(name))
            if cls_name:
                setattr(owner, attr, traced)
            else:
                wrapped[id(fn)] = traced
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "liftedheston" or mod_name.startswith("liftedheston."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrapped:
                        setattr(mod, attr, wrapped[id(value)])

    def dump(self, prefix: str) -> dict:
        """Write the span arrays as PREFIX.<field>.bin; return their layout."""
        for field in ("span_name", "span_parent", "start", "end"):
            with open(f"{prefix}.{field}.bin", "wb") as fh:
                getattr(self, field).tofile(fh)
        return {
            "prefix": prefix,
            "names": self.names,
            "counts": self.counts,
            "clp_steps": self.clp_steps,
        }


class _SchemeClock:
    """Time spent in the scheme drivers the CLI calls, and when the first began."""

    def __init__(self):
        self.first_call = None
        self.seconds = 0.0
        self.path_steps = 0

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self.first_call is None:
                self.first_call = time.monotonic()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.seconds += time.perf_counter() - t0
            self.path_steps += out.diagnostics.n_paths * out.diagnostics.n_steps
            return out

        return timed


def main() -> int:
    record_path, mode, *argv = sys.argv[1:]
    import liftedheston.cli as cli

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    clock = _SchemeClock()
    for driver in ("simulate_clp", "simulate_euler"):
        if hasattr(cli, driver):
            setattr(cli, driver, clock.wrap(getattr(cli, driver)))
    code = cli.main(argv)
    record = {
        "exit_code": code,
        "module_file": os.path.abspath(cli.__file__),
        "first_scheme_call": clock.first_call,
        "scheme_s": clock.seconds,
        "path_steps": clock.path_steps,
    }
    if tracer is not None:
        record["trace"] = tracer.dump(os.path.splitext(record_path)[0])
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
