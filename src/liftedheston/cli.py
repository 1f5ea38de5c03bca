"""Experiment harness: config parsing, simulation studies, CSV emission.

Four subcommands drive the package end to end:

  simulate     one run; terminal samples and a summary table
  converge     step-size sweep against a fine Euler benchmark
  sensitivity  finite-difference sensitivities of the one-step
               projection residual with respect to the model parameters
  vix          VIX option smiles for a ladder of step counts

Every command is a deterministic function of (config, seed): repeated
invocations rewrite byte-identical CSV files.  Floats are written with
repr so values round-trip exactly; files use '.' decimals, a header row
and LF line endings.  Settings come from an optional flat key=value
config file, overridden by command-line flags.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .clp import simulate_clp, step_coefficients
from .euler import VarianceFix, simulate_euler
from .numerics import precompute_step
from .params import InitialCurve, ModelParams
from .pricing import implied_vol_black, price_european, vix_from_state
from .sampling import RngStream
from .state import PathState, SimOutput, mean_se

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "PRESETS",
    "build_grid",
    "parse_config_file",
    "build_config",
    "cmd_simulate",
    "cmd_converge",
    "cmd_sensitivity",
    "cmd_vix",
    "main",
]


class ConfigError(ValueError):
    """Invalid configuration; the CLI reports it and exits nonzero."""


PRESETS = {
    "set1": dict(n_states=5, hurst=0.3, lam=0.25, nu=0.1, v0=0.02, theta=0.5, rho=0.7),
    "set2": dict(n_states=10, hurst=0.1, lam=0.1, nu=0.2, v0=0.1, theta=0.7, rho=-0.7),
    "set3": dict(n_states=20, hurst=0.3, lam=0.0, nu=0.31, v0=0.1, theta=0.02, rho=0.7),
}

# model inputs when no key sets them: set1 plus the price, rate and time origin
_DEFAULT_MODEL = dict(PRESETS["set1"], s0=100.0, rate=0.0, t0=0.0)

# Stream ids per role, so every run in a command draws from an
# independent stream of the one master seed.
_STREAM_MAIN = 0
_STREAM_BENCHMARK = 1
_STREAM_SWEEP_BASE = 2
_STREAM_SENSITIVITY = 4
_STREAM_VIX_BASE = 10

_CSV_CHUNK = 8192  # samples.csv lines formatted per write

_SENS_WINDOW = 0.5
_SENS_EULER_STEPS = 500

# the vix contract: observed _VIX_T after t0, over the following
# _VIX_HORIZON, struck at these multiples of the simulated forward
_VIX_T = 1.0
_VIX_HORIZON = 1.0 / 12.0
_VIX_MONEYNESS = (0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3)

# the parameters `sensitivity` can bump, with their default bumps
_DEFAULT_BUMPS = (
    ("lam", 1e-3), ("nu", 1e-3), ("v0", 1e-3), ("theta", 1e-3), ("hurst", 1e-3), ("n_states", 1.0)
)

_ERROR_CAP = 1e3


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model inputs plus run settings.

    ``model`` holds the scalar inputs the parameter vectors are built
    from, defaults merged in, so bump studies can rebuild (omega, x)
    after varying the roughness index or the factor count.  ``steps_list``
    holds step counts (simulate, vix) or step sizes (converge).
    """

    model: dict = field(default_factory=lambda: dict(_DEFAULT_MODEL))
    curve_kind: str = "lifted"
    scheme: str = "clp"
    t_end: float | None = None
    times: tuple | None = None
    steps_list: tuple | None = None
    n_paths: int = 10_000
    seed: int = 42
    out_dir: str = "out"
    benchmark_steps: int = 1000
    fix: str = "full-truncation"
    bumps: tuple = _DEFAULT_BUMPS

    def build_params(self, **overrides) -> ModelParams:
        kwargs = {**self.model, **overrides}
        # a bump of n_states moves it by a whole-valued float
        kwargs["n_states"] = int(round(kwargs["n_states"]))
        return ModelParams.from_hurst(**kwargs)

    def build_curve(self) -> InitialCurve:
        if self.curve_kind == "heston":
            return InitialCurve.HESTON_LINEAR
        return InitialCurve.LIFTED_DEFAULT


def build_grid(t0: float, t_end: float, dt: float) -> np.ndarray:
    """Nodes t0, t0+dt, ... with t_end appended when dt does not divide.

    A dt at or above the span yields the single step [t0, t_end].
    """
    if dt <= 0:
        raise ConfigError("step size must be > 0")
    if t_end <= t0:
        raise ConfigError("t_end must exceed t0")
    k = int(math.floor((t_end - t0) / dt + 1e-9))
    nodes = t0 + dt * np.arange(k + 1, dtype=float)
    if nodes[-1] < t_end - 1e-9 * max(1.0, abs(t_end)):
        nodes = np.append(nodes, t_end)
    else:
        nodes[-1] = t_end
    return nodes


# -- config assembly ---------------------------------------------------------


def parse_config_file(path) -> dict:
    """Flat key = value lines; '#' starts a comment; later keys win."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        out[key.strip()] = value.strip()
    return out


# Every parser takes (raw string, key) and returns the value or raises
# ConfigError.


def _number(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {raw!r}") from exc
    if not math.isfinite(value):  # nan, inf and overflow such as 1e400
        raise ConfigError(f"{key}: not a finite number: {raw!r}")
    return value


def _whole(raw: str, key: str) -> int:
    value = _number(raw, key)
    if value != int(value):
        raise ConfigError(f"{key}: not a whole number: {raw!r}")
    return int(value)


def _integer(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {raw!r}") from exc


def _count(raw: str, key: str) -> int:
    value = _integer(raw, key)
    if value < 1:
        raise ConfigError(f"{key} must be >= 1")
    return value


def _numbers(raw: str, key: str) -> tuple:
    return tuple(_number(s.strip(), key) for s in raw.split(",") if s.strip())


def _steps(raw: str, key: str) -> tuple:
    values = _numbers(raw, key)
    if not values:
        raise ConfigError("steps: empty list")
    if any(v <= 0 for v in values):
        raise ConfigError("steps: entries must be > 0")
    return values


def _times(raw: str, key: str) -> tuple:
    values = _numbers(raw, key)
    if len(values) < 2:
        raise ConfigError("times: need at least two grid points")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("times must be strictly increasing")
    return values


def _preset(raw: str, key: str) -> dict:
    try:
        return PRESETS[raw]
    except KeyError:
        raise ConfigError(
            f"unknown preset {raw!r}; choose from {', '.join(sorted(PRESETS))}"
        ) from None


def _one_of(*choices):
    def parse(raw: str, key: str) -> str:
        if raw not in choices:
            raise ConfigError(f"{key}: expected {' or '.join(map(repr, choices))}, got {raw!r}")
        return raw

    return parse


def _bumps(raw: str, key: str) -> tuple:
    # "lam:0.001,nu:0,..."; a zero bump is allowed and reports an exact
    # zero sensitivity (common random numbers).
    out = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition(":")
        if not sep:
            raise ConfigError(f"bumps: expected name:delta, got {item!r}")
        name = name.strip()
        if name not in dict(_DEFAULT_BUMPS):
            raise ConfigError(f"bumps: unknown parameter {name!r}")
        delta = _number(value.strip(), "bumps")
        if name == "n_states" and delta != int(delta):
            # the run rounds N, but the quotient would divide by this delta
            raise ConfigError(f"bumps: n_states: not a whole number: {value.strip()!r}")
        out.append((name, delta))
    if not out:
        raise ConfigError("bumps: empty list")
    return tuple(out)


# config key -> (ExperimentConfig field it sets, parser, help when the key
# is also a command-line flag).  "preset" replaces the model inputs and
# each model key then overrides one of them, hence the order.
_KEYS = {
    "preset": ("model", _preset, "parameter preset: set1, set2 or set3"),
    "n_states": ("model", _whole, None),
    **{key: ("model", _number, None)
       for key in ("hurst", "lam", "nu", "v0", "theta", "rho", "s0", "rate", "t0")},
    "curve": ("curve_kind", _one_of("lifted", "heston"), None),
    "scheme": ("scheme", _one_of("clp", "euler"), "simulation scheme: clp or euler"),
    "t_end": ("t_end", _number, None),
    "steps": ("steps_list", _steps,
              "comma list: step sizes (converge) or step counts (simulate, vix)"),
    "times": ("times", _times, None),
    "paths": ("n_paths", _count, "number of Monte Carlo paths"),
    "seed": ("seed", _integer, "master seed; every run derives its stream from it"),
    "out": ("out_dir", lambda raw, key: raw, "output directory for CSV files"),
    "benchmark_steps": ("benchmark_steps", _count, None),
    "fix": ("fix", _one_of(*(f.value for f in VarianceFix)), None),
    "bumps": ("bumps", _bumps, None),
}


def build_config(raw: dict) -> ExperimentConfig:
    """Validated config from merged file + flag settings."""
    model = dict(_DEFAULT_MODEL)
    settings = {}
    for key, (name, parse, _) in _KEYS.items():
        if key not in raw:
            continue
        value = parse(raw[key], key)
        if key == "preset":
            model.update(value)
        elif name == "model":
            model[key] = value
        else:
            settings[name] = value
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    cfg = ExperimentConfig(model=model, **settings)
    if cfg.t_end is not None and cfg.t_end <= model["t0"]:
        raise ConfigError("t_end must exceed t0")
    try:
        cfg.build_params()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _step_counts(cfg: ExperimentConfig, default: tuple) -> tuple | None:
    """``steps`` read as step counts (simulate, vix); None if one is fractional."""
    values = cfg.steps_list if cfg.steps_list is not None else default
    if any(v != int(v) for v in values):
        return None
    return tuple(int(v) for v in values)


# -- output helpers ----------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _csv_line(cells) -> str:
    """One CSV line of ``_fmt`` cells.  No cell the commands write holds a
    comma, quote or newline, so none needs quoting."""
    return ",".join(map(_fmt, cells)) + "\n"


def _write_csv(path: Path, header, lines) -> None:
    """Write the ``header`` cells, then ``lines``, strings of whole CSV lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(_csv_line(header))
        fh.writelines(lines)
    print(f"wrote {path}")


def _write_rows(path: Path, rows: list) -> None:
    """Write dict ``rows``; the keys of the first are the header."""
    _write_csv(path, rows[0], (_csv_line(row.values()) for row in rows))


def _sample_lines(out: SimOutput):
    """``samples.csv`` rows in chunks of ``_CSV_CHUNK`` formatted lines.

    Python floats from ``tolist`` written with ``!r`` give the bytes of
    ``_csv_line`` at a fraction of the cost; the chunks stream, so the
    whole file is never held.
    """
    n = out.s.shape[0]
    for lo in range(0, n, _CSV_CHUNK):
        hi = min(lo + _CSV_CHUNK, n)
        yield "".join(
            f"{i},{s!r},{v!r},{x!r}\n"
            for i, s, v, x in zip(
                range(lo, hi), out.s[lo:hi].tolist(), out.v[lo:hi].tolist(), out.x[lo:hi].tolist()
            )
        )


def _run_scheme(cfg: ExperimentConfig, grid, stream: RngStream, snapshot_times=()) -> SimOutput:
    params = cfg.build_params()
    curve = cfg.build_curve()
    if cfg.scheme == "euler":
        return simulate_euler(
            params, curve, grid, cfg.n_paths, stream, VarianceFix(cfg.fix), snapshot_times
        )
    return simulate_clp(params, curve, grid, cfg.n_paths, stream, snapshot_times=snapshot_times)


def _summary_row(out: SimOutput, cfg: ExperimentConfig, dt: float) -> dict:
    s = out.summary()
    d = out.diagnostics
    # n_paths, then the means, variances and their standard errors, in
    # the order of summary()
    return dict(
        scheme=cfg.scheme, n_steps=d.n_steps, dt=dt, **s,
        min_variance=d.min_variance, constrained_fraction=d.constrained_fraction,
        degenerate_mean_draws=d.degenerate_mean_draws,
        clamped_variance_values=d.clamped_variance_values,
        negative_variance_paths=d.negative_variance_paths,
    )


# -- subcommands -------------------------------------------------------------


def cmd_simulate(cfg: ExperimentConfig) -> None:
    """One run on a uniform (or explicit) grid; samples + summary CSV."""
    params = cfg.build_params()
    counts = _step_counts(cfg, (100,))
    if counts is None or len(counts) != 1:
        raise ConfigError("steps: simulate takes a single whole-number step count")
    if cfg.times is not None:
        grid = np.asarray(cfg.times, dtype=float)
    else:
        t_end = cfg.t_end if cfg.t_end is not None else params.t0 + 1.0
        grid = np.linspace(params.t0, t_end, counts[0] + 1)
    out = _run_scheme(cfg, grid, RngStream(cfg.seed, stream_id=_STREAM_MAIN))
    out_dir = Path(cfg.out_dir)
    _write_csv(out_dir / "samples.csv", ("path_id", "s_t", "v_t", "x_t"), _sample_lines(out))
    dt = float(grid[1] - grid[0])
    _write_rows(out_dir / "summary.csv", [_summary_row(out, cfg, dt)])


def cmd_converge(cfg: ExperimentConfig) -> None:
    """Error of terminal X statistics versus a fine Euler benchmark.

    ``steps`` holds step sizes here; the horizon defaults to t0 + 5.
    The benchmark is an Euler run with
    ``benchmark_steps`` uniform steps on its own seed stream; a sweep
    entry that coincides with the benchmark spec reuses its samples, so
    that row reports exactly zero error.  The plot file repeats the
    table with errors capped for display.
    """
    params = cfg.build_params()
    dts = cfg.steps_list if cfg.steps_list is not None else (5.0, 2.15, 1.0, 0.5)
    t_end = cfg.t_end if cfg.t_end is not None else params.t0 + 5.0
    bench_grid = np.linspace(params.t0, t_end, cfg.benchmark_steps + 1)
    bench_dt = (t_end - params.t0) / cfg.benchmark_steps
    # every grid before the benchmark runs, so that a grid too large to hold fails at once
    grids = [
        None if cfg.scheme == "euler" and abs(dt - bench_dt) < 1e-12
        else build_grid(params.t0, t_end, dt)
        for dt in dts
    ]
    bench_cfg = replace(cfg, scheme="euler")
    bench = _run_scheme(bench_cfg, bench_grid, RngStream(cfg.seed, stream_id=_STREAM_BENCHMARK))
    bsum = bench.summary()

    rows = []
    for j, (dt, grid) in enumerate(zip(dts, grids)):
        if grid is None:
            out = bench
        else:
            out = _run_scheme(cfg, grid, RngStream(cfg.seed, stream_id=_STREAM_SWEEP_BASE + j))
        s = out.summary()
        if out is bench:
            # the sweep entry IS the benchmark: zero error with zero spread
            mean_err = var_err = mean_err_se = var_err_se = 0.0
        else:
            mean_err = abs(s["mean_x"] - bsum["mean_x"])
            var_err = abs(s["var_x"] - bsum["var_x"])
            mean_err_se = math.hypot(s["se_mean_x"], bsum["se_mean_x"])
            var_err_se = math.hypot(s["se_var_x"], bsum["se_var_x"])
        rows.append(dict(
            scheme=cfg.scheme, dt=dt, n_steps=out.diagnostics.n_steps,
            **{k: s[k] for k in ("mean_x", "se_mean_x", "var_x", "se_var_x")},
            abs_mean_err=mean_err, abs_mean_err_se=mean_err_se,
            abs_var_err=var_err, abs_var_err_se=var_err_se,
        ))
    out_dir = Path(cfg.out_dir)
    _write_rows(out_dir / "convergence.csv", rows)
    capped = [
        dict(row, abs_mean_err=min(row["abs_mean_err"], _ERROR_CAP),
             abs_var_err=min(row["abs_var_err"], _ERROR_CAP))
        for row in rows
    ]
    _write_rows(out_dir / "convergence_plot.csv", capped)
    _write_rows(out_dir / "benchmark.csv", [_summary_row(bench, bench_cfg, bench_dt)])


def _residual_samples(cfg: ExperimentConfig, overrides: dict) -> tuple[np.ndarray, float]:
    """Per-path X^2 samples and the surrogate second moment for one bump.

    The projection surrogate matches the conditional mean and the X-Z
    cross moment exactly, so the residual second moment is
    E[X^2] - (alpha beta^2 + alpha^2) with only E[X^2] estimated, here
    from a fine Euler run.  All bumps share one seed stream: common
    random numbers make the zero bump cancel exactly.
    """
    params = cfg.build_params(**overrides)
    curve = cfg.build_curve()
    t_end = params.t0 + _SENS_WINDOW
    grid = np.linspace(params.t0, t_end, _SENS_EULER_STEPS + 1)
    out = simulate_euler(
        params, curve, grid, cfg.n_paths, RngStream(cfg.seed, stream_id=_STREAM_SENSITIVITY)
    )
    pre = precompute_step(params, curve, params.t0, t_end)
    coeffs = step_coefficients(PathState.initial(params, 1), pre, params)
    alpha = float(coeffs.alpha[0])
    beta = float(coeffs.beta[0])
    surrogate = alpha * beta**2 + alpha**2
    return out.x**2, surrogate


def cmd_sensitivity(cfg: ExperimentConfig) -> None:
    """Finite-difference sensitivities of the projection residual.

    For each bumped parameter the residual second moment over the
    window [t0, t0 + 0.5] is re-estimated with common random numbers
    and differenced against the base point.  Absolute sensitivity is
    the difference quotient; relative divides by the base parameter
    value, which weights errors by the scale each parameter lives on.
    """
    x2_base, sur_base = _residual_samples(cfg, {})
    e2_base = float(np.mean(x2_base)) - sur_base
    n = x2_base.shape[0]

    rows = []
    for name, delta in cfg.bumps:
        base_value = float(cfg.model[name])
        if delta == 0.0:
            # same parameters, same stream: the difference is exactly zero
            # (and a bump of -0.0 is written as 0.0)
            delta, e2_bump, sens_abs, sens_se, sens_rel = 0.0, e2_base, 0.0, 0.0, 0.0
        else:
            x2_bump, sur_bump = _residual_samples(cfg, {name: base_value + delta})
            diff = x2_bump - x2_base
            e2_bump = float(np.mean(x2_bump)) - sur_bump
            sens_abs = (float(np.mean(diff)) - (sur_bump - sur_base)) / delta
            sens_se = mean_se(diff)[1] / abs(delta)
            sens_rel = sens_abs / base_value if base_value != 0.0 else float("nan")
        rows.append(dict(
            parameter=name, base_value=base_value, bump=delta, residual_second_moment=e2_bump,
            sensitivity_abs=sens_abs, sensitivity_abs_se=sens_se, sensitivity_rel=sens_rel,
        ))
    out_dir = Path(cfg.out_dir)
    _write_rows(out_dir / "sensitivity.csv", rows)
    base = dict(
        residual_second_moment=e2_base, se=mean_se(x2_base)[1],
        window=_SENS_WINDOW, euler_steps=_SENS_EULER_STEPS, n_paths=n,
    )
    _write_rows(out_dir / "sensitivity_base.csv", [base])


def cmd_vix(cfg: ExperimentConfig) -> None:
    """VIX option smiles per step count; quotes taken out of the money.

    Step counts must be multiples of 13 so the observation time t0 + 1
    lies on the grid that ends one VIX horizon (1/12) later.  Each count
    runs on its own seed stream; per strike the emitted implied vol
    inverts the out-of-the-money quote (puts below the forward, calls at
    or above).
    A NaN implied vol marks a quote outside the invertible range.
    """
    params = cfg.build_params()
    curve = cfg.build_curve()
    steps = _step_counts(cfg, (13, 26, 39, 78))
    if steps is None or any(count % 13 for count in steps):
        raise ConfigError("vix steps must be positive multiples of 13")

    # the option matures _VIX_T after t0; the model clock reads t0 + _VIX_T
    t_obs = params.t0 + _VIX_T
    horizon_end = t_obs + _VIX_HORIZON
    out_dir = Path(cfg.out_dir)
    summary_rows = []
    for j, count in enumerate(steps):
        grid = np.linspace(params.t0, horizon_end, count + 1)
        out = _run_scheme(
            cfg, grid, RngStream(cfg.seed, stream_id=_STREAM_VIX_BASE + j), snapshot_times=(t_obs,)
        )
        snap = out.snapshots[t_obs]
        vix, clamped = vix_from_state(snap.u, t_obs, params, curve, _VIX_HORIZON)
        neg_paths = out.diagnostics.negative_variance_paths
        forward, forward_se = mean_se(vix)
        rows = []
        for m in _VIX_MONEYNESS:
            strike = m * forward
            kind = "put" if strike < forward else "call"
            quote = price_european(vix, strike, _VIX_T, params.rate, kind)
            vol = implied_vol_black(quote.price, forward, strike, _VIX_T, params.rate, kind)
            rows.append(dict(
                scheme=cfg.scheme, n_steps=count, moneyness=m, strike=strike, kind=kind,
                price=quote.price, price_se=quote.std_err, implied_vol=vol,
                negative_variance_paths=neg_paths,
            ))
        _write_rows(out_dir / f"vix_smile_{cfg.scheme}_{count}.csv", rows)
        # tower identity: mean squared VIX times the horizon should match
        # the mean simulated continuation of integrated variance
        vix2_mean, vix2_se = mean_se(vix**2 * _VIX_HORIZON)
        cont_mean, cont_se = mean_se(out.x - snap.x_cum)
        summary_rows.append(dict(
            scheme=cfg.scheme, n_steps=count, dt=float(grid[1] - grid[0]),
            forward=forward, forward_se=forward_se,
            mean_vix2_scaled=vix2_mean, mean_vix2_scaled_se=vix2_se,
            continuation_mean=cont_mean, continuation_se=cont_se,
            clamped_vix_values=clamped, negative_variance_paths=neg_paths,
        ))
    _write_rows(out_dir / "vix_summary.csv", summary_rows)


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lifted-heston",
        description="Monte Carlo experiment harness for the lifted Heston model",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "simulate": cmd_simulate,
        "converge": cmd_converge,
        "sensitivity": cmd_sensitivity,
        "vix": cmd_vix,
    }
    for name, handler in handlers.items():
        sub = commands.add_parser(name, help=handler.__doc__.splitlines()[0].lower())
        sub.add_argument("--config", help="flat key=value config file")
        for key, (_, _, flag_help) in _KEYS.items():
            if flag_help is not None:
                sub.add_argument(f"--{key}", help=flag_help)
    args = parser.parse_args(argv)

    try:
        raw = parse_config_file(args.config) if args.config else {}
        raw.update((k, v) for k, v in vars(args).items() if k in _KEYS and v is not None)
        cfg = build_config(raw)
        handlers[args.command](cfg)
    except (ValueError, FloatingPointError, MemoryError) as exc:
        # ConfigError, the library's own input checks and oversized runs alike
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: numeric overflow ({exc}): model values too large", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
