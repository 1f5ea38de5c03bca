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
import csv
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .clp import simulate_clp, step_coefficients
from .euler import VarianceFix, simulate_euler
from .numerics import precompute_step
from .params import InitialCurve, ModelParams
from .pricing import VixSpec, implied_vol_black, price_european, vix_from_state
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

_MODEL_KEYS = ("n_states", "hurst", "lam", "nu", "v0", "theta", "rho", "s0", "rate", "t0")
_MODEL_DEFAULTS = dict(s0=100.0, rate=0.0, t0=0.0)

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
_DEFAULT_BUMPS = (
    ("lam", 1e-3),
    ("nu", 1e-3),
    ("v0", 1e-3),
    ("theta", 1e-3),
    ("hurst", 1e-3),
    ("n_states", 1.0),
)

_ERROR_CAP = 1e3


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model inputs plus run settings.

    ``model`` holds the scalar inputs the parameter vectors are built
    from, so bump studies can rebuild (omega, x) after varying the
    roughness index or the factor count.
    """

    model: dict = field(default_factory=lambda: dict(PRESETS["set1"]))
    curve_kind: str = "lifted"
    scheme: str = "clp"
    t_end: float | None = None
    n_steps: int = 100
    times: tuple | None = None
    steps_list: tuple | None = None
    n_paths: int = 10_000
    seed: int = 42
    out_dir: str = "out"
    benchmark_steps: int = 1000
    fix: str = "full-truncation"
    bumps: tuple = _DEFAULT_BUMPS

    def build_params(self, **overrides) -> ModelParams:
        kwargs = dict(_MODEL_DEFAULTS)
        kwargs.update(self.model)
        kwargs.update(overrides)
        kwargs["n_states"] = int(round(kwargs["n_states"]))
        return ModelParams.from_hurst(**kwargs)

    def build_curve(self) -> InitialCurve:
        if self.curve_kind == "heston":
            return InitialCurve.heston_linear()
        return InitialCurve.lifted_default()


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


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {raw!r}") from exc


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {raw!r}") from exc


def _parse_bumps(raw: str) -> tuple:
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
        if name not in ("lam", "nu", "v0", "theta", "hurst", "n_states"):
            raise ConfigError(f"bumps: unknown parameter {name!r}")
        out.append((name, _parse_float(value.strip(), "bumps")))
    if not out:
        raise ConfigError("bumps: empty list")
    return tuple(out)


def build_config(raw: dict) -> ExperimentConfig:
    """Validated config from merged file + flag settings."""
    raw = dict(raw)
    cfg = ExperimentConfig()

    preset = raw.pop("preset", None)
    model = dict(PRESETS["set1"])
    if preset is not None:
        try:
            model = dict(PRESETS[preset])
        except KeyError:
            raise ConfigError(
                f"unknown preset {preset!r}; choose from {', '.join(sorted(PRESETS))}"
            ) from None
    for key in _MODEL_KEYS:
        if key in raw:
            value = _parse_float(raw.pop(key), key)
            model[key] = int(value) if key == "n_states" else value
    cfg = replace(cfg, model=model)

    if "curve" in raw:
        kind = raw.pop("curve")
        if kind not in ("lifted", "heston"):
            raise ConfigError(f"curve: expected 'lifted' or 'heston', got {kind!r}")
        cfg = replace(cfg, curve_kind=kind)
    if "scheme" in raw:
        scheme = raw.pop("scheme")
        if scheme not in ("clp", "euler"):
            raise ConfigError(f"scheme: expected 'clp' or 'euler', got {scheme!r}")
        cfg = replace(cfg, scheme=scheme)
    if "t_end" in raw:
        cfg = replace(cfg, t_end=_parse_float(raw.pop("t_end"), "t_end"))
    if "steps" in raw:
        items = [s for s in raw.pop("steps").split(",") if s.strip()]
        if not items:
            raise ConfigError("steps: empty list")
        values = tuple(_parse_float(s.strip(), "steps") for s in items)
        if any(v <= 0 for v in values):
            raise ConfigError("steps: entries must be > 0")
        # commands read their own meaning out of steps_list (counts for
        # simulate/vix, step sizes for converge); mirror a whole-number
        # first entry into n_steps, fractional step sizes leave it alone
        count = int(values[0])
        if float(count) == values[0] and count >= 1:
            cfg = replace(cfg, steps_list=values, n_steps=count)
        else:
            cfg = replace(cfg, steps_list=values)
    if "times" in raw:
        values = tuple(
            _parse_float(s.strip(), "times") for s in raw.pop("times").split(",") if s.strip()
        )
        if len(values) < 2:
            raise ConfigError("times: need at least two grid points")
        cfg = replace(cfg, times=values)
    if "paths" in raw:
        cfg = replace(cfg, n_paths=_parse_int(raw.pop("paths"), "paths"))
    if "seed" in raw:
        cfg = replace(cfg, seed=_parse_int(raw.pop("seed"), "seed"))
    if "out" in raw:
        cfg = replace(cfg, out_dir=raw.pop("out"))
    if "benchmark_steps" in raw:
        cfg = replace(cfg, benchmark_steps=_parse_int(raw.pop("benchmark_steps"), "benchmark_steps"))
    if "fix" in raw:
        fix = raw.pop("fix")
        if fix not in [f.value for f in VarianceFix]:
            raise ConfigError(f"fix: unknown variance fix {fix!r}")
        cfg = replace(cfg, fix=fix)
    if "bumps" in raw:
        cfg = replace(cfg, bumps=_parse_bumps(raw.pop("bumps")))
    if raw:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(raw))}")

    if cfg.n_paths < 1:
        raise ConfigError("paths must be >= 1")
    if cfg.n_steps < 1:
        raise ConfigError("steps must be >= 1")
    if cfg.benchmark_steps < 1:
        raise ConfigError("benchmark_steps must be >= 1")
    model_check = dict(_MODEL_DEFAULTS)
    model_check.update(cfg.model)
    if cfg.t_end is not None and cfg.t_end <= model_check["t0"]:
        raise ConfigError("t_end must exceed t0")
    try:
        cfg.build_params()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.times is not None:
        if any(b <= a for a, b in zip(cfg.times, cfg.times[1:])):
            raise ConfigError("times must be strictly increasing")
    return cfg


# -- output helpers ----------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    """Write a header and ``rows``; a row is a sequence of cells or a
    string of lines already formatted as the cells would be."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                writer.writerow([_fmt(v) for v in row])
    print(f"wrote {path}")


def _sample_lines(out: SimOutput):
    """``samples.csv`` rows in chunks of ``_CSV_CHUNK`` formatted lines.

    Python floats from ``tolist`` written with ``!r`` give the bytes of
    ``_fmt`` through ``csv.writer`` (no cell needs quoting) at a fraction
    of the cost; the chunks stream, so the whole file is never held.
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


def _summary_row(out: SimOutput, cfg: ExperimentConfig, dt: float):
    s = out.summary()
    d = out.diagnostics
    return (
        cfg.scheme,
        d.n_steps,
        dt,
        int(s["n_paths"]),
        s["mean_s"],
        s["se_mean_s"],
        s["mean_v"],
        s["se_mean_v"],
        s["mean_x"],
        s["se_mean_x"],
        s["var_x"],
        s["se_var_x"],
        d.min_variance,
        d.constrained_fraction,
        d.degenerate_mean_draws,
        d.clamped_variance_values,
        d.negative_variance_paths,
    )


_SUMMARY_HEADER = (
    "scheme",
    "n_steps",
    "dt",
    "n_paths",
    "mean_s",
    "se_mean_s",
    "mean_v",
    "se_mean_v",
    "mean_x",
    "se_mean_x",
    "var_x",
    "se_var_x",
    "min_variance",
    "constrained_fraction",
    "degenerate_mean_draws",
    "clamped_variance_values",
    "negative_variance_paths",
)


# -- subcommands -------------------------------------------------------------


def cmd_simulate(cfg: ExperimentConfig) -> None:
    """One run on a uniform (or explicit) grid; samples + summary CSV."""
    params = cfg.build_params()
    if cfg.steps_list is not None and (
        len(cfg.steps_list) != 1 or float(cfg.n_steps) != cfg.steps_list[0]
    ):
        raise ConfigError("steps: simulate takes a single whole-number step count")
    if cfg.times is not None:
        grid = np.asarray(cfg.times, dtype=float)
    else:
        t_end = cfg.t_end if cfg.t_end is not None else 1.0
        grid = np.linspace(params.t0, t_end, cfg.n_steps + 1)
    out = _run_scheme(cfg, grid, RngStream(cfg.seed, stream_id=_STREAM_MAIN))
    out_dir = Path(cfg.out_dir)
    _write_csv(out_dir / "samples.csv", ("path_id", "s_t", "v_t", "x_t"), _sample_lines(out))
    dt = float(grid[1] - grid[0])
    _write_csv(out_dir / "summary.csv", _SUMMARY_HEADER, [_summary_row(out, cfg, dt)])


def cmd_converge(cfg: ExperimentConfig) -> None:
    """Error of terminal X statistics versus a fine Euler benchmark.

    ``steps`` holds step sizes here; the horizon defaults to T = 5.
    The benchmark is an Euler run with
    ``benchmark_steps`` uniform steps on its own seed stream; a sweep
    entry that coincides with the benchmark spec reuses its samples, so
    that row reports exactly zero error.  The plot file repeats the
    table with errors capped for display.
    """
    params = cfg.build_params()
    dts = cfg.steps_list if cfg.steps_list is not None else (5.0, 2.15, 1.0, 0.5)
    t_end = cfg.t_end if cfg.t_end is not None else 5.0
    bench_grid = np.linspace(params.t0, t_end, cfg.benchmark_steps + 1)
    bench_cfg = replace(cfg, scheme="euler")
    bench = _run_scheme(bench_cfg, bench_grid, RngStream(cfg.seed, stream_id=_STREAM_BENCHMARK))
    bsum = bench.summary()

    rows = []
    bench_dt = (t_end - params.t0) / cfg.benchmark_steps
    for j, dt in enumerate(dts):
        if cfg.scheme == "euler" and abs(dt - bench_dt) < 1e-12:
            out = bench
        else:
            grid = build_grid(params.t0, t_end, dt)
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
        rows.append(
            (
                cfg.scheme,
                dt,
                out.diagnostics.n_steps,
                s["mean_x"],
                s["se_mean_x"],
                s["var_x"],
                s["se_var_x"],
                mean_err,
                mean_err_se,
                var_err,
                var_err_se,
            )
        )
    header = (
        "scheme",
        "dt",
        "n_steps",
        "mean_x",
        "se_mean_x",
        "var_x",
        "se_var_x",
        "abs_mean_err",
        "abs_mean_err_se",
        "abs_var_err",
        "abs_var_err_se",
    )
    out_dir = Path(cfg.out_dir)
    _write_csv(out_dir / "convergence.csv", header, rows)
    capped = [
        row[:7] + (min(row[7], _ERROR_CAP), row[8], min(row[9], _ERROR_CAP), row[10])
        for row in rows
    ]
    _write_csv(out_dir / "convergence_plot.csv", header, capped)
    _write_csv(
        out_dir / "benchmark.csv",
        _SUMMARY_HEADER,
        [_summary_row(bench, bench_cfg, bench_dt)],
    )


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
    model_full = dict(_MODEL_DEFAULTS)
    model_full.update(cfg.model)

    rows = []
    for name, delta in cfg.bumps:
        base_value = float(model_full[name])
        if delta == 0.0:
            # same parameters, same stream: the difference is exactly zero
            rows.append((name, base_value, 0.0, e2_base, 0.0, 0.0, 0.0))
            continue
        x2_bump, sur_bump = _residual_samples(cfg, {name: base_value + delta})
        diff = x2_bump - x2_base
        e2_bump = float(np.mean(x2_bump)) - sur_bump
        sens_abs = (float(np.mean(diff)) - (sur_bump - sur_base)) / delta
        sens_se = float(np.std(diff, ddof=1)) / math.sqrt(n) / abs(delta)
        sens_rel = sens_abs / base_value if base_value != 0.0 else float("nan")
        rows.append((name, base_value, delta, e2_bump, sens_abs, sens_se, sens_rel))

    header = (
        "parameter",
        "base_value",
        "bump",
        "residual_second_moment",
        "sensitivity_abs",
        "sensitivity_abs_se",
        "sensitivity_rel",
    )
    out_dir = Path(cfg.out_dir)
    _write_csv(out_dir / "sensitivity.csv", header, rows)
    _write_csv(
        out_dir / "sensitivity_base.csv",
        ("residual_second_moment", "se", "window", "euler_steps", "n_paths"),
        [
            (
                e2_base,
                float(np.std(x2_base, ddof=1)) / math.sqrt(n),
                _SENS_WINDOW,
                _SENS_EULER_STEPS,
                n,
            )
        ],
    )


def cmd_vix(cfg: ExperimentConfig) -> None:
    """VIX option smiles per step count; quotes taken out of the money.

    Step counts must be multiples of 13 so the observation time t0 + 1
    lies on the grid that ends one VIX horizon (1/12) later.  Each count
    runs on its own seed stream; per strike the emitted implied vol
    inverts the out-of-the-money quote (puts below the forward, calls at
    or above).
    A NaN implied vol marks a quote outside the invertible range.
    """
    spec = VixSpec()
    params = cfg.build_params()
    curve = cfg.build_curve()
    counts = cfg.steps_list if cfg.steps_list is not None else (13.0, 26.0, 39.0, 78.0)
    steps = []
    for value in counts:
        count = int(round(value))
        if abs(value - count) > 1e-9 or count % 13 != 0 or count <= 0:
            raise ConfigError("vix steps must be positive multiples of 13")
        steps.append(count)

    # the option matures spec.t after t0; the model clock reads t0 + spec.t
    t_obs = params.t0 + spec.t
    horizon_end = t_obs + spec.horizon
    out_dir = Path(cfg.out_dir)
    summary_rows = []
    for j, count in enumerate(steps):
        grid = np.linspace(params.t0, horizon_end, count + 1)
        out = _run_scheme(
            cfg, grid, RngStream(cfg.seed, stream_id=_STREAM_VIX_BASE + j), snapshot_times=(t_obs,)
        )
        snap = out.snapshots[t_obs]
        vix, clamped = vix_from_state(snap.u, t_obs, params, curve, spec.horizon)
        neg_paths = out.diagnostics.negative_variance_paths
        forward, forward_se = mean_se(vix)
        rows = []
        for m in spec.moneyness:
            strike = float(m) * forward
            kind = "put" if strike < forward else "call"
            quote = price_european(vix, strike, spec.t, params.rate, kind)
            vol = implied_vol_black(quote.price, forward, strike, spec.t, params.rate, kind)
            rows.append(
                (
                    cfg.scheme,
                    count,
                    float(m),
                    strike,
                    kind,
                    quote.price,
                    quote.std_err,
                    vol,
                    neg_paths,
                )
            )
        _write_csv(
            out_dir / f"vix_smile_{cfg.scheme}_{count}.csv",
            (
                "scheme",
                "n_steps",
                "moneyness",
                "strike",
                "kind",
                "price",
                "price_se",
                "implied_vol",
                "negative_variance_paths",
            ),
            rows,
        )
        # tower identity: mean squared VIX times the horizon should match
        # the mean simulated continuation of integrated variance
        vix2_mean, vix2_se = mean_se(vix**2 * spec.horizon)
        cont_mean, cont_se = mean_se(out.x - snap.x_cum)
        summary_rows.append(
            (
                cfg.scheme,
                count,
                float(grid[1] - grid[0]),
                forward,
                forward_se,
                vix2_mean,
                vix2_se,
                cont_mean,
                cont_se,
                clamped,
                neg_paths,
            )
        )
    _write_csv(
        out_dir / "vix_summary.csv",
        (
            "scheme",
            "n_steps",
            "dt",
            "forward",
            "forward_se",
            "mean_vix2_scaled",
            "mean_vix2_scaled_se",
            "continuation_mean",
            "continuation_se",
            "clamped_vix_values",
            "negative_variance_paths",
        ),
        summary_rows,
    )


# -- entry point -------------------------------------------------------------


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--preset", help="parameter preset: set1, set2 or set3")
    sub.add_argument("--scheme", help="simulation scheme: clp or euler")
    sub.add_argument(
        "--steps",
        help="comma list: step sizes (converge) or step counts (simulate, vix)",
    )
    sub.add_argument("--paths", help="number of Monte Carlo paths")
    sub.add_argument("--seed", help="master seed; every run derives its stream from it")
    sub.add_argument("--out", help="output directory for CSV files")


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
        _add_common_flags(sub)
    args = parser.parse_args(argv)

    try:
        raw = parse_config_file(args.config) if args.config else {}
        for key in ("preset", "scheme", "steps", "paths", "seed", "out"):
            value = getattr(args, key)
            if value is not None:
                raw[key] = value
        cfg = build_config(raw)
        handlers[args.command](cfg)
    except (ValueError, FloatingPointError) as exc:
        # ConfigError and the library's own input checks alike
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
