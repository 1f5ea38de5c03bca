"""Experiment harness: config parsing, grids, commands, CSV determinism."""

import ast
import csv
import functools
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import liftedheston
from liftedheston import RngStream
from liftedheston import state as state_module
from liftedheston.cli import (
    _KEYS,
    PRESETS,
    ConfigError,
    ExperimentConfig,
    _csv_line,
    _fmt,
    _write_csv,
    build_config,
    build_grid,
    main,
    parse_config_file,
)


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "preset = set2\n"
        "paths=500\n"
        "seed = 7   # trailing comment\n"
        "paths = 600\n"
    )
    raw = parse_config_file(cfg)
    assert raw == {"preset": "set2", "paths": "600", "seed": "7"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("paths 600\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)
    with pytest.raises(ConfigError):
        parse_config_file(tmp_path / "missing.cfg")


def test_build_config_presets_and_overrides():
    cfg = build_config({"preset": "set3", "paths": "123", "nu": "0.5"})
    assert cfg.model["n_states"] == 20
    assert cfg.model["nu"] == 0.5
    assert cfg.n_paths == 123
    params = cfg.build_params()
    assert params.n_states == 20 and params.nu == 0.5
    for preset, spec in PRESETS.items():
        p = build_config({"preset": preset}).build_params()
        assert p.n_states == spec["n_states"]


def test_build_config_rejects_bad_input():
    with pytest.raises(ConfigError):
        build_config({"preset": "set9"})
    with pytest.raises(ConfigError):
        build_config({"paths": "0"})
    with pytest.raises(ConfigError):
        build_config({"paths": "12.5"})
    with pytest.raises(ConfigError):
        build_config({"scheme": "milstein"})
    with pytest.raises(ConfigError):
        build_config({"curve": "flat"})
    with pytest.raises(ConfigError):
        build_config({"typo_key": "1"})
    with pytest.raises(ConfigError):
        build_config({"times": "0.0,0.5,0.5"})
    with pytest.raises(ConfigError):
        build_config({"steps": "0.5,-1"})
    with pytest.raises(ConfigError):
        build_config({"bumps": "kappa:0.1"})
    with pytest.raises(ConfigError):
        build_config({"fix": "clamp"})
    with pytest.raises(ConfigError, match="^n_states: not a whole number: '2.5'$"):
        build_config({"n_states": "2.5"})
    # every number must be finite, overflow included
    for key in ("steps", "n_states", "hurst", "lam", "nu", "v0", "theta", "rho", "s0", "rate",
                "t0", "t_end", "times", "bumps"):
        for value in ("nan", "inf", "-inf", "1e400", "-1e400"):
            entry = {"times": f"0,0.5,{value}", "bumps": f"lam:{value}"}.get(key, value)
            with pytest.raises(ConfigError, match=f"^{key}: not a finite number: "):
                build_config({key: entry})


# one valid value per config key and where the built config holds it
_KEY_VALUES = {
    "preset": ("set2", lambda c: c.model, dict(PRESETS["set2"], s0=100.0, rate=0.0, t0=0.0)),
    "n_states": ("7.0", lambda c: c.model["n_states"], 7),
    "hurst": ("0.2", lambda c: c.model["hurst"], 0.2),
    "lam": ("0.5", lambda c: c.model["lam"], 0.5),
    "nu": ("0.3", lambda c: c.model["nu"], 0.3),
    "v0": ("0.04", lambda c: c.model["v0"], 0.04),
    "theta": ("0.6", lambda c: c.model["theta"], 0.6),
    "rho": ("-0.5", lambda c: c.model["rho"], -0.5),
    "s0": ("90", lambda c: c.model["s0"], 90.0),
    "rate": ("0.03", lambda c: c.model["rate"], 0.03),
    "t0": ("0.25", lambda c: c.model["t0"], 0.25),
    "curve": ("heston", lambda c: c.curve_kind, "heston"),
    "scheme": ("euler", lambda c: c.scheme, "euler"),
    "t_end": ("2.5", lambda c: c.t_end, 2.5),
    "steps": ("3, 4.5", lambda c: c.steps_list, (3.0, 4.5)),
    "times": ("0,0.5,2", lambda c: c.times, (0.0, 0.5, 2.0)),
    "paths": ("123", lambda c: c.n_paths, 123),
    "seed": ("-7", lambda c: c.seed, -7),
    "out": ("runs/a b", lambda c: c.out_dir, "runs/a b"),
    "benchmark_steps": ("40", lambda c: c.benchmark_steps, 40),
    "fix": ("absorption", lambda c: c.fix, "absorption"),
    "bumps": ("lam:0, hurst:2e-3", lambda c: c.bumps, (("lam", 0.0), ("hurst", 2e-3))),
}


def test_every_config_key_reaches_the_config():
    assert list(_KEY_VALUES) == list(_KEYS) and len(_KEYS) == 22
    default = build_config({})
    for key, (raw, read, expected) in _KEY_VALUES.items():
        assert read(default) != expected, key
        value = read(build_config({key: raw}))
        assert value == expected and type(value) is type(expected), key


@pytest.mark.parametrize("command", ["simulate", "converge", "sensitivity", "vix"])
def test_help_lists_the_table_flags(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"--[a-z_]+", capsys.readouterr().out)) - {"--help"}
    table_flags = {f"--{key}" for key, (_, _, flag_help) in _KEYS.items() if flag_help}
    assert flags == table_flags | {"--config"}
    assert flags == {"--config", "--preset", "--scheme", "--steps", "--paths", "--seed", "--out"}


_AWKWARD_CELLS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1,
    2.0**53 + 1, np.float64(0.1), np.float64("nan"), np.float64(-0.0), np.float32(0.1),
    np.int64(-3), np.int32(7), 0, 12345678901234567890, True,
    "clp", "euler", "put", "call", "lam", "n_states", "hurst", "path_id", "implied_vol",
    "negative_variance_paths", "mean_vix2_scaled_se",
]


def test_csv_line_matches_csv_writer(tmp_path):
    def reference(rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        return buf.getvalue()

    rows = [_AWKWARD_CELLS] + [[cell] for cell in _AWKWARD_CELLS]
    for row in rows:
        assert _csv_line(row) == reference([row]), row
    path = tmp_path / "sub" / "t.csv"
    _write_csv(path, ("a", "b"), (_csv_line(row) for row in rows[1:]))
    assert path.read_bytes() == reference([("a", "b")] + rows[1:]).encode()


def test_default_config_round_trip():
    cfg = build_config({})
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.scheme == "clp"
    assert cfg.model["n_states"] == PRESETS["set1"]["n_states"]
    assert cfg.build_curve() is not None


def test_build_grid_cases():
    assert np.allclose(build_grid(0.0, 1.0, 0.25), [0.0, 0.25, 0.5, 0.75, 1.0])
    # a step that does not divide the span appends the end point
    g = build_grid(0.0, 5.0, 2.15)
    assert np.allclose(g, [0.0, 2.15, 4.3, 5.0])
    # a step larger than the span gives a single interval
    assert np.allclose(build_grid(0.0, 1.0, 5.0), [0.0, 1.0])
    g2 = build_grid(0.0, 0.3, 0.1)
    assert g2[-1] == 0.3 and len(g2) == 4


def test_simulate_outputs_and_determinism(tmp_path):
    args = ["simulate", "--preset", "set1", "--paths", "800", "--steps", "12", "--seed", "5"]
    code_a, out_a = run_cli(args, tmp_path, "a")
    code_b, out_b = run_cli(args, tmp_path, "b")
    assert code_a == 0 and code_b == 0
    files_a, files_b = read_all(out_a), read_all(out_b)
    assert set(files_a) == {"samples.csv", "summary.csv"}
    assert files_a == files_b, "same seed must give byte-identical output"
    header = files_a["samples.csv"].decode().splitlines()[0]
    assert header == "path_id,s_t,v_t,x_t"
    n_rows = len(files_a["samples.csv"].decode().splitlines()) - 1
    assert n_rows == 800
    summary = files_a["summary.csv"].decode().splitlines()
    assert summary[0].startswith("scheme,n_steps,dt,n_paths,mean_s")
    assert summary[1].startswith("clp,12,")


def test_simulate_seed_changes_output(tmp_path):
    base = ["simulate", "--preset", "set1", "--paths", "200", "--steps", "4"]
    _, out_a = run_cli(base + ["--seed", "1"], tmp_path, "a")
    _, out_b = run_cli(base + ["--seed", "2"], tmp_path, "b")
    assert read_all(out_a)["samples.csv"] != read_all(out_b)["samples.csv"]


def test_simulate_euler_scheme_flag(tmp_path):
    code, out = run_cli(
        ["simulate", "--preset", "set2", "--scheme", "euler", "--paths", "300", "--steps", "8"],
        tmp_path, "e")
    assert code == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1].startswith("euler,8,")


def test_cli_error_exits(tmp_path, capsys):
    assert main(["simulate", "--preset", "nope", "--out", str(tmp_path / "x")]) == 2
    assert "unknown preset" in capsys.readouterr().err
    assert main(["simulate", "--paths", "0", "--out", str(tmp_path / "y")]) == 2
    assert "paths must be >= 1" in capsys.readouterr().err
    assert main(["vix", "--steps", "14", "--paths", "50", "--out", str(tmp_path / "z")]) == 2
    assert "multiples of 13" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["unknown-command"])


def test_library_errors_exit_2_with_one_line(tmp_path, child_env):
    # an explicit grid that starts after t0 passes config validation; the
    # driver's ValueError must reach the user as exit 2, not a traceback
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("preset = set1\ntimes = 0.1,1.0\npaths = 50\n")
    proc = subprocess.run(
        [sys.executable, "-m", "liftedheston.cli", "simulate", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=child_env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0] == "error: grid must start at t0"
    assert "Traceback" not in proc.stderr


def test_seed_past_64_bits_exits_2_with_one_line(tmp_path, child_env):
    # 2**64 + 5 used to run silently with the bytes of seed 5
    proc = subprocess.run(
        [sys.executable, "-m", "liftedheston.cli", "simulate", "--paths", "10", "--steps", "2",
         "--seed", str(2**64 + 5), "--out", str(tmp_path / "out")],
        env=child_env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: seed and stream_id must be >= 0 and < 2**64"]
    assert not (tmp_path / "out").exists()


# each used to fail another way: an OverflowError traceback, a silent
# run with N = 2, and a RuntimeWarning line before the error
@pytest.mark.parametrize("config, flags, message", [
    ("", ["--steps", "1e400"], "steps: not a finite number: '1e400'"),
    ("n_states = 2.5\n", [], "n_states: not a whole number: '2.5'"),
    ("t_end = inf\n", [], "t_end: not a finite number: 'inf'"),
])
def test_non_finite_and_fractional_input_exit_2_with_one_line(tmp_path, child_env, config,
                                                               flags, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("paths = 20\n" + config)
    proc = subprocess.run(
        [sys.executable, "-m", "liftedheston.cli", "simulate", "--config", str(cfg), *flags,
         "--out", str(tmp_path / "out")],
        env=child_env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


# input checks that no other test reaches, each from its config file or flag
@pytest.mark.parametrize("config, flags, message", [
    ("steps = ,\n", [], "steps: empty list"),
    ("times = 0.5\n", [], "times: need at least two grid points"),
    ("bumps = lam\n", [], "bumps: expected name:delta, got 'lam'"),
    ("bumps = ,\n", [], "bumps: empty list"),
    ("t_end = 0\n", [], "t_end must exceed t0"),
    ("", ["--steps", "10,20"], "steps: simulate takes a single whole-number step count"),
    ("bumps = n_states:0.5\n", [], "bumps: n_states: not a whole number: '0.5'"),
])
def test_malformed_input_exits_2_with_one_line(tmp_path, child_env, config, flags, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("paths = 20\n" + config)
    proc = subprocess.run(
        [sys.executable, "-m", "liftedheston.cli", "simulate", "--config", str(cfg), *flags,
         "--out", str(tmp_path / "out")],
        env=child_env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


def test_unwritable_output_exits_1_with_one_line(tmp_path, child_env):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "liftedheston.cli", "simulate", "--paths", "10", "--steps", "2",
         "--out", str(blocker / "sub")],
        env=child_env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_heston_curve_matches_its_mean(tmp_path):
    """``curve = heston`` reaches the run: the mean integrated variance is
    that of the linear Heston curve within 4 standard errors."""
    cfg = tmp_path / "heston.cfg"
    cfg.write_text("preset = set1\ncurve = heston\nt_end = 2\n")
    code, out = run_cli(["simulate", "--config", str(cfg), "--paths", "20000", "--steps", "8"],
                        tmp_path, "h")
    assert code == 0
    row = next(csv.DictReader(io.StringIO((out / "summary.csv").read_text())))
    params = build_config({"preset": "set1"}).build_params()
    want = liftedheston.expected_integrated_variance(2.0, params,
                                                     liftedheston.InitialCurve.HESTON_LINEAR)
    lifted = liftedheston.expected_integrated_variance(2.0, params,
                                                       liftedheston.InitialCurve.LIFTED_DEFAULT)
    se = float(row["se_mean_x"])
    assert abs(float(row["mean_x"]) - want) < 4 * se
    assert abs(lifted - want) > 8 * se


# finite but extreme: the first two used to exit 0 after expm overflow
# warnings with all-NaN CSVs, the third with a 7 TiB allocation
# traceback, the Euler run after overflow warnings with inf and NaN in
# summary.csv, vix after an overflow warning in the price, and vix at a
# large negative rate with an OverflowError traceback from the discount;
# near the underflow range C-LP exited 2 with "mu and gamma must be > 0"
# (shape 0) and with a non-finite log price (shape inf)
SIMULATE = ["simulate", "--paths", "10", "--steps", "2"]


@pytest.mark.parametrize("config, message, command", [
    ("nu = 1e300\n", "step moments overflow: model values too large", SIMULATE),
    ("v0 = 1e300\ntheta = 1e300\n", "step moments overflow: model values too large", SIMULATE),
    ("n_states = 1e6\n", "n_states must be <= 1000", SIMULATE),
    ("scheme = euler\nnu = 1e300\n", "non-finite variance at t=1: model values too large",
     SIMULATE),
    ("rate = 1e300\n", "price overflow at t=1.08333: model values too large",
     ["vix", "--paths", "100", "--steps", "13"]),
    ("rate = -800\n", "numeric overflow (math range error): model values too large",
     ["vix", "--paths", "100", "--steps", "13"]),
    ("lam = 0\ntheta = 0\nv0 = 1e-165\nt_end = 3\n",
     "variance level too small (path 0, alpha=1.000e-165); "
     "inverse Gaussian shape (alpha/beta_c)^2 = 0", ["simulate", "--paths", "10", "--steps", "3"]),
    ("n_states = 1\nhurst = 0.25\nlam = 2\nnu = 0.5\nv0 = 0\ntheta = 5e-324\nrho = -1\n"
     "t_end = 3\n", "variance level too small (path 0, alpha=4.941e-324); "
     "inverse Gaussian shape (alpha/beta_c)^2 = inf", ["simulate", "--paths", "10", "--steps", "3"]),
])
def test_extreme_model_values_exit_2_with_one_line(tmp_path, child_env, config, message,
                                                   command):
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text("preset = set1\n" + config)
    proc = subprocess.run(
        [sys.executable, "-m", "liftedheston.cli", *command, "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=child_env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


# each used to exit 1 with a numpy allocation traceback; every size is
# at least 1e14 doubles (728 TiB), more than any address space holds, so
# the allocation fails at once however the host overcommits memory
@pytest.mark.parametrize("config, command", [
    ("", ["simulate", "--steps", "100000000000000"]),
    ("", ["simulate", "--paths", "100000000000000"]),
    ("", ["converge", "--paths", "10", "--steps", "1e-14"]),
    ("benchmark_steps = 100000000000000\n", ["converge", "--paths", "10"]),
])
def test_oversized_runs_exit_2_with_one_line(tmp_path, child_env, config, command):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(config)
    proc = subprocess.run(
        [sys.executable, "-m", "liftedheston.cli", *command, "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=child_env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate"), proc.stderr
    assert not (tmp_path / "out").exists()


def test_converge_fails_on_its_sweep_grid_before_the_benchmark(tmp_path, monkeypatch, capsys):
    """A sweep step whose grid cannot be held ends the command before the
    1,000-step Euler benchmark runs (it used to run first, for 11.8 s)."""

    def benchmark(*args, **kwargs):
        raise AssertionError("the Euler benchmark ran")

    monkeypatch.setattr(liftedheston.cli, "simulate_euler", benchmark)
    code, out = run_cli(["converge", "--steps", "1e-14", "--paths", "100000"], tmp_path, "out")
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not out.exists()


# a single path has no sample variance: each used to exit 0 after two
# numpy RuntimeWarning lines (degrees of freedom <= 0, invalid divide)
@pytest.mark.parametrize("command", [
    ["simulate", "--paths", "1", "--steps", "2"],
    ["simulate", "--scheme", "euler", "--paths", "1", "--steps", "2"],
    ["converge", "--paths", "1", "--steps", "5"],
    ["sensitivity", "--paths", "1"],
])
def test_one_path_runs_without_warnings(tmp_path, child_env, command):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "liftedheston.cli", *command, "--out", str(out)],
        env=child_env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0
    assert proc.stderr == ""
    if command[0] == "simulate":
        row = next(csv.DictReader(io.StringIO((out / "summary.csv").read_text())))
        assert row["n_paths"] == "1"
        assert row["var_x"] == "nan" and row["se_var_x"] == "inf"
        assert row["se_mean_x"] == "inf"
    if command[0] == "sensitivity":
        base = next(csv.DictReader(io.StringIO((out / "sensitivity_base.csv").read_text())))
        assert base["se"] == "inf"


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity control and at least 2 usable CPUs",
)
def test_csv_bytes_do_not_depend_on_the_cpu_count(tmp_path, child_env):
    """Multi-block runs give the same CSV bytes on one CPU as on all of
    them.  Only the child processes are pinned, and both runs use one
    BLAS thread, so the step kernels' worker count is what differs."""
    one_cpu = min(os.sched_getaffinity(0))
    env = dict(child_env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for run, args in enumerate((
            ["simulate", "--preset", "set3", "--paths", "20011", "--steps", "3"],
            ["simulate", "--preset", "set3", "--scheme", "euler", "--paths", "20011",
             "--steps", "3"],
            ["vix", "--preset", "set1", "--steps", "13", "--paths", "20011"])):
        outputs = []
        for pin in (lambda: os.sched_setaffinity(0, {one_cpu}), None):
            out = tmp_path / f"{run}-{len(outputs)}"
            subprocess.run([sys.executable, "-m", "liftedheston.cli", *args, "--out", str(out)],
                           env=env, preexec_fn=pin, check=True, capture_output=True,
                           timeout=600)
            outputs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        assert outputs[0] and outputs[0] == outputs[1], args


def test_converge_benchmark_reuse_gives_zero_error_rows(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "preset = set1\nscheme = euler\nsteps = 0.05\npaths = 400\n"
        "benchmark_steps = 100\nt_end = 5.0\nseed = 9\n"
    )
    code, out = run_cli(["converge", "--config", str(cfg)], tmp_path, "conv")
    assert code == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0].startswith("scheme,dt,n_steps,mean_x")
    # dt = 5/100 equals the benchmark step, so the sweep run IS the
    # benchmark and the error columns must be exactly zero
    fields = rows[1].split(",")
    header = rows[0].split(",")
    err_cols = [i for i, h in enumerate(header) if h.startswith("abs_")]
    for i in err_cols:
        assert float(fields[i]) == 0.0, f"{header[i]}={fields[i]}"
    assert (out / "benchmark.csv").exists()
    assert (out / "convergence_plot.csv").exists()


def test_converge_clp_sweep(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "preset = set1\nsteps = 2.5,1.0\npaths = 500\nbenchmark_steps = 50\nseed = 3\n"
    )
    code, out = run_cli(["converge", "--config", str(cfg)], tmp_path, "conv")
    assert code == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[0] == "clp"
    plot = (out / "convergence_plot.csv").read_text().splitlines()
    for line in plot[1:]:
        for v in line.split(",")[1:]:
            assert float(v) <= 1e3, "plot errors must be capped"


def test_sensitivity_zero_bump_row(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("preset = set1\npaths = 400\nbumps = lam:0,nu:0.001\nseed = 12\n")
    code, out = run_cli(["sensitivity", "--config", str(cfg)], tmp_path, "sens")
    assert code == 0
    rows = (out / "sensitivity.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[0] == "parameter"
    by_name = {r.split(",")[0]: r.split(",") for r in rows[1:]}
    i_abs = header.index("sensitivity_abs")
    assert float(by_name["lam"][i_abs]) == 0.0, "zero bump must give an exact zero"
    assert float(by_name["nu"][i_abs]) != 0.0
    assert (out / "sensitivity_base.csv").exists()


def test_vix_outputs(tmp_path):
    code, out = run_cli(
        ["vix", "--preset", "set1", "--steps", "13", "--paths", "2000", "--seed", "4"],
        tmp_path, "vix")
    assert code == 0
    names = set(read_all(out))
    assert names == {"vix_smile_clp_13.csv", "vix_summary.csv"}
    smile = (out / "vix_smile_clp_13.csv").read_text().splitlines()
    assert smile[0] == ("scheme,n_steps,moneyness,strike,kind,price,price_se,"
                       "implied_vol,negative_variance_paths")
    assert len(smile) == 14
    assert [r.split(",")[2] for r in smile[1:]] == [
        "0.7", "0.75", "0.8", "0.85", "0.9", "0.95", "1.0", "1.05", "1.1", "1.15", "1.2", "1.25",
        "1.3"]
    kinds = [r.split(",")[4] for r in smile[1:]]
    assert kinds[0] == "put" and kinds[-1] == "call"
    summary = (out / "vix_summary.csv").read_text().splitlines()
    assert "mean_vix2_scaled" in summary[0] and "continuation_mean" in summary[0]


def assert_t0_shift_keeps_cells(args, tmp_path, config=""):
    """The lifted default curve and the factor dynamics depend on t - t0
    only, so shifting t0 must reproduce every cell up to rounding."""
    cfg = tmp_path / "t0.cfg"
    cfg.write_text(config + "t0 = 0.5\n")
    base = tmp_path / "base.cfg"
    base.write_text(config)
    code_a, out_a = run_cli(args + ["--config", str(base)], tmp_path, "base")
    code_b, out_b = run_cli(args + ["--config", str(cfg)], tmp_path, "shifted")
    assert code_a == 0 and code_b == 0
    files_a, files_b = read_all(out_a), read_all(out_b)
    assert set(files_a) == set(files_b)
    for name in files_a:
        rows_a = files_a[name].decode().splitlines()
        rows_b = files_b[name].decode().splitlines()
        assert len(rows_a) == len(rows_b) and rows_a[0] == rows_b[0]
        for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
            for a, b in zip(row_a.split(","), row_b.split(",")):
                try:
                    fa, fb = float(a), float(b)
                except ValueError:
                    assert a == b, name
                    continue
                assert fa == pytest.approx(fb, rel=1e-10, abs=0.0, nan_ok=True), (name, a, b)


def test_vix_observation_time_measured_from_t0(tmp_path):
    assert_t0_shift_keeps_cells(
        ["vix", "--preset", "set1", "--steps", "13", "--paths", "2000", "--seed", "4"], tmp_path
    )


# both default horizons used to be absolute times: t0 = 0.5 ran simulate
# over half a year, and t0 past 1 or 5 failed with no t_end set
@pytest.mark.parametrize("args, config", [
    (["simulate", "--steps", "4"], ""),
    (["converge", "--steps", "2.5,1"], "benchmark_steps = 50\n"),
])
def test_default_horizon_measured_from_t0(tmp_path, args, config):
    assert_t0_shift_keeps_cells(
        args + ["--preset", "set1", "--paths", "2000", "--seed", "4"], tmp_path, config
    )


def test_thread_count_does_not_change_csv(tmp_path):
    """In-process guard: limiting the BLAS pool must not change results.
    The subprocess variant with a genuinely different pool size lives in
    the acceptance suite."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        pytest.skip("threadpoolctl not installed")
    args = ["simulate", "--preset", "set2", "--paths", "500", "--steps", "6", "--seed", "8"]
    _, out_a = run_cli(args, tmp_path, "t1")
    with threadpool_limits(limits=1):
        _, out_b = run_cli(args, tmp_path, "t2")
    assert read_all(out_a) == read_all(out_b)


# importing scipy (its linalg and special subpackages) used to be most of
# every command's start-up time; small runs of three commands cover the
# code paths an import inside a function could hide behind
_SCIPY_FREE_RUNS = (
    ["simulate", "--paths", "200", "--steps", "3"],
    ["vix", "--paths", "200", "--steps", "13"],
    ["converge", "--paths", "200", "--steps", "2.5"],
)


def test_import_graph_leaves_out_unused_scipy(child_env, tmp_path):
    pkg = Path(liftedheston.__file__).resolve().parent
    code = (
        "import sys\n"
        "import liftedheston.cli\n"
        "import liftedheston\n"
        "def scipy_loaded():\n"
        "    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "    return 'scipy:' + ','.join(loaded)\n"
        "print(liftedheston.__file__)\n"
        "print(scipy_loaded())\n"
        f"for i, args in enumerate({_SCIPY_FREE_RUNS!r}):\n"
        f"    assert liftedheston.cli.main(args + ['--out', {str(tmp_path)!r} + f'/{{i}}']) == 0\n"
        "    print(scipy_loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    module_file, *lines = proc.stdout.splitlines()
    assert Path(module_file).resolve().parent == pkg
    loaded = [line for line in lines if line.startswith("scipy:")]
    assert loaded == ["scipy:"] * (1 + len(_SCIPY_FREE_RUNS)), f"the CLI loads {loaded}"


def test_package_imports_only_at_module_level():
    """An import inside a function would move its cost into the first
    simulation call rather than remove it."""
    pkg = Path(liftedheston.__file__).resolve().parent
    nested = []
    for path in sorted(pkg.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested


def test_package_exports_are_the_layer_exports():
    """The benchmark's trace wraps exactly the functions in the layer
    modules' ``__all__``, so a stale export would change what it sees."""
    layers = ("clp", "euler", "numerics", "params", "pricing", "sampling", "state")
    names = set()
    for layer in layers:
        mod = getattr(liftedheston, layer)
        assert all(hasattr(mod, name) for name in mod.__all__), layer
        names.update(mod.__all__)
    assert sorted(liftedheston.__all__) == sorted(names)
    assert all(hasattr(liftedheston, name) for name in liftedheston.__all__)


# the modules whose public functions the benchmark's trace wraps
_TRACED_MODULES = ("cli", "clp", "numerics", "params", "sampling", "euler", "pricing", "state")


def test_traced_calls_all_run_on_the_calling_thread(tmp_path, monkeypatch):
    """The benchmark's trace wraps every public function of the package
    modules and the stream's draws, the way ``bench/child.py`` does, and
    keeps its spans on one stack, which holds only while every such call
    runs on the thread that runs the command.  Three commands with two
    threads sharing several blocks per step: the blocks call none of
    them, and the draws of the step ahead stay on the calling thread."""
    calls = []

    def wrap(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls.append((fn.__qualname__, threading.get_ident()))
            return fn(*args, **kwargs)

        return traced

    wrapped = {}
    for name in _TRACED_MODULES:
        mod = importlib.import_module(f"liftedheston.{name}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrapped[id(fn)] = wrap(fn)
    for name, mod in list(sys.modules.items()):
        if name == "liftedheston" or name.startswith("liftedheston."):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    monkeypatch.setattr(mod, attr, wrapped[id(value)])
    for kind in ("normal", "uniform"):
        monkeypatch.setattr(RngStream, kind, wrap(getattr(RngStream, kind)))

    n = 20011
    monkeypatch.setattr(state_module, "_WORKERS", 2)
    monkeypatch.setattr(state_module, "_pool", None)
    assert len(state_module._path_blocks(n, 2)) >= 4
    (tmp_path / "conv.cfg").write_text(f"preset = set3\nsteps = 2.5,1.0\npaths = {n}\n"
                                       "benchmark_steps = 40\n")
    runs = (["simulate", "--preset", "set1", "--paths", str(n), "--steps", "5"],
            ["converge", "--config", str(tmp_path / "conv.cfg")],
            ["vix", "--preset", "set3", "--paths", str(n), "--steps", "13"])
    try:
        for args in runs:
            assert run_cli(args, tmp_path, args[0])[0] == 0
        assert state_module._pool is not None  # the blocks ran on two threads
    finally:
        if state_module._pool is not None:
            state_module._pool.shutdown()
    names = {name for name, _ in calls}
    assert {"clp_step", "euler_step", "RngStream.normal", "RngStream.uniform"} <= names
    assert {thread for _, thread in calls} == {threading.get_ident()}
