"""Benchmark of the ``lifted-heston`` CLI: end-to-end cost and a per-layer split.

    python3 bench/run.py --workload simulate-wide --seed 1 --seconds 40 --trace 0

Run from the repository root (the package is imported from ``src/``).
Each workload is one fixed CLI command, run as a closed loop: a fresh
``python3`` process per command, the next one started when the previous
exits, until the next would end after ``--seconds``.  Every child gets
one BLAS/OpenMP thread.  Each command's outputs are checked (see the
``check_*`` functions) and its CSV digests must equal those of the
run's first command.

``--trace 0`` reports the medians over commands of the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced commands and
reports the per-layer metrics of the traced ones (medians; counts must
repeat exactly and match the workload's expected counts), the tracing
overhead, and writes the per-step C-LP table to
``.bench_out/<workload>/clp_steps.csv``.  The last line of standard
output is the JSON result; the full record, environment included, goes
to ``.bench_out/<workload>/result-seed<seed>-trace<t>.json``.
``--smoke`` shrinks the path counts so a run takes seconds.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".bench_out"

# One BLAS/OpenMP thread, and a fixed hash seed so dict and set layouts
# do not vary between processes.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
DEFAULT_SEED = 20251008
CHILD_TIMEOUT_S = 150.0

# Step counts the default CLI settings give: vix runs one C-LP simulation
# per count, converge one per step size over T = 5 after its Euler benchmark.
_VIX_COUNTS = (13, 26, 39, 78)
_CONVERGE_CLP_STEPS = 1 + 3 + 5 + 10  # dt 5, 2.15, 1, 0.5
_CONVERGE_EULER_STEPS = 1000


# -- output checks -------------------------------------------------------------
# Each takes a command's output directory and returns the problems found.


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _within(diff: float, se: float) -> bool:
    return math.isfinite(diff) and abs(diff) <= 4.0 * se


@functools.cache
def _expected_x_set1() -> float:
    from liftedheston.cli import build_config
    from liftedheston.params import expected_integrated_variance

    cfg = build_config({"preset": "set1"})
    return expected_integrated_variance(1.0, cfg.build_params(), cfg.build_curve())


def check_simulate(out_dir: Path) -> list[str]:
    problems = []
    (row,) = _rows(out_dir / "summary.csv")
    mean_x, se, expected = float(row["mean_x"]), float(row["se_mean_x"]), _expected_x_set1()
    if not _within(mean_x - expected, se):
        problems.append(f"mean_x {mean_x!r} vs E[X] {expected!r}: more than 4 SE ({se!r})")
    if not float(row["min_variance"]) >= 0.0:
        problems.append(f"min_variance {row['min_variance']} < 0")
    return problems


def check_vix(out_dir: Path) -> list[str]:
    problems = []
    rows = _rows(out_dir / "vix_summary.csv")
    if [int(r["n_steps"]) for r in rows] != list(_VIX_COUNTS):
        problems.append(f"vix_summary.csv does not list the step counts {_VIX_COUNTS}")
    for r in rows:
        diff = float(r["mean_vix2_scaled"]) - float(r["continuation_mean"])
        se = math.hypot(float(r["mean_vix2_scaled_se"]), float(r["continuation_se"]))
        if not _within(diff, se):
            problems.append(f"tower identity at {r['n_steps']} steps: gap {diff!r} > 4 SE {se!r}")
    for n in _VIX_COUNTS:
        smile = _rows(out_dir / f"vix_smile_clp_{n}.csv")
        nan = [r["moneyness"] for r in smile if math.isnan(float(r["implied_vol"]))]
        if nan:
            problems.append(f"NaN implied vol at {n} steps, moneyness {', '.join(nan)}")
    return problems


def check_converge(out_dir: Path) -> list[str]:
    problems = []
    rows = [r for r in _rows(out_dir / "convergence.csv") if r["scheme"] == "clp"]
    if len(rows) != 4:
        problems.append(f"convergence.csv has {len(rows)} C-LP rows, expected 4")
    for r in rows:
        if not _within(float(r["abs_mean_err"]), float(r["abs_mean_err_se"])):
            problems.append(
                f"dt={r['dt']}: abs_mean_err {r['abs_mean_err']} > 4 SE {r['abs_mean_err_se']}"
            )
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple
    paths: int
    smoke_paths: int
    clp_steps: int
    euler_steps: int
    files: tuple
    check: Callable[[Path], list]

    def argv(self, paths: int, seed: int, out_dir: Path) -> list:
        return [*self.command, "--paths", str(paths), "--seed", str(seed), "--out", str(out_dir)]

    def expected_counts(self, paths: int) -> dict:
        return {
            "sampling.draws": paths * (3 * self.clp_steps + 2 * self.euler_steps),
            "numerics.precompute_calls": self.clp_steps,
            "clp.path_steps": paths * self.clp_steps,
            "euler.path_steps": paths * self.euler_steps,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-wide",
            ("simulate", "--preset", "set1", "--steps", "20"),
            paths=200_000,
            smoke_paths=2_000,
            clp_steps=20,
            euler_steps=0,
            files=("samples.csv", "summary.csv"),
            check=check_simulate,
        ),
        Workload(
            "vix-deep",
            ("vix", "--preset", "set3"),
            paths=50_000,
            smoke_paths=1_000,
            clp_steps=sum(_VIX_COUNTS),
            euler_steps=0,
            files=("vix_summary.csv",) + tuple(f"vix_smile_clp_{n}.csv" for n in _VIX_COUNTS),
            check=check_vix,
        ),
        Workload(
            "converge-largestep",
            ("converge", "--preset", "set3"),
            paths=20_000,
            smoke_paths=500,
            clp_steps=_CONVERGE_CLP_STEPS,
            euler_steps=_CONVERGE_EULER_STEPS,
            files=("benchmark.csv", "convergence.csv", "convergence_plot.csv"),
            check=check_converge,
        ),
    )
}


def csv_digests(workload: Workload, out_dir: Path) -> dict:
    found = sorted(p.name for p in out_dir.glob("*.csv"))
    if found != sorted(workload.files):
        raise FileNotFoundError(f"CSV files {found}, expected {sorted(workload.files)}")
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in found}


# -- per-layer metrics from the spans --------------------------------------------


def layer_metrics(trace: dict, wall_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced command, and the accounting problems found.

    A span's self time is its duration minus its child spans; a layer's
    self time sums that over the spans of its module.  Time in a set of
    functions sums the spans of the set whose parent is not in the set, so
    a call within the set (``chi_map`` calling ``phi1``) is not counted
    twice.  A function the package no longer has counts 0.
    """
    import numpy as np

    prefix, names = trace["prefix"], trace["names"]
    name_id = np.fromfile(f"{prefix}.span_name.bin", dtype=np.int32)
    parent = np.fromfile(f"{prefix}.span_parent.bin", dtype=np.int32)
    dur = np.fromfile(f"{prefix}.end.bin") - np.fromfile(f"{prefix}.start.bin")
    n = dur.size
    has_parent = parent >= 0
    self_s = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    module_of = np.array([name.split(".")[0] for name in names])[name_id]

    def spans(*fns):
        ids = [names.index(f) for f in fns if f in names]
        mask = np.isin(name_id, ids)
        nested = np.zeros(n, dtype=bool)
        nested[has_parent] = mask[parent[has_parent]]
        return mask & ~nested

    def time_in(*fns):
        return float(dur[spans(*fns)].sum())

    def calls(fn):
        return int(np.count_nonzero(name_id == names.index(fn))) if fn in names else 0

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    counts = trace["counts"]
    roots = np.flatnonzero(~has_parent)
    problems = []
    if roots.size != 1 or names[name_id[roots[0]]] != "cli.main":
        problems.append("spans do not form one tree rooted at cli.main")
    if n and float(self_s.min()) < -1e-6:
        problems.append(f"a span's children outlast it by {-float(self_s.min()):.3g} s")
    root_s = float(dur[roots].sum())
    unattributed = wall_s - root_s
    if unattributed < 0.0:
        problems.append(f"root span {root_s:.4f} s outlasts the process {wall_s:.4f} s")

    m = {}
    for mod in ("cli", "clp", "numerics", "params", "sampling", "euler", "pricing", "state"):
        m[f"{mod}.self_s"] = float(self_s[module_of == mod].sum())
    layered = sum(m.values())
    if abs(layered + unattributed - wall_s) > 1e-6 * max(1.0, wall_s):
        problems.append(
            f"layer self times {layered:.6f} s + unattributed {unattributed:.6f} s != wall"
        )
    m["trace.unattributed_s"] = unattributed
    m["trace.unattributed_share"] = per(unattributed, wall_s)

    csv_s = time_in("cli._write_csv")
    m["cli.csv_bytes"] = counts["cli.csv_bytes"]
    m["cli.csv_s"] = csv_s
    m["cli.csv_mb_per_s"] = per(counts["cli.csv_bytes"], csv_s, 1e-6)

    m["clp.step_s"] = time_in("clp.clp_step")
    m["clp.coeffs_s"] = time_in("clp.step_coefficients")
    m["clp.constrain_s"] = time_in("clp.constrain_beta")
    m["clp.path_steps"] = counts["clp.path_steps"]
    m["clp.ns_per_path_step"] = per(m["clp.step_s"], counts["clp.path_steps"], 1e9)
    # one draw per path and step; the per-step counts come from SimDiagnostics
    steps = trace["clp_steps"]
    constrained = sum(s["constrained_draws"] for s in steps)
    degenerate = sum(s["degenerate_mean_draws"] for s in steps)
    m["clp.constrained_fraction"] = per(constrained, counts["clp.path_steps"])
    m["clp.degenerate_fraction"] = per(degenerate, counts["clp.path_steps"])

    m["numerics.precompute_s"] = time_in("numerics.precompute_step")
    m["numerics.precompute_calls"] = calls("numerics.precompute_step")
    m["numerics.matrix_s"] = time_in(
        "numerics.phi1",
        "numerics.e_matrix_integral",
        "numerics.kernel_product_quad",
        "numerics.chi_map",
    )
    m["numerics.forcing_s"] = time_in("numerics.solve_xi", "numerics.solve_psi")

    m["params.g0_integral_calls"] = calls("params.g0_integral")
    m["params.g0_integral_s"] = time_in("params.g0_integral")

    m["sampling.draws"] = counts["sampling.draws"]
    m["sampling.draw_s"] = time_in("sampling.RngStream.normal", "sampling.RngStream.uniform")
    m["sampling.ig_transform_s"] = float(self_s[spans("sampling.sample_inverse_gaussian")].sum())
    m["sampling.correlated_pair_s"] = time_in("sampling.correlated_pair")

    m["euler.step_s"] = time_in("euler.euler_step")
    m["euler.path_steps"] = counts["euler.path_steps"]
    m["euler.ns_per_path_step"] = per(m["euler.step_s"], counts["euler.path_steps"], 1e9)

    m["pricing.vix_s"] = time_in("pricing.vix_from_state")
    m["pricing.quote_s"] = time_in("pricing.price_european")
    m["pricing.iv_s"] = time_in("pricing.implied_vol_black")
    m["pricing.iv_calls"] = calls("pricing.implied_vol_black")
    m["pricing.iv_nan"] = counts["pricing.iv_nan"]

    m["state.summary_s"] = time_in("state.SimOutput.summary")
    m["state.bootstrap_s"] = time_in("state.variance_se_bootstrap")
    m["trace.spans"] = n
    return m, problems


COUNT_METRICS = (
    "cli.csv_bytes",
    "clp.path_steps",
    "clp.constrained_fraction",
    "clp.degenerate_fraction",
    "numerics.precompute_calls",
    "params.g0_integral_calls",
    "sampling.draws",
    "euler.path_steps",
    "pricing.iv_calls",
    "pricing.iv_nan",
    "trace.spans",
)

def write_step_table(rows: list[dict], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def step_table_lines(rows: list[dict]) -> list[str]:
    """How often the slope constraint and the degenerate limit fired, per C-LP run and dt.

    Steps of equal length within a run are pooled into one line.
    """
    groups: dict = {}
    for r in rows:
        g = groups.setdefault((r["run"], round(r["dt"], 9)), [0, 0, 0, 0, math.inf, -math.inf])
        g[0] += 1
        g[1] += r["paths"]
        g[2] += r["constrained_draws"]
        g[3] += r["degenerate_mean_draws"]
        g[4] = min(g[4], r["min_variance"])
        g[5] = max(g[5], r["max_beta_over_beta_limit"])
    lines = ["run       dt  steps  constrained  degenerate  min_variance  max_beta/limit"]
    for (run, dt), (steps, draws, constrained, degenerate, min_v, max_ratio) in groups.items():
        lines.append(
            f"{run:3d} {dt:8.4f} {steps:6d} {constrained / draws:12.5f} {degenerate:11d}"
            f" {min_v:13.4g} {max_ratio:15.6g}"
        )
    return lines


# -- environment -------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((SRC / "liftedheston").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def environment(workload: Workload, seed: int, paths: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "child_env": CHILD_ENV,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "workload": workload.name,
        "seed": seed,
        "paths": paths,
    }


# -- the closed loop -----------------------------------------------------------------


@dataclass
class Command:
    mode: str
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    cpu_s: float
    record: dict | None = None
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    spawn_t: float = 0.0
    layers: dict | None = None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems

    def end_to_end(self) -> dict:
        rec = self.record
        return {
            "wall_s": self.wall_s,
            "setup_s": rec["first_scheme_call"] - self.spawn_t,
            "sim_path_steps_per_s": rec["path_steps"] / rec["scheme_s"],
            "peak_rss_mb": self.peak_rss_mb,
        }


def run_command(workload: Workload, mode: str, paths: int, seed: int, work: Path) -> Command:
    """One command in a fresh process, timed from spawn to exit."""
    out_dir = work / "csv"
    record_path = work / f"record-{mode}.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    record_path.unlink(missing_ok=True)
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(CHILD), str(record_path), mode]
    argv += workload.argv(paths, seed, out_dir)
    with open(work / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    cmd = Command(mode, wall, proc.returncode, usage.ru_maxrss / 1024.0, cpu, spawn_t=t0)
    if proc.returncode != 0:
        tail = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        cmd.problems.append(f"exit {proc.returncode}: {' | '.join(tail)}")
        return cmd
    try:
        cmd.record = json.loads(record_path.read_text())
    except (OSError, ValueError) as exc:
        cmd.problems.append(f"no record from the child: {exc}")
        return cmd
    if not Path(cmd.record["module_file"]).is_relative_to(SRC):
        cmd.problems.append(f"imported {cmd.record['module_file']}, not the package under {SRC}")
    if cmd.record["first_scheme_call"] is None or cmd.record["scheme_s"] <= 0.0:
        cmd.problems.append("the command made no scheme-driver call")
    if mode == "trace":
        # the next traced command overwrites the span files
        cmd.layers, problems = layer_metrics(cmd.record["trace"], wall)
        cmd.problems += problems
    try:
        cmd.digests = csv_digests(workload, out_dir)
    except FileNotFoundError as exc:
        cmd.problems.append(str(exc))
    return cmd


def measure(workload: Workload, seed: int, seconds: float, trace: bool, paths: int, work: Path):
    """Run commands until the next one would end after ``seconds``.

    Under ``trace`` untraced and traced commands alternate, at least one of each.
    """
    modes = ("plain", "trace") if trace else ("plain",)
    commands: list[Command] = []
    begin = time.monotonic()
    while True:
        mode = modes[len(commands) % len(modes)]
        cmd = run_command(workload, mode, paths, seed, work)
        if cmd.exit_code == 0 and cmd.digests:
            try:
                cmd.problems += workload.check(work / "csv")
            except (KeyError, ValueError) as exc:
                cmd.problems.append(f"malformed CSV output: {exc!r}")
            reference = next((c.digests for c in commands if c.digests), cmd.digests)
            if cmd.digests != reference:
                cmd.problems.append("CSV digests differ from the first command of this run")
        commands.append(cmd)
        status = "ok" if cmd.ok else "FAILED: " + "; ".join(cmd.problems)
        print(
            f"{mode:5s} wall {cmd.wall_s:8.3f} s  cpu {cmd.cpu_s:8.3f} s"
            f"  rss {cmd.peak_rss_mb:8.1f} MB  {status}",
            flush=True,
        )
        if len(commands) < len(modes):
            continue
        nxt = modes[len(commands) % len(modes)]
        expect = statistics.median(c.wall_s for c in commands if c.mode == nxt)
        if time.monotonic() - begin + expect > seconds:
            return commands


def median_metrics(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}


def traced_layers(
    workload: Workload, commands: list[Command], paths: int, plain_wall_s: float
) -> dict:
    """Median per-layer metrics over the traced commands; problems go on the commands."""
    layers = []
    traced = [c for c in commands if c.layers is not None]
    for c in traced:
        m = c.layers
        wrong = {k: (m[k], v) for k, v in workload.expected_counts(paths).items() if m[k] != v}
        if wrong:
            c.problems.append(f"counts (got, expected): {wrong}")
        m["trace.wall_s"] = c.wall_s
        m["trace.overhead_s"] = c.wall_s - plain_wall_s
        layers.append(m)
    for k in COUNT_METRICS:
        if len({m[k] for m in layers}) > 1:
            traced[-1].problems.append(f"count {k} differs between traced commands")
    return median_metrics(layers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny path counts, for testing the benchmark"
    )
    args = parser.parse_args(argv)

    if not (SRC / "liftedheston" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'liftedheston'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import liftedheston

    if not Path(liftedheston.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {liftedheston.__file__}, not the package in {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    paths = workload.smoke_paths if args.smoke else workload.paths
    work = OUT / workload.name
    work.mkdir(parents=True, exist_ok=True)
    env = environment(workload, args.seed, paths)
    print("environment " + json.dumps(env), flush=True)

    commands = measure(workload, args.seed, args.seconds, bool(args.trace), paths, work)
    plain = [c for c in commands if c.mode == "plain" and c.ok]
    values = median_metrics([c.end_to_end() for c in plain])
    result = {"environment": env, "end_to_end": values}
    if args.trace:
        values = traced_layers(workload, commands, paths, values.get("wall_s", 0.0))
        result["per_layer"] = values
        first = next((c for c in commands if c.layers is not None), None)
        if first is not None:
            steps = first.record["trace"]["clp_steps"]
            write_step_table(steps, work / "clp_steps.csv")
            print("\n".join(step_table_lines(steps)))
    result["commands"] = [
        {
            "mode": c.mode,
            "exit_code": c.exit_code,
            "wall_s": c.wall_s,
            "cpu_s": c.cpu_s,
            "peak_rss_mb": c.peak_rss_mb,
            "end_to_end": c.end_to_end() if c.ok else None,
            "problems": c.problems,
            "digests": c.digests,
        }
        for c in commands
    ]
    with open(work / f"result-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    failed = [c for c in commands if not c.ok]
    for c in failed:
        print(f"failed {c.mode} command: {'; '.join(c.problems)}", file=sys.stderr)
    # a metric no successful command measured reads 0 and the run is not correct
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec}
    correct = not failed and all(m["name"] in values for m in spec)
    summary = {"correct": correct, "attempted": len(commands), "failed": len(failed)}
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
