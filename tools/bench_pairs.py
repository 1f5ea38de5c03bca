"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload vix-deep --pairs 5 --seconds 40

Runs ``bench/run.py --workload W --seed 7 --trace 0 --seconds S`` once in
each checkout per pair, the parent first in even pairs and the change
first in odd ones, so that a drift of the host's load falls on both
sides alike.  Prints each run's end-to-end metrics as it ends, then, for
each metric of the change's ``BENCHMARK.json``, the median of each side,
the number of pairs the change won and the interquartile range of the
parent's runs.  Exits 1 if any run exited nonzero or reported a failed
command.

Peak RSS moves with the directory a checkout sits in, even for identical
sources (for example 50.39-50.48 MB from one directory and 51.13-51.14 MB
from another whose absolute path was one character shorter), so the
script warns when the two absolute paths differ in length.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED = 7


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    """The last JSON line of one ``bench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
            "--trace", "0", "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "failed": None, "metrics": {}}
    result["exit_code"] = proc.returncode
    if proc.returncode != 0 or result["failed"] != 0:
        sys.stderr.write(proc.stderr)
    return result


def quartile_range(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(sides["parent"])) != len(str(sides["change"])):
        print(f"warning: the checkout paths differ in length ({sides['parent']}, "
              f"{sides['change']}), which moves peak_rss_mb", file=sys.stderr)
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {"parent": [], "change": []}
    ok = True
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.seconds)
            runs[side].append(result)
            ok &= result["exit_code"] == 0 and result["failed"] == 0
            values = "  ".join(f"{m['name']} {result['metrics'].get(m['name'], {}).get('value')}"
                               for m in spec)
            print(f"pair {pair} {side:6s} failed {result['failed']}  {values}", flush=True)

    print(f"{'metric':22s} {'parent':>12s} {'change':>12s} {'wins':>6s} {'parent IQR':>12s}")
    for m in spec:
        name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
        got = {side: [r["metrics"].get(name, {}).get("value", float("nan")) for r in rows]
               for side, rows in runs.items()}
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(got["parent"], got["change"]))
        print(f"{name:22s} {statistics.median(got['parent']):12.4g} "
              f"{statistics.median(got['change']):12.4g} {wins:3d}/{args.pairs:<2d} "
              f"{quartile_range(got['parent']):12.4g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
