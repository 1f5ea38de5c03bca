"""Print the sha256 of every CSV the CLI byte-check runs write.

    python3 tools/csv_digests.py > digests.txt

Runs the small CLI commands and config files recorded in
``BENCH_cold_start.json`` under ``csv_sha256.small_cli_runs``, and the
multi-block and config-file runs below, from the package in this checkout's ``src/``,
with one BLAS thread, in a temporary directory.  Prints one
``<run>/<file> <sha256>`` line per CSV, sorted, each followed by one
``<run>/<file>:<column> <sha256>`` line per column in file order, so two
checkouts compare with ``diff`` and the diff names the columns whose
bytes moved.  A column's digest covers its header and cells, one per
line.  Exits 1 if a command fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# Path counts that cut the step kernels into several blocks with uneven
# tails, so the bytes cover the block layout and the threads that share
# the blocks; the small runs above fit in one or two blocks.
MULTI_BLOCK_RUNS = {
    "multi_clp_set1": "simulate --preset set1 --paths 50021 --steps 5",
    "multi_euler_set3": "simulate --preset set3 --scheme euler --paths 20011 --steps 3",
    "multi_vix_set3": "vix --preset set3 --paths 20011 --steps 13",
    # dt = 5 and 2.15 C-LP steps over several blocks
    "multi_converge_set3": "converge --preset set3 --paths 20011",
}

# C-LP runs from config files.  The rare-row run's blocks meet the rows
# the step patches by index: at seed 3 its two steps of 5 have thousands
# of degenerate draws, hundreds of clamped variances, and rows with
# rho beta_c > 1 at the first step.  The Heston run takes the linear
# initial curve, which only a config file selects.
CONFIG_FILES = {
    "rare.cfg": "preset = set3\nnu = 2\nrho = 1\nt_end = 10\n",
    "heston.cfg": "preset = set1\ncurve = heston\n",
}
CONFIG_RUNS = {
    "rare_clp_set3": "simulate --config rare.cfg --steps 2 --paths 20011 --seed 3",
    "heston_clp_set1": "simulate --config heston.cfg --steps 5 --paths 2001",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(work: Path) -> list:
    """Whole-file and per-column digest lines of every ``*/*.csv`` under ``work``."""
    lines = []
    for path in sorted(work.glob("*/*.csv")):
        name = path.relative_to(work).as_posix()
        data = path.read_bytes()
        lines.append(f"{name} {_sha256(data)}")
        for column in zip(*csv.reader(data.decode().splitlines())):
            digest = _sha256("\n".join(column).encode())
            lines.append(f"{name}:{column[0]} {digest}")
    return lines


def main() -> int:
    runs = json.loads((ROOT / "BENCH_cold_start.json").read_text())["csv_sha256"]["small_cli_runs"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **_ONE_THREAD)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in {**runs["config_files"], **CONFIG_FILES}.items():
            (work / name).write_text(text)
        for name, command in {**runs["commands"], **MULTI_BLOCK_RUNS, **CONFIG_RUNS}.items():
            argv = [sys.executable, "-m", "liftedheston.cli", *shlex.split(command), "--out", name]
            proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
        print(*digest_lines(work), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
