"""Shared fixtures: reference parameter sets and cached Euler benchmarks.

The two 1000-step benchmarks are expensive (about 200k paths each), so
they are computed once per session and shared by every test that needs
a fine-grid reference distribution.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import liftedheston
from liftedheston import (
    InitialCurve,
    ModelParams,
    RngStream,
    mean_se,
    simulate_euler,
    variance_se,
)

BENCH_PATHS = 200_000
BENCH_STEPS = 1000
BENCH_T = 5.0


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child interpreter that imports the package under
    test, with or without PYTHONPATH set for the suite itself."""
    src = str(Path(liftedheston.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture(scope="session")
def curve():
    return InitialCurve.LIFTED_DEFAULT


@pytest.fixture(scope="session")
def set1():
    return ModelParams.from_hurst(5, 0.3, lam=0.25, nu=0.1, v0=0.02, theta=0.5, rho=0.7)


@pytest.fixture(scope="session")
def set2():
    return ModelParams.from_hurst(10, 0.1, lam=0.1, nu=0.2, v0=0.1, theta=0.7, rho=-0.7)


@pytest.fixture(scope="session")
def set3():
    return ModelParams.from_hurst(20, 0.3, lam=0.0, nu=0.31, v0=0.1, theta=0.02, rho=0.7)


@pytest.fixture(scope="session")
def extreme_set():
    # high vol-of-vol against a tiny variance level: the stress case for
    # nonnegativity of the variance update
    return ModelParams.from_hurst(5, 0.3, lam=0.25, nu=0.3, v0=0.02, theta=0.02, rho=0.7)


def _benchmark(params, curve, seed):
    grid = np.linspace(0.0, BENCH_T, BENCH_STEPS + 1)
    out = simulate_euler(params, curve, grid, BENCH_PATHS, RngStream(seed, stream_id=1))
    x = out.x
    bench = {"x": x}
    bench["mean_x"], bench["se_mean_x"] = mean_se(x)
    bench["var_x"], bench["se_var_x"] = variance_se(x)
    return bench


@pytest.fixture(scope="session")
def bench_set1(set1, curve):
    return _benchmark(set1, curve, 98)


@pytest.fixture(scope="session")
def bench_set3(set3, curve):
    return _benchmark(set3, curve, 99)
