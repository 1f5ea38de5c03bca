"""Shared fixtures: reference parameter sets and cached Euler benchmarks.

The two 1000-step benchmarks are expensive (about 200k paths each), so
they are computed once per session and shared by every test that needs
a fine-grid reference distribution.  ``moments_of_x`` is the exact
second-moment reference that the parameter and scheme tests share.
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
from liftedheston.params import g0

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


def moments_of_x(params, curve, t_end, t_start=None, u_start=None):
    """E[X], E[X^2], E[U] and E[U U^T] at t_end, from the factor row
    ``u_start`` at ``t_start`` (by default U = 0 at t0).

    X is the integrated variance over [t_start, t_end].  The model is a
    polynomial process, so the first and second moments of (U, X) solve
    a closed linear system; with V = g0 + omega . U,

        d E[U_i]/dt     = -x_i E[U_i] - lam E[V]
        d E[U_i U_j]/dt = -(x_i + x_j) E[U_i U_j]
                          - lam (E[U_i V] + E[U_j V]) + nu^2 E[V]
        d E[U_i X]/dt   = E[U_i V] - x_i E[U_i X] - lam E[X V]
        d E[X^2]/dt     = 2 E[X V]

    from E[U] = U, E[U U^T] = U U^T and zero X terms.  No path, random
    number or time step enters.
    """
    from scipy.integrate import solve_ivp  # a test extra, needed only here

    n, omega, x = params.n_states, params.omega, params.x
    lam, nu = params.lam, params.nu

    def rhs(t, y):
        m, mean_x = y[:n], y[n]
        uu = y[n + 1 : n + 1 + n * n].reshape(n, n)
        ux = y[n + 1 + n * n : -1]
        g = float(g0(t, params, curve))
        ev = g + omega @ m
        euv = g * m + uu @ omega
        exv = g * mean_x + omega @ ux
        d_uu = -(x[:, None] + x[None, :]) * uu - lam * (euv[:, None] + euv[None, :]) + nu**2 * ev
        return np.concatenate(
            (-x * m - lam * ev, [ev], d_uu.ravel(), euv - x * ux - lam * exv, [2.0 * exv])
        )

    t_start = params.t0 if t_start is None else t_start
    u_start = np.zeros(n) if u_start is None else np.asarray(u_start, dtype=float)
    y0 = np.zeros(n * n + 2 * n + 2)
    y0[:n] = u_start
    y0[n + 1 : n + 1 + n * n] = np.outer(u_start, u_start).ravel()
    sol = solve_ivp(rhs, (t_start, t_end), y0, method="DOP853", rtol=1e-12, atol=1e-18)
    assert sol.success
    y = sol.y[:, -1]
    return y[n], y[-1], y[:n], y[n + 1 : n + 1 + n * n].reshape(n, n)


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
