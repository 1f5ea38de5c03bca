"""Euler-Maruyama baseline for the lifted Heston model.

Discretizes the factor SDE directly,

    U^n <- U^n + (-x_n U^n - lam V+) dt + nu sqrt(V+) dW2,
    V   <- omega . U + g0(t + dt),
    log S <- log S + (r - V+/2) dt + sqrt(V+) dW1,

where V+ is the configured negative-variance fix applied to the cached
variance.  Integrated variance is accumulated by the trapezoid rule on
the fixed values, and the driver integral Z by sqrt(V+) dW2, for use as
a convergence benchmark against the projection scheme.

``euler_step`` draws z_perp and then z2 for all paths and leaves all
per-path arithmetic to its blocks, as the projection step does.  It
updates the factors in the same explicit scheme regrouped as

    U <- U * (1 - x dt) + (nu dW2 - lam V+ dt),

with the decay and sqrt(1 - rho^2) computed once per step.  The paths
advance in blocks through ``state._run_blocks``, on one thread per
usable CPU; under ``simulate_euler`` the calling thread draws the next
step's normals while they run.  A block forms its paths' price normals
rho z2 + sqrt(1 - rho^2) z_perp, fixed variance, increments and shock,
multiplies its factor rows into the new state, adds the shock, takes the
product with omega, adds g0, applies the ABSORPTION rescale, writes its
rows of the log price and the running integrals, and returns its
smallest variance.  The new factor array is
column-major, so that the two passes run along contiguous columns of
the block instead of broadcasting along rows N values long; the input
may have either layout.  Per element these are the operations of the
whole-batch expression that ``tests/test_kernels.py`` uses as the
oracle, with its product taken on a column-major copy, so the bits do
not depend on the blocking or on the number of CPUs.

``simulate_euler`` runs the step over a grid through the driver in
``state.py`` that the projection scheme shares.
"""

from __future__ import annotations

import enum

import numpy as np

from .params import InitialCurve, ModelParams, g0
from .sampling import RngStream
from .state import PathState, SimDiagnostics, SimOutput, _run_blocks, _simulate

__all__ = ["VarianceFix", "euler_step", "simulate_euler"]


class VarianceFix(enum.Enum):
    """Negative-variance handling.

    FULL_TRUNCATION uses max(V, 0) in drift and diffusion but keeps the
    signed state.  REFLECTION uses |V|.  ABSORPTION rescales the factor
    vector after the update so a negative variance becomes exactly zero.
    """

    FULL_TRUNCATION = "full-truncation"
    REFLECTION = "reflection"
    ABSORPTION = "absorption"


def _fixed(v: np.ndarray, fix: VarianceFix) -> np.ndarray:
    if fix is VarianceFix.REFLECTION:
        return np.abs(v)
    return np.maximum(v, 0.0)


def euler_step(
    state: PathState,
    t_next: float,
    params: ModelParams,
    curve: InitialCurve,
    stream: RngStream,
    diagnostics: SimDiagnostics | None = None,
    fix: VarianceFix = VarianceFix.FULL_TRUNCATION,
) -> PathState:
    """Advance all paths to ``t_next``; two normals per path, correlated in the blocks."""
    dt = t_next - state.t
    if dt <= 0:
        raise ValueError("t_next must exceed the state time")
    diagnostics = SimDiagnostics() if diagnostics is None else diagnostics
    n = state.n_paths
    z_perp = stream.normal(n)
    z2 = stream.normal(n)
    rho = params.rho
    rho_perp = np.sqrt(1.0 - rho * rho)
    decay = 1.0 - params.x * dt
    g0_next = float(g0(t_next, params, curve))
    # column-major, so that the decay and the shock run along contiguous columns
    u_new = np.empty(state.u.shape, order="F")
    v_new = np.empty(n)
    x_new = np.empty(n)
    # a block reads its rows of the normals before it writes these rows, as in clp_step
    log_s_new, z_new = z_perp, z2

    def block(lo, hi):
        v_fix = _fixed(state.v[lo:hi], fix)
        sq_dw = np.sqrt(v_fix * dt)
        dw1 = sq_dw * (rho * z2[lo:hi] + rho_perp * z_perp[lo:hi])
        dw2 = sq_dw * z2[lo:hi]
        # u + (-x u - lam v+) dt + nu dW2 = u (1 - x dt) + (nu dW2 - lam v+ dt)
        shock = params.nu * dw2 - params.lam * v_fix * dt
        u_blk = np.multiply(state.u[lo:hi], decay, out=u_new[lo:hi])
        u_blk += shock[:, None]
        v_blk = np.matmul(u_blk, params.omega, out=v_new[lo:hi])
        v_blk += g0_next
        if fix is VarianceFix.ABSORPTION:
            # shrink u until omega.u = -g0; omega.u < -g0 <= 0 here, so the factor is in (0, 1)
            below = v_blk < 0.0
            scale = -g0_next / (v_blk[below] - g0_next)
            u_blk[below] *= scale[:, None]
            v_blk[below] = 0.0
        log_s_new[lo:hi] = state.log_s[lo:hi] + (params.rate - 0.5 * v_fix) * dt + dw1
        x_new[lo:hi] = state.x_cum[lo:hi] + 0.5 * dt * (v_fix + _fixed(v_blk, fix))
        np.add(state.z_cum[lo:hi], dw2, out=z_new[lo:hi])
        return float(np.min(v_blk))

    lowest = _run_blocks(n, block, stream)
    diagnostics.total_draws += n
    diagnostics.min_variance = min(diagnostics.min_variance, float(np.min(lowest)))
    return PathState(t=t_next, log_s=log_s_new, u=u_new, v=v_new, x_cum=x_new, z_cum=z_new)


def simulate_euler(
    params: ModelParams,
    curve: InitialCurve,
    grid,
    n_paths: int,
    seed: int | RngStream,
    fix: VarianceFix = VarianceFix.FULL_TRUNCATION,
    snapshot_times=(),
    initial: PathState | None = None,
) -> SimOutput:
    """Simulate all paths over the grid with the Euler baseline.

    Interface mirrors :func:`liftedheston.clp.simulate_clp`, plus the
    negative-variance ``fix``; the diagnostics report how many paths ever
    saw a negative variance.
    """

    def step(state, t, t_next, stream, diagnostics):
        return euler_step(state, t_next, params, curve, stream, diagnostics, fix)

    return _simulate(step, params, grid, n_paths, seed, snapshot_times, initial)
