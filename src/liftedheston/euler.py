"""Euler-Maruyama baseline for the lifted Heston model.

Discretizes the factor SDE directly,

    U^n <- U^n + (-x_n U^n - lam V+) dt + nu sqrt(V+) dW2,
    V   <- omega . U + g0(t + dt),
    log S <- log S + (r - V+/2) dt + sqrt(V+) dW1,

where V+ is the configured negative-variance fix applied to the cached
variance.  Integrated variance is accumulated by the trapezoid rule on
the fixed values, and the driver integral Z by sqrt(V+) dW2, for use as
a convergence benchmark against the projection scheme.

``euler_step`` draws z_perp and then z2 for all paths, as
``correlated_pair`` does.  It then updates the factors in the same
explicit scheme regrouped as

    U <- U * (1 - x dt) + (nu dW2 - lam V+ dt),

with the decay computed once per step (N values, tiled to the longest
block's rows) and the shock once per path, so each block of
``state._BLOCK`` rows takes two passes, a multiply into the new state
and one broadcast add, before its product with omega.  Per element
these are the operations of the whole-batch expression that
``tests/test_kernels.py`` uses as the oracle, so the bits do not
depend on the blocking.  The blocks run on the calling
thread: the body is too light for threads to pay off.

``simulate_euler`` runs the step over a grid through the driver in
``state.py`` that the projection scheme shares.
"""

from __future__ import annotations

import enum

import numpy as np

from .params import InitialCurve, ModelParams, g0
from .sampling import RngStream, correlated_pair
from .state import PathState, SimDiagnostics, SimOutput, _path_blocks, _simulate

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
    """Advance all paths to ``t_next``; two correlated normals per path."""
    dt = t_next - state.t
    if dt <= 0:
        raise ValueError("t_next must exceed the state time")
    n = state.n_paths
    v_fix = _fixed(state.v, fix)
    z1, z2 = correlated_pair(stream, params.rho, size=n)
    sq_dw = np.sqrt(v_fix * dt)
    dw1 = sq_dw * z1
    dw2 = sq_dw * z2
    # u + (-x u - lam v+) dt + nu dW2 = u (1 - x dt) + (nu dW2 - lam v+ dt)
    shock = params.nu * dw2 - params.lam * v_fix * dt
    u_new = np.empty_like(state.u)
    v_new = np.empty(n)
    blocks = _path_blocks(n)
    # the decay tiled to the longest block: a contiguous operand multiplies
    # faster than a row broadcast along only N elements, with the same bits
    decay = np.tile(1.0 - params.x * dt, (max(hi - lo for lo, hi in blocks), 1))
    for lo, hi in blocks:
        u_blk = np.multiply(state.u[lo:hi], decay[: hi - lo], out=u_new[lo:hi])
        u_blk += shock[lo:hi, None]
        np.matmul(u_blk, params.omega, out=v_new[lo:hi])
    g0_next = float(g0(t_next, params, curve))
    v_new += g0_next
    if fix is VarianceFix.ABSORPTION:
        below = v_new < 0.0
        if np.any(below):
            # scale the factor vector toward zero until omega.u = -g0;
            # omega.u < -g0 <= 0 on these paths so the factor is in (0, 1)
            scale = -g0_next / (v_new[below] - g0_next)
            u_new[below] *= scale[:, None]
            v_new[below] = 0.0
    log_s_new = state.log_s + (params.rate - 0.5 * v_fix) * dt + dw1
    x_new = state.x_cum + 0.5 * dt * (v_fix + _fixed(v_new, fix))
    z_new = state.z_cum + dw2
    if diagnostics is not None:
        diagnostics.total_draws += n
        diagnostics.min_variance = min(diagnostics.min_variance, float(np.min(v_new)))
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

    return _simulate(step, "euler", params, grid, n_paths, seed, snapshot_times, initial)
