"""Integrated-variance-implicit scheme by constrained linear projection.

One step [t_i, t_{i+1}] works on the integrated variance X = int V du
and its driver integral Z = int sqrt(V) dW2 instead of V itself:

  1. from the factor state U_i compute the conditional mean
     alpha_i = E_i[X] and the linear-projection slope
     beta_i = E_i[X Z] / alpha_i of the surrogate X ~ alpha + beta Z;
  2. clip beta_i into the set for which the implied variance update
     stays nonnegative for every realization (a one-sided interval with
     an explicit closed-form boundary), giving beta^C;
  3. sample X_hat from the inverse Gaussian IG(alpha, (alpha/beta^C)^2)
     -- the first-passage law consistent with the surrogate -- and read
     the driver back out as Z_hat = (X_hat - alpha) / beta^C;
  4. split X_hat across factors along the conditional-covariance
     direction, update U, V, the log price and the running integrals.

The price update uses X_hat for its quadratic variation, so the
discounted price stays a martingale exactly (the inverse Gaussian
moment generating function cancels the drift correction in closed
form).  Variance nonnegativity is enforced pathwise by step 2 rather
than by truncation, which is what keeps large steps honest.

``clp_step`` draws first and blocks second.  It takes the step's numbers
for all paths in the fixed order -- the normals behind the inverse
Gaussian, then the uniforms, then the price normals -- so the stream
advances exactly as in one vectorized pass.  It then advances the paths
in blocks through ``state._run_blocks``, on one thread per usable CPU;
under ``simulate_clp`` the calling thread meanwhile draws the next
step's numbers, with the same calls.
Each thread reuses two (block, N) buffers for ``out=`` ufuncs and
``np.matmul(..., out=)``, and a block's slice of the new factor array
serves as a third.  A block projects and clips its slopes in one call to
``_coefficients``, the code behind ``step_coefficients``, writes every
output row of its paths, g0 and the roundoff clamp included, and returns
its diagnostics partials; only their fold and the roundoff check on the
global minimum follow the blocks.  Each element goes through the same
operations in the same order as in the whole-batch call, BLAS gives each
row the same bits in a block as in the whole batch, and the partials are
folded in block order, so the output is bitwise that of the unblocked
step on any number of CPUs.  The block body calls only numpy and this
package's private helpers, and sets the numpy error state it needs
itself.

``simulate_clp`` runs this step over a grid through the driver in
``state.py`` that the Euler baseline shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import StepPrecompute, precompute_step
from .params import InitialCurve, ModelParams
from .sampling import RngStream, _inverse_gaussian
from .state import PathState, SimDiagnostics, SimOutput, _run_blocks, _simulate

__all__ = [
    "ProjectionCoeffs",
    "step_coefficients",
    "clp_step",
    "simulate_clp",
]

_V_ROUNDOFF = 1e-12


@dataclass
class ProjectionCoeffs:
    """Per-path projection coefficients for one step.

    ``alpha`` is E_i[X], ``alpha_factors`` the per-factor means E_i[X^n],
    ``beta`` the raw projection slope E_i[X Z] / alpha, ``ratio`` the
    factor split E_i[X^n Z] / E_i[X Z].  ``beta_limit`` is the largest
    admissible slope (+inf when the slope constraint never binds),
    ``c`` the constant such that the variance constraint at X_hat = 0
    reads c - nu * alpha * omega_bar / beta >= 0, and ``beta_c`` the
    constrained slope actually used for sampling.
    """

    alpha: np.ndarray
    alpha_factors: np.ndarray
    beta: np.ndarray
    ratio: np.ndarray
    degenerate: np.ndarray
    beta_limit: np.ndarray
    c: np.ndarray
    beta_c: np.ndarray
    constrained: np.ndarray


def step_coefficients(
    state: PathState, pre: StepPrecompute, params: ModelParams
) -> ProjectionCoeffs:
    """Projection coefficients from the current state, slope clipped.

    alpha estimates the conditional mean of a positive integral; the
    affine surrogate that produces it has no support constraint, so over
    very large steps a path in the far tail can land at alpha <= 0 even
    though its variance is nonnegative.  Such paths are flagged as
    degenerate; the step for them collapses to the alpha -> 0+ limit
    (X_hat = 0, Z_hat = 0, handled in :func:`clp_step`).  A nonpositive
    E_i[X Z] is representable: beta then routes the path to the
    constrained branch and the factor split falls back to its small-step
    limit ratio_n = 1/omega_bar, which preserves the identity
    sum_n omega_n ratio_n = 1.

    The variance after the step is affine in the sampled X_hat >= 0, so
    nonnegativity holds iff the slope in X_hat is nonnegative --
    beta <= beta_limit = nu * omega_bar / sum_n omega_n (x_n ratio_n + lam)
    (no bound when that denominator is nonpositive) -- and the value at
    X_hat = 0 is nonnegative, c - nu alpha omega_bar / beta >= 0.  A raw
    beta that is nonpositive or infeasible is replaced by the boundary
    slope beta^C = nu alpha omega_bar / c, which satisfies both
    conditions with the X_hat = 0 value exactly zero.  Raises
    ``FloatingPointError`` naming the first live path whose c is
    nonpositive, for which no admissible slope exists.
    """
    u = state.u
    return _coefficients(u, pre, params, np.empty(u.shape), np.empty(u.shape), np.empty(u.shape))


def _coefficients(u, pre, params, alpha_factors, ratio, work, first_path=0) -> ProjectionCoeffs:
    """:func:`step_coefficients` for factor rows ``u``.

    The per-factor means and the factor split are written into the
    (rows, N) buffers ``alpha_factors`` and ``ratio``, which the result
    holds; ``work`` is a third (rows, N) buffer.  The rows are paths
    ``first_path``, ``first_path + 1``, ... of the batch, which is how
    the error names a path.
    """
    omega, x = params.omega, params.x
    omega_bar = params.omega_bar
    nu = params.nu
    np.matmul(u, pre.phi1.T, out=alpha_factors)
    alpha_factors += pre.xi
    alpha = alpha_factors @ omega + pre.g0_int
    degenerate = alpha <= 0.0
    # degenerate paths never sample, so give them a harmless positive mean
    alpha_pos = np.where(degenerate, 1.0, alpha)
    kappa = np.matmul(u, pre.chi.T, out=ratio)
    kappa += pre.psi
    xz_mean = kappa @ omega
    beta = xz_mean / alpha_pos
    ok = xz_mean > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(kappa, xz_mean[:, None], out=ratio)
    ratio[~ok] = 1.0 / omega_bar
    wx = omega * x
    denom = ratio @ wx + params.lam * omega_bar
    with np.errstate(divide="ignore"):
        beta_limit = np.where(denom > 0.0, nu * omega_bar / np.where(denom > 0.0, denom, 1.0), np.inf)
    xhat_at_zero = np.multiply(ratio, alpha[:, None], out=work)
    np.subtract(alpha_factors, xhat_at_zero, out=xhat_at_zero)
    c = u @ omega - xhat_at_zero @ wx + pre.g0_next
    bad_c = (c <= 0.0) & ~degenerate
    if np.any(bad_c):
        bad = int(np.argmax(bad_c))
        raise FloatingPointError(
            f"constraint constant nonpositive (path {first_path + bad}, c={c[bad]:.3e}); "
            f"no admissible slope exists"
        )
    # degenerate paths never sample, and their c may be 0, so divide by a harmless 1 instead
    boundary = nu * alpha_pos * omega_bar / np.where(degenerate, 1.0, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        value_at_zero = c - nu * alpha_pos * omega_bar / beta
    feasible = (beta > 0.0) & (beta <= beta_limit) & (value_at_zero >= 0.0) & ~degenerate
    return ProjectionCoeffs(
        alpha=alpha,
        alpha_factors=alpha_factors,
        beta=beta,
        ratio=ratio,
        degenerate=degenerate,
        beta_limit=beta_limit,
        c=c,
        beta_c=np.where(feasible, beta, boundary),
        constrained=~feasible & ~degenerate,
    )


def clp_step(
    state: PathState,
    pre: StepPrecompute,
    params: ModelParams,
    stream: RngStream,
    diagnostics: SimDiagnostics | None = None,
) -> PathState:
    """Advance all paths by one step.

    Per step each path consumes three draws in fixed order: the normal
    and uniform behind the inverse Gaussian, then the price normal.
    Degenerate paths (conditional mean at or below zero) burn the same
    draws but take the deterministic limit step: X_hat = 0 with the
    X_hat = 0 factor split (the affine identity stays exact), a pure
    discounting price increment (the discounted price stays a martingale
    exactly), and the smallest driver value that keeps the variance
    nonnegative, Z_hat = max(-c, 0) / (nu omega_bar), which is 0
    whenever the constraint constant c is positive.

    The draws of all paths are taken first; the paths are then advanced
    block by block, on as many threads as there are usable CPUs, while
    the stream of a ``simulate_clp`` run draws the next step's numbers
    (see the module docstring).  ``state`` is not modified.
    """
    diagnostics = SimDiagnostics() if diagnostics is None else diagnostics
    n = state.n_paths
    normal = stream.normal(n)
    pick = stream.uniform(n)
    z_price = stream.normal(n)
    u_new = np.empty_like(state.u)
    v_new = np.empty(n)
    # a block reads its rows of the draws before it writes these rows, so
    # the outputs take over the draws' storage, and a step holds no more
    # memory while the next step's numbers are drawn
    log_s_new, x_cum, z_cum = z_price, normal, pick
    rho = params.rho

    def block(lo, hi, alpha_factors, ratio):
        u = state.u[lo:hi]
        u_blk = u_new[lo:hi]
        # u_blk is free until the update below, so it holds the coefficients' work rows
        coeffs = _coefficients(u, pre, params, alpha_factors, ratio, u_blk, lo)
        alpha, beta_c, degen = coeffs.alpha, coeffs.beta_c, coeffs.degenerate
        alpha_pos = np.where(degen, 1.0, alpha)
        gamma = np.square(alpha_pos / beta_c)
        x_hat = _inverse_gaussian(alpha_pos, gamma, normal[lo:hi], pick[lo:hi])
        x_hat = np.where(degen, 0.0, x_hat)
        z_hat = np.where(degen, 0.0, (x_hat - alpha_pos) / beta_c)
        z_state = np.where(
            degen, np.maximum(-coeffs.c, 0.0) / (params.nu * params.omega_bar), z_hat
        )
        incr = x_hat - alpha
        # u - (alpha_factors + ratio * incr) * x - lam x_hat + nu z_state
        x_hat_factors = np.multiply(coeffs.ratio, incr[:, None], out=u_blk)
        x_hat_factors += coeffs.alpha_factors
        x_hat_factors *= params.x
        np.subtract(u, x_hat_factors, out=u_blk)
        u_blk -= (params.lam * x_hat)[:, None]
        u_blk += (params.nu * z_state)[:, None]
        v_blk = np.matmul(u_blk, params.omega, out=v_new[lo:hi])
        v_blk += pre.g0_next
        lowest = float(np.min(v_blk))
        negative = v_blk < 0.0
        v_blk[negative] = 0.0
        log_s_new[lo:hi] = (
            state.log_s[lo:hi]
            + params.rate * pre.dt
            - 0.5 * x_hat
            + rho * z_hat
            + np.sqrt((1.0 - rho * rho) * x_hat) * z_price[lo:hi]
        )
        np.add(state.x_cum[lo:hi], x_hat, out=x_cum[lo:hi])
        np.add(state.z_cum[lo:hi], z_state, out=z_cum[lo:hi])
        live = ~degen
        with np.errstate(invalid="ignore"):
            over = np.max(
                beta_c / coeffs.beta_limit - 1.0,
                initial=-np.inf,
                where=np.isfinite(coeffs.beta_limit) & live,
            )
        value_at_zero = coeffs.c - params.nu * alpha_pos * params.omega_bar / beta_c
        return (
            lowest,
            int(np.count_nonzero(negative)),
            int(np.count_nonzero(coeffs.constrained)),
            int(np.count_nonzero(degen)),
            float(np.min(beta_c, initial=np.inf, where=live)),
            float(over),
            float(np.min(value_at_zero, initial=np.inf, where=live)),
        )

    # per-block partials in block order, folded as one pass over the blocks would
    lowest, n_clamped, constrained, degenerate, min_beta, max_over, min_at_zero = zip(
        *_run_blocks(n, block, params.n_states, 2, getattr(stream, "ahead", None))
    )
    worst = float(np.min(lowest))
    if worst < -_V_ROUNDOFF:
        raise FloatingPointError(
            f"variance {worst:.3e} below the roundoff floor -{_V_ROUNDOFF:.0e}; "
            f"constraint violated"
        )
    diagnostics.total_draws += n
    diagnostics.constrained_draws += sum(constrained)
    diagnostics.degenerate_mean_draws += sum(degenerate)
    # the clamp lifted every negative variance to zero
    diagnostics.min_variance = min(diagnostics.min_variance, max(worst, 0.0))
    diagnostics.min_beta = min(diagnostics.min_beta, *min_beta)
    diagnostics.max_beta_over_limit = max(diagnostics.max_beta_over_limit, *max_over)
    diagnostics.min_constraint_at_zero = min(diagnostics.min_constraint_at_zero, *min_at_zero)
    diagnostics.clamped_variance_values += sum(n_clamped)
    return PathState(t=pre.t_end, log_s=log_s_new, u=u_new, v=v_new, x_cum=x_cum, z_cum=z_cum)


def simulate_clp(
    params: ModelParams,
    curve: InitialCurve,
    grid,
    n_paths: int,
    seed: int | RngStream,
    snapshot_times=(),
    initial: PathState | None = None,
) -> SimOutput:
    """Simulate all paths over the grid with the projection scheme.

    ``seed`` may be an integer (wrapped as stream_id 0) or a ready
    :class:`RngStream`.  ``snapshot_times`` must be grid points; the full
    batch state is copied there, e.g. to price forward-starting payoffs.
    ``initial`` restarts from an interior state, such as a snapshot,
    instead of (U=0, v0); its time must equal grid[0].
    """

    def step(state, t, t_next, stream, diagnostics):
        pre = precompute_step(params, curve, t, t_next)
        return clp_step(state, pre, params, stream, diagnostics)

    return _simulate(step, params, grid, n_paths, seed, snapshot_times, initial)
