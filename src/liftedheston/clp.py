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

The price update uses X_hat for its quadratic variation.  Given U, the
inverse Gaussian moment generating function cancels the drift
correction in closed form while rho beta^C <= 1; where rho beta^C > 1
it leaves the factor exp(2 alpha (1 - rho beta^C) / beta^C^2), and the
step adds the compensator 2 alpha (rho beta^C - 1) / beta^C^2 to the log
price of those paths, and of no other.  So the discounted price is a
martingale exactly for every admissible slope.  Variance nonnegativity
is enforced pathwise by step 2 rather than by truncation, which is what
keeps large steps honest.

``clp_step`` draws first and blocks second.  It takes the step's numbers
for all paths in the fixed order -- the normals behind the inverse
Gaussian, then the uniforms, then the price normals -- so the stream
advances exactly as in one vectorized pass.  It then advances the paths
in blocks through ``state._run_blocks``, on one thread per usable CPU;
under ``simulate_clp`` the calling thread meanwhile draws the next
step's numbers, with the same calls.

A block makes two products with the step's small matrices
(``_StepMaps``).  The thin product of its factor rows with an N x 4
matrix gives each path's alpha, E[XZ], the factor split's weighted sum
and the constant c; ``_coefficients``, the code behind
``step_coefficients``, turns these into the slopes and the constraint
with arithmetic on vectors over paths, in one ``ProjectionCoeffs``
record that holds its rare rows by index.  After the draws, the block
stacks [u, u s, 1, s, shock] for its paths, with the per-path scale
s = (X_hat - alpha) / E[XZ] and the shock nu Z - lam X_hat, and one
product of the stack with the (2N + 3) x N update matrix writes the new
factors; paths with E[XZ] <= 0, whose split falls back to 1/omega_bar,
are corrected after it.  The stack is kept factor-major, one contiguous
row of paths per entry, so that filling it never broadcasts a per-path
value along rows only N long; the per-path values and the constants
ride in the matrix product instead.

Both products put one path on each output row and take the step's
matrix column-major.  So arranged, with OpenBLAS 0.3.31 on SkylakeX
kernels as measured, a path's bits depend neither on the block around
it, nor on the number of BLAS threads, nor on the size of the call, for
blocks that start on multiples of 4.  With the paths along the columns
of the output, the last paths of a call change bits with the BLAS
thread count; with a row-major step matrix, calls over a few thousand
paths can take OpenBLAS's small-matrix kernel, which rounds
differently from the kernel of larger calls.  So the factors stay
row-major, and the step reads any other layout through a row-major
copy, which keeps the bits independent of the input layout.

A block writes every output row of its paths, g0 and the roundoff clamp
included, and returns its diagnostics partials; only their fold and the
roundoff check on the global minimum follow the blocks.  Each element
goes through the same operations in the same order as in the
whole-batch call, and the partials are folded in block order, so the
output is bitwise that of the unblocked step on any number of CPUs.
The block body calls only numpy and this package's private helpers;
the step sets the numpy error state around the dispatch, whose threads
run in a copy of the caller's context.

The block computes every row as the common case: a live path
(alpha > 0) with E[XZ] > 0, a bounded slope, a raw slope outside the
feasible set so that the boundary slope is drawn, rho beta_c <= 1 and a
variance that needs no clamp.  Simulated runs of the presets meet
nothing else.  Each rare kind of row -- degenerate, the 1/omega_bar
split, an unbounded slope, a feasible raw slope, the compensator, a
clamped variance -- is found behind one cheap test, a reduction such as
the minimum of alpha, and only when the test fires are its rows found
and their values overwritten by index.  So a block of ordinary rows
builds no mask over its paths, and a rare row goes through the same
operations as in a pass with masks, which keeps its bits.

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
    """Per-path projection coefficients for one step, rare rows by index.

    ``alpha`` is E_i[X] and ``mean`` the sampling mean: ``alpha`` itself,
    or a copy with 1 on the ``degenerate_rows`` (alpha <= 0).
    ``xz_mean`` is E_i[X Z] and ``beta`` the raw projection slope
    E_i[X Z] / mean.  ``beta_limit`` is the largest admissible slope
    (+inf when the slope constraint never binds), ``c`` the constant
    such that the variance constraint at X_hat = 0 reads
    c - nu * alpha * omega_bar / beta >= 0, and ``beta_c`` the
    constrained slope actually used for sampling.  ``fallback_rows``
    holds the rows with E[XZ] <= 0 (or NaN), whose factor split falls
    back to 1/omega_bar, and ``feasible_rows`` the live rows that keep
    their raw slope; every other live row samples at the boundary slope.
    """

    alpha: np.ndarray
    mean: np.ndarray
    xz_mean: np.ndarray
    beta: np.ndarray
    beta_limit: np.ndarray
    c: np.ndarray
    beta_c: np.ndarray
    degenerate_rows: np.ndarray
    fallback_rows: np.ndarray
    feasible_rows: np.ndarray


_NO_ROWS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class _StepMaps:
    """One step's affine maps of the factors, as products with factor rows u.

    With alpha_factors = phi1 u + xi the per-factor means E[X^n],
    kappa = chi u + psi the per-factor E[X^n Z] and the factor split
    ratio = kappa / E[XZ], ``u @ thin + thin_shift`` gives per path
    alpha, E[XZ], E[XZ] (ratio . omega x) and
    u . omega + g0_next - alpha_factors . omega x.  With
    incr = X_hat - alpha and s = incr / E[XZ], ``[u, u s, 1, s, shock] @ update``
    is the new factor row u - x (alpha_factors + ratio incr) + shock.
    Where E[XZ] <= 0 the split falls back to 1/omega_bar per factor:
    there s = 0, and the step subtracts x incr / omega_bar itself.
    """

    thin: np.ndarray
    thin_shift: np.ndarray
    update: np.ndarray


def _step_maps(pre: StepPrecompute, params: ModelParams) -> _StepMaps:
    omega, x = params.omega, params.x
    wx = omega * x
    phi1, chi = pre.phi1, pre.chi
    # both matrices column-major (see the module docstring)
    return _StepMaps(
        thin=np.stack((omega @ phi1, omega @ chi, wx @ chi, omega - wx @ phi1)).T,
        thin_shift=np.array([pre.xi @ omega + pre.g0_int, pre.psi @ omega, pre.psi @ wx,
                             pre.g0_next - pre.xi @ wx]),
        update=np.column_stack((np.eye(x.size) - x[:, None] * phi1, -x[:, None] * chi,
                                -x * pre.xi, -x * pre.psi, np.ones(x.size))).T,
    )


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
    constrained branch and the factor split
    ratio_n = E_i[X^n Z] / E_i[X Z] falls back to its small-step limit
    ratio_n = 1/omega_bar, which preserves the identity
    sum_n omega_n ratio_n = 1.

    The variance after the step is affine in the sampled X_hat >= 0, so
    nonnegativity holds iff the slope in X_hat is nonnegative --
    beta <= beta_limit = nu * omega_bar / sum_n omega_n (x_n ratio_n + lam)
    (no bound when that denominator is nonpositive) -- and the value at
    X_hat = 0 is nonnegative, c - nu alpha omega_bar / beta >= 0.  A raw
    beta that is nonpositive or infeasible is replaced by the boundary
    slope beta^C = nu alpha omega_bar / c, which satisfies both
    conditions with the X_hat = 0 value exactly zero.  The degenerate,
    fallback and feasible rows come by index.  Raises
    ``FloatingPointError`` naming the first live path whose c is
    nonpositive, for which no admissible slope exists.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return _coefficients(np.ascontiguousarray(state.u), _step_maps(pre, params), params)


def _coefficients(u, maps, params, first_path=0) -> ProjectionCoeffs:
    """:func:`step_coefficients` for the row-major factor rows ``u`` (rows, N).

    One product with ``maps.thin`` gives every per-path input; the rest
    is arithmetic on vectors over paths, each computed for every row as
    the common case: live (alpha > 0), E[XZ] > 0, a bounded slope and a
    raw slope outside the feasible set.  One reduction per kind of rare
    row tells whether the rows hold any; only then are they found and
    their values overwritten by index.  The rows are paths
    ``first_path``, ``first_path + 1``, ... of the batch, which is how
    the error names a path.  The caller silences numpy's divide and
    invalid warnings, which the rows about to be overwritten may raise.
    """
    nu_omega_bar = params.nu * params.omega_bar
    thin = u @ maps.thin
    alpha = thin[:, 0] + maps.thin_shift[0]
    xz_mean = thin[:, 1] + maps.thin_shift[1]
    split_wx = thin[:, 2] + maps.thin_shift[2]
    c = thin[:, 3] + maps.thin_shift[3]
    # a NaN fails each "> 0" test and sends the rows to the exact search
    degenerate = _NO_ROWS if alpha.min() > 0.0 else np.flatnonzero(alpha <= 0.0)
    fallback = _NO_ROWS if xz_mean.min() > 0.0 else np.flatnonzero(~(xz_mean > 0.0))
    # ratio . omega x, the factor split's weighted sum; 1/omega_bar per factor where E[XZ] <= 0
    split_wx /= xz_mean
    if fallback.size:
        split_wx[fallback] = params.omega @ params.x / params.omega_bar
    # the variance after the step at X_hat = Z_hat = 0
    c += alpha * split_wx
    if not c.min() > 0.0:
        bad_c = c <= 0.0
        bad_c[degenerate] = False
        if bad_c.any():
            bad = int(np.argmax(bad_c))
            raise FloatingPointError(
                f"constraint constant nonpositive (path {first_path + bad}, c={c[bad]:.3e}); "
                f"no admissible slope exists"
            )
    mean = alpha
    if degenerate.size:
        # degenerate paths never sample, so give them a harmless positive mean
        mean = alpha.copy()
        mean[degenerate] = 1.0
    beta = xz_mean / mean
    denom = split_wx
    denom += params.lam * params.omega_bar
    beta_limit = nu_omega_bar / denom
    if not denom.min() > 0.0:
        beta_limit[~(denom > 0.0)] = np.inf
    beta_c = mean * nu_omega_bar
    beta_c /= c
    if degenerate.size:
        # their c may be 0, so their boundary slope divides by a harmless 1 instead
        beta_c[degenerate] = nu_omega_bar
    # beta_c is the boundary slope so far; with c > 0,
    # c - nu alpha omega_bar / beta >= 0 holds iff beta >= boundary
    feasible = _NO_ROWS
    candidates = beta >= beta_c
    if candidates.any():
        candidates &= beta <= beta_limit
        candidates[degenerate] = False
        feasible = np.flatnonzero(candidates)
        beta_c[feasible] = beta[feasible]
    return ProjectionCoeffs(alpha=alpha, mean=mean, xz_mean=xz_mean, beta=beta,
                            beta_limit=beta_limit, c=c, beta_c=beta_c,
                            degenerate_rows=degenerate, fallback_rows=fallback,
                            feasible_rows=feasible)


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
    whenever the constraint constant c is positive.  A live path with
    rho beta_c > 1, beyond the reach of the inverse Gaussian's own
    drift cancellation, adds 2 alpha (rho beta_c - 1) / beta_c^2 to its
    log price, so that E[exp(-r dt) S'/S | U] = 1 on every path.

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
    maps = _step_maps(pre, params)
    n_states = params.n_states
    # row-major, as PathState keeps it; another layout would give other bits
    u_in = np.ascontiguousarray(state.u)
    u_new = np.empty(u_in.shape)
    v_new = np.empty(n)
    # a block reads its rows of the draws before it writes these rows, so
    # the outputs take over the draws' storage, and a step holds no more
    # memory while the next step's numbers are drawn
    log_s_new, x_cum, z_cum = z_price, normal, pick
    rho, nu = params.rho, params.nu
    nu_omega_bar = nu * params.omega_bar

    def block(lo, hi):
        u = u_in[lo:hi]
        sl = _coefficients(u, maps, params, lo)
        alpha, mean, beta_c, c = sl.alpha, sl.mean, sl.beta_c, sl.c
        degenerate = sl.degenerate_rows

        def live(values):
            # the reductions leave out degenerate rows
            return np.delete(values, degenerate) if degenerate.size else values

        # beta_c > 0 on live rows, so the ratio is 0 exactly where the slope
        # is unbounded, and a top of 0 means no live slope is bounded; fmax
        # passes over NaN rows
        ratio = beta_c / sl.beta_limit
        top = np.fmax.reduce(live(ratio), initial=-np.inf)
        slopes = (
            hi - lo - degenerate.size - sl.feasible_rows.size,
            degenerate.size,
            float(live(beta_c).min(initial=np.inf)),
            # x - 1 rounds monotonically, so max(ratio - 1) is the max ratio less 1
            float(top - 1.0) if top > 0.0 else -np.inf,
            float(live(c - mean * nu_omega_bar / beta_c).min(initial=np.inf)),
        )
        fallback, xz_mean = sl.fallback_rows, sl.xz_mean
        # frees beta and beta_limit, which the block reads no further, with
        # the ratio: freed on its own it left vix-deep's peak RSS 1 MB higher
        del sl, ratio
        x_hat = _inverse_gaussian(mean, np.square(mean / beta_c), normal[lo:hi], pick[lo:hi])
        z_hat = x_hat - mean
        z_hat /= beta_c
        z_state = z_hat
        if degenerate.size:
            # the alpha -> 0+ limit: no variance sampled, a driver that
            # moves the price by nothing and the state by the least that
            # keeps the variance nonnegative
            x_hat[degenerate] = 0.0
            z_hat[degenerate] = 0.0
            z_state = z_hat.copy()
            z_state[degenerate] = np.maximum(-c[degenerate], 0.0) / nu_omega_bar
        log_s_new[lo:hi] = (
            state.log_s[lo:hi]
            + params.rate * pre.dt
            - 0.5 * x_hat
            + rho * z_hat
            + np.sqrt((1.0 - rho * rho) * x_hat) * z_price[lo:hi]
        )
        # the inverse Gaussian MGF cancels the drift correction only where rho beta_c <= 1
        if rho * beta_c.max() > 1.0:
            compensate = rho * beta_c > 1.0
            compensate[degenerate] = False
            b = beta_c[compensate]
            log_s_new[lo:hi][compensate] += 2.0 * mean[compensate] * (rho * b - 1.0) / (b * b)
        np.add(state.x_cum[lo:hi], x_hat, out=x_cum[lo:hi])
        np.add(state.z_cum[lo:hi], z_state, out=z_cum[lo:hi])
        incr = x_hat - alpha
        del alpha, mean, beta_c, c  # read no further; freed before the stack is allocated
        # the stack [u, u s, 1, s, shock] of _StepMaps, one contiguous
        # row of paths per entry, so that no fill broadcasts along rows N long
        stack = np.empty((2 * n_states + 3, hi - lo))
        np.copyto(stack[:n_states], u.T)
        scale = np.divide(incr, xz_mean, out=stack[2 * n_states + 1])
        if fallback.size:
            scale[fallback] = 0.0
        np.multiply(stack[:n_states], scale, out=stack[n_states : 2 * n_states])
        stack[2 * n_states] = 1.0
        np.subtract(nu * z_state, params.lam * x_hat, out=stack[2 * n_states + 2])
        new = np.matmul(stack.T, maps.update, out=u_new[lo:hi])
        if fallback.size:
            # the split falls back to 1/omega_bar per factor
            new[fallback] -= np.multiply.outer(incr[fallback] / params.omega_bar, params.x)
        v_blk = np.matmul(new, params.omega, out=v_new[lo:hi])
        v_blk += pre.g0_next
        lowest = float(v_blk.min())
        n_clamped = 0
        if lowest < 0.0:
            negative = v_blk < 0.0
            n_clamped = int(np.count_nonzero(negative))
            v_blk[negative] = 0.0
        return (lowest, n_clamped, *slopes)

    # the blocks run in a copy of this context, so this error state holds in them
    with np.errstate(divide="ignore", invalid="ignore"):
        partials = _run_blocks(n, block, stream)
    # per-block partials in block order, folded as one pass over the blocks would
    lowest, n_clamped, constrained, degenerate, min_beta, max_over, min_at_zero = zip(*partials)
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
