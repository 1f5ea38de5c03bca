"""Blocked step kernels against unblocked whole-batch reference steps.

``clp_step`` and ``euler_step`` take a step's numbers from the stream
before its blocks start and advance the paths only through
``state._run_blocks``, which cuts them into blocks (``state._path_blocks``)
and spreads those over ``state._WORKERS`` threads; each block writes
every output row of its paths.  Called on a plain ``RngStream``, as
here, they draw nothing ahead; the look-ahead of the simulation driver
is tested in ``test_state.py``.  The references below advance the whole
batch in one vectorized pass: the projection one is the kernel's block
over all paths at once, from the step's maps, ``_coefficients`` (the
code behind ``step_coefficients``) and ``sample_inverse_gaussian``, and
the Euler one forms its correlated price normals itself; they are the
oracle, and the kernels must match them bit for bit with one, two or
three workers.  The first block and the last hold at least ``_BLOCK``
rows, so rows below ``_BLOCK`` fall in the first block and rows from
``n - _BLOCK`` on in the last.

The references run in a spawned child with one BLAS thread, the kernels
in this process.  OpenBLAS gives the last ``n % 4`` rows of each of its
threads' shares of a matrix-vector product other bits, so a whole-batch
product is exact at every size only on one thread; the kernels' blocks
start on multiples of 4 and keep their bits on any thread count.

The projection step's factor update is one product of the stacked rows
[u, u s, 1, s, shock] with the step's update matrix.  The explicit
split it replaced, u - (alpha_factors + ratio (x_hat - alpha)) x
- lam x_hat + nu z, stays below as ``explicit_split_step``, and the
kernel must agree with it to a few ulps of the terms.

The Euler oracle is the two-pass update u (1 - x dt) + (nu dW2 - lam v+ dt)
that the kernel runs, with the product with omega taken on a
column-major copy of the new factors, the layout the kernel writes.  The
six-pass expression it replaced, (u + (-u x - lam v+) dt) + nu dW2,
stays below as ``six_pass_update``, and the kernel must agree with it to
a few ulps of the terms.
"""

import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from liftedheston import (
    ModelParams,
    PathState,
    RngStream,
    SimDiagnostics,
    VarianceFix,
    clp_step,
    euler_step,
    g0,
    precompute_step,
    sample_inverse_gaussian,
    simulate_clp,
    simulate_euler,
    step_coefficients,
)
from liftedheston import clp, euler as euler_module, state as state_module
from liftedheston.state import _BLOCK, _path_blocks
from test_clp import bad_constant_row, degenerate_state, factor_split, row_masks, state_from_rows

# Two blocks per worker at 1, 2 and 3 workers, and a 3-row tail.
MANY = 7 * _BLOCK + 39
SIZES = (1, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 37, MANY)
WORKERS = (1, 2, 3)
FIELDS = ("log_s", "u", "v", "x_cum", "z_cum")
_ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _reference_in_child(reference, *args, clp_patches=(), **kwargs):
    """``reference(*args, diagnostics=..., **kwargs)`` with the ``clp``
    attributes in ``clp_patches`` replaced for the call; returns the step
    and its diagnostics."""
    saved = [(name, getattr(clp, name)) for name, _ in clp_patches]
    try:
        for name, value in clp_patches:
            setattr(clp, name, value)
        diagnostics = SimDiagnostics()
        return reference(*args, diagnostics=diagnostics, **kwargs), diagnostics
    finally:
        for name, value in saved:
            setattr(clp, name, value)


@pytest.fixture(scope="module")
def one_thread():
    """Run a reference step in a spawned child with one BLAS thread.

    ``one_thread(reference, *args, clp_patches=(), **kwargs)`` returns
    what ``_reference_in_child`` returns there, or raises its error.
    """
    with pytest.MonkeyPatch.context() as env:
        for key in _ONE_THREAD:
            env.setenv(key, "1")
        pool = multiprocessing.get_context("spawn").Pool(1)
    with pool:
        yield lambda *args, **kwargs: pool.apply_async(
            _reference_in_child, args, kwargs).get(timeout=120)


def reference_clp_step(state, pre, params, stream, diagnostics=None, update=None):
    """The projection step over the whole batch in one pass, as the kernel's block.

    ``update(state, pre, params, x_hat, z_state)``, if given, replaces the
    block's stacked product for the new factors, which are then taken
    row-major, as the kernel writes them.
    """
    n = state.n_paths
    u = np.ascontiguousarray(state.u)
    maps = clp._step_maps(pre, params)
    with np.errstate(divide="ignore", invalid="ignore"):
        coeffs = clp._coefficients(u, maps, params)
    alpha, alpha_pos, xz_mean = coeffs.alpha, coeffs.mean, coeffs.xz_mean
    beta_c = coeffs.beta_c
    live, feasible = row_masks(coeffs)
    nu_omega_bar = params.nu * params.omega_bar
    x_hat = sample_inverse_gaussian(stream, alpha_pos, np.square(alpha_pos / beta_c), size=n)
    x_hat = np.where(live, x_hat, 0.0)
    z_hat = np.where(live, (x_hat - alpha_pos) / beta_c, 0.0)
    z_state = np.where(live, z_hat, np.maximum(-coeffs.c, 0.0) / nu_omega_bar)
    if update is None:
        incr = x_hat - alpha
        ok = xz_mean > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(ok, incr / xz_mean, 0.0)
        stack = np.vstack((u.T, u.T * scale, np.ones(n), scale,
                           params.nu * z_state - params.lam * x_hat))
        u_new = stack.T @ maps.update
        u_new[~ok] -= np.multiply.outer(incr[~ok] / params.omega_bar, params.x)
    else:
        u_new = np.ascontiguousarray(update(state, pre, params, x_hat, z_state))
    v_raw = u_new @ params.omega + pre.g0_next
    negative = v_raw < 0.0
    n_clamped = 0
    if np.any(negative):
        worst = float(np.min(v_raw))
        if worst < -clp._V_ROUNDOFF:
            raise FloatingPointError(
                f"variance {worst:.3e} below the roundoff floor -{clp._V_ROUNDOFF:.0e}; "
                f"constraint violated"
            )
        n_clamped = int(np.count_nonzero(negative))
        v_new = np.where(negative, 0.0, v_raw)
    else:
        v_new = v_raw
    z_price = stream.normal(n)
    rho = params.rho
    log_s_new = (
        state.log_s
        + params.rate * pre.dt
        - 0.5 * x_hat
        + rho * z_hat
        + np.sqrt((1.0 - rho * rho) * x_hat) * z_price
    )
    compensate = (rho * beta_c > 1.0) & live
    b = beta_c[compensate]
    log_s_new[compensate] += 2.0 * alpha_pos[compensate] * (rho * b - 1.0) / (b * b)
    if diagnostics is not None:
        diagnostics.total_draws += n
        diagnostics.constrained_draws += int(np.count_nonzero(live & ~feasible))
        diagnostics.degenerate_mean_draws += int(np.count_nonzero(~live))
        diagnostics.min_variance = min(diagnostics.min_variance, float(np.min(v_new)))
        diagnostics.min_beta = min(
            diagnostics.min_beta, float(np.min(beta_c, initial=np.inf, where=live))
        )
        with np.errstate(invalid="ignore"):
            over = np.max(
                beta_c / coeffs.beta_limit - 1.0,
                initial=-np.inf,
                where=np.isfinite(coeffs.beta_limit) & live,
            )
        diagnostics.max_beta_over_limit = max(diagnostics.max_beta_over_limit, float(over))
        value_at_zero = coeffs.c - alpha_pos * nu_omega_bar / beta_c
        diagnostics.min_constraint_at_zero = min(
            diagnostics.min_constraint_at_zero,
            float(np.min(value_at_zero, initial=np.inf, where=live)),
        )
        diagnostics.clamped_variance_values += n_clamped
    return PathState(t=pre.t_end, log_s=log_s_new, u=u_new, v=v_new,
                     x_cum=state.x_cum + x_hat, z_cum=state.z_cum + z_state)


def explicit_split_step(state, pre, params, x_hat, z_state):
    """The factor update as the step wrote it before the stacked product:
    u - (alpha_factors + ratio (x_hat - alpha)) x - lam x_hat + nu z_state."""
    alpha_factors, ratio = factor_split(state.u, pre, params)
    alpha = alpha_factors @ params.omega + pre.g0_int
    x_hat_factors = alpha_factors + ratio * (x_hat - alpha)[:, None]
    return (state.u - x_hat_factors * params.x[None, :] - (params.lam * x_hat)[:, None]
            + (params.nu * z_state)[:, None])


def two_pass_update(u, v_fix, dw2, params, dt):
    return u * (1.0 - params.x * dt) + (params.nu * dw2 - params.lam * v_fix * dt)[:, None]


def six_pass_update(u, v_fix, dw2, params, dt):
    return u + (-u * params.x[None, :] - (params.lam * v_fix)[:, None]) * dt + (params.nu * dw2)[:, None]


def reference_euler_step(state, t_next, params, curve, stream, diagnostics=None,
                         fix=VarianceFix.FULL_TRUNCATION, update=two_pass_update):
    def fixed(v):
        return np.abs(v) if fix is VarianceFix.REFLECTION else np.maximum(v, 0.0)

    dt = t_next - state.t
    n = state.n_paths
    v_fix = fixed(state.v)
    z_perp = stream.normal(n)
    z2 = stream.normal(n)
    z1 = params.rho * z2 + np.sqrt(1.0 - params.rho * params.rho) * z_perp
    sq_dw = np.sqrt(v_fix * dt)
    dw1 = sq_dw * z1
    dw2 = sq_dw * z2
    # column-major, as the kernel writes it: that sets the bits of the product with omega
    u_new = np.asfortranarray(update(state.u, v_fix, dw2, params, dt))
    g0_next = float(g0(t_next, params, curve))
    v_new = u_new @ params.omega + g0_next
    if fix is VarianceFix.ABSORPTION:
        below = v_new < 0.0
        if np.any(below):
            scale = -g0_next / (v_new[below] - g0_next)
            u_new[below] *= scale[:, None]
            v_new[below] = 0.0
    log_s_new = state.log_s + (params.rate - 0.5 * v_fix) * dt + dw1
    x_new = state.x_cum + 0.5 * dt * (v_fix + fixed(v_new))
    z_new = state.z_cum + dw2
    if diagnostics is not None:
        diagnostics.total_draws += n
        diagnostics.min_variance = min(diagnostics.min_variance, float(np.min(v_new)))
    return PathState(t=t_next, log_s=log_s_new, u=u_new, v=v_new, x_cum=x_new, z_cum=z_new)


def assert_same_step(got, want, diag_got, diag_want):
    assert got.t == want.t
    for name in FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert dataclasses.asdict(diag_got) == dataclasses.asdict(diag_want)


def interior_state(params, curve, n, seed):
    out = simulate_clp(params, curve, [0.0, 0.5, 1.0], n, RngStream(seed), snapshot_times=(1.0,))
    return out.snapshots[1.0]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("which", ["set1", "set3"])
def test_clp_step_matches_unblocked_reference(request, monkeypatch, one_thread, curve, which, n):
    params = request.getfixturevalue(which)
    state = interior_state(params, curve, n, seed=n)
    for t_next in (1.0 + 1.0 / 78, 1.5):
        pre = precompute_step(params, curve, 1.0, t_next)
        want, diag_ref = one_thread(reference_clp_step, state, pre, params,
                                    RngStream(9, stream_id=n))
        for workers in WORKERS:
            monkeypatch.setattr(state_module, "_WORKERS", workers)
            diag = SimDiagnostics()
            got = clp_step(state, pre, params, RngStream(9, stream_id=n), diag)
            assert_same_step(got, want, diag, diag_ref)


def test_clp_step_degenerate_paths_in_last_block(set3, curve, monkeypatch, one_thread):
    """Degenerate rows in the last block and in the first."""
    pre = precompute_step(set3, curve, 0.0, 2.15)
    u_bad, _, _ = degenerate_state(set3, pre)
    n = MANY
    u = np.zeros((n, set3.n_states))
    rows = np.array([3, _BLOCK - 2, n - 30, n - 5, n - 1])
    u[rows] = u_bad
    state = state_from_rows(u, 0.0, u @ set3.omega + set3.v0)
    want, diag_ref = one_thread(reference_clp_step, state, pre, set3, RngStream(12))
    assert diag_ref.degenerate_mean_draws == rows.size
    assert np.all(want.x_cum[rows] == state.x_cum[rows])
    for workers in WORKERS:
        monkeypatch.setattr(state_module, "_WORKERS", workers)
        diag = SimDiagnostics()
        got = clp_step(state, pre, set3, RngStream(12), diag)
        assert_same_step(got, want, diag, diag_ref)


def masked_coefficients(u, maps, params):
    """The projection coefficients as whole-batch masks and ``np.where``
    selections, as ``clp._coefficients`` computed them before it patched
    its rare rows by index; the record's rows are the masks' indices."""
    nu_omega_bar = params.nu * params.omega_bar
    thin = u @ maps.thin
    alpha = thin[:, 0] + maps.thin_shift[0]
    xz_mean = thin[:, 1] + maps.thin_shift[1]
    degenerate = alpha <= 0.0
    live = ~degenerate
    alpha_pos = np.where(live, alpha, 1.0)
    beta = xz_mean / alpha_pos
    with np.errstate(divide="ignore", invalid="ignore"):
        split_wx = np.where(xz_mean > 0.0, (thin[:, 2] + maps.thin_shift[2]) / xz_mean,
                            params.omega @ params.x / params.omega_bar)
        denom = split_wx + params.lam * params.omega_bar
        beta_limit = np.where(denom > 0.0, nu_omega_bar / denom, np.inf)
    c = (thin[:, 3] + maps.thin_shift[3]) + alpha * split_wx
    boundary = alpha_pos * nu_omega_bar / np.where(live, c, 1.0)
    feasible = (beta >= boundary) & (beta <= beta_limit) & live
    return clp.ProjectionCoeffs(alpha=alpha, mean=alpha_pos, xz_mean=xz_mean, beta=beta,
                                beta_limit=beta_limit, c=c,
                                beta_c=np.where(feasible, beta, boundary),
                                degenerate_rows=np.flatnonzero(degenerate),
                                fallback_rows=np.flatnonzero(~(xz_mean > 0.0)),
                                feasible_rows=np.flatnonzero(feasible))


def rare_row_step(set3, curve):
    """A restart step of 0.5 on set3 with nu = 2 and rho = 1, and the rare
    kinds of row it meets: degenerate (alpha <= 0), E[XZ] <= 0, a
    feasible raw slope and rho beta_c > 1.

    The rows come from states simulated to t = 5, which hold every kind
    but E[XZ] <= 0 on live rows, and from ``fallback_rows``.  ``MANY``
    ordinary rows, of none of those kinds, hold three rows of each kind,
    and three degenerate rows whose variance clamps, near the start of
    the first block, in a middle block and near the end of the last.
    Returns the step's params, state and precompute, and the kinds as
    masks over the rows.
    """
    params = dataclasses.replace(set3, nu=2.0, rho=1.0)
    pool = simulate_clp(params, curve, [0.0, 5.0], 20011, RngStream(3),
                        snapshot_times=(5.0,)).snapshots[5.0]
    pre = precompute_step(params, curve, 5.0, 5.5)
    u = np.vstack((pool.u, fallback_rows(params, pre, 3)))
    g0_now = float(g0(5.0, params, curve))

    def kinds(state):
        co = step_coefficients(state, pre, params)
        live, feasible = row_masks(co)
        xz_mean = (state.u @ pre.chi.T + pre.psi) @ params.omega
        return {"degenerate": ~live, "fallback": (xz_mean <= 0.0) & live,
                "feasible": feasible,
                "compensated": (params.rho * co.beta_c > 1.0) & live}

    n = MANY
    source = state_from_rows(u, 5.0, u @ params.omega + g0_now)
    found = kinds(source)

    def clamps(row):
        # a degenerate row draws nothing, so whether its variance clamps
        # is fixed by its factors alone
        diag = SimDiagnostics()
        copies = np.tile(row, (8, 1))
        clp_step(state_from_rows(copies, 5.0, copies @ params.omega + g0_now), pre, params,
                 RngStream(0), diag)
        return diag.clamped_variance_values == 8

    found["clamped"] = np.zeros(len(u), dtype=bool)
    found["clamped"][[i for i in np.flatnonzero(found["degenerate"])[:100] if clamps(u[i])]] = True
    take = np.resize(np.flatnonzero(~np.any(list(found.values()), axis=0)), n)
    for k, rows in enumerate(found.values()):
        for start in (11, n // 2, n - 40):
            take[start + 7 * k : start + 7 * k + 3] = np.flatnonzero(rows)[:3]
    state = state_from_rows(u[take], 5.0, u[take] @ params.omega + g0_now)
    return params, state, pre, kinds(state)


def test_clp_step_patches_rare_rows_in_any_block(set3, curve, monkeypatch, one_thread):
    """Rows of every rare kind, and clamped variances, in the first, a
    middle and the last block among ordinary rows, the other blocks
    ordinary throughout: the step is bitwise the whole-batch reference,
    diagnostics included, on one, two and three workers."""
    params, state, pre, kinds = rare_row_step(set3, curve)
    n = state.n_paths
    middle = next((lo, hi) for lo, hi in _path_blocks(n, 3) if lo <= n // 2 < hi)
    thirds = (slice(0, _BLOCK), slice(*middle), slice(n - _BLOCK, n))
    for name, rows in kinds.items():
        assert all(np.count_nonzero(rows[cut]) >= 3 for cut in thirds), name
    assert np.count_nonzero(np.any(list(kinds.values()), axis=0)) == 45
    want, diag_ref = one_thread(reference_clp_step, state, pre, params, RngStream(5))
    assert all(np.count_nonzero(want.v[cut] == 0.0) >= 3 for cut in thirds)
    assert diag_ref.clamped_variance_values >= 9
    assert diag_ref.constrained_draws == n - np.count_nonzero(kinds["degenerate"] | kinds["feasible"])
    for workers in WORKERS:
        monkeypatch.setattr(state_module, "_WORKERS", workers)
        diag = SimDiagnostics()
        got = clp_step(state, pre, params, RngStream(5), diag)
        assert_same_step(got, want, diag, diag_ref)


def test_coefficients_patch_any_mix_of_rare_rows(set1):
    """Maps that hand each row its own alpha, E[XZ], split sum and base
    of c, drawn across signs, scales and NaN, so that the rare kinds
    meet in every combination, a degenerate row with a raw slope in the
    feasible set and unbounded slopes included: ``_coefficients`` gives
    every field of the masked computation bit for bit, the rows by
    index included."""
    rng = np.random.default_rng(11)
    n = 20_000
    u = np.zeros((n, set1.n_states))
    u[:, :4] = rng.normal(size=(n, 4)) * 10.0 ** rng.uniform(-3, 1, size=(n, 4))
    u[rng.integers(n, size=50), rng.integers(3, size=50)] = np.nan
    u[::97, 1] = 0.0
    # c > 0 on live rows, where c <= 0 would raise; degenerate rows keep any c
    alpha, xz_mean = u[:, 0], u[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        split = np.where(xz_mean > 0.0, u[:, 2] / xz_mean, set1.omega @ set1.x / set1.omega_bar)
        base = np.abs(alpha * split) + 1.0
    u[:, 3] = np.where(alpha > 0.0, base, u[:, 3])
    # the product with [I; 0] copies the first four factors exactly
    maps = clp._StepMaps(thin=np.asfortranarray(np.eye(set1.n_states, 4)),
                         thin_shift=np.zeros(4), update=None)
    want = masked_coefficients(u, maps, set1)
    live, feasible = row_masks(want)
    assert np.count_nonzero(~live & (want.beta >= set1.nu * set1.omega_bar)) > 0
    assert np.count_nonzero(feasible) > 0
    assert np.count_nonzero(np.isinf(want.beta_limit)) > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        got = clp._coefficients(u, maps, set1)
    for field in dataclasses.fields(clp.ProjectionCoeffs):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name),
                              equal_nan=not field.name.endswith("_rows")), field.name


@pytest.mark.parametrize("n", [1, MANY])
def test_clp_step_raises_where_the_inverse_gaussian_shape_underflows(curve, monkeypatch,
                                                                      one_thread, n):
    """At v0 = theta = 1e-170 every path is live, with a shape
    (alpha / beta_c)^2 that underflows to 0: the reference's sampler
    refuses it, and the step names the first path on any number of
    workers."""
    params = ModelParams.from_hurst(5, 0.3, lam=0.25, nu=0.1, v0=1e-170, theta=1e-170, rho=0.7)
    state = PathState.initial(params, n)
    pre = precompute_step(params, curve, 0.0, 0.1)
    co = step_coefficients(state, pre, params)
    assert co.degenerate_rows.size == 0 and np.all(np.square(co.alpha / co.beta_c) == 0.0)
    with pytest.raises(ValueError, match="mu and gamma must be > 0"):
        one_thread(reference_clp_step, state, pre, params, RngStream(1))
    for workers in WORKERS:
        monkeypatch.setattr(state_module, "_WORKERS", workers)
        with pytest.raises(FloatingPointError, match=r"^variance level too small \(path 0, "):
            clp_step(state, pre, params, RngStream(1))


def fallback_rows(params, pre, count):
    """Factor rows, found by a seeded search, that sample (alpha > 0) with
    E[XZ] <= 0, so that the factor split falls back to 1/omega_bar, and
    whose boundary slope keeps the variance nonnegative."""
    rng = np.random.default_rng(1)
    u = rng.normal(size=(200 * count, params.n_states))
    u *= 10.0 ** rng.uniform(-3, 1, size=u.shape)
    keep = []
    for i in np.flatnonzero((u @ pre.chi.T + pre.psi) @ params.omega <= 0.0):
        row = u[i : i + 1]
        try:
            state = state_from_rows(row, pre.t_start, row @ params.omega)
            co = step_coefficients(state, pre, params)
        except FloatingPointError:  # no admissible slope
            continue
        if co.degenerate_rows.size == 0 and co.beta_c[0] <= co.beta_limit[0]:
            keep.append(i)
            if len(keep) == count:
                return u[keep]
    raise AssertionError("too few fallback rows found")


def update_terms(state, pre, params, x_hat, z_state):
    """The summed magnitudes of the terms of each new factor, the per-path
    x_hat and alpha in the split counted apart."""
    u = np.abs(state.u)
    kappa = state.u @ pre.chi.T + pre.psi
    xz_mean = kappa @ params.omega
    alpha_terms = (u @ np.abs(pre.phi1.T) + np.abs(pre.xi)) @ params.omega + abs(pre.g0_int)
    ok = xz_mean > 0.0
    scale = (x_hat + alpha_terms) / np.where(ok, xz_mean, params.omega_bar)
    split = np.where(ok[:, None], u @ np.abs(pre.chi.T) + np.abs(pre.psi), 1.0)
    return (u + params.x * (u @ np.abs(pre.phi1.T) + np.abs(pre.xi) + split * scale[:, None])
            + (params.lam * x_hat + params.nu * np.abs(z_state))[:, None])


@pytest.mark.parametrize("which,rows", [("set1", "interior"), ("set3", "interior"),
                                        ("set3", "degenerate"), ("set1", "fallback"),
                                        ("set3", "fallback")])
def test_clp_step_agrees_with_explicit_split(request, curve, which, rows):
    """The stacked product against the explicit split update, to 8 ulps of
    the summed magnitudes of the update's terms (the product sums 2N + 3
    of them), on interior states at small and large steps, on degenerate
    rows and on rows where E[XZ] <= 0; the draws, the price and the
    running integrals keep their bits."""
    params = request.getfixturevalue(which)
    n = 2 * _BLOCK + 37
    if rows == "degenerate":
        pre = precompute_step(params, curve, 0.0, 2.15)
        u = np.zeros((n, params.n_states))
        u[::997] = degenerate_state(params, pre)[0]
        cases = [(state_from_rows(u, 0.0, u @ params.omega + params.v0), pre)]
    else:
        state = interior_state(params, curve, n, seed=8)
        cases = [(state, precompute_step(params, curve, 1.0, 1.0 + dt))
                 for dt in (1 / 78, 0.5, 5.0)]
        if rows == "fallback":
            pre = cases[1][1]
            u = state.u.copy()
            u[::997] = fallback_rows(params, pre, len(u[::997]))
            v = u @ params.omega + float(g0(1.0, params, curve))
            cases = [(state_from_rows(u, 1.0, v), pre)]
    eps = np.finfo(float).eps
    for state, pre in cases:
        diag = SimDiagnostics()
        got = clp_step(state, pre, params, RngStream(8), diag)
        old = reference_clp_step(state, pre, params, RngStream(8), update=explicit_split_step)
        for name in ("log_s", "x_cum", "z_cum"):
            assert np.array_equal(getattr(got, name), getattr(old, name)), name
        if rows == "degenerate":
            assert diag.degenerate_mean_draws == len(u[::997])
        if rows == "fallback":
            co = step_coefficients(state, pre, params)
            xz_mean = (state.u @ pre.chi.T + pre.psi) @ params.omega
            live, _ = row_masks(co)
            assert np.count_nonzero((xz_mean <= 0.0) & live) == len(u[::997])
        terms = update_terms(state, pre, params, got.x_cum - state.x_cum, got.z_cum - state.z_cum)
        u_tol = 8 * eps * terms
        v_tol = u_tol @ params.omega + 8 * eps * (terms @ params.omega + pre.g0_next)
        assert np.all(np.abs(got.u - old.u) <= u_tol)
        assert np.all(np.abs(got.v - old.v) <= v_tol)
        assert not np.array_equal(got.u, old.u)


@pytest.mark.parametrize("n_states,n", [(20, _BLOCK + 1), (50, 17)])
def test_clp_step_bits_do_not_depend_on_the_state_layout(curve, monkeypatch, n_states, n):
    """The step reads its factors row-major; a column-major state steps to
    the bits of its row-major copy.  At N = 50 and 17 paths, a product
    over the column-major rows would round differently."""
    monkeypatch.setattr(state_module, "_WORKERS", 2)
    params = ModelParams.from_hurst(n_states, 0.3, lam=0.0, nu=0.31, v0=0.1, theta=0.02, rho=0.7)
    rows = interior_state(params, curve, n, seed=4)
    columns = dataclasses.replace(rows, u=np.asfortranarray(rows.u))
    assert rows.u.flags.c_contiguous and columns.u.flags.f_contiguous
    pre = precompute_step(params, curve, 1.0, 1.5)
    got = [clp_step(st, pre, params, RngStream(3), SimDiagnostics()) for st in (rows, columns)]
    assert all(step.u.flags.c_contiguous for step in got)
    for name in FIELDS:
        assert np.array_equal(getattr(got[0], name), getattr(got[1], name)), name
    co = [step_coefficients(st, pre, params) for st in (rows, columns)]
    assert np.array_equal(co[0].beta_c, co[1].beta_c)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("fix", list(VarianceFix))
def test_euler_step_matches_unblocked_reference(set2, curve, monkeypatch, one_thread, fix, n):
    # spread states around the curve so that a good share of the paths
    # step below zero variance and ABSORPTION rescales rows in every block
    u = np.random.default_rng(n).normal(scale=0.05, size=(n, set2.n_states))
    state = state_from_rows(u, 0.5, u @ set2.omega + float(g0(0.5, set2, curve)))
    want, diag_ref = one_thread(reference_euler_step, state, 0.6, set2, curve,
                                RngStream(4, stream_id=n), fix=fix)
    for workers in WORKERS:
        monkeypatch.setattr(state_module, "_WORKERS", workers)
        diag = SimDiagnostics()
        got = euler_step(state, 0.6, set2, curve, RngStream(4, stream_id=n), diag, fix)
        assert_same_step(got, want, diag, diag_ref)
    if fix is VarianceFix.ABSORPTION and n >= 2 * _BLOCK:
        absorbed = np.flatnonzero(want.v == 0.0)
        assert absorbed.min() < _BLOCK and absorbed.max() >= n - _BLOCK


@pytest.mark.parametrize("rho", [1.0, -1.0])
def test_euler_price_shock_is_the_driver_shock_at_unit_correlation(set2, curve, monkeypatch, rho):
    """At rho = +-1 the price normals are +-z2 exactly, so the log-price
    shock is +-(the z_cum increment) to the bit in every block."""
    monkeypatch.setattr(state_module, "_WORKERS", 2)
    params = dataclasses.replace(set2, rho=rho)
    n = 2 * _BLOCK + 37
    u = np.random.default_rng(7).normal(scale=0.05, size=(n, params.n_states))
    state = state_from_rows(u, 0.5, u @ params.omega + float(g0(0.5, params, curve)))
    state = dataclasses.replace(state, z_cum=np.zeros(n))
    got = euler_step(state, 0.6, params, curve, RngStream(2), SimDiagnostics())
    shock = got.z_cum  # the increment itself, from z_cum = 0
    assert np.count_nonzero(shock) > n // 2
    drift = (params.rate - 0.5 * np.maximum(state.v, 0.0)) * (0.6 - 0.5)
    assert np.array_equal(got.log_s, state.log_s + drift + rho * shock)


@pytest.mark.parametrize("fix", list(VarianceFix))
def test_euler_step_bits_do_not_depend_on_the_state_layout(set2, curve, monkeypatch, fix):
    """The kernel writes its factors column-major; a row-major state, as
    at t0 or from a snapshot, steps to the same bits as its
    column-major copy."""
    monkeypatch.setattr(state_module, "_WORKERS", 2)
    n = 2 * _BLOCK + 37
    u = np.random.default_rng(6).normal(scale=0.05, size=(n, set2.n_states))
    rows = state_from_rows(u, 0.5, u @ set2.omega + float(g0(0.5, set2, curve)))
    columns = dataclasses.replace(rows, u=np.asfortranarray(u))
    assert rows.u.flags.c_contiguous and columns.u.flags.f_contiguous
    got = [euler_step(state, 0.6, set2, curve, RngStream(3), SimDiagnostics(), fix)
           for state in (rows, columns)]
    assert all(step.u.flags.f_contiguous for step in got)
    for name in FIELDS:
        assert np.array_equal(getattr(got[0], name), getattr(got[1], name)), name


@pytest.mark.parametrize("fix", list(VarianceFix))
@pytest.mark.parametrize("which", ["set2", "set3"])
def test_euler_step_agrees_with_six_pass_update(request, curve, which, fix):
    """One step of the two-pass kernel against the six-pass expression, to
    4 ulps of the summed magnitudes of the update's terms; at dt = 0.1,
    x dt > 1 for the stiffest set3 factors."""
    params = request.getfixturevalue(which)
    dt = 0.1
    assert which == "set2" or np.any(params.x * dt > 1.0)
    n = 2 * _BLOCK + 37
    u = np.random.default_rng(5).normal(scale=0.05, size=(n, params.n_states))
    g0_start = float(g0(0.5, params, curve))
    state = state_from_rows(u, 0.5, u @ params.omega + g0_start)
    got = euler_step(state, 0.5 + dt, params, curve, RngStream(8), SimDiagnostics(), fix)
    old = reference_euler_step(state, 0.5 + dt, params, curve, RngStream(8), fix=fix,
                               update=six_pass_update)
    assert np.array_equal(got.log_s, old.log_s) and np.array_equal(got.z_cum, old.z_cum)
    v_fix = np.abs(state.v) if fix is VarianceFix.REFLECTION else np.maximum(state.v, 0.0)
    terms = (np.abs(u) * (1.0 + params.x * dt)
             + (params.lam * v_fix * dt + params.nu * np.abs(old.z_cum - state.z_cum))[:, None])
    eps = np.finfo(float).eps
    u_tol = 4 * eps * terms
    v_tol = u_tol @ params.omega + 4 * eps * (terms @ params.omega + g0_start)
    assert np.all(np.abs(got.u - old.u) <= u_tol)
    assert np.all(np.abs(got.v - old.v) <= v_tol)
    assert np.all(np.abs(got.x_cum - old.x_cum) <= 0.5 * dt * v_tol + eps * old.x_cum)
    assert not np.array_equal(got.u, old.u)


def test_euler_terminal_mean_agrees_with_six_pass_update(set3, curve, monkeypatch):
    """Over 1,000 steps the rounding differences of the two updates leave
    the mean integrated variance equal to 1e-12 relative."""
    grid = np.linspace(0.0, 5.0, 1001)
    new = simulate_euler(set3, curve, grid, 5000, RngStream(21)).x

    def six_pass_step(state, t_next, params, curve, stream, diagnostics, fix):
        return reference_euler_step(state, t_next, params, curve, stream, diagnostics, fix,
                                    update=six_pass_update)

    monkeypatch.setattr(euler_module, "euler_step", six_pass_step)
    old = simulate_euler(set3, curve, grid, 5000, RngStream(21)).x
    assert not np.array_equal(new, old)
    assert np.mean(new) == pytest.approx(np.mean(old), rel=1e-12, abs=0)


def test_constraint_error_names_first_bad_path_globally(set3, curve, monkeypatch):
    """Bad rows in the first, a middle and the last of six blocks: the
    error names the first bad path, whichever thread meets its bad row
    first."""
    pre = precompute_step(set3, curve, 0.0, 2.15)
    n = MANY
    rows = (_BLOCK - 17, n // 2, n - 3)
    blocks = _path_blocks(n, 3)
    assert len(blocks) == 6 and blocks[2][0] <= rows[1] < blocks[3][1]
    u_bad = bad_constant_row(set3, pre)
    for k, first in enumerate(rows):
        u = np.zeros((n, set3.n_states))
        u[list(rows[k:])] = u_bad
        state = state_from_rows(u, 0.0, u @ set3.omega + set3.v0)
        with pytest.raises(FloatingPointError, match=rf"\(path {first}, c="):
            step_coefficients(state, pre, set3)
        for workers in WORKERS:
            monkeypatch.setattr(state_module, "_WORKERS", workers)
            with pytest.raises(FloatingPointError, match=rf"\(path {first}, c="):
                clp_step(state, pre, set3, RngStream(3))


_REAL_COEFFICIENTS = clp._coefficients


def _too_steep(u, maps, params, first_path=0):
    coeffs = _REAL_COEFFICIENTS(u, maps, params, first_path)
    rows = first_path + np.arange(u.shape[0])
    coeffs.beta_c = coeffs.beta_c * np.where(rows < _BLOCK, 5.0, 100.0)
    return coeffs


def test_roundoff_error_reports_global_minimum(set1, curve, monkeypatch, one_thread):
    """Slopes pushed past the boundary make the variance negative in
    every block; the error must quote the minimum over all paths."""
    n = MANY
    state = interior_state(set1, curve, n, seed=5)
    pre = precompute_step(set1, curve, 1.0, 1.5)
    patches = [("_coefficients", _too_steep)]
    monkeypatch.setattr(clp, "_coefficients", _too_steep)
    with pytest.raises(FloatingPointError) as want:
        one_thread(reference_clp_step, state, pre, set1, RngStream(6), clp_patches=patches)
    for workers in WORKERS:
        monkeypatch.setattr(state_module, "_WORKERS", workers)
        with pytest.raises(FloatingPointError) as got:
            clp_step(state, pre, set1, RngStream(6))
        assert str(got.value) == str(want.value)
    # with the floor lifted, paths clamp in the first and the last
    # block, and the clamp counts agree with the reference
    patches.append(("_V_ROUNDOFF", np.inf))
    monkeypatch.setattr(clp, "_V_ROUNDOFF", np.inf)
    ref, diag_ref = one_thread(reference_clp_step, state, pre, set1, RngStream(6),
                               clp_patches=patches)
    clamped = np.flatnonzero(ref.v == 0.0)
    assert clamped.min() < _BLOCK and clamped.max() >= n - _BLOCK
    for workers in WORKERS:
        monkeypatch.setattr(state_module, "_WORKERS", workers)
        diag = SimDiagnostics()
        assert_same_step(clp_step(state, pre, set1, RngStream(6), diag), ref, diag, diag_ref)


def test_shape_error_names_first_bad_path_globally(set1, curve, monkeypatch):
    """Live rows with an infinite boundary slope, so an inverse Gaussian
    shape of 0, in the first, a middle and the last of six blocks: the
    error names the first, whichever thread meets its row first."""
    n = MANY
    state = PathState.initial(set1, n)
    pre = precompute_step(set1, curve, 0.0, 0.5)
    rows = (_BLOCK - 17, n // 2, n - 3)
    for k, first in enumerate(rows):

        def shapeless(u, maps, params, first_path=0, bad=np.array(rows[k:])):
            coeffs = _REAL_COEFFICIENTS(u, maps, params, first_path)
            local = bad - first_path
            coeffs.beta_c[local[(local >= 0) & (local < u.shape[0])]] = np.inf
            return coeffs

        monkeypatch.setattr(clp, "_coefficients", shapeless)
        for workers in WORKERS:
            monkeypatch.setattr(state_module, "_WORKERS", workers)
            with pytest.raises(FloatingPointError,
                               match=rf"^variance level too small \(path {first}, "):
                clp_step(state, pre, set1, RngStream(3))


def _unbounded(u, maps, params, first_path=0):
    coeffs = _REAL_COEFFICIENTS(u, maps, params, first_path)
    coeffs.beta_limit = np.full(u.shape[0], np.inf)
    return coeffs


def test_unbounded_slopes_report_no_excess_over_the_limit(set1, curve, monkeypatch, one_thread):
    """With every slope unbounded, no slope has an excess over its limit:
    the step reports -inf, as the reference does, on any number of workers."""
    state = interior_state(set1, curve, MANY, seed=5)
    pre = precompute_step(set1, curve, 1.0, 1.5)
    patches = [("_coefficients", _unbounded)]
    monkeypatch.setattr(clp, "_coefficients", _unbounded)
    want, diag_ref = one_thread(reference_clp_step, state, pre, set1, RngStream(6),
                                clp_patches=patches)
    assert diag_ref.max_beta_over_limit == -np.inf
    for workers in WORKERS:
        monkeypatch.setattr(state_module, "_WORKERS", workers)
        diag = SimDiagnostics()
        assert_same_step(clp_step(state, pre, set1, RngStream(6), diag), want, diag, diag_ref)


def test_steps_leave_the_input_state_untouched(set1, set2, curve):
    n = 2 * _BLOCK + 37
    state = interior_state(set1, curve, n, seed=8)
    before = state.copy()
    clp_step(state, precompute_step(set1, curve, 1.0, 1.5), set1, RngStream(2), SimDiagnostics())
    u = np.random.default_rng(1).normal(scale=0.05, size=(n, set2.n_states))
    e_state = state_from_rows(u, 0.5, u @ set2.omega + float(g0(0.5, set2, curve)))
    e_before = e_state.copy()
    euler_step(e_state, 0.6, set2, curve, RngStream(2), SimDiagnostics(), VarianceFix.ABSORPTION)
    for got, want in ((state, before), (e_state, e_before)):
        assert got.t == want.t
        for name in FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork on this platform")
def test_clp_step_runs_in_a_forked_child(set1, set2, curve, monkeypatch):
    """A child forked after the worker threads started gets its own, for
    both kernels."""
    monkeypatch.setattr(state_module, "_WORKERS", 2)
    state = interior_state(set1, curve, MANY, seed=3)
    pre = precompute_step(set1, curve, 1.0, 1.5)
    u = np.random.default_rng(3).normal(scale=0.05, size=(MANY, set2.n_states))
    e_state = state_from_rows(u, 0.5, u @ set2.omega + float(g0(0.5, set2, curve)))
    steps = ((clp_step, (state, pre, set1)), (euler_step, (e_state, 0.6, set2, curve)))
    wants = [step(*args, RngStream(4)) for step, args in steps]
    with multiprocessing.get_context("fork").Pool(1) as pool:
        gots = [pool.apply_async(step, (*args, RngStream(4))).get(timeout=120)
                for step, args in steps]
    for got, want in zip(gots, wants):
        for name in FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
