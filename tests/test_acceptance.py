"""Acceptance gate: one test per shipping criterion.

Every test prints its measured numbers, so a failing line documents how
far off the implementation is, not just that it is off.  Seeds are
frozen; each criterion draws from its own stream family so the suite is
reproducible draw for draw.
"""

import subprocess
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad_vec
from scipy.linalg import expm

from liftedheston import (
    InitialCurve,
    ModelParams,
    PathState,
    RngStream,
    build_drift_matrix,
    clp_step,
    e_matrix_integral,
    expected_integrated_variance,
    g0,
    g0_derivative,
    phi1,
    precompute_step,
    sample_inverse_gaussian,
    simulate_clp,
    simulate_euler,
    step_coefficients,
    variance_se_bootstrap,
    vix_from_state,
)
from liftedheston.cli import build_grid, main as cli_main
from liftedheston.pricing import implied_vol_black, price_european


def test_criterion_01_heston_collapse_mean():
    """Single-factor collapse reproduces the classical terminal mean."""
    params = ModelParams(1, 2.0, 0.2, 0.09, 0.04, -0.3, np.array([1.0]), np.array([0.0]))
    curve = InitialCurve.heston_linear()
    out = simulate_clp(params, curve, np.linspace(0.0, 1.0, 5), 200_000, RngStream(41))
    ref = (0.09 - 0.04) * np.exp(-2.0) + 0.04
    m = float(np.mean(out.v))
    se = float(np.std(out.v, ddof=1) / np.sqrt(out.v.size))
    print(f"criterion 01: mean_v={m:.6f} ref={ref:.6f} |diff|={abs(m - ref):.2e} "
          f"3se={3 * se:.2e} -> {'PASS' if abs(m - ref) <= 3 * se else 'FAIL'}")
    assert abs(m - ref) <= 3 * se


def test_criterion_02_single_step_mean(set1, curve):
    """One projection step over [0, 5] matches the deterministic mean oracle."""
    out = simulate_clp(set1, curve, [0.0, 5.0], 200_000, RngStream(42))
    ref = expected_integrated_variance(5.0, set1, curve)
    m = float(np.mean(out.x))
    se = float(np.std(out.x, ddof=1) / np.sqrt(out.x.size))
    print(f"criterion 02: mean_x={m:.6f} oracle={ref:.6f} |diff|={abs(m - ref):.2e} "
          f"3se={3 * se:.2e} -> {'PASS' if abs(m - ref) <= 3 * se else 'FAIL'}")
    assert abs(m - ref) <= 3 * se


def test_criterion_03_large_step_variance(set1, curve, bench_set1):
    """Projection steps of 2.15 match the fine-Euler terminal X variance."""
    out = simulate_clp(set1, curve, [0.0, 2.15, 4.3, 5.0], 200_000, RngStream(43))
    var = float(np.var(out.x, ddof=1))
    se = variance_se_bootstrap(out.x)
    diff = abs(var - bench_set1["var_x"])
    tol = max(0.05 * bench_set1["var_x"], 3.0 * float(np.hypot(se, bench_set1["se_var_x"])))
    print(f"criterion 03: var_x={var:.6e} bench={bench_set1['var_x']:.6e} "
          f"|diff|={diff:.3e} tol={tol:.3e} -> {'PASS' if diff <= tol else 'FAIL'}")
    assert diff <= tol


def test_criterion_04_positivity_sweep(set1, set2, set3, extreme_set, curve):
    """Variance nonnegativity and slope-constraint invariants across the
    parameter grid at every step size."""
    failures = []
    k = 0
    for name, params in (("set1", set1), ("set2", set2), ("set3", set3),
                         ("extreme", extreme_set)):
        for dt in (1.0 / 12.0, 0.25, 1.0, 5.0):
            grid = build_grid(0.0, 5.0, dt)
            out = simulate_clp(params, curve, grid, 20_000, RngStream(11, stream_id=k))
            d = out.diagnostics
            ok = (
                d.min_variance >= 0.0
                and d.min_beta > 0.0
                and d.max_beta_over_limit <= 1e-12
                and d.min_constraint_at_zero >= -1e-12
            )
            if not ok:
                failures.append((name, dt, d.min_variance, d.min_beta,
                                 d.max_beta_over_limit, d.min_constraint_at_zero))
            k += 1
    print(f"criterion 04: {k} runs, min_variance >= 0 and slope invariants hold "
          f"on all -> {'PASS' if not failures else 'FAIL ' + repr(failures)}")
    assert not failures


def test_criterion_05_projection_ols(set1, curve):
    """The analytic projection coefficients are the OLS line of fine-grid
    (X, Z) samples over [0, 0.5]."""
    pre = precompute_step(set1, curve, 0.0, 0.5)
    co = step_coefficients(PathState.initial(set1, 1), pre, set1)
    alpha, beta = float(co.alpha[0]), float(co.beta[0])
    out = simulate_euler(set1, curve, np.linspace(0.0, 0.5, 1001), 100_000, RngStream(52))
    x, z = out.x, out.z
    n = x.size
    zc = z - z.mean()
    slope = float(zc @ x / (zc @ zc))
    intercept = float(x.mean() - slope * z.mean())
    resid = x - intercept - slope * z
    s2 = float(resid @ resid) / (n - 2)
    se_slope = float(np.sqrt(s2 / (zc @ zc)))
    se_int = float(np.sqrt(s2 * (1.0 / n + z.mean() ** 2 / (zc @ zc))))
    z_s = (slope - beta) / se_slope
    z_i = (intercept - alpha) / se_int
    print(f"criterion 05: slope={slope:.6f} beta={beta:.6f} z={z_s:+.2f}; "
          f"intercept={intercept:.6f} alpha={alpha:.6f} z={z_i:+.2f} "
          f"-> {'PASS' if abs(z_s) <= 2 and abs(z_i) <= 2 else 'FAIL'}")
    assert abs(z_s) <= 2.0
    assert abs(z_i) <= 2.0


def test_criterion_06_e_matrix():
    """Kernel-product integral against adaptive quadrature; phi1 identity
    including a singular drift matrix."""
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        x = np.sort(rng.uniform(0.05, 9.0, size=n)) + 0.05 * np.arange(n)
        omega = rng.uniform(0.1, 2.0, size=n)
        p = ModelParams(n, float(rng.uniform(0.0, 2.0)), 0.3, 0.04, 0.04, 0.0, omega, x)
        drift = build_drift_matrix(p)
        h = float(rng.uniform(0.1, 2.5))
        em = e_matrix_integral(p, h)
        ones = np.ones((n, 1))
        wrow = p.omega[None, :]

        def integrand(u, a=drift, hh=h):
            return expm(a * (hh - u)) @ ones @ wrow @ expm(a * u)

        ref = quad_vec(integrand, 0.0, h, epsabs=1e-12)[0]
        worst = max(worst, float(np.max(np.abs(em - ref))))
    heston = ModelParams(1, 2.0, 0.2, 0.04, 0.04, 0.0, np.array([1.0]), np.array([0.0]))
    em = e_matrix_integral(heston, 0.8)
    worst = max(worst, abs(float(em[0, 0]) - 0.8 * np.exp(-1.6)))
    worst_phi = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n))
        h = float(rng.uniform(0.05, 2.0))
        worst_phi = max(worst_phi, float(np.max(np.abs(phi1(a, h) @ a - expm(a * h) + np.eye(n)))))
    singular = np.diag([0.0, -1.0])  # one zero eigenvalue
    worst_phi = max(worst_phi, float(np.max(np.abs(
        phi1(singular, 0.5) @ singular - expm(singular * 0.5) + np.eye(2)))))
    print(f"criterion 06: e-matrix max err={worst:.2e} (tol 1e-8), "
          f"phi1 identity max err={worst_phi:.2e} (tol 1e-10) "
          f"-> {'PASS' if worst < 1e-8 and worst_phi < 1e-10 else 'FAIL'}")
    assert worst < 1e-8
    assert worst_phi < 1e-10


def test_criterion_07_ig_sampler():
    """Inverse Gaussian moments and distribution at desk-scale draw counts."""
    results = []
    ok = True
    for i, (mu, gam) in enumerate(((1.0, 1.0), (0.1, 4.0), (2.0, 0.5))):
        x = sample_inverse_gaussian(RngStream(71, stream_id=i), mu, gam, size=1_000_000)
        se = np.sqrt(mu**3 / gam / x.size)
        mean_off = abs(float(np.mean(x)) - mu) / se
        var_rel = abs(float(np.var(x, ddof=1)) / (mu**3 / gam) - 1.0)
        ks = stats.kstest(x, stats.invgauss(mu / gam, scale=gam).cdf).statistic
        results.append((mu, gam, mean_off, var_rel, ks))
        ok = ok and mean_off <= 4.0 and var_rel <= 0.05 and ks < 0.002
    for mu, gam, mean_off, var_rel, ks in results:
        print(f"criterion 07: IG({mu},{gam}) |mean err|/se={mean_off:.2f} (<=4) "
              f"var rel err={var_rel:.4f} (<=0.05) ks={ks:.5f} (<0.002)")
    print(f"criterion 07 -> {'PASS' if ok else 'FAIL'}")
    for mu, gam, mean_off, var_rel, ks in results:
        assert mean_off <= 4.0, (mu, gam)
        assert var_rel <= 0.05, (mu, gam)
        assert ks < 0.002, (mu, gam)


def test_criterion_08_weak_consistency(set1, curve):
    """From a fixed interior state the one-step mean and variance rates
    approach their analytic small-step limits with strictly decreasing
    error as h falls (path counts grow with 1/h to resolve the mean)."""
    t_fix = 1.0
    u_fix = np.array([0.02, 0.015, 0.01, 0.005, 0.003])
    v_fix = float(u_fix @ set1.omega + g0(t_fix, set1, curve))
    drift_limit = float(
        g0_derivative(t_fix, set1, curve)
        - (set1.omega * set1.x) @ u_fix
        - set1.lam * set1.omega_bar * v_fix
    )
    var_limit = set1.nu**2 * v_fix * set1.omega_bar**2
    mean_errs, var_errs = [], []
    for j, (h, n) in enumerate(zip((0.1, 0.01, 0.001), (400_000, 2_000_000, 8_000_000))):
        pre = precompute_step(set1, curve, t_fix, t_fix + h)
        st = PathState(t=t_fix, log_s=np.zeros(n), u=np.tile(u_fix, (n, 1)),
                       v=np.full(n, v_fix), x_cum=np.zeros(n), z_cum=np.zeros(n))
        out = clp_step(st, pre, set1, RngStream(81, stream_id=j))
        dv = out.v - v_fix
        mean_errs.append(abs(float(np.mean(dv)) / h - drift_limit))
        var_errs.append(abs(float(np.var(dv, ddof=1)) / h - var_limit))
    dec_mean = mean_errs[0] > mean_errs[1] > mean_errs[2]
    dec_var = var_errs[0] > var_errs[1] > var_errs[2]
    print(f"criterion 08: mean rate errors {[f'{e:.3e}' for e in mean_errs]} "
          f"decreasing={dec_mean}; var rate errors {[f'{e:.3e}' for e in var_errs]} "
          f"decreasing={dec_var} -> {'PASS' if dec_mean and dec_var else 'FAIL'}")
    assert dec_mean, mean_errs
    assert dec_var, var_errs


def test_criterion_09_sensitivity_signs(tmp_path):
    """Residual-second-moment sensitivities at the reference base point:
    v0 dominates in relative terms, the lam, nu, v0 and theta
    sensitivities are positive and the hurst sensitivity is negative.
    Why hurst is negative (raising H lowers the kernel mass) is set out
    in the README, "Running the tests", and checked without simulation
    in ``tests/test_params.py``."""
    out_dir = tmp_path / "sens"
    cfg = tmp_path / "sens.cfg"
    cfg.write_text("preset = set1\npaths = 200000\nseed = 91\n")
    code = cli_main(["sensitivity", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 0
    rows = (out_dir / "sensitivity.csv").read_text().splitlines()
    header = rows[0].split(",")
    i_abs = header.index("sensitivity_abs")
    i_rel = header.index("sensitivity_rel")
    i_se = header.index("sensitivity_abs_se")
    table = {}
    for row in rows[1:]:
        f = row.split(",")
        table[f[0]] = (float(f[i_abs]), float(f[i_se]), float(f[i_rel]))
    rel_sorted = sorted(table, key=lambda k: abs(table[k][2]), reverse=True)
    v0_dominant = rel_sorted[0] == "v0"
    expected = {"lam": 1, "nu": 1, "v0": 1, "theta": 1, "hurst": -1}
    signs = {k: expected[k] * table[k][0] > 0.0 for k in expected}
    for k in ("lam", "nu", "v0", "theta", "hurst", "n_states"):
        a, se, r = table[k]
        print(f"criterion 09: {k:8s} abs={a:+.3e} (se {se:.1e}) rel={r:+.3e}")
    ok = v0_dominant and all(signs.values())
    print(f"criterion 09: v0 dominant={v0_dominant}, expected signs held={signs} "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert v0_dominant, rel_sorted
    assert all(signs.values()), signs


def test_criterion_10_vix_smile_convergence(set1, curve):
    """Implied-vol smiles on the volatility index: the 13-step projection
    smile against the 78-step one, plus the iterated-expectation identity
    between the squared index and the continuation integral."""
    t_obs, horizon = 1.0, 1.0 / 12.0
    moneyness = np.round(np.arange(0.7, 1.3001, 0.05), 4)
    n_paths = 100_000
    smiles = {}
    tower = None
    for j, count in enumerate((13, 26, 39, 78)):
        grid = np.linspace(0.0, t_obs, count + 1)
        if count == 78:
            grid = np.append(grid, t_obs + horizon)
        out = simulate_clp(set1, curve, grid, n_paths, RngStream(2024, stream_id=10 + j),
                           snapshot_times=(t_obs,))
        snap = out.snapshots[t_obs]
        vix, _ = vix_from_state(snap.u, t_obs, set1, curve, horizon)
        forward = float(np.mean(vix))
        quotes = {}
        for m in moneyness:
            strike = m * forward
            kind = "put" if strike < forward else "call"
            q = price_european(vix, strike, t_obs, set1.rate, kind)
            iv = implied_vol_black(q.price, forward, strike, t_obs, set1.rate, kind)
            quotes[float(m)] = (q.price, q.std_err, iv)
        smiles[count] = (forward, quotes)
        if count == 78:
            cont = out.x - snap.x_cum
            d = vix**2 * horizon - cont
            tower = (float(np.mean(d)), float(np.std(d, ddof=1) / np.sqrt(d.size)))

    gaps = {}
    for m in (float(m) for m in moneyness):
        p13, se13, iv13 = smiles[13][1][m]
        p78, se78, iv78 = smiles[78][1][m]
        solid = (p13 > 5 * se13 and p78 > 5 * se78
                 and np.isfinite(iv13) and np.isfinite(iv78) and iv13 > 0 and iv78 > 0)
        if solid:
            gaps[m] = abs(iv13 - iv78)
    max_gap = max(gaps.values())
    worst = max(gaps, key=gaps.get)
    tower_ok = abs(tower[0]) <= 3 * tower[1]
    smile_ok = max_gap <= 0.005
    print(f"criterion 10: 13 vs 78 step smile max gap={max_gap * 100:.3f} vol points "
          f"at moneyness {worst} over {len(gaps)} usable strikes (tol 0.5); "
          f"tower |mean diff|={abs(tower[0]):.2e} 3se={3 * tower[1]:.2e} "
          f"-> {'PASS' if smile_ok and tower_ok else 'FAIL'}")
    assert tower_ok, tower
    assert smile_ok, f"max smile gap {max_gap * 100:.3f} vol points at m={worst}"


def test_criterion_11_euler_divergence(set3, curve, bench_set3):
    """Coarse Euler on the stiff deep ladder is useless while the
    projection scheme at a 2.15 step stays inside benchmark tolerance."""
    eul = simulate_euler(set3, curve, np.linspace(0.0, 5.0, 201), 200_000,
                         RngStream(99, stream_id=2))
    var_e = float(np.var(eul.x, ddof=1))
    gap_e = abs(var_e - bench_set3["var_x"])
    euler_diverges = gap_e > 10.0 * bench_set3["se_var_x"]

    clp = simulate_clp(set3, curve, [0.0, 2.15, 4.3, 5.0], 200_000, RngStream(77))
    var_c = float(np.var(clp.x, ddof=1))
    se_c = variance_se_bootstrap(clp.x)
    diff_c = abs(var_c - bench_set3["var_x"])
    tol_c = max(0.05 * bench_set3["var_x"], 3.0 * float(np.hypot(se_c, bench_set3["se_var_x"])))
    clp_ok = diff_c <= tol_c
    print(f"criterion 11: euler dt=0.025 var err={gap_e:.3e} vs 10se={10 * bench_set3['se_var_x']:.3e} "
          f"diverges={euler_diverges}; clp dt=2.15 |diff|={diff_c:.3e} tol={tol_c:.3e} ok={clp_ok} "
          f"-> {'PASS' if euler_diverges and clp_ok else 'FAIL'}")
    assert euler_diverges
    assert clp_ok


def test_criterion_12_cli_determinism(tmp_path, child_env):
    """Byte-identical CSV output for every command regardless of the BLAS
    thread pool size."""
    conv_cfg = tmp_path / "conv.cfg"
    conv_cfg.write_text("preset = set1\nsteps = 2.5,1.0\npaths = 1000\n"
                        "benchmark_steps = 40\nseed = 9\n")
    sens_cfg = tmp_path / "sens.cfg"
    sens_cfg.write_text("preset = set1\npaths = 800\nseed = 12\n")
    commands = {
        "simulate": ["simulate", "--preset", "set2", "--paths", "2000",
                     "--steps", "20", "--seed", "42"],
        "converge": ["converge", "--config", str(conv_cfg)],
        "sensitivity": ["sensitivity", "--config", str(sens_cfg)],
        "vix": ["vix", "--preset", "set1", "--steps", "13", "--paths", "2000",
                "--seed", "4"],
    }
    mismatches = []
    for name, args in commands.items():
        outputs = []
        for threads in ("1", "4"):
            out_dir = tmp_path / f"{name}_t{threads}"
            env = dict(child_env,
                       OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "liftedheston.cli"] + args + ["--out", str(out_dir)],
                env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        if outputs[0] != outputs[1]:
            mismatches.append(name)
    print(f"criterion 12: {len(commands)} commands x 2 thread counts, "
          f"byte-identical={not mismatches} -> {'PASS' if not mismatches else 'FAIL ' + repr(mismatches)}")
    assert not mismatches
