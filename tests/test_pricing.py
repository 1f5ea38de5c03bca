"""VIX extraction, Black-76 pricing and implied vol inversion."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.stats import norm

from liftedheston import (
    InitialCurve,
    ModelParams,
    black76_price,
    g0,
    implied_vol_black,
    price_european,
    pricing,
    vix_from_state,
)


def collapse(lam=2.0, theta=0.04, v0=0.09):
    return ModelParams(1, lam, 0.2, v0, theta, -0.3, np.array([1.0]), np.array([0.0]))


def _heston_vix_squared(v_t, lam, theta, horizon):
    """Classical Heston squared VIX from the spot variance.

    VIX^2 = (V_T - theta) (1 - exp(-lam Theta)) / (lam Theta) + theta,
    with the lam -> 0 limit V_T.
    """
    if lam == 0.0:
        return v_t
    return (v_t - theta) * (-math.expm1(-lam * horizon) / (lam * horizon)) + theta


def test_vix_matches_heston_closed_form():
    """On the single-factor collapse the conditional-mean map must agree
    with the classical formula for every spot variance."""
    p = collapse()
    c = InitialCurve.HESTON_LINEAR
    t, horizon = 1.0, 1.0 / 12.0
    v_t = np.array([0.01, 0.04, 0.09, 0.25])
    u = (v_t - g0(t, p, c))[:, None]
    vix, clamped = vix_from_state(u, t, p, c, horizon)
    ref = np.sqrt(_heston_vix_squared(v_t, p.lam, p.theta, horizon))
    assert clamped == 0
    assert np.max(np.abs(vix - ref)) < 1e-10


def test_vix_short_horizon_limit():
    p = collapse()
    c = InitialCurve.HESTON_LINEAR
    v_t = 0.09
    u = np.array([[v_t - float(g0(1.0, p, c))]])
    for horizon in (1e-3, 1e-4):
        vix, _ = vix_from_state(u, 1.0, p, c, horizon)
        assert abs(vix[0] ** 2 - v_t) < 2.0 * p.lam * abs(p.theta - v_t) * horizon


def test_vix_lam_zero_continuity(set3, curve):
    u = np.zeros((1, 20))
    vix, clamped = vix_from_state(u, 1.0, set3, curve, 1.0 / 12.0)
    assert clamped == 0
    assert vix[0] == pytest.approx(np.sqrt(set3.v0), rel=1e-10)


def test_vix_clamps_out_of_support_states(set1, curve):
    u = np.tile(np.full(5, -10.0), (3, 1))
    vix, clamped = vix_from_state(u, 1.0, set1, curve, 1.0 / 12.0)
    assert clamped == 3
    assert np.all(vix == 0.0)
    with pytest.raises(ValueError):
        vix_from_state(np.zeros((2, 4)), 1.0, set1, curve, 1.0 / 12.0)
    with pytest.raises(ValueError):
        vix_from_state(np.zeros((2, 5)), 1.0, set1, curve, horizon=0.0)


def test_heston_vix_squared_limits():
    assert _heston_vix_squared(0.09, 0.0, 0.5, 1.0 / 12.0) == pytest.approx(0.09)
    near = _heston_vix_squared(0.09, 1e-8, 0.5, 1.0 / 12.0)
    assert near == pytest.approx(0.09, rel=1e-6)
    # strong reversion pulls the index toward theta
    strong = _heston_vix_squared(0.09, 200.0, 0.04, 1.0)
    assert abs(strong - 0.04) < 1e-3


def test_black76_reference_value_and_parity():
    # F = K = 100, vol 0.2, T = 1: call = F * (2 N(0.1) - 1)
    ref = 100.0 * (2.0 * norm.cdf(0.1) - 1.0)
    assert black76_price(100.0, 100.0, 1.0, 0.0, 0.2, "call") == pytest.approx(ref, abs=1e-10)
    rng = np.random.default_rng(8)
    for _ in range(20):
        f = float(rng.uniform(50, 150))
        k = float(rng.uniform(50, 150))
        t = float(rng.uniform(0.1, 3.0))
        r = float(rng.uniform(-0.01, 0.05))
        vol = float(rng.uniform(0.05, 0.8))
        call = black76_price(f, k, t, r, vol, "call")
        put = black76_price(f, k, t, r, vol, "put")
        assert call - put == pytest.approx(np.exp(-r * t) * (f - k), abs=1e-9)
    assert black76_price(100.0, 90.0, 1.0, 0.0, 0.0, "call") == pytest.approx(10.0)
    for vol in (0.2, 0.0):
        with pytest.raises(ValueError):
            black76_price(100.0, 90.0, 1.0, 0.0, vol, "straddle")
    with pytest.raises(ValueError):
        black76_price(-1.0, 90.0, 1.0, 0.0, 0.2)


def test_implied_vol_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(30):
        f = float(rng.uniform(0.05, 150.0))
        k = f * float(rng.uniform(0.6, 1.6))
        t = float(rng.uniform(0.1, 2.0))
        r = float(rng.uniform(0.0, 0.05))
        vol = float(rng.uniform(0.05, 1.2))
        kind = "call" if rng.random() < 0.5 else "put"
        price = black76_price(f, k, t, r, vol, kind)
        back = implied_vol_black(price, f, k, t, r, kind)
        # the solve stops on a price tolerance, so deep wings with tiny
        # vega round-trip the vol a little less tightly
        assert back == pytest.approx(vol, abs=1e-6), (f, k, t, r, vol, kind)


def test_implied_vol_degenerate_quotes():
    assert implied_vol_black(10.0, 100.0, 90.0, 1.0, 0.0, "call") == 0.0
    assert np.isnan(implied_vol_black(9.0, 100.0, 90.0, 1.0, 0.0, "call"))
    assert np.isnan(implied_vol_black(100.0, 100.0, 90.0, 1.0, 0.0, "call"))
    assert implied_vol_black(0.0, 100.0, 120.0, 1.0, 0.0, "call") == 0.0
    with pytest.raises(ValueError):
        implied_vol_black(1.0, 100.0, 100.0, 1.0, 0.0, "binary")


def test_implied_vol_and_black76_non_finite_inputs():
    nan, inf = float("nan"), float("inf")
    # each used to return 1.0 after the full iteration budget
    assert np.isnan(implied_vol_black(nan, 1.0, 1.0, 1.0, 0.0))
    assert np.isnan(implied_vol_black(nan, 100.0, 90.0, 1.0, 0.0, "put"))
    for forward, strike in ((nan, 1.0), (1.0, nan), (inf, 1.0), (1.0, inf), (-inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            implied_vol_black(0.1, forward, strike, 1.0, 0.0)
    # NaN used to slip past the sign checks and price to NaN
    for args in ((1.0, 1.0, 1.0, 0.0, nan), (nan, 1.0, 1.0, 0.0, 0.2),
                 (1.0, nan, 1.0, 0.0, 0.2), (1.0, 1.0, nan, 0.0, 0.2)):
        with pytest.raises(ValueError):
            black76_price(*args)


def test_price_european_payoffs():
    samples = np.array([80.0, 100.0, 120.0, 140.0])
    q = price_european(samples, 110.0, 2.0, 0.05, "call")
    assert q.price == pytest.approx(np.exp(-0.1) * 10.0)
    qp = price_european(samples, 110.0, 2.0, 0.05, "put")
    assert qp.price == pytest.approx(np.exp(-0.1) * 0.25 * (30.0 + 10.0))
    assert q.std_err > 0.0
    with pytest.raises(ValueError):
        price_european(samples, 110.0, 2.0, 0.05, "digital")
    with pytest.raises(ValueError):
        price_european(np.array([]), 110.0, 2.0, 0.05)


def _ref_d1(forward, strike, t, vol):
    sd = vol * math.sqrt(t)
    return (math.log(forward / strike) + 0.5 * sd * sd) / sd, sd


def _ref_black76(forward, strike, t, rate, vol, kind="call"):
    """Black-76 on ``scipy.stats.norm``, with the package's operation order."""
    disc = math.exp(-rate * t)
    d1, sd = _ref_d1(forward, strike, t, vol)
    d2 = d1 - sd
    if kind == "call":
        return disc * (forward * norm.cdf(d1) - strike * norm.cdf(d2))
    return disc * (strike * norm.cdf(-d2) - forward * norm.cdf(-d1))


def _ref_vega(forward, strike, t, rate, vol):
    d1, _ = _ref_d1(forward, strike, t, vol)
    return math.exp(-rate * t) * forward * norm.pdf(d1) * math.sqrt(t)


def _black_grid():
    """Forwards, strikes, maturities, rates and vols, plus a sweep of d1
    over [36, 40], where the normal density turns subnormal (|d1| > 37.6)."""
    grid = [
        (f, f * m, t, r, vol)
        for f, m, t, r, vol in itertools.product(
            (0.05, 1.0, 100.0),
            np.linspace(0.5, 2.0, 21).tolist(),
            (1.0 / 12.0, 1.0, 5.0),
            (0.0, 0.03),
            np.geomspace(0.005, 2.0, 15).tolist(),
        )
    ]
    sd = 0.01
    for d1 in np.linspace(36.0, 40.0, 401).tolist():
        log_fk = d1 * sd - 0.5 * sd * sd
        grid.append((100.0, 100.0 * math.exp(-log_fk), 1.0, 0.01, sd))
        grid.append((100.0, 100.0 * math.exp(log_fk), 1.0, 0.01, sd))
    return grid


def _mp_black76(forward, strike, t, rate, vol, kind):
    """Black-76 in 50-digit arithmetic, rounded once to a float."""
    with mpmath.workdps(50):
        f, k, t, rate, vol = (mpmath.mpf(v) for v in (forward, strike, t, rate, vol))
        sd = vol * mpmath.sqrt(t)
        d1 = (mpmath.log(f / k) + sd * sd / 2) / sd
        d2 = d1 - sd
        if kind == "call":
            value = f * mpmath.ncdf(d1) - k * mpmath.ncdf(d2)
        else:
            value = k * mpmath.ncdf(-d2) - f * mpmath.ncdf(-d1)
        return float(mpmath.exp(-rate * t) * value)


def test_black_formulas_bitwise_equal_scipy_stats_reference():
    """black76_price computes without scipy and must match a 50-digit
    Black-76 to 4e-16 of max(F, K) e^{-rT}, a bound the scipy.stats.norm
    formula it replaced also meets (3.2e-16 at worst on this grid).
    _black_vega must give exactly the bits (and the np.float64 type) of
    the norm.pdf-based formula, including where the density is
    subnormal."""
    grid = _black_grid()
    subnormal = 0
    for f, k, t, r, vol in grid:
        scale = max(f, k) * math.exp(-r * t)
        for kind in ("call", "put"):
            got = black76_price(f, k, t, r, vol, kind)
            exact = _mp_black76(f, k, t, r, vol, kind)
            assert abs(got - exact) <= 4e-16 * scale, (f, k, t, r, vol, kind, got, exact)
        got = pricing._black_vega(f, k, t, r, vol)
        ref = _ref_vega(f, k, t, r, vol)
        assert got == ref and type(got) is type(ref), (f, k, t, r, vol, got, ref)
        d1, _ = _ref_d1(f, k, t, vol)
        subnormal += 0.0 < norm.pdf(d1) < np.finfo(float).tiny
    assert subnormal >= 100


def test_implied_vol_bitwise_equal_scipy_stats_reference(monkeypatch):
    """The solve reads black76_price and _black_vega at call time, so
    patching in the norm-based references gives the reference vol.  The
    package's vol is NaN exactly where the reference's is, and every
    finite one reprices its quote to the solve's tolerance."""
    cases = _black_grid()[::17]
    quotes = [(_ref_black76(f, k, t, r, vol, kind), f, k, t, r, kind)
              for (f, k, t, r, vol), kind in zip(cases, itertools.cycle(("call", "put")))]
    got = [implied_vol_black(*q) for q in quotes]
    monkeypatch.setattr(pricing, "black76_price", _ref_black76)
    monkeypatch.setattr(pricing, "_black_vega", _ref_vega)
    ref = [implied_vol_black(*q) for q in quotes]
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    for vol, (price, f, k, t, r, kind) in zip(got, quotes):
        if not math.isnan(vol):
            repriced = black76_price(f, k, t, r, vol, kind)
            assert abs(repriced - price) < 1e-10, (vol, price, f, k, t, r, kind)
    assert sum(not math.isnan(v) for v in ref) >= len(ref) // 2
