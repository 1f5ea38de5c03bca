"""VIX extraction and option pricing.

The VIX at T over a horizon Theta is the annualized conditional mean of
forward integrated variance,

    VIX_T = sqrt( E[X_{T, T+Theta} | F_T] / Theta ),

which the factor representation turns into a closed affine map of U_T:
no nested simulation.  Monte Carlo prices are discounted means with
standard errors; implied volatilities invert the Black-76 formula on
the forward.  The normal cdf is 1/2 erfc(-x / sqrt 2) through
``math.erfc`` and the density is written out below, so pricing needs no
scipy: importing it would more than double the CLI's start-up time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _step_moments
from .params import InitialCurve, ModelParams, g0_integral
from .state import mean_se

__all__ = [
    "PriceQuote",
    "vix_from_state",
    "price_european",
    "black76_price",
    "implied_vol_black",
]

# implied_vol_black stops once the Black-76 price is this close, or after
# this many bisection/Newton steps
_PRICE_TOL = 1e-10
_MAX_ITER = 200


def vix_from_state(
    u: np.ndarray,
    t: float,
    params: ModelParams,
    curve: InitialCurve,
    horizon: float,
) -> tuple[np.ndarray, int]:
    """VIX values from factor states at time t.

    ``u`` has shape (n_paths, N) or (N,).  The conditional mean over the
    window [t, t + horizon] is omega . (phi1(A, horizon) U + xi) + G0;
    a state outside the model's support (possible for Euler paths whose
    variance went negative) can push it below zero, in which case it is
    clamped to zero and counted in the second return value.
    """
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != params.n_states:
        raise ValueError("state width does not match n_states")
    p1, _, xi, _ = _step_moments(params, curve, t, t + horizon)
    g0_int = g0_integral(t, t + horizon, params, curve)
    cond_mean = (u @ p1.T + xi) @ params.omega + g0_int
    clamped = int(np.count_nonzero(cond_mean < 0.0))
    cond_mean = np.maximum(cond_mean, 0.0)
    return np.sqrt(cond_mean / horizon), clamped


@dataclass(frozen=True)
class PriceQuote:
    """Monte Carlo option quote."""

    price: float
    std_err: float


def price_european(
    samples: np.ndarray,
    strike: float,
    t: float,
    rate: float,
    kind: str = "call",
) -> PriceQuote:
    """Discounted mean payoff of a European option on the samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no samples to price")
    if kind == "call":
        payoff = np.maximum(samples - strike, 0.0)
    elif kind == "put":
        payoff = np.maximum(strike - samples, 0.0)
    else:
        raise ValueError("kind must be 'call' or 'put'")
    disc = math.exp(-rate * t)
    mean, se = mean_se(payoff)
    return PriceQuote(price=disc * mean, std_err=disc * se)


def black76_price(
    forward: float, strike: float, t: float, rate: float, vol: float, kind: str = "call"
) -> float:
    """Black-76 price of a European option on a forward."""
    # written so that NaN fails them too
    if not (forward > 0 and strike > 0 and t > 0):
        raise ValueError("forward, strike and t must be > 0")
    if not vol >= 0:
        raise ValueError("vol must be >= 0")
    if kind not in ("call", "put"):
        raise ValueError("kind must be 'call' or 'put'")
    disc = math.exp(-rate * t)
    if vol == 0.0:
        intrinsic = max(forward - strike, 0.0) if kind == "call" else max(strike - forward, 0.0)
        return disc * intrinsic
    sd = vol * math.sqrt(t)
    d1 = (math.log(forward / strike) + 0.5 * sd * sd) / sd
    d2 = d1 - sd
    if kind == "call":
        return disc * (forward * _norm_cdf(d1) - strike * _norm_cdf(d2))
    return disc * (strike * _norm_cdf(-d2) - forward * _norm_cdf(-d1))


def _norm_cdf(x: float) -> float:
    """Standard normal cdf; erfc keeps its relative accuracy in the lower tail."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _norm_pdf(x: float) -> float:
    """Standard normal density, bitwise equal to ``scipy.stats.norm.pdf``.

    It evaluates scipy's expression on a 0-d array; the same expression
    on a Python float differs in the last bits where the density is
    subnormal (|x| > 37).
    """
    x = np.asarray(x, dtype=float)
    return np.exp(-(x**2) / 2.0) / np.sqrt(2 * np.pi)


def _black_vega(forward: float, strike: float, t: float, rate: float, vol: float) -> float:
    sd = vol * math.sqrt(t)
    d1 = (math.log(forward / strike) + 0.5 * sd * sd) / sd
    return math.exp(-rate * t) * forward * _norm_pdf(d1) * math.sqrt(t)


def implied_vol_black(
    price: float,
    forward: float,
    strike: float,
    t: float,
    rate: float,
    kind: str = "call",
) -> float:
    """Invert Black-76: the vol whose price matches to ``_PRICE_TOL``.

    A price at intrinsic value returns 0.0; a price outside the
    attainable interval (below intrinsic or at/above the vol -> inf
    bound), or NaN, returns NaN so callers can report a missing point
    rather than abort.  A non-finite forward or strike raises
    ``ValueError``.  The solve is a bracketed bisection with Newton steps
    taken whenever they stay inside the bracket, for at most
    ``_MAX_ITER`` steps.
    """
    if not (math.isfinite(forward) and math.isfinite(strike)):
        raise ValueError("forward and strike must be finite")
    disc = math.exp(-rate * t)
    if kind == "call":
        lower, upper = disc * max(forward - strike, 0.0), disc * forward
    elif kind == "put":
        lower, upper = disc * max(strike - forward, 0.0), disc * strike
    else:
        raise ValueError("kind must be 'call' or 'put'")
    if abs(price - lower) <= _PRICE_TOL:
        return 0.0
    if not lower <= price < upper:  # NaN included
        return float("nan")
    lo, hi = 0.0, 1.0
    while black76_price(forward, strike, t, rate, hi, kind) < price:
        hi *= 2.0
        if hi > 1e3:
            return float("nan")
    vol = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        diff = black76_price(forward, strike, t, rate, vol, kind) - price
        if abs(diff) < _PRICE_TOL:
            return vol
        if diff > 0.0:
            hi = vol
        else:
            lo = vol
        vega = _black_vega(forward, strike, t, rate, vol) if vol > 0 else 0.0
        if vega > 1e-14:
            newton = vol - diff / vega
            vol = newton if lo < newton < hi else 0.5 * (lo + hi)
        else:
            vol = 0.5 * (lo + hi)
    return vol
