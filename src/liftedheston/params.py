"""Model parameters and deterministic curves for the lifted Heston model.

The model simulated by this package is

    dS_t / S_t = r dt + sqrt(V_t) dW1_t,
    V_t        = g0(t) + sum_n omega_n * U^n_t,
    dU^n_t     = (-x_n * U^n_t - lam * V_t) dt + nu * sqrt(V_t) dW2_t,

with corr(dW1, dW2) = rho and U_{t0} = 0.  The N mean-reversion speeds
``x`` and weights ``omega`` approximate a rough (power-law) kernel; with
N = 1, omega = [1], x = [0] and a linear initial curve the model
collapses to classical Heston with mean reversion ``lam``, long-run
variance ``theta`` and vol-of-vol ``nu``.

This module owns the parameter container, the initial variance curve
g0, its running integral and its description as the output of a linear
ODE (``_curve_ode``, shared with the step moments of ``numerics``), and
the exact mean E[X_{t0,t}].  The mean comes from one matrix exponential
of a small generator of its own (the model is affine, so its first
moments solve a linear ODE), which keeps it an independent reference for
the simulation schemes.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._expm import expm

__all__ = [
    "InitialCurve",
    "ModelParams",
    "hurst_parametrization",
    "g0",
    "g0_derivative",
    "g0_integral",
    "expected_integrated_variance",
]

_MAX_STATES = 1000


class InitialCurve(enum.Enum):
    """Initial variance curve g0.

    Both curves have the form

        g0(t) = V0 + lam * theta * sum_n w_n y_n(t - t0),
        y_n' = 1 - d_n y_n,  y_n(0) = 0,

    so y_n(tau) = (1 - exp(-d_n tau)) / d_n, with the limit tau at
    d_n = 0.  ``LIFTED_DEFAULT`` has w = omega, d = x: the curve implied
    by starting the factors at zero and pulling toward theta.
    ``HESTON_LINEAR`` has w = [1], d = [0], so g0(t) = V0 + lam * theta
    * (t - t0), the curve under which the one-factor model collapses to
    classical Heston.
    """

    LIFTED_DEFAULT = "lifted-default"
    HESTON_LINEAR = "heston-linear"


@dataclass(frozen=True)
class ModelParams:
    """Lifted Heston parameter set.

    Attributes
    ----------
    n_states : int
        Number of variance factors, 1 <= N <= 1000.
    lam : float
        Mean-reversion speed lambda >= 0.
    nu : float
        Vol-of-vol > 0.
    v0 : float
        Initial spot variance >= 0.
    theta : float
        Long-run variance level >= 0.
    rho : float
        Correlation between the price and variance drivers, in [-1, 1].
    omega : ndarray
        Factor weights, shape (N,), entries >= 0, not all zero.
    x : ndarray
        Factor mean-reversion speeds, shape (N,), entries >= 0.
    s0 : float
        Initial asset price > 0.
    rate : float
        Risk-free rate (any sign).
    t0 : float
        Time origin of the simulation.
    """

    n_states: int
    lam: float
    nu: float
    v0: float
    theta: float
    rho: float
    omega: np.ndarray
    x: np.ndarray
    s0: float = 100.0
    rate: float = 0.0
    t0: float = 0.0

    def __post_init__(self):
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "x", x)
        # NaN fails no ordered comparison below, so finiteness comes first
        for name in ("lam", "nu", "v0", "theta", "rho", "s0", "rate", "t0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(x))):
            raise ValueError("omega and x entries must be finite")
        if self.n_states < 1:
            raise ValueError("n_states must be >= 1")
        # the step generator is (4N + 2)^2 doubles, about 128 MB at the cap
        if self.n_states > _MAX_STATES:
            raise ValueError(f"n_states must be <= {_MAX_STATES}")
        if omega.shape != (self.n_states,) or x.shape != (self.n_states,):
            raise ValueError("omega and x must both have shape (n_states,)")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not self.nu > 0:
            raise ValueError("nu must be > 0")
        if self.v0 < 0 or self.theta < 0:
            raise ValueError("v0 and theta must be >= 0")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if np.any(omega < 0) or not np.any(omega > 0):
            raise ValueError("omega entries must be >= 0 with at least one positive")
        if np.any(x < 0):
            raise ValueError("x entries must be >= 0")
        if not self.s0 > 0:
            raise ValueError("s0 must be > 0")

    @classmethod
    def from_hurst(
        cls,
        n_states: int,
        hurst: float,
        lam: float,
        nu: float,
        v0: float,
        theta: float,
        rho: float,
        s0: float = 100.0,
        rate: float = 0.0,
        t0: float = 0.0,
    ) -> "ModelParams":
        """Build a parameter set with (omega, x) from the roughness index."""
        omega, x = hurst_parametrization(n_states, hurst)
        return cls(n_states, lam, nu, v0, theta, rho, omega, x, s0=s0, rate=rate, t0=t0)

    @functools.cached_property
    def omega_bar(self) -> float:
        """Sum of the factor weights, computed on first access and kept."""
        return float(np.sum(self.omega))


def hurst_parametrization(n_states: int, hurst: float) -> tuple[np.ndarray, np.ndarray]:
    """Geometric weights and speeds approximating a power-law kernel.

    With r_N = 1 + 10 N^{-0.9} and H the roughness index,

        omega_n = (r_N^{1/2-H} - 1) r_N^{(H-1/2)(1+N/2)}
                  / (Gamma(H+1/2) Gamma(3/2-H)) * r_N^{(1/2-H) n},
        x_n     = (1/2-H)/(3/2-H) * (r_N^{3/2-H} - 1)/(r_N^{1/2-H} - 1)
                  * r_N^{n-1-N/2},

    for n = 1..N.  Requires 0 < H < 1/2; both vectors come out strictly
    positive with x strictly increasing.
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    if not 0.0 < hurst < 0.5:
        raise ValueError("hurst must lie in (0, 1/2)")
    big_n = float(n_states)
    r_n = 1.0 + 10.0 * big_n ** (-0.9)
    n = np.arange(1, n_states + 1, dtype=float)
    a = 0.5 - hurst
    omega_scale = (r_n**a - 1.0) * r_n ** (-a * (1.0 + big_n / 2.0))
    # Gamma(H + 1/2) Gamma(3/2 - H) = Gamma(1 - a) Gamma(1 + a) = pi a / sin(pi a)
    omega_scale /= math.pi * a / math.sin(math.pi * a)
    omega = omega_scale * r_n ** (a * n)
    x_scale = (a / (1.0 + a)) * (r_n ** (1.0 + a) - 1.0) / (r_n**a - 1.0)
    x = x_scale * r_n ** (n - 1.0 - big_n / 2.0)
    return omega, x


def _curve(params: ModelParams, curve: InitialCurve) -> tuple[np.ndarray, np.ndarray]:
    """Weights w and decay rates d of the curve's form; see ``InitialCurve``."""
    if curve is InitialCurve.HESTON_LINEAR:
        return np.ones(1), np.zeros(1)
    return params.omega, params.x


def _y(d: np.ndarray, tau):
    """y_n(tau) for decay rates ``d``, of shape d.shape + tau.shape."""
    tau = np.asarray(tau, dtype=float)
    d = d.reshape(d.shape + (1,) * tau.ndim)
    pos = d > 0.0
    # -expm1(-d tau)/d keeps its relative accuracy for small d tau
    return np.where(pos, -np.expm1(-d * tau) / np.where(pos, d, 1.0), tau)


def _tau(t, params: ModelParams) -> np.ndarray:
    """Time since t0, raising before t0 and clipping roundoff below it to 0."""
    tau = np.asarray(t, dtype=float) - params.t0
    if np.any(tau < -1e-12):
        raise ValueError("g0 evaluated before t0")
    return np.maximum(tau, 0.0)


def g0(t, params: ModelParams, curve: InitialCurve):
    """Initial variance curve evaluated at ``t`` (scalar or array)."""
    w, d = _curve(params, curve)
    y = _y(d, _tau(t, params))
    out = params.v0 + params.lam * params.theta * np.tensordot(w, y, axes=(0, 0))
    return float(out) if out.ndim == 0 else out


def g0_derivative(t, params: ModelParams, curve: InitialCurve):
    """Derivative dg0/dt at ``t``: y_n' = 1 - d_n y_n = exp(-d_n tau)."""
    w, d = _curve(params, curve)
    decay = np.exp(-np.multiply.outer(d, _tau(t, params)))
    out = params.lam * params.theta * np.tensordot(w, decay, axes=(0, 0))
    return float(out) if out.ndim == 0 else out


def g0_integral(s: float, t: float, params: ModelParams, curve: InitialCurve) -> float:
    """Integral of g0 over [s, t] in closed form."""
    if t < s:
        raise ValueError("need s <= t")
    if s < params.t0 - 1e-12:
        raise ValueError("integral starts before t0")
    ts, tt = s - params.t0, t - params.t0
    w, d = _curve(params, curve)
    pos = d > 0.0
    dp = d[pos]
    # integral of y_n over tau in [ts, tt]; (tt^2 - ts^2) / 2 where d_n = 0
    int_pos = ((t - s) + np.exp(-dp * ts) * np.expm1(-dp * (t - s)) / dp) / dp
    total = params.v0 * (t - s) + params.lam * params.theta * float(np.dot(w[pos], int_pos))
    if not np.all(pos):
        total += params.lam * params.theta * float(np.sum(w[~pos])) * 0.5 * (tt**2 - ts**2)
    return total


def _curve_ode(params: ModelParams, curve: InitialCurve, s: float):
    """g0 from time ``s`` on as the output of a linear ODE.

    Returns (y(s), c, d) such that g0 = v0 + c . y with y' = 1 - d * y.
    """
    w, d = _curve(params, curve)
    return _y(d, s - params.t0), params.lam * params.theta * w, d


def _mean_moments(params: ModelParams, curve: InitialCurve, t: float) -> tuple[float, float]:
    """(E[V_t], E[X_{t0,t}]) from the exponential of the mean generator.

    With h_n(t) = int_{t0}^t exp(-x_n (t - u)) E[V_u] du the mean
    variance is E[V_t] = g0(t) - lam * omega . h, so the vector
    [h, I, y, 1], I = E[X_{t0,t}], obeys the constant-coefficient ODE

        h' = E[V] - x * h,    I' = E[V],    E[V] = v0 + c . y - lam * omega . h,

    with y the curve state of ``_curve_ode``, started from [0, 0, y(t0), 1].
    """
    n = params.n_states
    y, c, d = _curve_ode(params, curve, params.t0)
    z = np.concatenate((np.zeros(n + 1), y, [1.0]))
    gen = np.zeros((z.size, z.size))
    # row I is E[V]; each row h_n is E[V] - x_n h_n
    gen[n, :n], gen[n, n + 1 : -1], gen[n, -1] = -params.lam * params.omega, c, params.v0
    gen[:n] = gen[n]
    gen[:n, :n] -= np.diag(params.x)
    gen[n + 1 : -1, n + 1 : -1] = -np.diag(d)
    gen[n + 1 : -1, -1] = 1.0
    z = expm(gen * (t - params.t0)) @ z
    mean_v = float(g0(t, params, curve)) - params.lam * float(params.omega @ z[:n])
    return mean_v, float(z[n])


def expected_integrated_variance(t_end: float, params: ModelParams, curve: InitialCurve) -> float:
    """E[X_{t0,t_end}] = int_{t0}^{t_end} E[V_u] du, exact up to rounding."""
    if t_end < params.t0:
        raise ValueError("t_end precedes t0")
    return _mean_moments(params, curve, float(t_end))[1]
