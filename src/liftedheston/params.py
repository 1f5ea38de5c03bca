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
g0 and its running integral, and deterministic expectation curves used
as independent references by the simulation schemes.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn

__all__ = [
    "CurveKind",
    "InitialCurve",
    "ModelParams",
    "hurst_parametrization",
    "g0",
    "g0_derivative",
    "g0_integral",
    "expected_variance_curve",
    "expected_integrated_variance",
    "heston_mean_variance",
    "heston_mean_integrated_variance",
]

def _trapz(values: np.ndarray, grid: np.ndarray) -> float:
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(grid)))


class CurveKind(enum.Enum):
    """Supported shapes of the initial variance curve g0."""

    LIFTED_DEFAULT = "lifted-default"
    HESTON_LINEAR = "heston-linear"
    CUSTOM = "custom"


@dataclass(frozen=True)
class InitialCurve:
    """Initial variance curve g0.

    ``LIFTED_DEFAULT`` is the curve implied by starting the factors at
    zero and pulling toward theta:

        g0(t) = V0 + lam * theta * sum_n (omega_n / x_n) (1 - exp(-x_n (t - t0)))

    with the x_n = 0 term replaced by its limit lam * theta * omega_n * (t - t0).
    ``HESTON_LINEAR`` is g0(t) = V0 + lam * theta * (t - t0), the curve
    under which the one-factor model collapses to classical Heston.
    ``CUSTOM`` interpolates a tabulated curve linearly; the table must
    start at t0 with value V0 and stay nonnegative.
    """

    kind: CurveKind = CurveKind.LIFTED_DEFAULT
    times: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind is CurveKind.CUSTOM:
            if self.times is None or self.values is None:
                raise ValueError("custom curve requires times and values")
            t = np.asarray(self.times, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if t.ndim != 1 or t.shape != v.shape or t.size < 2:
                raise ValueError("curve table must be two 1-d arrays of equal length >= 2")
            if np.any(np.diff(t) <= 0):
                raise ValueError("curve times must be strictly increasing")
            if np.any(v < 0):
                raise ValueError("curve values must be nonnegative")
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", v)
        elif self.times is not None or self.values is not None:
            raise ValueError("tabulated data only applies to CUSTOM curves")

    @classmethod
    def lifted_default(cls) -> "InitialCurve":
        return cls(CurveKind.LIFTED_DEFAULT)

    @classmethod
    def heston_linear(cls) -> "InitialCurve":
        return cls(CurveKind.HESTON_LINEAR)

    @classmethod
    def custom(cls, times, values) -> "InitialCurve":
        return cls(CurveKind.CUSTOM, np.asarray(times, float), np.asarray(values, float))


@dataclass(frozen=True)
class ModelParams:
    """Lifted Heston parameter set.

    Attributes
    ----------
    n_states : int
        Number of variance factors N >= 1.
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
    omega_scale /= gamma_fn(hurst + 0.5) * gamma_fn(1.5 - hurst)
    omega = omega_scale * r_n ** (a * n)
    x_scale = (a / (1.0 + a)) * (r_n ** (1.0 + a) - 1.0) / (r_n**a - 1.0)
    x = x_scale * r_n ** (n - 1.0 - big_n / 2.0)
    return omega, x


def _custom_value(curve: InitialCurve, t):
    t = np.asarray(t, dtype=float)
    times, values = curve.times, curve.values
    if np.any(t < times[0] - 1e-12) or np.any(t > times[-1] + 1e-12):
        raise ValueError("time outside the tabulated curve range")
    return np.interp(t, times, values)


def g0(t, params: ModelParams, curve: InitialCurve):
    """Initial variance curve evaluated at ``t`` (scalar or array)."""
    t = np.asarray(t, dtype=float)
    tau = t - params.t0
    if np.any(tau < -1e-12):
        raise ValueError("g0 evaluated before t0")
    tau = np.maximum(tau, 0.0)
    if curve.kind is CurveKind.HESTON_LINEAR:
        out = params.v0 + params.lam * params.theta * tau
    elif curve.kind is CurveKind.CUSTOM:
        out = _custom_value(curve, t)
    else:
        x = params.x
        pos = x > 0.0
        # -expm1(-x tau)/x is the x > 0 branch of (1 - exp(-x tau))/x; the
        # x = 0 limit is tau itself.
        terms = np.empty(x.shape + tau.shape)
        xp = x[pos]
        terms[pos] = -np.expm1(-np.multiply.outer(xp, tau)) / xp.reshape((-1,) + (1,) * tau.ndim)
        terms[~pos] = tau
        out = params.v0 + params.lam * params.theta * np.tensordot(params.omega, terms, axes=(0, 0))
    return float(out) if out.ndim == 0 else out


def g0_derivative(t, params: ModelParams, curve: InitialCurve):
    """Right derivative dg0/dt at ``t``."""
    t = np.asarray(t, dtype=float)
    tau = np.maximum(t - params.t0, 0.0)
    if curve.kind is CurveKind.HESTON_LINEAR:
        out = params.lam * params.theta * np.ones_like(tau)
    elif curve.kind is CurveKind.CUSTOM:
        times, values = curve.times, curve.values
        slopes = np.diff(values) / np.diff(times)
        idx = np.clip(np.searchsorted(times, t, side="right") - 1, 0, slopes.size - 1)
        out = slopes[idx]
    else:
        decay = np.exp(-np.multiply.outer(params.x, tau))
        out = params.lam * params.theta * np.tensordot(params.omega, decay, axes=(0, 0))
    return float(out) if out.ndim == 0 else out


def _custom_integral(curve: InitialCurve, s: float, t: float) -> float:
    # linear interpolation integrates exactly by the trapezoid rule on the
    # knots falling inside [s, t] plus the two boundary values
    times, _ = curve.times, curve.values
    inner = times[(times > s) & (times < t)]
    grid = np.concatenate(([s], inner, [t]))
    vals = _custom_value(curve, grid)
    return float(_trapz(vals, grid))


def g0_integral(s: float, t: float, params: ModelParams, curve: InitialCurve) -> float:
    """Integral of g0 over [s, t] (closed form where available)."""
    if t < s:
        raise ValueError("need s <= t")
    if s < params.t0 - 1e-12:
        raise ValueError("integral starts before t0")
    if t == s:
        return 0.0
    ts, tt = s - params.t0, t - params.t0
    if curve.kind is CurveKind.HESTON_LINEAR:
        return params.v0 * (t - s) + 0.5 * params.lam * params.theta * (tt**2 - ts**2)
    if curve.kind is CurveKind.CUSTOM:
        return _custom_integral(curve, s, t)
    x, omega = params.x, params.omega
    total = params.v0 * (t - s)
    pos = x > 0.0
    xp = x[pos]
    # integral of (1 - exp(-x tau))/x over tau in [ts, tt]
    int_pos = ((t - s) + np.exp(-xp * ts) * np.expm1(-xp * (t - s)) / xp) / xp
    total += params.lam * params.theta * float(np.dot(omega[pos], int_pos))
    n_zero = int(np.count_nonzero(~pos))
    if n_zero:
        total += params.lam * params.theta * float(np.sum(omega[~pos])) * 0.5 * (tt**2 - ts**2)
    return total


def _mean_variance_fine(params: ModelParams, curve: InitialCurve, t_end: float, m: int):
    """Mean variance on a uniform grid of m intervals over [t0, t_end].

    Discretizes

        E[V_T] = g0(T) - lam * sum_n omega_n *
                 int_{t0}^{T} exp(-x_n (T - u)) E[V_u] du

    by product integration: on each substep the unknown is taken linear
    and the exponential kernel integrated exactly, so stiffness in x_n
    costs no accuracy.  The update is implicit in the endpoint value and
    solved in closed form.
    """
    h = (t_end - params.t0) / m
    grid = params.t0 + h * np.arange(m + 1)
    g = np.asarray(g0(grid, params, curve), dtype=float)
    if params.lam == 0.0:
        return grid, g.copy()
    x, omega = params.x, params.omega
    decay = np.exp(-x * h)
    # weights of the exact kernel integral against a linear interpolant:
    # int_0^h exp(-x (h - u)) (f0 (1 - u/h) + f1 u/h) du = w0 f0 + w1 f1
    w_total = np.where(x > 0, -np.expm1(-x * h) / np.where(x > 0, x, 1.0), h)
    w1 = np.where(x > 0, (1.0 - w_total / h) / np.where(x > 0, x, 1.0), 0.5 * h)
    w0 = w_total - w1
    mean_v = np.empty(m + 1)
    mean_v[0] = g[0]
    hist = np.zeros_like(x)
    denom = 1.0 + params.lam * float(np.dot(omega, w1))
    for j in range(1, m + 1):
        hist = decay * hist + w0 * mean_v[j - 1]
        mean_v[j] = (g[j] - params.lam * float(np.dot(omega, hist))) / denom
        hist += w1 * mean_v[j]
    return grid, mean_v


def expected_variance_curve(
    grid,
    params: ModelParams,
    curve: InitialCurve,
    tol: float = 1e-8,
    max_refinements: int = 12,
):
    """E[V_t] on the requested grid, solved from the mean Volterra equation.

    Refines an internal uniform discretization (doubling each pass) until
    two successive refinements agree to ``tol`` in sup-norm on the
    requested grid points.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if np.any(grid < params.t0 - 1e-12):
        raise ValueError("grid precedes t0")
    t_end = float(grid.max())
    if t_end == params.t0:
        return np.full(grid.shape, params.v0)
    m = 64
    fine_t, fine_v = _mean_variance_fine(params, curve, t_end, m)
    prev = np.interp(grid, fine_t, fine_v)
    for _ in range(max_refinements):
        m *= 2
        fine_t, fine_v = _mean_variance_fine(params, curve, t_end, m)
        cur = np.interp(grid, fine_t, fine_v)
        if np.max(np.abs(cur - prev)) < tol:
            return cur
        prev = cur
    raise RuntimeError("mean variance solve did not reach tolerance %g" % tol)


def expected_integrated_variance(
    t_end: float,
    params: ModelParams,
    curve: InitialCurve,
    tol: float = 1e-8,
    max_refinements: int = 12,
) -> float:
    """E[X_{t0,t_end}] = int_{t0}^{t_end} E[V_u] du, same refinement policy."""
    if t_end < params.t0:
        raise ValueError("t_end precedes t0")
    if t_end == params.t0:
        return 0.0
    m = 64
    fine_t, fine_v = _mean_variance_fine(params, curve, t_end, m)
    prev = float(_trapz(fine_v, fine_t))
    for _ in range(max_refinements):
        m *= 2
        fine_t, fine_v = _mean_variance_fine(params, curve, t_end, m)
        cur = float(_trapz(fine_v, fine_t))
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise RuntimeError("integrated mean variance did not reach tolerance %g" % tol)


def heston_mean_variance(t: float, lam: float, theta: float, v0: float) -> float:
    """Classical Heston E[V_t] = (v0 - theta) exp(-lam t) + theta."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return (v0 - theta) * math.exp(-lam * t) + theta


def heston_mean_integrated_variance(t: float, lam: float, theta: float, v0: float) -> float:
    """Classical Heston E[X_{0,t}]; the lam -> 0 limit is v0 * t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if lam == 0.0:
        return v0 * t
    return -(v0 - theta) * math.exp(-lam * t) / lam + theta * t + (v0 - theta) / lam
